"""Shared fixtures and references for the test suite.

The Spark session fixture lives in the repo-root conftest; here we add
small deterministic datasets and graph factories so individual tests stay
fast and reproducible, and the slow, obviously-correct Python references
(route rescoring, the textbook search, the skyline set) that the engines
are checked against.
"""
from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass, field
from typing import Any

import numpy as np
import pytest

from repro.core.dominance import _EPS, score_key
from repro.core.query import QueryContext
from repro.core.scores import semantic_score
from repro.graphs.categories import CategoryForest, foursquare_lite_forest, generated_forest
from repro.graphs.dijkstra import settle_to, vertex_mask
from repro.graphs.generator import dataset, road_network

INF = float("inf")


def children(forest, c: int) -> list[int]:
    """The child categories of ``c``, in id order."""
    return [i for i, p in enumerate(forest.parent) if p == c]


def leaves_of_tree(forest, t: int) -> list[int]:
    """The leaf categories of category tree ``t``, in id order."""
    return [c for c in forest.leaves() if forest.tree_id[c] == t]


def depth2_forest(n_trees: int, n_leaves: int) -> CategoryForest:
    """Root + leaves forest (depth 2).

    Under depth-2 trees the paper's naive super-category-sequence baseline is
    provably exact (see DESIGN.md §deviations-4), so tests compare the
    baselines against BSSR on these forests.
    """
    return generated_forest(n_trees, fanout=n_leaves, height=2)


def route_scores(graph, forest, v_q: int, seq_cats, route, *, destination=None) -> tuple[float, float]:
    """Recompute ``(l(R), s(R))`` (Def. 3.5) from scratch, one leg search
    at a time — the slow, obviously-correct scoring the engines' answers are
    checked against.  Similarities come from ``QueryContext``, so a §6
    multi-category PoI scores through its best category, as in every
    engine.  With a §6 ``destination``, the length includes the leg from the
    last PoI to it."""
    if len(route) != len(seq_cats):
        raise ValueError("route and category sequence sizes differ (Def. 3.4-i)")
    ctx = QueryContext(graph, forest, v_q, list(seq_cats), destination)
    total = 0.0
    prev = v_q
    prod = 1.0
    for pos, poi in enumerate(route):
        found = settle_to(graph, (prev,), vertex_mask(graph.n_vertices, (poi,)), limit=1)
        total += found[0][0] if found else float("inf")
        prod *= ctx.sim_at(pos, poi)
        prev = poi
    if ctx.dest_dist is not None:
        total += float(ctx.dest_dist[prev])
    return total, semantic_score(prod)


def is_sequenced_route(graph, forest, seq_cats, route) -> bool:
    """Def. 3.4: right size, per-position semantic match (through any of a
    PoI's categories, as ``QueryContext`` defines it), all PoIs distinct."""
    if len(route) != len(seq_cats):
        return False
    if len(set(route)) != len(route):
        return False
    # Matching does not depend on the start point; any vertex serves as v_q.
    ctx = QueryContext(graph, forest, 0, list(seq_cats))
    return all(ctx.sim_at(pos, poi) > 0 for pos, poi in enumerate(route))


@pytest.fixture(scope="session")
def tiny_tokyo():
    """~290-vertex tokyo-lite slice — brute-forceable, still road-shaped."""
    return dataset("tokyo-lite", scale=0.04, seed=3)


@pytest.fixture(scope="session")
def tiny_cal():
    """Clustered-PoI preset slice (trees generated, height 3)."""
    return dataset("cal-lite", scale=0.02, seed=5)


@pytest.fixture(scope="session")
def depth2_world():
    """Small graph over a depth-2 forest, where the naive baseline is
    provably exact (DESIGN.md §deviations-4)."""
    forest = depth2_forest(6, 5)
    graph = road_network(n_road=150, n_edges_road=190, n_pois=80, forest=forest, seed=9)
    return graph, forest


@pytest.fixture(scope="session")
def random_world_factory():
    """Factory for randomized small worlds: (graph, forest, rng)."""

    def make(seed: int, *, n_road: int = 120, n_pois: int = 70, depth2: bool = False):
        forest = depth2_forest(6, 5) if depth2 else foursquare_lite_forest()
        g = road_network(
            n_road=n_road,
            n_edges_road=int(n_road * 1.3),
            n_pois=n_pois,
            forest=forest,
            seed=seed,
        )
        return g, forest, np.random.default_rng(seed)

    return make


def random_query(graph, forest, rng, size: int, *, distinct_trees: bool = True):
    """A random query over popular categories (test-local helper)."""
    from repro.graphs.generator import popular_leaf_categories

    by_tree = popular_leaf_categories(graph, forest, min_pois=2)
    trees = [t for t in by_tree if by_tree[t]]
    if len(trees) < size:
        pytest.skip("not enough populated trees for this size")
    if distinct_trees:
        ts = rng.choice(trees, size=size, replace=False)
        cats = [int(rng.choice(by_tree[int(t)])) for t in ts]
    else:
        ts = rng.choice(trees, size=size, replace=True)
        cats = [int(rng.choice(by_tree[int(t)])) for t in ts]
    v_q = int(rng.integers(0, graph.n_road))
    return v_q, cats


def matches(ctx, pos: int) -> list[int]:
    """The vertices matching position ``pos`` of a ``QueryContext``
    (``sim > 0``), in vertex order."""
    return np.flatnonzero(ctx.sim[pos]).tolist()


def perfect_matches(ctx, pos: int) -> list[int]:
    """The perfect matches (``sim == 1``) of position ``pos``, in vertex order."""
    return np.flatnonzero(ctx.sim[pos] == 1.0).tolist()


def skysr_spark_scores(df) -> set[tuple[float, float]]:
    """The ``(length, semantic)`` score pairs of a ``skysr_spark`` answer,
    collected and rounded like ``BSSRResult.score_set``."""
    return {score_key(r["length"], r["semantic"]) for r in df.collect()}


def lca(forest, c1: int, c2: int) -> int:
    """Deepest common ancestor of two categories, or -1 across trees, by
    walking ``c1``'s ancestor chain upwards."""
    if forest.tree_id[c1] != forest.tree_id[c2]:
        return -1
    a2 = set(forest.ancestors(c2))
    for a in forest.ancestors(c1):  # walks upward, so first hit is deepest
        if a in a2:
            return a
    return -1


def wu_palmer(forest, c1: int, c2: int) -> float:
    """Wu–Palmer similarity (Eq. 6) of two categories from :func:`lca`: 0
    across trees, 1 on equality.  The tests' reference for
    ``CategoryForest.sim_row``."""
    if c1 == c2:
        return 1.0
    m = lca(forest, c1, c2)
    if m == -1:
        return 0.0
    return 2.0 * forest.depth[m] / (forest.depth[c1] + forest.depth[c2])


def adjacency(graph) -> list[list[tuple[int, float]]]:
    """``adj[u]`` = ``[(v, w), ...]``: the rows of ``graph.csr()`` as
    Python ints and floats, in CSR order."""
    indptr, indices, weights = graph.csr()
    idx, wts, ptr = indices.tolist(), weights.tolist(), indptr.tolist()
    return [list(zip(idx[a:b], wts[a:b])) for a, b in zip(ptr, ptr[1:])]


def poi_ids(graph) -> np.ndarray:
    """The PoI vertices of ``graph``, in id order."""
    return np.flatnonzero(graph.cat_of >= 0)


def pois_of_tree(graph, forest, tree: int) -> np.ndarray:
    """The PoI vertices whose primary category lies in category tree ``tree``."""
    tree_arr = np.asarray(forest.tree_id, dtype=np.int64)
    mask = graph.cat_of >= 0
    out = np.zeros(graph.n_vertices, dtype=bool)
    out[mask] = tree_arr[graph.cat_of[mask]] == tree
    return np.nonzero(out)[0]


def settle(graph, sources, *, through=None):
    """Textbook multi-source Dijkstra: yield ``(dist, vertex, parent)`` for
    each vertex in settle order, every vertex through the heap.  The tests'
    reference for both entry points of ``repro.graphs.dijkstra``.

    Sources enter at distance 0 with parent ``-1``; ``parent`` is the vertex
    whose relaxation gave ``dist``.  Each step settles the smallest
    ``(dist, vertex)`` among the vertices discovered so far.  With positive
    weights every vertex at a tied distance is discovered before the first
    of them settles, so ties settle in vertex-id order; a zero-weight edge
    can discover a tied vertex later, which then settles after larger ids
    (edges ``(0,5,1), (5,2,0), (0,3,1)`` from 0 settle 0, 3, 5, 2).  A
    vertex ``u`` with ``through[u]`` false is yielded but its edges are not
    relaxed.  Leaving the loop ends the search before the last yielded
    vertex is relaxed.
    """
    adj = adjacency(graph)
    dist: dict[int, float] = {}
    heap: list[tuple[float, int, int]] = []
    for s in sources:
        s = int(s)
        if s not in dist:
            dist[s] = 0.0
            heap.append((0.0, s, -1))
    heapq.heapify(heap)
    while heap:
        d, u, p = heapq.heappop(heap)
        if d > dist[u]:
            continue  # superseded by a shorter entry already settled
        yield d, u, p
        if through is not None and not through[u]:
            continue
        for v, w in adj[u]:
            nd = d + w
            if nd < dist.get(v, float("inf")):
                dist[v] = nd
                heapq.heappush(heap, (nd, v, u))


def multi_source_to_targets(graph, sources, targets) -> float:
    """Minimum distance from any source to any target (Lemma 5.9): the first
    target that :func:`settle` settles from all sources at once; ``inf``
    when unreachable or either set is empty.  The tests' reference for the
    leg searches of ``repro.core.bounds``."""
    tgt = {int(t) for t in targets}
    for d, u, _p in settle(graph, sources):
        if u in tgt:
            return d
    return float("inf")


def floyd_warshall_reference(graph) -> np.ndarray:
    """O(V^3) all-pairs reference: an independent implementation that
    validates the Dijkstra variants on tiny graphs."""
    n = graph.n_vertices
    d = np.full((n, n), float("inf"))
    np.fill_diagonal(d, 0.0)
    for u, v, w in zip(graph.edges_u, graph.edges_v, graph.edges_w):
        d[u, v] = min(d[u, v], w)
        if not graph.directed:
            d[v, u] = min(d[v, u], w)
    for k in range(n):
        d = np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :])
    return d


@dataclass
class ReferenceSkylineSet:
    """Running minimal set ``S`` with Eq. (3) threshold queries, in Python:
    the tests' reference for ``repro.core.dominance.SkylineSet``, whose
    frontier is the compiled kernel's.

    Invariant: ``entries`` is sorted by semantic score ascending with length
    strictly decreasing — a proper 2-D skyline frontier.
    """

    entries: list[tuple[float, float, Any]] = field(default_factory=list)  # (s, l, payload)

    def __len__(self) -> int:
        return len(self.entries)

    def routes(self) -> list[tuple[float, float, Any]]:
        """Contents as ``(l, s, payload)`` rows."""
        return [(l, s, p) for (s, l, p) in self.entries]

    def update(self, l: float, s: float, payload: Any) -> bool:
        """``S.update(R)`` — insert unless dominated/equivalent; evict any
        entries the newcomer dominates.  Returns True when inserted.  An
        infinite ``l`` is no route (its §6 destination leg is unreachable)
        and is never inserted."""
        if l == INF:
            return False
        i = bisect.bisect_right(self.entries, (s + _EPS, INF, None))
        # Frontier lengths decrease with s, so the tightest competitor with
        # s' <= s is the one just before the insertion point.
        if i > 0 and self.entries[i - 1][1] <= l + _EPS:
            return False  # dominated or equivalent
        start = i
        # An equal-s entry sits just before i; if it survived the check above
        # its length is larger, so the newcomer dominates it (Def. 4.1-i).
        while start > 0 and self.entries[start - 1][0] >= s - _EPS and self.entries[start - 1][1] >= l - _EPS:
            start -= 1
        j = i
        while j < len(self.entries) and self.entries[j][1] >= l - _EPS:
            j += 1  # these have s' >= s and l' >= l: dominated by newcomer
        self.entries[start:j] = [(s, l, payload)]
        return True

    def threshold(self, min_semantic: float) -> float:
        """Eq. (3): min ``l(R')`` over ``R' in S`` with ``s(R') <= s_(R)``.

        A route whose length reaches this value is dominated-or-equivalent
        however it is completed (Lemma 5.3), so it can be pruned.
        """
        i = bisect.bisect_right(self.entries, (min_semantic + _EPS, INF, None))
        if i == 0:
            return INF
        return self.entries[i - 1][1]
