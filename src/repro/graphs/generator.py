"""Synthetic road networks with embedded PoI vertices.

The paper evaluates on three maps (Table 5): Tokyo and NYC (OSM roads +
Foursquare PoIs embedded on the closest edge) and California (roads + PoIs
from the Utah spatial dataset).  None of those are shippable offline, so this
module generates deterministic synthetic equivalents:

* road vertices are a jittered grid in the unit-ish plane, connected by a
  random spanning tree plus short extra edges up to a target edge count —
  a planar-ish sparse graph with road-network-like large diameter;
* PoIs are *embedded by splitting road edges* exactly like the paper embeds
  Foursquare PoIs: each PoI becomes a graph vertex with two incident edges
  partitioning the split edge's weight;
* edge weights are Euclidean lengths, so "weight sum" search-space metrics
  (Table 7) are in distance units comparable in spirit to the paper's
  lat/long-derived weights;
* PoI placement is uniform (Tokyo/NYC) or clustered (Cal — the paper notes
  Cal's PoIs are "relatively concentrated in a small area", which is what
  makes its possible-minimum distances small in §7.3);
* PoI categories are Zipf-skewed over leaf categories ("the number of PoI
  vertices associated with each category is significantly biased").

Presets ``tokyo-lite`` / ``nyc-lite`` / ``cal-lite`` track Table 5's
|V|,|P|,|E| at 1/100 scale (Cal: 1/10).  All generation is deterministic in
``seed``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.graphs.categories import (
    CategoryForest,
    foursquare_lite_forest,
    generated_forest,
)


@dataclass
class Graph:
    """Undirected weighted graph with PoI vertices, in CSR form.

    Vertices ``0..n_road-1`` are road vertices; ``n_road..n_vertices-1`` are
    PoI vertices created by edge splitting.  ``cat_of[v]`` is the category of
    PoI vertex ``v`` or ``-1`` for road vertices.
    """

    n_vertices: int
    n_road: int
    edges_u: np.ndarray  # one row per edge (undirected unless ``directed``)
    edges_v: np.ndarray
    edges_w: np.ndarray
    xy: np.ndarray  # (n_vertices, 2) coordinates
    cat_of: np.ndarray  # (n_vertices,) int64, -1 for road vertices
    directed: bool = False  # §6 variant: edges one-way u -> v
    extra_cats: dict[int, list[int]] = field(default_factory=dict)  # §6 multi-category PoIs
    _csr: tuple[np.ndarray, np.ndarray, np.ndarray] | None = field(
        default=None, repr=False
    )
    # The shortest-path kernel's search buffers, which repro.graphs.dijkstra
    # builds on the graph's first search.  They are left out of pickles
    # (Spark broadcasts graphs) and are freed with the graph.
    _workspace: object = field(default=None, init=False, repr=False, compare=False)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_workspace", None)
        return state

    # ------------------------------------------------------------- derived
    @property
    def n_pois(self) -> int:
        return int((self.cat_of >= 0).sum())

    @property
    def n_edges(self) -> int:
        return len(self.edges_u)

    @cached_property
    def reverse(self) -> Graph:
        """The graph with every edge turned around, built once: a search on
        it gives distances *to* its source.  An undirected graph is its own
        reverse."""
        if not self.directed:
            return self
        return Graph(
            self.n_vertices,
            self.n_road,
            self.edges_v,
            self.edges_u,
            self.edges_w,
            self.xy,
            self.cat_of,
            directed=True,
            extra_cats=self.extra_cats,
        )

    def pois_of_category(self, c: int) -> np.ndarray:
        return np.nonzero(self.cat_of == c)[0]

    def _build_csr(self, u: np.ndarray, v: np.ndarray, w: np.ndarray):
        order = np.argsort(u, kind="stable")
        u, v, w = u[order], v[order], w[order]
        indptr = np.zeros(self.n_vertices + 1, dtype=np.int64)
        np.add.at(indptr, u + 1, 1)
        np.cumsum(indptr, out=indptr)
        return (indptr, v.astype(np.int64), w.astype(np.float64))

    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(indptr, indices, weights) out-adjacency, built once per graph:
        the arrays the shortest-path kernel reads.

        Undirected graphs expand each edge both ways; directed ones keep
        the stored orientation only (§6 directed-graph variant).
        """
        if self._csr is None:
            if self.directed:
                self._csr = self._build_csr(self.edges_u, self.edges_v, self.edges_w)
            else:
                u = np.concatenate([self.edges_u, self.edges_v])
                v = np.concatenate([self.edges_v, self.edges_u])
                w = np.concatenate([self.edges_w, self.edges_w])
                self._csr = self._build_csr(u, v, w)
        return self._csr


# ------------------------------------------------------------------ builder
def road_network(
    *,
    n_road: int,
    n_edges_road: int,
    n_pois: int,
    forest: CategoryForest,
    seed: int = 0,
    poi_clusters: int = 0,
    category_zipf: float = 0.9,
) -> Graph:
    """Generate a connected road network and embed ``n_pois`` PoIs.

    ``n_edges_road`` is the pre-embedding road edge target (must be >=
    ``n_road - 1``); each embedded PoI adds one net edge, so the final graph
    has ``n_edges_road + n_pois`` edges and ``n_road + n_pois`` vertices.
    ``poi_clusters > 0`` concentrates PoIs around that many cluster centres
    (the Cal regime); 0 spreads them uniformly over edges.
    """
    if n_edges_road < n_road - 1:
        raise ValueError("n_edges_road must be at least n_road - 1 for connectivity")
    g = np.random.default_rng(seed)
    side = int(np.ceil(np.sqrt(n_road)))
    # Jittered grid positions: road-network-like planarity and large diameter.
    idx = np.arange(n_road)
    gx, gy = (idx % side).astype(float), (idx // side).astype(float)
    xy = np.stack([gx, gy], axis=1) + g.uniform(-0.35, 0.35, (n_road, 2))
    xy /= side  # normalize into ~unit square so weights are degree-like

    # Candidate edges: grid 4-neighbours plus diagonals, in row-major order
    # of their first endpoint, then randomly shuffled.
    r, c = np.divmod(idx, side)
    r2, c2 = r[:, None] + np.array([0, 1, 1, 1]), c[:, None] + np.array([1, 0, 1, -1])
    u2 = r2 * side + c2
    ok = (c2 >= 0) & (c2 < side) & (r2 < side) & (u2 < n_road)
    cand = np.stack([np.broadcast_to(idx[:, None], ok.shape)[ok], u2[ok]], axis=1)
    cand = cand[g.permutation(len(cand))]  # the draws of g.shuffle(cand, axis=0)

    # Kruskal-style: spanning tree first (guarantees connectivity), then top
    # up with the remaining shortest candidates to hit the edge target.
    parent = list(range(n_road))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    in_tree = np.zeros(len(cand), dtype=bool)
    for i, (u, v) in enumerate(zip(*cand.T.tolist())):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            in_tree[i] = True
    tree_edges, extra_edges = cand[in_tree], cand[~in_tree]
    if len(tree_edges) != n_road - 1:
        raise RuntimeError("grid candidates failed to span the graph")
    n_extra = min(len(extra_edges), n_edges_road - len(tree_edges))
    if n_extra > 0:
        lengths = np.linalg.norm(xy[extra_edges[:, 0]] - xy[extra_edges[:, 1]], axis=1)
        keep = np.argsort(lengths)[:n_extra]
        edges = np.concatenate([tree_edges, extra_edges[keep]])
    else:
        edges = tree_edges

    eu, ev = edges[:, 0].copy(), edges[:, 1].copy()
    ew = np.linalg.norm(xy[eu] - xy[ev], axis=1)

    # ---------------------------------------------------- PoI embedding
    # Each PoI splits an existing edge (u, v, w) into (u, p, w*f) and
    # (p, v, w*(1-f)); later PoIs may split the freshly created halves, which
    # naturally strings several PoIs along one original road segment.
    n_total = n_road + n_pois
    eu = np.concatenate([eu, np.zeros(n_pois, dtype=np.int64)])
    ev = np.concatenate([ev, np.zeros(n_pois, dtype=np.int64)])
    ew = np.concatenate([ew, np.zeros(n_pois)])
    xy_all = np.concatenate([xy, np.zeros((n_pois, 2))])
    n_edges_cur = len(edges)

    if poi_clusters > 0:
        # The paper's Cal PoIs are "relatively concentrated in a small area"
        # (§7.3): put all cluster centres inside one small disk so the PoI
        # spread is far below the road-vertex spread.
        anchor = xy[int(g.integers(0, n_road))]
        centres = np.clip(anchor + g.normal(0, 0.06, (poi_clusters, 2)), 0.0, 1.0)

    for k in range(n_pois):
        p = n_road + k
        if poi_clusters > 0:
            centre = centres[k % poi_clusters]
            # Sample an edge near the cluster centre: closest of many random
            # probes, which concentrates PoIs without O(E) re-weighting.
            probe = g.integers(0, n_edges_cur, 160)
            mid = (xy_all[eu[probe]] + xy_all[ev[probe]]) / 2
            d2 = ((mid - centre) ** 2).sum(axis=1)
            e = int(probe[np.argmin(d2)])
        else:
            e = int(g.integers(0, n_edges_cur))
        f = float(g.uniform(0.15, 0.85))
        u, v, w = int(eu[e]), int(ev[e]), float(ew[e])
        xy_all[p] = xy_all[u] + f * (xy_all[v] - xy_all[u])
        # Reuse slot e for (u, p); append (p, v).
        ev[e] = p
        ew[e] = w * f
        eu[n_edges_cur] = p
        ev[n_edges_cur] = v
        ew[n_edges_cur] = w * (1 - f)
        n_edges_cur += 1

    # ------------------------------------------------- category assignment
    leaves = np.array(forest.leaves(), dtype=np.int64)
    ranks = np.arange(1, len(leaves) + 1, dtype=np.float64)
    weights = 1.0 / ranks**category_zipf
    weights /= weights.sum()
    leaf_order = g.permutation(len(leaves))
    cats = leaves[leaf_order][g.choice(len(leaves), size=n_pois, p=weights)]
    cat_of = np.full(n_total, -1, dtype=np.int64)
    cat_of[n_road:] = cats

    return Graph(
        n_vertices=n_total,
        n_road=n_road,
        edges_u=eu[:n_edges_cur].astype(np.int64),
        edges_v=ev[:n_edges_cur].astype(np.int64),
        edges_w=ew[:n_edges_cur].astype(np.float64),
        xy=xy_all,
        cat_of=cat_of,
    )


def graph_from_edges(
    n_vertices: int,
    edges: list[tuple[int, int, float]],
    poi_cats: dict[int, int],
    *,
    n_road: int | None = None,
    directed: bool = False,
    extra_cats: dict[int, list[int]] | None = None,
) -> Graph:
    """Hand-built graph for tests and worked examples.

    ``edges`` are ``(u, v, w)`` (undirected unless ``directed``);
    ``poi_cats`` maps PoI vertex ids to their primary category;
    ``extra_cats`` adds further categories per PoI (§6 multi-category
    variant).  Raises ``ValueError`` for a negative or non-finite weight
    and for an edge endpoint or PoI id outside ``[0, n_vertices)``; zero
    weights are legal.
    """
    eu = np.array([e[0] for e in edges], dtype=np.int64)
    ev = np.array([e[1] for e in edges], dtype=np.int64)
    ew = np.array([e[2] for e in edges], dtype=np.float64)
    bad_w = ~np.isfinite(ew) | (ew < 0)
    if bad_w.any():
        raise ValueError(f"edge {edges[int(np.argmax(bad_w))]} needs a finite weight >= 0")
    for u, v, _w in edges:
        if not (0 <= u < n_vertices and 0 <= v < n_vertices):
            raise ValueError(f"edge ({u}, {v}) has an endpoint outside [0, {n_vertices})")
    for p in [*poi_cats, *(extra_cats or {})]:
        if not 0 <= p < n_vertices:
            raise ValueError(f"PoI id {p} is outside [0, {n_vertices})")
    cat_of = np.full(n_vertices, -1, dtype=np.int64)
    for p, c in poi_cats.items():
        cat_of[p] = c
    return Graph(
        n_vertices=n_vertices,
        n_road=n_road if n_road is not None else n_vertices - len(poi_cats),
        edges_u=eu,
        edges_v=ev,
        edges_w=ew,
        xy=np.zeros((n_vertices, 2)),
        cat_of=cat_of,
        directed=directed,
        extra_cats=extra_cats or {},
    )


# ------------------------------------------------------------------ presets
@dataclass
class Dataset:
    """A named (graph, forest) pair — one evaluation map of Table 5."""

    name: str
    graph: Graph
    forest: CategoryForest


# (n_road, n_edges_road, n_pois, clustered) at reduced scale; see DESIGN.md.
_PRESETS: dict[str, tuple[int, int, int, int]] = {
    # paper Tokyo: |V|=401,893  |P|=174,421  |E|=499,397   (/100)
    "tokyo-lite": (4019, 4700, 1744, 0),
    # paper NYC:   |V|=1,150,744 |P|=451,051 |E|=1,722,350 (/100)
    "nyc-lite": (11507, 15800, 4511, 0),
    # paper Cal:   |V|=21,048   |P|=87,365  |E|=108,863    (/10, clustered)
    "cal-lite": (2105, 2160, 8737, 12),
}

PAPER_TABLE5 = {
    "tokyo-lite": ("Tokyo", 401_893, 174_421, 499_397),
    "nyc-lite": ("New York city", 1_150_744, 451_051, 1_722_350),
    "cal-lite": ("California", 21_048, 87_365, 108_863),
}


def dataset(name: str, *, seed: int = 7, scale: float = 1.0) -> Dataset:
    """Build a preset dataset; ``scale`` shrinks it further (tests use <1)."""
    if name not in _PRESETS:
        raise KeyError(f"unknown dataset {name!r}; choose from {sorted(_PRESETS)}")
    n_road, n_edges_road, n_pois, clusters = _PRESETS[name]
    n_road = max(16, int(n_road * scale))
    n_pois = max(8, int(n_pois * scale))
    n_edges_road = max(n_road - 1, int(n_edges_road * scale))
    forest = (
        generated_forest(49, fanout=3, height=3)
        if name == "cal-lite"
        else foursquare_lite_forest()
    )
    graph = road_network(
        n_road=n_road,
        n_edges_road=n_edges_road,
        n_pois=n_pois,
        forest=forest,
        seed=seed,
        poi_clusters=clusters,
    )
    return Dataset(name=name, graph=graph, forest=forest)


def popular_leaf_categories(graph: Graph, forest: CategoryForest, *, min_pois: int = 3) -> dict[int, list[int]]:
    """Leaf categories with at least ``min_pois`` PoIs, grouped by tree.

    The paper selects query categories "randomly from the leaf nodes in the
    category trees ... only categories that have a large number of PoI
    vertices" and requires the chosen categories to come from distinct trees.
    """
    counts: dict[int, int] = {}
    for c in graph.cat_of[graph.cat_of >= 0]:
        counts[int(c)] = counts.get(int(c), 0) + 1
    by_tree: dict[int, list[int]] = {}
    leaf_set = set(forest.leaves())
    for c, n in sorted(counts.items(), key=lambda kv: -kv[1]):
        if n >= min_pois and c in leaf_set:
            by_tree.setdefault(forest.tree_id[c], []).append(c)
    return by_tree
