"""Local shortest-path primitives over :class:`repro.graphs.generator.Graph`.

*Settle order* is the order of textbook Dijkstra with a binary heap of
``(dist, vertex)``: each step settles the smallest pair among the vertices
discovered so far, and a vertex's parent is the first settled vertex whose
relaxation gave its final distance.  Every vertex-graph search in the
program runs on one of two kernels that reproduce it:

* :func:`settle_below` — the whole ball below a distance budget, from one
  source, with the Lemma 5.5 ``through`` rule and the stop value.  It
  serves the budgeted searches that need every distance in the ball but no
  order: BSSR's modified Dijkstra, the Algorithm 4 range filter and the
  ``mapInPandas`` engine of ``repro.graphs.sssp_spark``.
* :func:`settle_to` — the target vertices only, in settle order, from any
  number of sources.  It serves the searches that want the next *matching*
  PoIs: NNinit's per-position searches, the Lemma 5.9 leg minima of
  ``repro.core.bounds``, the PNE neighbour lists of
  ``repro.baselines.osr`` and route scoring.

Both hold only the core vertices of ``Graph.chains()`` in their heap (plus,
for :func:`settle_to`, the targets found so far); degree-2 chains and
dead-end branches are walked edge by edge with the same stepwise sums, so
every distance is bit-identical to textbook Dijkstra's.  On a graph with a
zero-weight edge every vertex is core, so both run as textbook Dijkstra.

:func:`dijkstra` — one full distance row, from :func:`settle_below` with
no budget, forwards or on ``Graph.reverse`` — serves brute force and the
§6 destination leg.
"""
from __future__ import annotations

import heapq
from collections.abc import Container, Iterable, Iterator, Sequence

import numpy as np

from repro.graphs.generator import Graph

INF = float("inf")


def settle_below(
    graph: Graph,
    source: int,
    budget: float,
    *,
    through: Sequence[bool] | bytes | None = None,
    marks: dict[int, float] | None = None,
) -> tuple[dict[int, float], float, dict[int, float]]:
    """Every vertex closer to ``source`` than ``budget``, in one search.

    Returns ``(dist, radius, passed)``, exactly what a settle-order search
    gives when stopped at its first ``dist >= budget``:

    * ``dist`` — vertex -> distance for every vertex settled below
      ``budget``;
    * ``radius`` — the smallest tentative distance ``>= budget`` (the value
      the search stops at; ``inf`` when the ball is the whole component);
    * ``passed`` — for each settled vertex in ``marks``, the largest mark
      strictly before it on its settle-order shortest path (``0.0`` if
      none).

    A vertex ``u`` with ``through[u]`` false is reached but never walked
    past.  Only core vertices of ``graph.chains()`` enter the heap, so they
    settle in settle order; a vertex inside a chain settles at its
    ``(dist, vertex)`` place, which is where a tie between two relaxers is
    decided.
    """
    if budget <= 0.0:
        return {}, 0.0, {}
    source = int(source)
    marks = marks or {}
    chains, adj = graph.chains(), graph.adjacency()
    dist: dict[int, float] = {source: 0.0}
    via: dict[int, tuple[int, float]] = {source: (-1, 0.0)}  # core vertex -> (parent, passed)
    passed: dict[int, float] = {}
    over: dict[int, float] = {}  # vertex -> smallest tentative distance >= budget
    heap: list[tuple[float, int]] = [(0.0, source)]
    source_walks = graph.walks_from(source)
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        d, u = pop(heap)
        if d > dist[u]:
            continue  # superseded by a shorter entry already settled
        pm = via[u][1]
        if u in marks:
            passed[u] = pm
            m = marks[u]
            if m > pm:
                pm = m
        if through is not None and not through[u]:
            continue
        for steps, end in source_walks if u == source else chains[u]:
            nd, p, qm = d, u, pm
            for v, w in steps:
                nd += w
                if nd >= budget:
                    if nd < over.get(v, INF):
                        over[v] = nd
                    break
                old = dist.get(v, INF)
                if nd >= old:
                    # Reached at least as short from the chain's other side;
                    # on a tie the smaller (dist, vertex) relaxer is the parent.
                    if nd == old and v in marks and len(adj[v]) == 2:
                        a, b = adj[v]
                        q = b[0] if a[0] == p and a[1] == w else a[0]
                        if (dist[p], p) < (dist[q], q):
                            passed[v] = qm
                    break
                dist[v] = nd
                if v in marks:
                    passed[v] = qm
                    m = marks[v]
                    if m > qm:
                        qm = m
                if through is not None and not through[v]:
                    break
                p = v
            else:
                if end is None:
                    continue  # dead end
                v, w = end
                nd += w
                if nd >= budget:
                    if nd < over.get(v, INF):
                        over[v] = nd
                    continue
                old = dist.get(v, INF)
                if nd < old:
                    dist[v] = nd
                    via[v] = (p, qm)
                    push(heap, (nd, v))
                elif nd == old:
                    # A core relaxer q has been popped, so it settled before
                    # p; otherwise the smaller (dist, vertex) one is the parent.
                    # (The source's -1 meets a tie only on an all-core graph.)
                    q = via[v][0]
                    if chains[q] is None and (dist[p], p) < (dist[q], q):
                        via[v] = (p, qm)
    radius = min((r for v, r in over.items() if v not in dist), default=INF)
    return dist, radius, passed


def settle_to(
    graph: Graph,
    sources: Iterable[int],
    targets: Container[int],
) -> Iterator[tuple[float, int]]:
    """Yield ``(dist, vertex)`` for the vertices in ``targets`` only, in
    settle order.

    The output is a settle-order search's, filtered to ``targets``, bit for
    bit; the caller stops the search by leaving the loop.  Only the core
    vertices of
    ``graph.chains()`` and the targets discovered so far enter the heap:
    degree-2 chains and dead-end branches are walked with stepwise sums as
    in :func:`settle_below`, a target on a chain is pushed with its
    tentative distance, and an entry superseded by a shorter one is skipped
    when popped.  A non-core source is walked out of along each of its
    edges before the first pop.
    """
    chains, adj = graph.chains(), graph.adjacency()
    dist: dict[int, float] = dict.fromkeys(map(int, sources), 0.0)
    heap = [(0.0, s) for s in dist if chains[s] is not None or s in targets]
    heapq.heapify(heap)
    pop, push, best = heapq.heappop, heapq.heappush, dist.get
    for s in [s for s in dist if chains[s] is None]:
        for e in adj[s]:
            nd, p = 0.0, s
            while True:
                v, w = e
                nd += w
                if nd >= best(v, INF):
                    break
                dist[v] = nd
                if chains[v] is not None:
                    push(heap, (nd, v))
                    break
                if v in targets:
                    push(heap, (nd, v))
                row = adj[v]
                if len(row) == 1:
                    break  # dead end
                a, b = row
                e = b if a[0] == p and a[1] == w else a  # leave v by its other edge
                p = v
    while heap:
        d, u = pop(heap)
        if d > dist[u]:
            continue  # superseded by a shorter entry already popped
        if u in targets:
            yield d, u
        for steps, end in chains[u] or ():
            nd = d
            for v, w in steps:
                nd += w
                if nd >= best(v, INF):
                    break  # reached at least as short from the chain's other side
                dist[v] = nd
                if v in targets:
                    push(heap, (nd, v))
            else:
                if end is not None:
                    v, w = end
                    nd += w
                    if nd < best(v, INF):
                        dist[v] = nd
                        push(heap, (nd, v))


def dijkstra(graph: Graph, source: int, *, reverse: bool = False) -> np.ndarray:
    """Distances from ``source`` to every vertex; unreached ones stay
    ``inf``.  ``reverse`` gives distances *to* ``source`` instead, from the
    same search on ``graph.reverse``."""
    dist = settle_below(graph.reverse if reverse else graph, source, INF)[0]
    row = np.full(graph.n_vertices, INF)
    row[list(dist)] = list(dist.values())
    return row
