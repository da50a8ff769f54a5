"""Local shortest-path primitives over :class:`repro.graphs.generator.Graph`.

Every vertex-graph search in the program runs on one kernel:

* :func:`settle` — multi-source Dijkstra as a generator of settled
  vertices ``(dist, vertex, parent)`` in nondecreasing distance.  The caller
  decides when to stop (leaving the loop ends the search before the last
  yielded vertex is relaxed) and ``through`` marks the vertices whose edges
  are never relaxed (the Lemma 5.5-ii rule of BSSR's modified Dijkstra).

Two thin consumers cover the other callers:

* :func:`dijkstra` — single-source distances with an optional cutoff or
  early target termination (the workhorse inside OSR baselines, NNinit's
  destination leg and the Algorithm 4 range filter);
* :func:`multi_source_to_targets` — the multi-source multi-destination
  Dijkstra of §5.3.3 (Lemma 5.9): all sources enter one priority queue at
  distance 0 and the first settled destination yields the minimum
  source-set-to-target-set distance.

NNinit, BSSR's modified Dijkstra and the ``mapInPandas`` engine of
``repro.graphs.sssp_spark`` consume :func:`settle` directly.
"""
from __future__ import annotations

import heapq
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.graphs.generator import Graph

INF = float("inf")


def settle(
    graph: Graph,
    sources: Iterable[int],
    *,
    reverse: bool = False,
    through: Sequence[bool] | bytes | None = None,
) -> Iterator[tuple[float, int, int]]:
    """Yield ``(dist, vertex, parent)`` for each vertex in settle order.

    Sources enter at distance 0 with parent ``-1``; ``parent`` is the vertex
    whose relaxation gave ``dist``.  Ties in ``dist`` settle in vertex-id
    order.  A vertex ``u`` with ``through[u]`` false is yielded but its
    edges are not relaxed.  ``reverse`` walks in-edges — distances *to* the
    sources on a directed graph (no-op on undirected ones).
    """
    adj = graph.adjacency(reverse)
    dist: dict[int, float] = {}
    heap: list[tuple[float, int, int]] = []
    for s in sources:
        s = int(s)
        if s not in dist:
            dist[s] = 0.0
            heap.append((0.0, s, -1))
    heapq.heapify(heap)
    pop, push, best = heapq.heappop, heapq.heappush, dist.get
    while heap:
        d, u, p = pop(heap)
        if d > dist[u]:
            continue  # superseded by a shorter entry already settled
        yield d, u, p
        if through is not None and not through[u]:
            continue
        for v, w in adj[u]:
            nd = d + w
            if nd < best(v, INF):
                dist[v] = nd
                push(heap, (nd, v, u))


def dijkstra(
    graph: Graph,
    source: int,
    *,
    cutoff: float = INF,
    targets: Iterable[int] | None = None,
    reverse: bool = False,
) -> np.ndarray:
    """Distances from ``source``; vertices beyond ``cutoff`` stay ``inf``.

    Only settled vertices get a finite distance.  If ``targets`` is given,
    the search stops once every target is settled.  ``reverse`` walks
    in-edges instead — distances *to* ``source`` on a directed graph
    (no-op on undirected ones).
    """
    remaining = set(int(t) for t in targets) if targets is not None else None
    vs: list[int] = []
    ds: list[float] = []
    for d, u, _p in settle(graph, (source,), reverse=reverse):
        if d > cutoff:
            break
        vs.append(u)
        ds.append(d)
        if remaining is not None:
            remaining.discard(u)
            if not remaining:
                break
    dist = np.full(graph.n_vertices, INF)
    dist[vs] = ds
    return dist


def multi_source_to_targets(
    graph: Graph,
    sources: Iterable[int],
    targets: Iterable[int],
) -> float:
    """Minimum distance from any source to any target (Lemma 5.9).

    All sources are seeded at distance 0 in one queue; by the standard
    Dijkstra invariant the first settled target is at the global minimum
    source-to-target distance.  Returns ``inf`` when unreachable or either
    set is empty.
    """
    tgt = set(int(t) for t in targets)
    if not tgt:
        return INF
    for d, u, _p in settle(graph, sources):
        if u in tgt:
            return d
    return INF


def floyd_warshall_reference(graph: Graph) -> np.ndarray:
    """O(V^3) all-pairs reference — an independent implementation used only
    by tests to validate the Dijkstra variants on tiny graphs."""
    n = graph.n_vertices
    d = np.full((n, n), INF)
    np.fill_diagonal(d, 0.0)
    for u, v, w in zip(graph.edges_u, graph.edges_v, graph.edges_w):
        d[u, v] = min(d[u, v], w)
        if not graph.directed:
            d[v, u] = min(d[v, u], w)
    for k in range(n):
        d = np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :])
    return d
