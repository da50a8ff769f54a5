"""Local shortest-path primitives over :class:`repro.graphs.generator.Graph`.

Every vertex-graph search in the program runs on one of three kernels:

* :func:`settle` — multi-source Dijkstra as a generator of settled
  vertices ``(dist, vertex, parent)`` in nondecreasing distance, every
  vertex through the heap.  The caller decides when to stop (leaving the
  loop ends the search before the last yielded vertex is relaxed), and
  ``through`` marks the vertices whose edges are never relaxed.  It serves
  :func:`dijkstra` and, on a graph with a zero-weight edge,
  :func:`settle_below`, and is the tests' reference for the other two.
* :func:`settle_below` — the whole ball below a distance budget, from one
  source, with ``settle``'s ``through`` rule and stop value.  It serves the
  budgeted searches that need every distance in the ball but no order:
  BSSR's modified Dijkstra, the Algorithm 4 range filter and the
  ``mapInPandas`` engine of ``repro.graphs.sssp_spark``.
* :func:`settle_to` — the target vertices only, in ``settle``'s order.  It
  serves the searches that want the next *matching* PoIs: NNinit's
  per-position searches, the Lemma 5.9 leg minima of
  ``repro.core.bounds`` and the PNE neighbour lists of
  ``repro.baselines.osr``.

The last two hold only the core vertices of ``Graph.chains()`` in their
heap (plus, for :func:`settle_to`, the targets found so far); degree-2
chains and dead-end branches are walked edge by edge with the same
stepwise sums, so every distance is bit-identical to :func:`settle`'s.

:func:`dijkstra` — single-source distances with optional early target
termination — serves route scoring, brute force and the §6 destination
leg.
"""
from __future__ import annotations

import heapq
from collections.abc import Container, Iterable, Iterator, Sequence

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
    whose relaxation gave ``dist``.  Each step settles the smallest
    ``(dist, vertex)`` among the vertices discovered so far.  With positive
    weights every vertex at a tied distance is discovered before the first
    of them settles, so ties settle in vertex-id order; a zero-weight edge
    can discover a tied vertex later, which then settles after larger ids
    (edges ``(0,5,1), (5,2,0), (0,3,1)`` from 0 settle 0, 3, 5, 2).  A
    vertex ``u`` with ``through[u]`` false is yielded but its edges are not
    relaxed.  ``reverse`` walks in-edges — distances *to* the
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


def settle_below(
    graph: Graph,
    source: int,
    budget: float,
    *,
    through: Sequence[bool] | bytes | None = None,
    marks: dict[int, float] | None = None,
) -> tuple[dict[int, float], float, dict[int, float]]:
    """Every vertex closer to ``source`` than ``budget``, in one search.

    Returns ``(dist, radius, passed)``, exactly what :func:`settle` gives
    when stopped at its first ``dist >= budget``:

    * ``dist`` — vertex -> distance for every vertex settled below
      ``budget``;
    * ``radius`` — the smallest tentative distance ``>= budget`` (the value
      :func:`settle` stops at; ``inf`` when the ball is the whole
      component);
    * ``passed`` — for each settled vertex in ``marks``, the largest mark
      strictly before it on its settle-order shortest path (``0.0`` if
      none), where among tied relaxers the one with the smallest
      ``(dist, vertex)`` is the parent, as in :func:`settle`.

    A vertex ``u`` with ``through[u]`` false is reached but never walked
    past.  Only core vertices of ``graph.chains()`` enter the heap; the
    chains between them are walked with stepwise sums, so every distance is
    bit-identical to :func:`settle`'s.  The ``(dist, vertex)`` parent rule
    is settle order only on positive weights: with a zero-weight edge a
    vertex can settle after larger ids at its distance, or a walk can tie
    with itself, so on such a graph the search runs :func:`settle` itself.
    """
    if budget <= 0.0:
        return {}, 0.0, {}
    source = int(source)
    marks = marks or {}
    if graph.has_zero_weight:
        dist, best, radius = {}, {}, INF
        for d, u, p in settle(graph, (source,), through=through):
            if d >= budget:
                radius = d
                break
            dist[u] = d
            best[u] = max(best[p], marks.get(p, 0.0)) if p >= 0 else 0.0
        return dist, radius, {u: best[u] for u in dist if u in marks}
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
                    q = via[v][0]
                    if (dist[p], p) < (dist[q], q):
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

    On positive weights the output equals ``[(d, u) for d, u, _p in
    settle(graph, sources) if u in targets]`` bit for bit; the caller stops
    the search by leaving the loop.  Only the core vertices of
    ``graph.chains()`` and the targets discovered so far enter the heap:
    degree-2 chains and dead-end branches are walked with stepwise sums as
    in :func:`settle_below`, a target on a chain is pushed with its
    tentative distance, and an entry superseded by a shorter one is skipped
    when popped.  A non-core source is walked out of along each of its
    edges before the first pop.  With a zero-weight edge a tie may come out in
    vertex-id order where :func:`settle` discovers it late.
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


def dijkstra(
    graph: Graph,
    source: int,
    *,
    targets: Iterable[int] | None = None,
    reverse: bool = False,
) -> np.ndarray:
    """Distances from ``source``; unreached vertices stay ``inf``.

    Only settled vertices get a finite distance.  If ``targets`` is given,
    the search stops once every target is settled.  ``reverse`` walks
    in-edges instead — distances *to* ``source`` on a directed graph
    (no-op on undirected ones).
    """
    remaining = set(int(t) for t in targets) if targets is not None else None
    vs: list[int] = []
    ds: list[float] = []
    for d, u, _p in settle(graph, (source,), reverse=reverse):
        vs.append(u)
        ds.append(d)
        if remaining is not None:
            remaining.discard(u)
            if not remaining:
                break
    dist = np.full(graph.n_vertices, INF)
    dist[vs] = ds
    return dist

