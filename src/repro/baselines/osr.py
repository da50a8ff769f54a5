"""Optimal sequenced route (OSR) engines — the baselines' building block.

Sharifzadeh et al. [16] solve OSR (shortest route visiting one PoI per
category, in order) two ways; both are reimplemented here because the paper
benchmarks SkySR against "iteratively find OSRs" with each:

* :func:`osr_dijkstra` (**Dij**) — Dijkstra over the (vertex, matched-
  prefix) product graph; every queue entry carries its partial route, so
  the queue grows with V x |S| (this is exactly the memory blow-up Table 6
  shows for Dij);
* :func:`osr_pne` (**PNE**) — Progressive Neighbor Exploration: expanding a
  route fetches only the *next nearest* matching PoI, and re-pushes the
  route so its following neighbour can be fetched later, keeping the queue
  small.  Each (endpoint, position) neighbour list is a lazy prefix of the
  matching PoIs in settle order: it grows, by doubling, only when PNE asks
  for a rank past its end, and each growth runs one transient
  :func:`~repro.graphs.dijkstra.settle_to` search towards the position's
  matches that stops at the prefix's new length.  Only the ``(poi, dist)``
  tuples are kept, so retained memory stays tuple-sized (the paper's PNE
  footprint).

Both take per-position PoI match sets, so the naive SkySR baseline can feed
them the subtree-closure sets of each super-category sequence.

The first *complete* route popped is optimal: keys are route lengths and
every extension adds a nonnegative leg.  Dij settles per (vertex, prefix
length) — sound when the naive baseline's positions use pairwise-distinct
category trees, so a suffix can never reuse a prefix PoI (see DESIGN.md
§deviations-2); with overlapping match sets the route joins the settle key.
"""
from __future__ import annotations

import heapq
from collections.abc import Sequence

import numpy as np

from repro.core.query import pairwise_disjoint
from repro.graphs.dijkstra import settle_to, vertex_mask
from repro.graphs.dijkstra import dijkstra  # noqa: F401  (perfbench's tracer wraps this module's name)
from repro.graphs.generator import Graph


def osr_dijkstra(
    graph: Graph,
    v_q: int,
    match_sets: Sequence[np.ndarray],
    *,
    stats: dict | None = None,
) -> tuple[float, tuple[int, ...]] | None:
    """Dij: Dijkstra over the (vertex, matched-prefix) product graph.

    Every queue entry carries its partial route, so the queue footprint
    scales with V x |S| x route size — the memory blow-up Table 6 reports
    for Dij.  A state ``(v, i)`` is settled once when the per-position match
    sets are pairwise disjoint (then route exclusions cannot affect later
    positions); with overlapping sets the route joins the settle key to
    stay exact.
    """
    k = len(match_sets)
    if any(len(m) == 0 for m in match_sets):
        return None
    members = [frozenset(int(p) for p in m) for m in match_sets]
    dedup_ok = pairwise_disjoint(match_sets)
    indptr, indices, weights = graph.csr()

    heap: list[tuple[float, int, int, int, tuple[int, ...]]] = [(0.0, 0, v_q, 0, ())]
    settled: set = set()
    seq = 0
    peak = 0
    while heap:
        peak = max(peak, len(heap))
        d, _s, v, i, route = heapq.heappop(heap)
        key = (v, i) if dedup_ok else (v, i, route)
        if key in settled:
            continue
        settled.add(key)
        if i == k:
            if stats is not None:
                stats["queue_peak"] = max(stats.get("queue_peak", 0), peak)
            return d, route
        if v in members[i] and v not in route:
            seq += 1
            heapq.heappush(heap, (d, seq, v, i + 1, route + (v,)))
        for j in range(indptr[v], indptr[v + 1]):
            seq += 1
            heapq.heappush(heap, (d + weights[j], seq, int(indices[j]), i, route))
    if stats is not None:
        stats["queue_peak"] = max(stats.get("queue_peak", 0), peak)
    return None


def osr_pne(
    graph: Graph,
    v_q: int,
    match_sets: Sequence[np.ndarray],
    *,
    stats: dict | None = None,
) -> tuple[float, tuple[int, ...]] | None:
    """PNE: expand with the next nearest neighbour only, re-pushing the
    parent so later neighbours are fetched on demand."""
    k = len(match_sets)
    if any(len(m) == 0 for m in match_sets):
        return None

    # Per (source, position): the matching PoIs nearest the source as
    # (poi, dist) in settle order, which on positive weights is the
    # (dist, vertex) order of the whole list sorted by distance.  A list is
    # a prefix until its key is in `complete`.  Asking past its end reruns
    # one transient settle_to search, which stops at its first
    # max(n + 1, 2 * len) matches, so lists grow by doubling and no search
    # state outlives the call: PNE keeps only small tuple lists (the
    # paper's PNE memory profile).  Settle order is deterministic, so a
    # regrown list extends the old one and PNE explores exactly as it would
    # over complete lists.
    targets = [vertex_mask(graph.n_vertices, m) for m in match_sets]
    nn_lists: dict[tuple[int, int], list[tuple[int, float]]] = {}
    complete: set[tuple[int, int]] = set()

    def nth_neighbour(src: int, pos: int, n: int) -> tuple[int, float] | None:
        key = (src, pos)
        lst = nn_lists.get(key, [])
        if n >= len(lst) and key not in complete:
            want = max(n + 1, 2 * len(lst))
            lst = [(u, d) for d, u in settle_to(graph, (src,), targets[pos], limit=want)]
            if len(lst) < want:
                complete.add(key)  # the source's component ran out
            nn_lists[key] = lst
        return lst[n] if n < len(lst) else None

    # Heap rows: (priority, seq, route, base_len, rank) — the row stands for
    # "extend `route` (of length base_len) with the rank-th nearest matching
    # neighbour of its endpoint"; priority = base_len + that neighbour's leg,
    # i.e. the exact length of the extended route.
    heap: list[tuple[float, int, tuple[int, ...], float, int]] = []
    seq = 0
    peak = 0

    def push_row(route: tuple[int, ...], base_len: float, rank: int) -> None:
        nonlocal seq
        pos = len(route)
        src = route[-1] if route else v_q
        nb = nth_neighbour(src, pos, rank)
        while nb is not None and nb[0] in route:
            rank += 1
            nb = nth_neighbour(src, pos, rank)
        if nb is None:
            return
        seq += 1
        heapq.heappush(heap, (base_len + nb[1], seq, route, base_len, rank))

    push_row((), 0.0, 0)
    while heap:
        peak = max(peak, len(heap))
        prio, _s, route, base_len, rank = heapq.heappop(heap)
        pos = len(route)
        src = route[-1] if route else v_q
        nb = nth_neighbour(src, pos, rank)
        assert nb is not None and nb[0] not in route
        new_route = route + (nb[0],)
        if len(new_route) == k:
            if stats is not None:
                stats["queue_peak"] = max(stats.get("queue_peak", 0), peak)
            return prio, new_route
        push_row(new_route, prio, 0)  # child: extend further
        push_row(route, base_len, rank + 1)  # sibling: next neighbour later
    if stats is not None:
        stats["queue_peak"] = max(stats.get("queue_peak", 0), peak)
    return None
