"""BSSR — the bulk SkySR algorithm (§5, Algorithms 1–2) with the four
optimization techniques of §5.3, each independently switchable:

1. ``use_nninit``   — NNinit initial search seeding the upper bound (§5.3.1);
2. ``pq_mode``      — ``"proposed"`` (size-major, then semantic, then length)
                      vs ``"distance"`` priority queue (§5.3.2);
3. ``use_min_dist`` — possible-minimum-distance lower bounds + Lemma 5.8
                      perfect-match pruning (§5.3.3);
4. ``use_cache``    — on-the-fly caching of modified-Dijkstra results
                      (§5.3.4).

"BSSR w/o Opt" in the paper's plots is all four disabled; the
branch-and-bound core (Lemmas 5.1–5.3) and the modified Dijkstra with the
Lemma 5.5 pass-through/stop rules are always part of BSSR itself.

Exactness notes (Theorem 3 is preserved under every flag combination):

* The Lemma 5.5 rules and the cache assume the swap-in PoI is usable, which
  holds when the per-position match sets are pairwise disjoint (implied by
  the paper's distinct-trees workload constraint).  For queries whose match
  sets overlap — repeated trees, or multi-category PoIs straddling trees —
  both are auto-disabled.
* Thresholds (Eq. 3) are monotone in the semantic score, so the Algorithm 2
  line-8 break with the fetched route's threshold is conservative for every
  candidate's own (tighter) threshold check at line 10.

The branch-and-bound loop is compiled, as the paper's C++ was: one call of
the kernel's ``bssr_run`` (``repro/graphs/_bssr.c``) per query runs the
§5.3.2 queue, the §5.3.4 cache of scan records, the Lemma 5.3/5.8 tests,
Def. 3.4-iii, the Eq. 3 frontier and the counters, with every modified
Dijkstra a ``settle_below`` in the graph's search workspace.  Python builds
the :class:`~repro.core.query.QueryContext`, runs NNinit and computes the
bounds; the loop updates NNinit's :class:`~repro.core.dominance.SkylineSet`
in place and hands back the PoIs of the routes it inserted.

The module is fully instrumented (:class:`BSSRStats`) because Tables 7/8 and
Figures 4/5 of the evaluation report internal counters, not just times.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.bounds import MinDistBounds
from repro.core.dominance import SkylineSet, score_key
from repro.core.nninit import nninit, nninit_ratio
from repro.core.query import QueryContext
from repro.graphs.categories import CategoryForest
from repro.graphs.dijkstra import ffi, lib, workspace
from repro.graphs.generator import Graph


@dataclass
class BSSROptions:
    use_nninit: bool = True
    pq_mode: str = "proposed"  # "proposed" | "distance"
    use_min_dist: bool = True
    use_cache: bool = True

    @classmethod
    def none(cls) -> "BSSROptions":
        """The paper's "BSSR w/o Opt": branch-and-bound core only."""
        return cls(use_nninit=False, pq_mode="distance", use_min_dist=False, use_cache=False)


@dataclass
class BSSRStats:
    visited_vertices: int = 0
    mdijkstra_runs: int = 0
    mdijkstra_requests: int = 0  # runs + cache hits
    cache_hits: int = 0
    queue_pushes: int = 0
    first_weight_sum: float = 0.0  # sum of edge weights scanned by the first mDijkstra
    first_radius: float = 0.0  # distance radius settled by the first mDijkstra
    nninit_time_ms: float = 0.0
    nninit_routes: int = 0
    nninit_ratio: float = 1.0
    total_time_ms: float = 0.0
    n_results: int = 0


@dataclass
class BSSRResult:
    routes: list[tuple[float, float, tuple[int, ...]]]  # (l, s, pois) skyline
    stats: BSSRStats

    def score_set(self) -> set[tuple[float, float]]:
        return {score_key(l, s) for (l, s, _r) in self.routes}


def bssr(
    graph: Graph,
    forest: CategoryForest,
    v_q: int,
    seq_cats: list[int],
    *,
    options: BSSROptions | None = None,
    destination: int | None = None,
) -> BSSRResult:
    """Answer the SkySR query ``(v_q, S_q)`` exactly (Def. 4.2)."""
    opt = options or BSSROptions()
    ctx = QueryContext(graph, forest, v_q, list(seq_cats), destination)
    t0 = time.perf_counter()
    stats = BSSRStats()
    # Before the first scan: NNinit's initial skyline (§5.3.1) and the
    # possible-minimum distances it bounds (§5.3.3), as enabled; per route
    # size, l_s and l_p bound the length of the legs still ahead (Lemma 5.8).
    S = SkylineSet()
    if opt.use_nninit:
        tn = time.perf_counter()
        S = nninit(ctx)
        stats.nninit_time_ms = (time.perf_counter() - tn) * 1e3
        stats.nninit_routes = len(S)
        stats.nninit_ratio = nninit_ratio(S)
    ls = lp = [0.0] * (ctx.k + 1)
    if opt.use_min_dist:
        bounds = MinDistBounds.compute(ctx, S.threshold(0.0))
        ls, lp = bounds.ls_suffix, bounds.lp_suffix
    q = ffi.new("bssr_query *")
    q.k, q.v_q = ctx.k, ctx.v_q
    keep = [
        ffi.from_buffer("double[]", ctx.sim),
        ffi.NULL if ctx.through is None else ffi.from_buffer("uint8_t[]", ctx.through),
        *(ffi.new("double[]", row) for row in (ls, lp, ctx.nonperfect_suffix)),
        ffi.NULL if ctx.dest_dist is None else ffi.from_buffer("double[]", ctx.dest_dist),
    ]
    q.sim, q.through, q.ls, q.lp, q.delta, q.dest_dist = keep
    q.proposed = opt.pq_mode == "proposed"
    q.use_min_dist = opt.use_min_dist
    # Lemma 5.5 / caching are only route-independent when the query's
    # match sets are pairwise disjoint (DESIGN.md §deviations-3).
    q.use_cache = opt.use_cache and ctx.trees_distinct
    ws = workspace(graph)
    try:
        with ws.lock:
            if lib.bssr_run(ws.c, S.frontier, q) < 0:
                raise MemoryError("BSSR's branch and bound could not grow its buffers")
        n, k = q.n_routes, ctx.k
        if n:
            pois = ffi.unpack(q.routes, n * k)
            S.attach(ffi.unpack(q.route_ids, n), [tuple(pois[i : i + k]) for i in range(0, n * k, k)])
    finally:
        lib.bssr_release(q)
    for name in _COUNTERS:
        setattr(stats, name, getattr(q, name))
    stats.total_time_ms = (time.perf_counter() - t0) * 1e3
    stats.n_results = len(S)
    return BSSRResult(S.routes(), stats)


# The BSSRStats fields the compiled loop counts, by their bssr_query names.
_COUNTERS = (
    "visited_vertices",
    "mdijkstra_runs",
    "mdijkstra_requests",
    "cache_hits",
    "queue_pushes",
    "first_weight_sum",
    "first_radius",
)
