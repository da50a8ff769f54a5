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

The module is fully instrumented (:class:`BSSRStats`) because Tables 7/8 and
Figures 4/5 of the evaluation report internal counters, not just times.
"""
from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

from repro.core.bounds import MinDistBounds
from repro.core.dominance import SkylineSet, score_key
from repro.core.nninit import nninit, nninit_ratio
from repro.core.query import QueryContext
from repro.core.scores import PartialRoute
from repro.graphs.categories import CategoryForest
from repro.graphs.dijkstra import settle_below
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
class _CacheEntry:
    candidates: list[tuple[float, int, float]]  # (dist, poi, sim) sorted by dist
    radius: float  # complete for all candidates with dist < radius


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
    return _BSSRRun(graph, forest, v_q, list(seq_cats), options or BSSROptions(), destination).run()


def bssr_first_scan(
    graph: Graph,
    forest: CategoryForest,
    v_q: int,
    seq_cats: list[int],
    *,
    use_nninit: bool = True,
) -> BSSRStats:
    """Run only ``run()``'s seeding (NNinit optionally, then the bounds) and
    the *first* modified Dijkstra.

    Table 7 measures the first search's scanned edge-weight sum with and
    without the initial search; the full run's first scan is identical by
    construction, so this avoids paying for the rest of the search when
    only that metric is needed.
    """
    run = _BSSRRun(graph, forest, v_q, list(seq_cats), BSSROptions(use_nninit=use_nninit), None)
    run._seed()
    run._expand(PartialRoute((), 0.0, 1.0))
    return run.stats


class _BSSRRun:
    def __init__(
        self,
        graph: Graph,
        forest: CategoryForest,
        v_q: int,
        seq_cats: list[int],
        options: BSSROptions,
        destination: int | None,
    ) -> None:
        self.ctx = QueryContext(graph, forest, v_q, seq_cats, destination)
        self.opt = options
        self.stats = BSSRStats()
        # Lemma 5.5 / caching are only route-independent when the query's
        # match sets are pairwise disjoint (DESIGN.md §deviations-3).
        self.cache_on = options.use_cache and self.ctx.trees_distinct
        # The kernel's marks are the rows of ``ctx.sim``.  Lemma 5.5-ii: the
        # modified Dijkstra never passes a perfect match, so ``through`` is
        # false exactly there.
        self.through = self.ctx.sim != 1.0 if self.ctx.trees_distinct else None
        self.cache: dict[tuple[int, int], _CacheEntry] = {}
        self.S = SkylineSet()
        self.bounds = MinDistBounds.zeros(self.ctx.k)
        self.heap: list[tuple[tuple, int, PartialRoute]] = []
        self._push_seq = 0

    # ------------------------------------------------------------ plumbing
    def _key(self, r: PartialRoute) -> tuple:
        if self.opt.pq_mode == "proposed":
            return (-r.size, r.min_semantic, r.length)
        return (r.length,)

    def _push(self, r: PartialRoute) -> None:
        self._push_seq += 1
        self.stats.queue_pushes += 1
        heapq.heappush(self.heap, (self._key(r), self._push_seq, r))

    def _remaining_ls(self, size: int) -> float:
        return self.bounds.remaining_ls(size) if self.opt.use_min_dist else 0.0

    def _prunable(self, size: int, length: float, prod: float) -> bool:
        """Lemma 5.3 (+ l_s tightening) and Lemma 5.8 pruning for a partial
        or complete candidate state."""
        s_min = 1.0 - prod
        if length + self._remaining_ls(size) >= self.S.threshold(s_min):
            return True
        if self.opt.use_min_dist and size < self.ctx.k:
            # Lemma 5.8: (a) every non-perfect completion is dominated ...
            m = self.ctx.max_nonperfect_suffix(size)
            s_nonperf = 1.0 - prod * m
            if self.S.threshold(s_nonperf) <= length:
                # ... and (b) the forced perfect completion is dominated too.
                if self.S.threshold(s_min) <= length + self.bounds.remaining_lp(size):
                    return True
        return False

    # ------------------------------------------------------------ mDijkstra
    def _scan(self, p_d: int, pos: int, budget: float) -> _CacheEntry:
        """One modified-Dijkstra execution (Algorithm 2), complete for all
        matching PoIs with ``dist < budget`` from ``p_d``."""
        sim = self.ctx.sim[pos]
        through = None if self.through is None else self.through[pos]
        ball = settle_below(self.ctx.graph, p_d, budget, through=through, mark=sim)
        self.stats.visited_vertices += len(ball.order)
        # passed: best similarity on u's shortest path before u (Lemma 5.5-i).
        # The matches come in settle order, the order Algorithm 2 meets them.
        sims = sim[ball.marked["vertex"]].tolist()
        cands = [
            (d, u, s) for (d, u, before), s in zip(ball.marked.tolist(), sims) if through is None or s > before
        ]
        if self.stats.mdijkstra_runs == 0:
            self.stats.first_weight_sum = ball.weight_sum
            self.stats.first_radius = float(ball.dist[ball.order[-1]]) if len(ball.order) else 0.0
        self.stats.mdijkstra_runs += 1
        return _CacheEntry(cands, ball.radius)

    def _candidates(self, p_d: int, pos: int, budget: float) -> list[tuple[float, int, float]]:
        """Fetch matching PoIs below ``budget``, via the on-the-fly cache
        (§5.3.4) when it already holds a deep-enough scan from ``p_d``."""
        self.stats.mdijkstra_requests += 1
        if not self.cache_on:
            return self._scan(p_d, pos, budget).candidates
        key = (p_d, pos)
        entry = self.cache.get(key)
        if entry is not None and entry.radius >= budget:
            self.stats.cache_hits += 1
        else:
            entry = self._scan(p_d, pos, budget)
            self.cache[key] = entry
        return [c for c in entry.candidates if c[0] < budget]

    # ------------------------------------------------------------ expansion
    def _expand(self, r: PartialRoute) -> None:
        pos = r.size  # next category position to match (0-indexed)
        p_d = r.end if r.size > 0 else self.ctx.v_q
        thresh = self.S.threshold(r.min_semantic)
        budget = thresh - r.length - self._remaining_ls(pos + 1)
        if budget <= 0.0:
            return
        k = self.ctx.k
        route_set = set(r.pois)
        for d, u, sim_u in self._candidates(p_d, pos, budget):
            if u in route_set:
                continue  # Def. 3.4-iii (only reachable when trees repeat)
            new_len = r.length + d
            new_prod = r.sim_product * sim_u
            size_t = pos + 1
            if size_t == k:
                dest_dist = self.ctx.dest_dist
                final_len = new_len + (float(dest_dist[u]) if dest_dist is not None else 0.0)
                self.S.update(final_len, 1.0 - new_prod, r.pois + (u,))
            else:
                if self._prunable(size_t, new_len, new_prod):
                    continue
                self._push(r.extend(u, d, sim_u))

    # ------------------------------------------------------------ main loop
    def _seed(self) -> None:
        """Before the first scan: NNinit's initial skyline (§5.3.1) and the
        possible-minimum distances it bounds (§5.3.3), as enabled."""
        if self.opt.use_nninit:
            tn = time.perf_counter()
            self.S = nninit(self.ctx)
            self.stats.nninit_time_ms = (time.perf_counter() - tn) * 1e3
            self.stats.nninit_routes = len(self.S)
            self.stats.nninit_ratio = nninit_ratio(self.S)
        if self.opt.use_min_dist:
            self.bounds = MinDistBounds.compute(self.ctx, self.S.threshold(0.0))

    def run(self) -> BSSRResult:
        t0 = time.perf_counter()
        self._seed()
        self._expand(PartialRoute((), 0.0, 1.0))
        while self.heap:
            _key, _seq, r = heapq.heappop(self.heap)
            # Thresholds tightened since this route was pushed — recheck.
            if self._prunable(r.size, r.length, r.sim_product):
                continue
            self._expand(r)
        self.stats.total_time_ms = (time.perf_counter() - t0) * 1e3
        self.stats.n_results = len(self.S)
        return BSSRResult(self.S.routes(), self.stats)
