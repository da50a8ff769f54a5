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

The loop keeps Python thin around the compiled kernel: a route is a plain
tuple (PoIs, length, similarity product) and travels through the queue
inside its heap entry; a cached scan is its list of kernel records and its
radius, read up to the first record at or above the budget; the Lemma 5.8
bounds and footnote 2's delta are per-size lists read by index; and the
Eq. 3 thresholds of one expansion's candidates are looked up once per
distinct similarity.

The module is fully instrumented (:class:`BSSRStats`) because Tables 7/8 and
Figures 4/5 of the evaluation report internal counters, not just times.
"""
from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

from repro.core.bounds import MinDistBounds
from repro.core.dominance import _EPS, SkylineSet, score_key
from repro.core.nninit import nninit, nninit_ratio
from repro.core.query import QueryContext
from repro.graphs.categories import CategoryForest
from repro.graphs.dijkstra import settle_below
from repro.graphs.generator import Graph

INF = float("inf")


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
    run._expand((), 0.0, 1.0, run.S.threshold(0.0))
    return run.stats


class _BSSRRun:
    """One query's branch and bound.  A route is its PoIs so far, its
    length and its similarity product; in the queue it is the tuple
    ``(key..., seq, pois, length, prod)``, where the key is
    ``(-size, 1 - prod, length)`` (proposed) or ``(length,)`` (distance)
    and ``seq`` is ``stats.queue_pushes`` at the push, which breaks ties
    first-in first-out."""

    def __init__(
        self,
        graph: Graph,
        forest: CategoryForest,
        v_q: int,
        seq_cats: list[int],
        options: BSSROptions,
        destination: int | None,
    ) -> None:
        self.ctx = ctx = QueryContext(graph, forest, v_q, seq_cats, destination)
        self.opt = options
        self.k = ctx.k
        self.use_min_dist = options.use_min_dist
        self.stats = BSSRStats()
        # Lemma 5.5 / caching are only route-independent when the query's
        # match sets are pairwise disjoint (DESIGN.md §deviations-3).
        self.cache_on = options.use_cache and ctx.trees_distinct
        # The kernel's marks are the rows of ``ctx.sim``.  Lemma 5.5-ii: the
        # modified Dijkstra never passes a perfect match, so ``through`` is
        # false exactly there; given ``through``, the kernel applies Lemma
        # 5.5-i too and records only the matches it may return.
        self.marks = list(ctx.sim)
        self.through = list(ctx.sim != 1.0) if ctx.trees_distinct else [None] * ctx.k
        # (p_d, pos) -> (candidates, radius): the (dist, poi, passed, sim)
        # records of one scan, in settle order, complete below ``radius``.
        self.cache: dict[tuple[int, int], tuple[list[tuple[float, int, float, float]], float]] = {}
        self.S = SkylineSet()
        # Per route size m: the Lemma 5.8 length bounds l_s and l_p of the
        # legs still ahead (0 without them), and footnote 2's delta.
        self.ls = self.lp = [0.0] * (ctx.k + 1)
        self.delta = ctx.nonperfect_suffix
        self.heap: list[tuple] = []

    # ------------------------------------------------------------ pruning
    def _prunable(self, size: int, length: float, prod: float, t_min: float) -> bool:
        """Lemma 5.3 (+ l_s tightening) and Lemma 5.8 pruning for a popped
        route whose Eq. 3 threshold is ``t_min``; ``_expand`` applies the
        same two tests to each candidate."""
        if length + self.ls[size] >= t_min:
            return True
        # Lemma 5.8: (a) every non-perfect completion is dominated, and (b)
        # the forced perfect completion is dominated too.
        return (
            self.use_min_dist
            and size < self.k
            and self.S.threshold(1.0 - prod * self.delta[size]) <= length
            and t_min <= length + self.lp[size]
        )

    # ------------------------------------------------------------ mDijkstra
    def _scan(self, p_d: int, pos: int, budget: float) -> tuple[list, float]:
        """One modified-Dijkstra execution (Algorithm 2): the matching PoIs
        with ``dist < budget`` from ``p_d`` that Lemma 5.5 lets through, in
        settle order, the order Algorithm 2 meets them."""
        ball = settle_below(self.ctx.graph, p_d, budget, through=self.through[pos], mark=self.marks[pos])
        stats = self.stats
        stats.visited_vertices += len(ball.order)
        if stats.mdijkstra_runs == 0:
            stats.first_weight_sum = ball.weight_sum
            stats.first_radius = float(ball.dist[-1]) if len(ball.dist) else 0.0
        stats.mdijkstra_runs += 1
        return ball.marked, ball.radius

    # ------------------------------------------------------------ expansion
    def _expand(self, pois: tuple[int, ...], length: float, prod: float, t_min: float) -> None:
        """Algorithm 1's expansion of one route, whose Eq. 3 threshold is
        ``t_min``."""
        pos = len(pois)  # next category position to match (0-indexed)
        p_d = pois[-1] if pos else self.ctx.v_q
        S = self.S
        budget = t_min - length - self.ls[pos + 1]
        if budget <= 0.0:
            return
        # Fetch matching PoIs below ``budget``, via the on-the-fly cache
        # (§5.3.4) when it already holds a deep-enough scan from ``p_d``.
        # The records are in settle order, so the ones below ``budget`` are
        # a prefix.
        stats = self.stats
        stats.mdijkstra_requests += 1
        if self.cache_on:
            key = (p_d, pos)
            entry = self.cache.get(key)
            if entry is not None and entry[1] >= budget:
                stats.cache_hits += 1
            else:
                entry = self.cache[key] = self._scan(p_d, pos, budget)
        else:
            entry = self._scan(p_d, pos, budget)
        size = pos + 1
        # The Eq. 3 thresholds of the candidates depend only on their sim
        # while S stays as it is, so they are looked up once per sim.
        if size == self.k:
            # A completed route joins S unless its threshold shows it
            # dominated or equivalent, the test S.update starts with; the
            # thresholds are looked up afresh once S has changed.
            dest_dist = self.ctx.dest_dist
            completed: dict[float, float] = {}
            for d, u, _passed, sim_u in entry[0]:
                if d >= budget:
                    break
                if u in pois:
                    continue  # Def. 3.4-iii (only reachable when trees repeat)
                new_len = length + d
                final_len = new_len + (float(dest_dist[u]) if dest_dist is not None else 0.0)
                s = 1.0 - prod * sim_u
                t = completed.get(sim_u)
                if t is None:
                    t = completed[sim_u] = S.threshold(s)
                if t <= final_len + _EPS:
                    continue
                if S.update(final_len, s, pois + (u,)):
                    completed.clear()
            return
        # ``_prunable``'s tests for each candidate.
        thresholds: dict[float, tuple[float, float]] = {}
        ls, lp, delta = self.ls[size], self.lp[size], self.delta[size]
        use_min_dist, proposed, heap = self.use_min_dist, self.opt.pq_mode == "proposed", self.heap
        for d, u, _passed, sim_u in entry[0]:
            if d >= budget:
                break
            if u in pois:
                continue
            new_len = length + d
            new_prod = prod * sim_u
            t = thresholds.get(sim_u)
            if t is None:
                t = thresholds[sim_u] = (
                    S.threshold(1.0 - new_prod),
                    S.threshold(1.0 - new_prod * delta) if use_min_dist else INF,
                )
            t_min, t_nonperfect = t
            if new_len + ls >= t_min:
                continue  # Lemma 5.3
            if use_min_dist and t_nonperfect <= new_len and t_min <= new_len + lp:
                continue  # Lemma 5.8
            stats.queue_pushes += 1
            route = (stats.queue_pushes, pois + (u,), new_len, new_prod)
            heapq.heappush(heap, (-size, 1.0 - new_prod, new_len, *route) if proposed else (new_len, *route))

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
            bounds = MinDistBounds.compute(self.ctx, self.S.threshold(0.0))
            self.ls, self.lp = bounds.ls_suffix, bounds.lp_suffix

    def run(self) -> BSSRResult:
        t0 = time.perf_counter()
        self._seed()
        threshold = self.S.threshold
        self._expand((), 0.0, 1.0, threshold(0.0))
        heap, prunable, expand = self.heap, self._prunable, self._expand
        while heap:
            pois, length, prod = heapq.heappop(heap)[-3:]
            # Thresholds tightened since this route was pushed — recheck.
            t_min = threshold(1.0 - prod)
            if not prunable(len(pois), length, prod, t_min):
                expand(pois, length, prod, t_min)
        self.stats.total_time_ms = (time.perf_counter() - t0) * 1e3
        self.stats.n_results = len(self.S)
        return BSSRResult(self.S.routes(), self.stats)
