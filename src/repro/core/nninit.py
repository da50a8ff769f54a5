"""NNinit — the initial search of §5.3.1 (Algorithm 3).

Greedily chains nearest *perfect* matches: one search per position, each
started from the PoI just found and stopped at the first perfect match it
settles.  The searches run on :func:`~repro.graphs.dijkstra.settle_to`, so
only the position's matches not yet on the route are listed, the perfect one
last: the targets are ``QueryContext.sim[i] > 0`` without the route, and the
stops ``sim[i] == 1.0``.
During the final position's search every semantically matching PoI settled
before the perfect one also completes a sequenced route, so NNinit returns
several routes — one with semantic score 0 (the branch-and-bound seed for
``l̄(φ)``) plus shorter, semantically looser ones — at the cost of at most
``|S_q|`` searches.

With a §6 destination, each completed route's length includes the leg to
the destination, read from ``QueryContext.dest_dist``.

If some position has no reachable perfect match the search aborts and
returns whatever it found; BSSR stays exact (thresholds just start at inf).
"""
from __future__ import annotations

from repro.core.dominance import SkylineSet
from repro.core.query import QueryContext
from repro.core.scores import semantic_score
from repro.graphs.dijkstra import settle_to
from repro.graphs.dijkstra import dijkstra  # noqa: F401  (perfbench's tracer wraps this module's name)


def nninit(ctx: QueryContext) -> SkylineSet:
    """Run Algorithm 3; returns the seeded minimal set ``S``."""
    S = SkylineSet()
    route: tuple[int, ...] = ()
    total_len = 0.0
    start = ctx.v_q
    dest_extra = ctx.dest_dist

    for i in range(ctx.k):
        sim = ctx.sim[i]
        target = sim > 0
        target[list(route)] = False
        found = settle_to(ctx.graph, (start,), target, stop=sim == 1.0)
        if i == ctx.k - 1:
            # Every semantic match settled on the way in completes a
            # sequenced route (Algorithm 3 lines 9–11).
            for d, u in found:
                l = total_len + d + (dest_extra[u] if dest_extra is not None else 0.0)
                S.update(l, semantic_score(ctx.sim_at(i, u)), route + (u,))
        if not found or sim[found[-1][1]] != 1.0:
            break  # no perfect match reachable — return what we have
        d, u = found[-1]
        route = route + (u,)
        total_len += d
        start = u
    return S


def nninit_ratio(S: SkylineSet) -> float:
    """Table 7's "Ratio": length of the NNinit route with the *largest*
    semantic score over the length of its semantic-score-0 route."""
    rows = S.routes()
    if len(rows) < 2:
        return 1.0
    perfect = [l for (l, s, _r) in rows if s <= 1e-12]
    if not perfect:
        return 1.0
    loosest = max(rows, key=lambda r: r[1])
    return loosest[0] / perfect[0] if perfect[0] > 0 else 1.0

