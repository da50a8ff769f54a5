"""Possible-minimum distances (§5.3.3, Def. 5.7, Algorithm 4).

``l_s[i]`` is the smallest network distance from any PoI semantically
matching position ``i`` to any PoI semantically matching position ``i+1``;
``l_p[i]`` targets *perfect* matches of position ``i+1`` instead.  Both come
from the multi-source multi-destination Dijkstra of Lemma 5.9 (all sources
seeded at 0 in one queue; the first settled destination is the minimum).
The perfect matches are a subset of the semantic ones, so one search per
leg yields both minima instead of one search per source.  Both sets are
comparisons on the query's match table: ``QueryContext.sim > 0`` and
``QueryContext.sim == 1.0``.

Algorithm 4 restricts the PoI sets to those within ``l̄(φ)`` of the start
point (the threshold for a semantic-score-0 route, known after NNinit) —
PoIs farther than that can never appear in any surviving route.

The range ball is one :func:`~repro.graphs.dijkstra.settle_below` search,
whose settled vertices mark the PoIs in range; the leg searches are
:func:`~repro.graphs.dijkstra.settle_to` searches.  Both run in the graph's
search workspace, so they allocate only their results.

Suffix sums turn the per-leg minima into the Lemma 5.8 lower bounds:
a partial route of size ``m`` still has legs ``m→m+1, …, k-1→k`` ahead of
it, so its length grows by at least ``sum_{i=m}^{k-1} l_s[i]``.  BSSR, the
Spark pipeline and Fig. 4 read the suffix lists by route size.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.query import QueryContext
from repro.graphs.dijkstra import settle_below, settle_to
from repro.graphs.dijkstra import dijkstra  # noqa: F401  (perfbench's tracer wraps this module's name)
from repro.graphs.generator import Graph

INF = float("inf")


@dataclass
class MinDistBounds:
    """Per-leg minima and their suffix sums, which every engine reads by
    route size."""

    ls_leg: list[float]  # ls_leg[i]: min semantic->semantic dist of leg i->i+1 (i in 0..k-2)
    lp_leg: list[float]  # lp_leg[i]: min semantic->perfect dist of leg i->i+1
    ls_suffix: list[float]  # ls_suffix[m]: lower bound on remaining length for a size-m route
    lp_suffix: list[float]

    @classmethod
    def compute(cls, ctx: QueryContext, threshold0: float = INF) -> "MinDistBounds":
        """Run Algorithm 4 for both the semantic- and perfect-match minima."""
        g = ctx.graph
        k = ctx.k
        if k < 2:
            return cls([], [], [0.0] * (k + 1), [0.0] * (k + 1))
        tree, perfect = _pois_in_range(ctx, threshold0)
        ls_leg, lp_leg = [], []
        for i in range(k - 1):
            ls, lp = _leg_minima(g, np.flatnonzero(tree[i]), tree[i + 1], perfect[i + 1])
            # An unreachable leg would make every completion infeasible; keep
            # the bound finite-safe (0 contributes nothing to the sum).
            ls_leg.append(ls if np.isfinite(ls) else 0.0)
            lp_leg.append(lp if np.isfinite(lp) else 0.0)
        return cls(ls_leg, lp_leg, _suffix(ls_leg, k), _suffix(lp_leg, k))


def _pois_in_range(ctx: QueryContext, threshold0: float) -> tuple[np.ndarray, np.ndarray]:
    """Per position (one row each), masks of the semantic and the perfect
    matches closer to ``v_q`` than ``threshold0`` (Algorithm 4 lines 3–4).
    The range ball is released on return, before the leg searches run."""
    tree, perfect = ctx.sim > 0, ctx.sim == 1.0
    if np.isfinite(threshold0):
        near = np.zeros(ctx.graph.n_vertices, dtype=bool)
        near[settle_below(ctx.graph, ctx.v_q, threshold0).order] = True
        tree &= near
        perfect &= near
    return tree, perfect


def _leg_minima(g: Graph, srcs: np.ndarray, sem: np.ndarray, perf: np.ndarray) -> tuple[float, float]:
    """``(l_s, l_p)`` of one leg from a single multi-source search (Lemma 5.9),
    towards the vertex masks ``sem`` and ``perf``.

    ``perf`` is a subset of ``sem``, so the first settled semantic target
    comes no later than the first perfect one: one settle sequence yields
    both minima, and the search stops once both are known.
    """
    found = settle_to(g, srcs, sem, stop=perf, limit=None if perf.any() else 1)
    if not found:
        return INF, INF
    d, u = found[-1]
    return found[0][0], d if perf[u] else INF


def _suffix(leg: list[float], k: int) -> list[float]:
    # A size-m partial route has matched 0-indexed positions 0..m-1; its
    # remaining legs are (m-1)->m, m->(m+1), ..., (k-2)->(k-1), i.e. leg
    # indices m-1..k-2 (Eq. 4 with 1-indexing shifted down).  The empty
    # route's first leg v_q -> p_1 has no Def. 5.7 minimum, so suffix[0]
    # covers legs 0..k-2 like suffix[1].
    out = []
    for m in range(k + 1):
        lo = m - 1 if m >= 1 else 0
        out.append(float(sum(leg[lo:])))
    return out
