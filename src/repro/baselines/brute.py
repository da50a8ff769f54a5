"""Brute-force SkySR ground truth for tiny graphs.

Enumerates every sequenced route (Def. 3.4: one semantically matching PoI
per position, all distinct), scores each with exhaustively computed
shortest-path legs, and skylines the lot.  Exponential — tests keep the
per-position match sets small — but about as obviously correct as it gets,
which is the point: BSSR and the Spark pipeline are validated against this.
"""
from __future__ import annotations

import itertools

import numpy as np

from repro.core.dominance import score_key, skyline
from repro.core.query import QueryContext
from repro.core.scores import semantic_score
from repro.graphs.categories import CategoryForest
from repro.graphs.dijkstra import dijkstra
from repro.graphs.generator import Graph


def brute_force_skysr(
    graph: Graph,
    forest: CategoryForest,
    v_q: int,
    seq_cats: list[int],
    *,
    destination: int | None = None,
    max_candidates: int = 2_000_000,
) -> list[tuple[float, float, tuple[int, ...]]]:
    ctx = QueryContext(graph, forest, v_q, seq_cats, destination)
    match_sets = [np.flatnonzero(row).tolist() for row in ctx.sim]
    n_combo = 1
    for m in match_sets:
        n_combo *= max(len(m), 1)
    if n_combo > max_candidates:
        raise ValueError(f"{n_combo} combinations — graph too large for brute force")

    # Distance rows from v_q and every PoI that can appear; the §6
    # destination leg reads the context's distances *to* the destination.
    sources = {v_q} | {p for m in match_sets for p in m}
    rows = {s: dijkstra(graph, s) for s in sources}

    out = []
    for combo in itertools.product(*match_sets):
        if len(set(combo)) != len(combo):
            continue
        length = float(rows[v_q][combo[0]])
        prev = combo[0]
        for p in combo[1:]:
            length += float(rows[prev][p])
            prev = p
        if ctx.dest_dist is not None:
            length += float(ctx.dest_dist[prev])
        if not np.isfinite(length):
            continue
        prod = 1.0
        for pos, p in enumerate(combo):
            prod *= ctx.sim_at(pos, p)
        out.append((length, semantic_score(prod), combo))
    return skyline(out)


def score_set(rows: list[tuple[float, float, tuple[int, ...]]]) -> set[tuple[float, float]]:
    """Rounded (l, s) pairs — the equivalence-robust comparison key."""
    return {score_key(l, s) for (l, s, _r) in rows}
