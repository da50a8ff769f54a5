"""The paper's naive SkySR solution (§4): one OSR query per super-category
sequence of ``S_q``, then a skyline pass over the candidates.

A super-category sequence replaces each position's category with itself or
one of its ancestors (Def. 3.1); matching a position then means "PoI whose
category lies in the subtree of that ancestor" (a PoI associated with ``c``
is associated with all ancestors of ``c``).  The number of sequences is
``prod_i depth(c_i)`` — the exponential blow-up that motivates BSSR.

Each candidate route's *actual* scores are computed from its PoIs' real
categories (Eq. 6/7) before the skyline pass: one
:meth:`~repro.graphs.categories.CategoryForest.sim_row` per position, read
at each PoI's category, or at its best one for a §6 multi-category PoI, as
:class:`~repro.core.query.QueryContext` reads it.  This reproduces the paper's
baseline faithfully; see DESIGN.md §deviations-4 for the exactness caveat on
trees deeper than 2.
"""
from __future__ import annotations

import itertools
from collections.abc import Callable, Sequence

import numpy as np

from repro.baselines.osr import osr_dijkstra, osr_pne
from repro.core.dominance import skyline
from repro.core.query import QueryContext  # noqa: F401  (perfbench's tracer wraps this module's name)
from repro.core.query import validate_query
from repro.core.scores import semantic_score
from repro.graphs.categories import CategoryForest
from repro.graphs.generator import Graph


def super_category_sequences(forest: CategoryForest, seq_cats: Sequence[int]) -> list[tuple[int, ...]]:
    """All super-category sequences of ``S_q`` (Def. 3.1)."""
    choices = [list(forest.ancestors(c)) for c in seq_cats]
    return [tuple(combo) for combo in itertools.product(*choices)]


def subtree_match_set(graph: Graph, forest: CategoryForest, anc: int) -> np.ndarray:
    """PoIs associated with ``anc`` — i.e. with a category, primary or §6
    extra, that has ``anc`` as an ancestor (including itself)."""
    ok = forest.in_subtree(anc)
    hit = (graph.cat_of >= 0) & ok[graph.cat_of]
    for p, cats in graph.extra_cats.items():
        hit[p] |= bool(ok[cats].any())
    return np.flatnonzero(hit)


def naive_skysr(
    graph: Graph,
    forest: CategoryForest,
    v_q: int,
    seq_cats: list[int],
    *,
    engine: str = "dijkstra",  # "dijkstra" (Dij) | "pne" (PNE)
    destination: int | None = None,
    stats: dict | None = None,
) -> list[tuple[float, float, tuple[int, ...]]]:
    """Candidates from every super-category sequence, skyline-filtered.

    Returns ``(l, s, route)`` rows like :func:`repro.core.bssr.bssr`.
    """
    if engine not in ("dijkstra", "pne"):
        raise ValueError(f"unknown OSR engine {engine!r}; expected 'dijkstra' or 'pne'")
    validate_query(graph, forest, v_q, seq_cats, destination)
    # One Wu–Palmer row per position, with a last 0 that a road vertex's
    # cat_of of -1 picks.
    sim_rows = [np.append(forest.sim_row(c), 0.0) for c in seq_cats]
    osr: Callable = osr_dijkstra if engine == "dijkstra" else osr_pne
    match_cache: dict[int, np.ndarray] = {}
    candidates: list[tuple[float, float, tuple[int, ...]]] = []
    n_osr = 0
    for sseq in super_category_sequences(forest, seq_cats):
        sets = []
        for anc in sseq:
            if anc not in match_cache:
                match_cache[anc] = subtree_match_set(graph, forest, anc)
            sets.append(match_cache[anc])
        if destination is not None:
            # §6 destination variant, kept *exact* for the baseline: the
            # destination is one more position with a single matching
            # vertex, so the OSR minimizes the total including that leg.
            sets.append(np.array([destination], dtype=np.int64))
        n_osr += 1
        hit = osr(graph, v_q, sets, stats=stats)
        if hit is None:
            continue
        length, route = hit
        if destination is not None:
            route = route[:-1]
        prod = 1.0
        for row, p in zip(sim_rows, route):
            cats = graph.extra_cats.get(p)
            prod *= float(row[graph.cat_of[p]] if cats is None else row[[graph.cat_of[p], *cats]].max())
        candidates.append((length, semantic_score(prod), route))
    if stats is not None:
        stats["osr_queries"] = n_osr
    return skyline(candidates)
