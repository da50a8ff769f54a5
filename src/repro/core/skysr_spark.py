"""Distributed SkySR — BSSR's Algorithm 2 expansion step as one Spark
exchange per category position (the ``repro`` band's target mapping).

One level per category position, bulk-synchronously: the frontier of
partial routes ``(route, end, length, prod)`` is repartitioned by its
endpoint ``end`` and each partition is extended by :func:`extend`, a plain
function over a pandas frame that runs on the workers against the query's
broadcast graph and match table:

1. **budgets** — each row's Lemma 5.3 budget is the Eq. 3 threshold of the
   upper-bound set ``S0`` seeded by a local NNinit run, at the row's best
   possible semantic score ``1 - prod``, less its length and the Def. 5.7
   minimum distance of the legs still ahead.  Rows without budget left go;
2. **scans** — one ``settle_below`` per distinct endpoint, at the largest
   budget of its rows.  The matches of position ``i`` and their
   similarities are row ``i`` of the query's
   :class:`~repro.core.query.QueryContext` table ``sim``, the same
   definition local BSSR and brute force use, and ``sim[i]`` is the
   kernel's ``mark``: it records the matches it settles, each with its
   similarity.  When the match sets are pairwise disjoint the scan also
   reads ``ctx.through[i]`` and applies Lemma 5.5, as BSSR's does;
3. **expand and prune** — each row takes the records below its own budget
   (Algorithm 2 line 8) whose PoI is not on the route yet (Def. 3.4-iii),
   and a new route survives only while it is shorter than the threshold at
   its own best possible semantic score (line 10): no already-known
   sequenced route dominates every possible completion of it;
4. after the last level, the surviving complete routes are collected to
   the driver and go through ``S0.update`` — the :class:`SkylineSet` BSSR
   uses, which already holds the NNinit seeds — so ``S0`` ends as the
   minimal result set.

Eq. 3 has one implementation, the kernel's ``skyline_threshold``: a worker
rebuilds ``S0``'s frontier from its ``(l, s)`` pairs, because the frontier
is a C struct that does not pickle.  The levels form one linear lineage
that no action reads twice, so nothing is checkpointed; a query runs one
shuffle job per level and one collect.  The workers import ``repro``, so
``src/`` must be on their ``PYTHONPATH``.

Exactness: pruning only ever compares against *complete* sequenced routes
(Lemma 5.3), never partial-vs-partial — under the all-PoIs-distinct rule a
partial-route dominance prune would be unsound (DESIGN.md §deviations-2).
The final skyline therefore returns exactly the Def. 4.2 minimal set, which
tests verify against local BSSR and brute force.
"""
from __future__ import annotations

from collections.abc import Callable, Iterator

import numpy as np
import pandas as pd
from pyspark.broadcast import Broadcast
from pyspark.sql import DataFrame, SparkSession

from repro.core.bounds import MinDistBounds
from repro.core.dominance import _EPS, SkylineSet
from repro.core.nninit import nninit
from repro.core.query import QueryContext
from repro.graphs.categories import CategoryForest
from repro.graphs.dijkstra import settle_below
from repro.graphs.generator import Graph

_FRONTIER = "route ARRAY<LONG>, end LONG, length DOUBLE, prod DOUBLE"


# ------------------------------------------------------------------- level
def extend(
    rows: pd.DataFrame,
    graph: Graph,
    mark: np.ndarray,
    through: np.ndarray | None,
    scores: list[tuple[float, float]],
    ls_next: float,
) -> pd.DataFrame:
    """One level of the pipeline over frontier ``rows`` (``route``, ``end``,
    ``length``, ``prod``): every one-PoI extension that survives Lemma 5.3
    against the skyline of ``scores``, the ``(l, s)`` pairs of ``S0``.

    ``mark`` is the position's row of ``QueryContext.sim``, ``through`` its
    row of ``QueryContext.through`` (``None`` turns Lemma 5.5 off) and
    ``ls_next`` the minimum length of the legs after this one.  All rows
    that share an endpoint share one scan, so they must be in one call."""
    S = SkylineSet()
    for l, s in scores:
        S.update(l, s, None)
    threshold = S.threshold
    live = []
    cutoff: dict[int, float] = {}
    ends, lengths, prods = rows["end"].tolist(), rows["length"].tolist(), rows["prod"].tolist()
    for route, end, length, prod in zip(rows["route"], ends, lengths, prods):
        budget = threshold(1.0 - prod) - length - ls_next
        if budget > 0:
            live.append((list(route), end, length, prod, budget))
            cutoff[end] = max(cutoff.get(end, budget), budget)
    scans = {e: settle_below(graph, e, cut, through=through, mark=mark).marked for e, cut in cutoff.items()}
    out = []
    for route, end, length, prod, budget in live:
        for d, v, _passed, m in scans[end]:
            if d >= budget:
                break  # records come in settle order
            if v in route:
                continue
            l2, p2 = length + d, prod * m
            if threshold(1.0 - p2) > l2 + ls_next + _EPS:
                out.append(([*route, v], v, l2, p2))
    return pd.DataFrame(out or None, columns=["route", "end", "length", "prod"]).astype(
        {"end": np.int64, "length": np.float64, "prod": np.float64}
    )


def _level(world: Broadcast, pos: int, scores: list[tuple[float, float]], ls_next: float) -> Callable:
    """The ``mapInPandas`` function of level ``pos``: :func:`extend` over
    the whole partition, against the broadcast ``(graph, sim, through)``."""

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        batches = list(batches)
        if not batches:
            return
        graph, sim, through = world.value
        yield extend(
            pd.concat(batches, ignore_index=True),
            graph,
            sim[pos],
            None if through is None else through[pos],
            scores,
            ls_next,
        )

    return run


# ---------------------------------------------------------------- pipeline
def expand(
    spark: SparkSession, ctx: QueryContext, scores: list[tuple[float, float]], ls_suffix: list[float]
) -> DataFrame:
    """The last level's frontier: the complete routes of ``ctx``'s query
    that every level kept against the skyline of ``scores``, with
    ``ls_suffix[i]`` the minimum length of the legs from position ``i`` on.
    Level ``i`` is one exchange of the frontier by endpoint and one
    :func:`extend` per partition."""
    sc = spark.sparkContext
    world = sc.broadcast((ctx.graph, ctx.sim, ctx.through))
    frontier = spark.createDataFrame([([], int(ctx.v_q), 0.0, 1.0)], _FRONTIER)
    for pos in range(ctx.k):
        run = _level(world, pos, scores, ls_suffix[pos + 1])
        frontier = frontier.repartition(sc.defaultParallelism, "end").mapInPandas(run, schema=_FRONTIER)
    return frontier


def skysr_spark(
    spark: SparkSession,
    graph: Graph,
    forest: CategoryForest,
    v_q: int,
    seq_cats: list[int],
    *,
    destination: int | None = None,
) -> DataFrame:
    """Answer the SkySR query as a DataFrame of ``(route, length, semantic)``
    rows (``route`` is an array of PoI vertex ids)."""
    ctx = QueryContext(graph, forest, v_q, seq_cats, destination)

    # --- local seeding: NNinit upper bounds + minimum-distance lower bounds
    S0 = nninit(ctx)
    suffix = MinDistBounds.compute(ctx, S0.threshold(0.0)).ls_suffix
    survivors = expand(spark, ctx, [(l, s) for l, s, _r in S0.routes()], suffix).collect()

    # The survivors are complete routes: S.update them into the NNinit set,
    # adding the §6 destination leg (an unreachable one is inf, never inserted).
    dd = ctx.dest_dist
    for r in survivors:
        leg = 0.0 if dd is None else float(dd[r["end"]])
        S0.update(r["length"] + leg, 1.0 - r["prod"], r["route"])
    return spark.createDataFrame(
        [(list(map(int, route)), float(l), float(s)) for l, s, route in S0.routes()],
        "route ARRAY<LONG>, length DOUBLE, semantic DOUBLE",
    )
