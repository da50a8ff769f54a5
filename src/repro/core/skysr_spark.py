"""Distributed SkySR — BSSR as an iterative DataFrame join/filter/prune
pipeline (the ``repro`` band's target mapping).

One level per category position, bulk-synchronously:

1. **semantic hierarchy filter** — the PoIs matching position ``i`` and
   their similarities are read from row ``i`` of the query's
   :class:`~repro.core.query.QueryContext` table ``sim``, the same
   definition local BSSR and brute force use, so a §6 multi-category PoI
   matches through its best category here too.  ``sim[i]`` is the distance
   engine's ``mark``: the kernel records the matches it settles, each with
   its similarity;
2. **distance join** — multi-source shortest paths from the frontier's
   endpoint PoIs to the position's matches (`repro.graphs.sssp_spark`).
   The sources are the frontier's own ``(end, max(budget))`` rows, so the
   branch-and-bound thresholds reach the kernel as per-source cutoffs
   without a trip through the driver;
3. **prune** — the Lemma 5.3 threshold rule (tightened by the Def. 5.7
   semantic-match minimum distances).  The Eq. 3 threshold of the
   upper-bound set ``S0`` seeded by a local NNinit run is a step function
   of the semantic score, written as one ``CASE WHEN`` column
   (:func:`threshold_col`): a partial route survives only while it is
   shorter than the threshold at its best possible semantic score, i.e. no
   already-known sequenced route dominates every possible completion of it;
4. after the last level, the surviving complete routes stream to the
   driver and go through ``S0.update`` — the :class:`SkylineSet` BSSR
   uses, which already holds the NNinit seeds — so ``S0`` ends as the
   minimal result set.

Each level but the last runs one ``localCheckpoint`` of the next frontier;
the last one is read once, by ``toLocalIterator``.

Exactness: pruning only ever compares against *complete* sequenced routes
(Lemma 5.3), never partial-vs-partial — under the all-PoIs-distinct rule a
partial-route dominance prune would be unsound (DESIGN.md §deviations-2).
The final skyline therefore returns exactly the Def. 4.2 minimal set, which
tests verify against local BSSR and brute force.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import Column, DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.bounds import MinDistBounds
from repro.core.dominance import _EPS, SkylineSet, score_key
from repro.core.nninit import nninit
from repro.core.query import QueryContext
from repro.graphs.categories import CategoryForest
from repro.graphs.generator import Dataset, Graph
from repro.graphs.sssp_spark import partitioned_dijkstra

INF = float("inf")


# ------------------------------------------------------------- table views
def dataset_tables(spark: SparkSession, ds: Dataset) -> dict[str, DataFrame]:
    """Relational view of a dataset: ``edges (src, dst, w)``, one row per
    edge, and ``pois (poi_id, cat_id)``."""
    g = ds.graph
    ids = g.poi_ids
    edges = pd.DataFrame(
        {
            "src": g.edges_u.astype(np.int64),
            "dst": g.edges_v.astype(np.int64),
            "w": g.edges_w.astype(np.float64),
        }
    )
    pois = pd.DataFrame({"poi_id": ids.astype(np.int64), "cat_id": g.cat_of[ids].astype(np.int64)})
    return {"edges": spark.createDataFrame(edges), "pois": spark.createDataFrame(pois)}


def threshold_col(S: SkylineSet, s: Column) -> Column:
    """Eq. (3) as a column: ``S.threshold`` of each row's semantic score.

    ``S.entries`` is sorted by semantic score with strictly decreasing
    length, so the threshold at ``s`` is the length of the last entry with
    ``ts <= s + _EPS`` — the comparison ``SkylineSet.threshold`` makes.
    Each entry wraps the chain so far, so the last entry is tested first.
    """
    out = F.lit(INF)
    for ts, tl, _r in S.entries:
        out = F.when(F.lit(ts) <= s + F.lit(_EPS), F.lit(tl)).otherwise(out)
    return out


# ---------------------------------------------------------------- pipeline
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
    k = ctx.k

    # --- local seeding: NNinit upper bounds + minimum-distance lower bounds
    S0 = nninit(ctx)
    suffix = MinDistBounds.compute(ctx, S0.threshold(0.0)).ls_suffix
    # Eq. 3 threshold at a row's best possible semantic score s_(R) = 1 - prod.
    thresh = threshold_col(S0, F.lit(1.0) - F.col("prod"))

    frontier = spark.createDataFrame(
        [([], int(v_q), 0.0, 1.0)], "route ARRAY<LONG>, end LONG, length DOUBLE, prod DOUBLE"
    )
    for pos in range(k):
        fr = frontier.withColumn(
            "budget", thresh - F.col("length") - F.lit(suffix[pos + 1])
        ).where(F.col("budget") > 0)
        sources = fr.groupBy(F.col("end").alias("source")).agg(F.max("budget").alias("cutoff"))
        cand = partitioned_dijkstra(graph, sources, ctx.sim[pos])
        frontier = (
            fr.join(cand, fr.end == cand.source)
            .where(~F.array_contains(F.col("route"), F.col("vertex")))
            .where(F.col("dist") < F.col("budget"))  # Algorithm 2 line 8 analog
            .select(
                F.concat(F.col("route"), F.array(F.col("vertex"))).alias("route"),
                F.col("vertex").alias("end"),
                (F.col("length") + F.col("dist")).alias("length"),
                (F.col("prod") * F.col("mark")).alias("prod"),
            )
            # Algorithm 2 line 10 analog: re-prune with the candidate's own
            # (tighter) threshold.
            .where(thresh > F.col("length") + F.lit(suffix[pos + 1]) + F.lit(_EPS))
        )
        if pos < k - 1:
            frontier = frontier.localCheckpoint(eager=True)

    # The survivors are complete routes: S.update them into the NNinit set,
    # adding the §6 destination leg (an unreachable one is inf, never inserted).
    dd = ctx.dest_dist
    for r in frontier.toLocalIterator():
        leg = 0.0 if dd is None else float(dd[r["end"]])
        S0.update(r["length"] + leg, 1.0 - r["prod"], r["route"])
    return spark.createDataFrame(
        [(list(map(int, route)), float(l), float(s)) for l, s, route in S0.routes()],
        "route ARRAY<LONG>, length DOUBLE, semantic DOUBLE",
    )


def skysr_spark_scores(df: DataFrame) -> set[tuple[float, float]]:
    """Collected (length, semantic) score pairs, rounded like BSSRResult."""
    return {score_key(r["length"], r["semantic"]) for r in df.collect()}
