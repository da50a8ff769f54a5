"""Distributed SkySR — BSSR as an iterative DataFrame join/filter/prune
pipeline (the ``repro`` band's target mapping).

One level per category position, bulk-synchronously:

1. **semantic hierarchy filter** — the PoIs matching position ``i`` and
   their similarities are read from row ``i`` of the query's
   :class:`~repro.core.query.QueryContext` table ``sim``, the same
   definition local BSSR and brute force use, so a §6 multi-category PoI
   matches through its best category here too.  ``sim[i] > 0`` is the
   distance engine's ``emit_only`` mask, and its entries become a small
   ``(vertex, sim)`` frame;
2. **distance join** — multi-source shortest paths from the frontier's
   endpoint PoIs to the position's matches (`repro.graphs.sssp_spark`),
   with per-source cutoffs derived from the branch-and-bound thresholds;
3. **prune** — the Lemma 5.3 threshold rule (tightened by the Def. 5.7
   semantic-match minimum distances).  The Eq. 3 threshold of the
   upper-bound set ``S0`` seeded by a local NNinit run is a step function
   of the semantic score, written as one ``CASE WHEN`` column
   (:func:`threshold_col`): a partial route survives only while it is
   shorter than the threshold at its best possible semantic score, i.e. no
   already-known sequenced route dominates every possible completion of it;
4. after the last level, candidates (plus the NNinit seeds, which the
   threshold prune may have cut as self-equivalent) pass through a window
   skyline to the minimal result set.

Each level runs one ``collect`` (the per-source budgets) and one
``localCheckpoint`` of the next frontier.

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
from pyspark.sql import types as T
from pyspark.sql.window import Window

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


def skyline_df(df: DataFrame) -> DataFrame:
    """Minimal skyline of the ``length`` and ``semantic`` columns: sweep in
    (l, s) order keeping strict s improvements.

    Single-partition window — candidate sets are small by the time this
    runs (post-pruning), mirroring the paper's observation that |S| stays
    tiny (§7.4).
    """
    l, s = F.col("length"), F.col("semantic")
    w = Window.orderBy(l.asc(), s.asc()).rowsBetween(Window.unboundedPreceding, -1)
    swept = (
        df.withColumn("_prev_min_s", F.min(s).over(w))
        .where(F.col("_prev_min_s").isNull() | (s < F.col("_prev_min_s") - _EPS))
        .drop("_prev_min_s")
    )
    # The sweep can keep a row whose length ties a *later*, semantically
    # better row within _EPS (float legs summed in different orders): an
    # eps-dominance anti self-join over the small swept set removes those.
    other = swept.select(l.alias("_ol"), s.alias("_os"))
    ol, os_ = F.col("_ol"), F.col("_os")
    dominated = ((ol < l - _EPS) & (os_ <= s + _EPS)) | ((os_ < s - _EPS) & (ol <= l + _EPS))
    return swept.join(other, on=dominated, how="left_anti")


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
    bounds = MinDistBounds.compute(ctx, S0.threshold(0.0))
    # Eq. 3 threshold at a row's best possible semantic score s_(R) = 1 - prod.
    thresh = threshold_col(S0, F.lit(1.0) - F.col("prod"))

    route_schema = T.StructType(
        [
            T.StructField("route", T.ArrayType(T.LongType()), False),
            T.StructField("end", T.LongType(), False),
            T.StructField("length", T.DoubleType(), False),
            T.StructField("prod", T.DoubleType(), False),
        ]
    )
    frontier = spark.createDataFrame(
        [([], int(v_q), 0.0, 1.0)], schema=route_schema
    )

    completed: DataFrame | None = None
    for pos in range(k):
        suffix_next = bounds.remaining_ls(pos + 1)
        fr = frontier.withColumn(
            "budget", thresh - F.col("length") - F.lit(suffix_next)
        ).where(F.col("budget") > 0)
        src_budget = {
            int(r["end"]): float(r["mb"])
            for r in fr.groupBy("end").agg(F.max("budget").alias("mb")).collect()
        }
        if not src_budget:
            break
        sim = ctx.sim[pos]
        emit = sim > 0
        dists = partitioned_dijkstra(
            spark, graph, sorted(src_budget), cutoffs=src_budget, emit_only=emit
        )
        matches = np.flatnonzero(emit)
        match_rows = list(zip(matches.tolist(), sim[matches].tolist()))
        match_schema = "vertex LONG, sim DOUBLE"
        new_length = F.col("length") + F.col("dist")
        if pos == k - 1 and ctx.dest_dist is not None:
            # §6 destination leg: only the last position's matches that reach
            # the destination end a route.
            dd = ctx.dest_dist
            match_rows = [(u, sim, float(dd[u])) for u, sim in match_rows if dd[u] < INF]
            match_schema += ", dd DOUBLE"
            new_length = new_length + F.col("dd")
        match_df = spark.createDataFrame(match_rows, match_schema)
        cand = dists.join(match_df, on="vertex").withColumnRenamed("vertex", "poi")
        expanded = (
            fr.join(cand, fr.end == cand.source)
            .where(~F.array_contains(F.col("route"), F.col("poi")))
            .where(F.col("dist") < F.col("budget"))  # Algorithm 2 line 8 analog
            .select(
                F.concat(F.col("route"), F.array(F.col("poi"))).alias("route"),
                F.col("poi").alias("end"),
                new_length.alias("length"),
                (F.col("prod") * F.col("sim")).alias("prod"),
            )
        )
        if pos < k - 1:
            # Algorithm 2 line 10 analog: re-prune with the candidate's own
            # (tighter) threshold before it joins the next frontier.
            frontier = expanded.where(
                thresh > F.col("length") + F.lit(suffix_next) + F.lit(_EPS)
            ).localCheckpoint(eager=True)
        else:
            completed = expanded

    seed_rows = [
        (list(map(int, r)), float(l), float(s)) for (l, s, r) in S0.routes()
    ]
    out_schema = T.StructType(
        [
            T.StructField("route", T.ArrayType(T.LongType()), False),
            T.StructField("length", T.DoubleType(), False),
            T.StructField("semantic", T.DoubleType(), False),
        ]
    )
    seeds = spark.createDataFrame(seed_rows, schema=out_schema)
    if completed is None:
        cands = seeds
    else:
        cands = completed.select(
            "route", "length", (F.lit(1.0) - F.col("prod")).alias("semantic")
        ).unionByName(seeds)
    return skyline_df(cands)


def skysr_spark_scores(df: DataFrame) -> set[tuple[float, float]]:
    """Collected (length, semantic) score pairs, rounded like BSSRResult."""
    return {score_key(r["length"], r["semantic"]) for r in df.collect()}
