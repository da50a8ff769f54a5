"""Distributed multi-source shortest paths over an edges DataFrame.

Two engines, both returning ``(source, vertex, dist)`` rows:

* :func:`bellman_ford_sssp` — pure Catalyst dataflow: a frontier of improved
  distances is joined with the edge list each round until no distance
  improves (classic bulk-synchronous Bellman–Ford).  Exact on nonnegative
  weights, O(diameter) rounds; road networks have large diameters, so this
  is the didactic/test engine.
* :func:`partitioned_dijkstra` — distributes the *sources*: the graph is
  broadcast once and ``mapInPandas`` partitions run the local
  ``repro.graphs.dijkstra.settle`` kernel per source, emitting only the
  requested target vertices.  This is the standard Spark pattern for graph
  workloads whose graph fits in memory but whose source fan-out is wide,
  and is the engine the SkySR pipeline uses at benchmark scale (DESIGN.md
  §deviations-9).  Its workers import ``repro``, so ``src/`` must be on
  their ``PYTHONPATH``.

Both honour per-source distance cutoffs, which is how the SkySR pipeline's
branch-and-bound thresholds (Lemma 5.3) reach into the distance layer.
"""
from __future__ import annotations

from collections.abc import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.graphs.dijkstra import settle
from repro.graphs.generator import Graph

INF = float("inf")

_SSSP_SCHEMA = "source LONG, vertex LONG, dist DOUBLE"


def edges_bidirectional(spark: SparkSession, graph: Graph) -> DataFrame:
    """Relational out-adjacency: both orientations of each undirected road
    edge, or the stored orientation only for a §6 directed graph."""
    pdf = graph.edges_pandas()
    if graph.directed:
        return spark.createDataFrame(pdf)
    rev = pdf.rename(columns={"src": "dst", "dst": "src"})[["src", "dst", "w"]]
    return spark.createDataFrame(pd.concat([pdf, rev], ignore_index=True))


def bellman_ford_sssp(
    spark: SparkSession,
    edges: DataFrame,
    sources: list[int],
    *,
    cutoff: float = INF,
    checkpoint_every: int = 8,
    max_rounds: int = 10_000,
) -> DataFrame:
    """Frontier Bellman–Ford: relax only rows that improved last round."""
    src_df = spark.createDataFrame(
        pd.DataFrame({"source": np.asarray(sources, dtype=np.int64)})
    ).select("source", F.col("source").alias("vertex"), F.lit(0.0).alias("dist"))
    dist = src_df
    frontier = src_df
    rounds = 0
    while True:
        rounds += 1
        if rounds > max_rounds:
            raise RuntimeError("bellman_ford_sssp did not converge")
        cand = (
            frontier.join(edges, frontier.vertex == edges.src)
            .select("source", F.col("dst").alias("vertex"), (F.col("dist") + F.col("w")).alias("dist"))
        )
        if np.isfinite(cutoff):
            cand = cand.where(F.col("dist") < F.lit(float(cutoff)))  # same strictness as partitioned_dijkstra
        cand = cand.groupBy("source", "vertex").agg(F.min("dist").alias("dist"))
        improved = (
            cand.join(
                dist.select("source", "vertex", F.col("dist").alias("old")),
                on=["source", "vertex"],
                how="left",
            )
            .where(F.col("old").isNull() | (F.col("dist") < F.col("old")))
            .select("source", "vertex", "dist")
        )
        improved = improved.localCheckpoint(eager=True)
        if improved.isEmpty():
            break
        dist = (
            dist.unionByName(improved)
            .groupBy("source", "vertex")
            .agg(F.min("dist").alias("dist"))
        )
        if rounds % checkpoint_every == 0:
            dist = dist.localCheckpoint(eager=True)
        frontier = improved
    return dist


def partitioned_dijkstra(
    spark: SparkSession,
    graph: Graph,
    sources: list[int],
    *,
    cutoffs: dict[int, float] | None = None,
    emit_only: np.ndarray | None = None,
    n_partitions: int | None = None,
) -> DataFrame:
    """Sources fan out over partitions; each runs the local ``settle``
    kernel against the broadcast graph and keeps vertices strictly below
    its source's cutoff.  ``emit_only`` (a vertex-id bool mask) restricts
    output rows — the SkySR pipeline passes the semantic-match mask of the
    next position so only candidate PoIs cross the wire."""
    sc = spark.sparkContext
    b_graph = sc.broadcast(graph)
    b_emit = sc.broadcast(emit_only)
    cutoffs = cutoffs or {}
    src_pdf = pd.DataFrame(
        {
            "source": np.asarray(sources, dtype=np.int64),
            "cutoff": np.asarray([cutoffs.get(int(s), INF) for s in sources], dtype=np.float64),
        }
    )
    n_parts = n_partitions or min(max(1, len(sources)), spark.sparkContext.defaultParallelism)
    src_df = spark.createDataFrame(src_pdf).repartition(n_parts, "source")

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        g = b_graph.value
        emit = b_emit.value
        for pdf in batches:
            for source, cut in zip(pdf["source"].tolist(), pdf["cutoff"].tolist()):
                vs: list[int] = []
                ds: list[float] = []
                for d, u, _p in settle(g, (source,)):
                    if d >= cut:
                        break
                    if emit is None or emit[u]:
                        vs.append(u)
                        ds.append(d)
                yield pd.DataFrame(
                    {
                        "source": np.full(len(vs), source, dtype=np.int64),
                        "vertex": np.asarray(vs, dtype=np.int64),
                        "dist": np.asarray(ds, dtype=np.float64),
                    }
                )

    return src_df.mapInPandas(run, schema=_SSSP_SCHEMA)
