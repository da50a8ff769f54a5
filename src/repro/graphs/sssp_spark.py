"""Distributed multi-source shortest paths: the SkySR pipeline's distance
engine.

:func:`partitioned_dijkstra` distributes the *sources*: the graph is
broadcast once and ``mapInPandas`` partitions run the local
``repro.graphs.dijkstra.settle_below`` kernel per source, emitting
``(source, vertex, dist)`` rows for the requested target vertices only.
This is the standard Spark pattern for graph workloads whose graph fits in
memory but whose source fan-out is wide (DESIGN.md §deviations-9).  Each
source has its own distance cutoff, which is how the SkySR pipeline's
branch-and-bound thresholds (Lemma 5.3) reach into the distance layer.
Its workers import ``repro``, so ``src/`` must be on their ``PYTHONPATH``.
"""
from __future__ import annotations

from collections.abc import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.graphs.dijkstra import settle_below
from repro.graphs.generator import Graph

INF = float("inf")

_SSSP_SCHEMA = "source LONG, vertex LONG, dist DOUBLE"


def partitioned_dijkstra(
    spark: SparkSession,
    graph: Graph,
    sources: list[int],
    *,
    cutoffs: dict[int, float] | None = None,
    emit_only: np.ndarray | None = None,
) -> DataFrame:
    """Sources fan out over partitions; each runs the local
    ``settle_below`` kernel against the broadcast graph, which returns the
    vertices strictly below its source's cutoff.  ``emit_only`` (a
    vertex-id bool mask) restricts output rows — the SkySR pipeline passes
    the semantic-match mask of the next position so only candidate PoIs
    cross the wire."""
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
    n_parts = min(max(1, len(sources)), sc.defaultParallelism)
    src_df = spark.createDataFrame(src_pdf).repartition(n_parts, "source")

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        g = b_graph.value
        emit = b_emit.value
        for pdf in batches:
            for source, cut in zip(pdf["source"].tolist(), pdf["cutoff"].tolist()):
                ball = settle_below(g, source, cut)
                keep = slice(None) if emit is None else emit[ball.order]
                vs = ball.order[keep]
                yield pd.DataFrame(
                    {
                        "source": np.full(len(vs), source, dtype=np.int64),
                        "vertex": vs,
                        "dist": ball.dist[keep],
                    }
                )

    return src_df.mapInPandas(run, schema=_SSSP_SCHEMA)
