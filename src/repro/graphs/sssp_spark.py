"""Distributed multi-source shortest paths: the SkySR pipeline's distance
engine.

:func:`partitioned_dijkstra` distributes the *sources*: the graph is
broadcast once and ``mapInPandas`` partitions run the local
``repro.graphs.dijkstra.settle_below`` kernel per ``(source, cutoff)`` row.
Each search emits the kernel's own marked records: one
``(source, vertex, dist, mark)`` row per vertex below the cutoff whose
``mark`` is positive, so only candidate PoIs cross the wire and each
carries its similarity.  This is the standard Spark pattern for graph
workloads whose graph fits in memory but whose source fan-out is wide
(DESIGN.md §deviations-9).  The cutoff of each source is how the SkySR
pipeline's branch-and-bound thresholds (Lemma 5.3) reach into the distance
layer.  Its workers import ``repro``, so ``src/`` must be on their
``PYTHONPATH``.
"""
from __future__ import annotations

from collections.abc import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.graphs.dijkstra import settle_below
from repro.graphs.generator import Graph

_ROW = np.dtype([("source", np.int64), ("vertex", np.int64), ("dist", np.float64), ("mark", np.float64)])
_SSSP_SCHEMA = "source LONG, vertex LONG, dist DOUBLE, mark DOUBLE"


def partitioned_dijkstra(graph: Graph, sources: DataFrame, mark: np.ndarray) -> DataFrame:
    """``(source, vertex, dist, mark)`` for every vertex closer to a source
    than that source's cutoff and with ``mark > 0``, from a frame of
    ``(source, cutoff)`` rows and a float64 ``mark`` per vertex.

    The rows fan out over ``defaultParallelism`` partitions; each runs
    ``settle_below(g, source, cutoff, mark=mark)`` against the broadcast
    graph and emits its ``Ball.marked`` records."""
    sc = sources.sparkSession.sparkContext
    b_graph = sc.broadcast(graph)
    b_mark = sc.broadcast(mark)

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        g, m = b_graph.value, b_mark.value
        for pdf in batches:
            rows = [
                (source, v, d, mk)
                for source, cut in zip(pdf["source"].tolist(), pdf["cutoff"].tolist())
                for d, v, _passed, mk in settle_below(g, source, cut, mark=m).marked
            ]
            yield pd.DataFrame(np.array(rows, dtype=_ROW))

    return sources.repartition(sc.defaultParallelism, "source").mapInPandas(run, schema=_SSSP_SCHEMA)
