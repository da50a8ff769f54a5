"""The distributed SSSP engine vs the local Dijkstra ground truth."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.graphs.categories import foursquare_lite_forest
from repro.graphs.dijkstra import dijkstra
from repro.graphs.generator import graph_from_edges, road_network
from repro.graphs.sssp_spark import partitioned_dijkstra

INF = float("inf")


@pytest.fixture(scope="module")
def world():
    f = foursquare_lite_forest()
    g = road_network(n_road=60, n_edges_road=80, n_pois=25, forest=f, seed=11)
    return g


def _scan(spark, g, cutoffs: dict[int, float], mark: np.ndarray):
    """The engine's rows from ``(source, cutoff)`` rows, as
    ``{(source, vertex): (dist, mark)}``."""
    sources = spark.createDataFrame(list(cutoffs.items()), "source LONG, cutoff DOUBLE")
    rows = partitioned_dijkstra(g, sources, mark).collect()
    got = {(int(r["source"]), int(r["vertex"])): (float(r["dist"]), float(r["mark"])) for r in rows}
    assert len(got) == len(rows)
    return got


class TestPartitionedDijkstra:
    def test_matches_local(self, spark, world):
        sources = [0, 5, int(world.poi_ids[0])]
        got = _scan(spark, world, dict.fromkeys(sources, INF), np.ones(world.n_vertices))
        for s in sources:
            ref = dijkstra(world, s)
            for v in range(world.n_vertices):
                if np.isfinite(ref[v]):
                    assert got[(s, v)] == (pytest.approx(ref[v]), 1.0)
                else:
                    assert (s, v) not in got

    def test_cutoffs_respected(self, spark, world):
        """Each source stops at its own cutoff."""
        refs = {s: dijkstra(world, s) for s in (0, 7)}
        cut = {s: float(np.quantile(ref[np.isfinite(ref)], q)) for (s, ref), q in zip(refs.items(), (0.5, 0.2))}
        got = _scan(spark, world, cut, np.ones(world.n_vertices))
        for s, ref in refs.items():
            assert any(src == s for src, _v in got), "cutoff left no vertices"
            # Exactly the vertices strictly inside the source's cutoff.
            assert {v for src, v in got if src == s} == set(np.flatnonzero(ref < cut[s]).tolist())
            for v in np.flatnonzero(ref < cut[s]):
                assert got[(s, int(v))][0] == pytest.approx(ref[v])

    def test_mark_selects_rows(self, spark, world):
        """Only vertices with a positive mark are emitted, each with its
        mark."""
        mark = np.zeros(world.n_vertices)
        mark[world.poi_ids] = np.linspace(0.1, 1.0, len(world.poi_ids))
        got = _scan(spark, world, {3: INF}, mark)
        ref = dijkstra(world, 3)
        assert {v for _s, v in got} == {int(p) for p in world.poi_ids if np.isfinite(ref[p])}
        for (_s, v), (d, m) in got.items():
            assert d == pytest.approx(ref[v]) and m == mark[v]

    def test_many_sources_partitioned(self, spark, world):
        sources = [int(p) for p in world.poi_ids[:12]]
        got = _scan(spark, world, dict.fromkeys(sources, INF), np.ones(world.n_vertices))
        assert {s for (s, _v) in got} == set(sources)

    def test_duckdb_oracle_bounded_walk(self, spark):
        """Partitioned Dijkstra vs an independent DuckDB recursive walk on a
        tiny graph, through the repo oracle."""
        from repro.oracle import assert_equivalent

        g = graph_from_edges(4, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 4.0), (2, 3, 1.0)], {})
        pdf = pd.DataFrame({"src": g.edges_u, "dst": g.edges_v, "w": g.edges_w})
        both = pd.concat(
            [pdf, pdf.rename(columns={"src": "dst", "dst": "src"})[["src", "dst", "w"]]],
            ignore_index=True,
        )
        sources = spark.createDataFrame([(0, INF)], "source LONG, cutoff DOUBLE")
        sdf = partitioned_dijkstra(g, sources, np.ones(g.n_vertices)).select("vertex", "dist")
        assert_equivalent(
            sdf,
            """
            WITH RECURSIVE walk(vertex, dist, steps) AS (
              SELECT 0, CAST(0.0 AS DOUBLE), 0
              UNION
              SELECT e.dst, walk.dist + e.w, steps + 1
              FROM walk JOIN e ON e.src = walk.vertex WHERE steps < 4
            )
            SELECT vertex, MIN(dist) AS dist FROM walk GROUP BY vertex
            """,
            e=both,
        )
