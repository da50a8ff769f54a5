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


def _collect(df) -> dict[tuple[int, int], float]:
    return {(int(r["source"]), int(r["vertex"])): float(r["dist"]) for r in df.collect()}


class TestPartitionedDijkstra:
    def test_matches_local(self, spark, world):
        sources = [0, 5, int(world.poi_ids[0])]
        got = _collect(partitioned_dijkstra(spark, world, sources))
        for s in sources:
            ref = dijkstra(world, s)
            for v in range(world.n_vertices):
                if np.isfinite(ref[v]):
                    assert got[(s, v)] == pytest.approx(ref[v])

    def test_cutoffs_respected(self, spark, world):
        ref = dijkstra(world, 0)
        cut = float(np.median(ref[np.isfinite(ref)]))
        got = _collect(partitioned_dijkstra(spark, world, [0], cutoffs={0: cut}))
        assert got, "cutoff left no vertices"
        for (s, v), d in got.items():
            assert d < cut
            assert d == pytest.approx(ref[v])
        # Everything strictly inside the cutoff must be present.
        for v in range(world.n_vertices):
            if ref[v] < cut:
                assert (0, v) in got

    def test_emit_only_mask(self, spark, world):
        mask = np.zeros(world.n_vertices, dtype=bool)
        mask[world.poi_ids] = True
        got = _collect(partitioned_dijkstra(spark, world, [3], emit_only=mask))
        assert got
        assert all(mask[v] for (_s, v) in got)

    def test_many_sources_partitioned(self, spark, world):
        sources = [int(p) for p in world.poi_ids[:12]]
        got = _collect(partitioned_dijkstra(spark, world, sources))
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
        sdf = partitioned_dijkstra(spark, g, [0]).select("vertex", "dist")
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
