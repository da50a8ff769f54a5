"""The distributed SkySR pipeline vs local BSSR (and brute force)."""
from __future__ import annotations

import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.baselines.brute import brute_force_skysr, score_set
from repro.core.bssr import bssr
from repro.core.dominance import _EPS, SkylineSet
from repro.core.skysr_spark import (
    dataset_tables,
    skysr_spark,
    skysr_spark_scores,
    threshold_col,
)
from repro.core.scores import is_sequenced_route, route_scores
from repro.graphs.categories import foursquare_lite_forest
from repro.graphs.generator import graph_from_edges
from tests.conftest import matches, random_query


class TestPipelineExactness:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("size", [2, 3])
    def test_matches_local_bssr(self, spark, tiny_tokyo, seed, size):
        ds = tiny_tokyo
        rng = np.random.default_rng(seed)
        v_q, cats = random_query(ds.graph, ds.forest, rng, size)
        want = bssr(ds.graph, ds.forest, v_q, cats).score_set()
        df = skysr_spark(spark, ds.graph, ds.forest, v_q, cats)
        assert skysr_spark_scores(df) == want

    def test_matches_brute_force(self, spark, tiny_tokyo):
        ds = tiny_tokyo
        rng = np.random.default_rng(5)
        v_q, cats = random_query(ds.graph, ds.forest, rng, 2)
        want = score_set(brute_force_skysr(ds.graph, ds.forest, v_q, cats))
        df = skysr_spark(spark, ds.graph, ds.forest, v_q, cats)
        assert skysr_spark_scores(df) == want

    def test_destination_variant(self, spark, tiny_tokyo):
        ds = tiny_tokyo
        rng = np.random.default_rng(7)
        v_q, cats = random_query(ds.graph, ds.forest, rng, 2)
        dest = int(rng.integers(0, ds.graph.n_road))
        want = bssr(ds.graph, ds.forest, v_q, cats, destination=dest).score_set()
        df = skysr_spark(spark, ds.graph, ds.forest, v_q, cats, destination=dest)
        assert skysr_spark_scores(df) == want

    def test_unreachable_destination_gives_no_route(self, spark):
        f = foursquare_lite_forest()
        leaf = f.leaves_of_tree(0)[0]
        g = graph_from_edges(3, [(0, 1, 1.0)], {1: leaf})
        assert skysr_spark(spark, g, f, 0, [leaf], destination=2).collect() == []

    def test_bad_query_raises(self, spark, tiny_tokyo):
        ds = tiny_tokyo
        with pytest.raises(ValueError, match="category id -1 is outside"):
            skysr_spark(spark, ds.graph, ds.forest, 0, [-1])

    def test_routes_are_valid(self, spark, tiny_tokyo):
        ds = tiny_tokyo
        rng = np.random.default_rng(8)
        v_q, cats = random_query(ds.graph, ds.forest, rng, 2)
        rows = skysr_spark(spark, ds.graph, ds.forest, v_q, cats).collect()
        assert rows
        for r in rows:
            route = tuple(int(p) for p in r["route"])
            assert is_sequenced_route(ds.graph, ds.forest, cats, route)
            l2, s2 = route_scores(ds.graph, ds.forest, v_q, cats, route)
            assert r["length"] == pytest.approx(l2)
            assert r["semantic"] == pytest.approx(s2)


class TestPlanShape:
    @pytest.mark.parametrize(("size", "max_jobs"), [(2, 11), (3, 16)])
    def test_jobs_per_query(self, spark, tiny_tokyo, size, max_jobs):
        """A query runs at most ``max_jobs`` Spark jobs: one
        ``localCheckpoint`` per level but the last and one read of the
        survivors, with no per-level round trip through the driver."""
        ds = tiny_tokyo
        rng = np.random.default_rng(size)
        v_q, cats = random_query(ds.graph, ds.forest, rng, size)
        sc = spark.sparkContext
        group = f"plan-shape-{size}"
        sc.setJobGroup(group, group)
        try:
            got = skysr_spark_scores(skysr_spark(spark, ds.graph, ds.forest, v_q, cats))
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        assert got == bssr(ds.graph, ds.forest, v_q, cats).score_set()
        assert len(sc.statusTracker().getJobIdsForGroup(group)) <= max_jobs


class TestRelationalPieces:
    def test_dataset_tables_counts(self, spark, tiny_tokyo):
        g = tiny_tokyo.graph
        t = dataset_tables(spark, tiny_tokyo)
        assert t["edges"].count() == g.n_edges
        assert t["pois"].count() == g.n_pois
        assert {r.poi_id for r in t["pois"].collect()} == {int(x) for x in g.poi_ids}
        assert t["edges"].dtypes == [("src", "bigint"), ("dst", "bigint"), ("w", "double")]
        assert t["pois"].dtypes == [("poi_id", "bigint"), ("cat_id", "bigint")]

    @pytest.mark.parametrize("n_updates", [0, 1, 5, 20])
    def test_threshold_col_equals_skyline_threshold(self, spark, n_updates):
        """The Eq. 3 column equals ``SkylineSet.threshold`` on a random
        frontier: at every entry's ``ts``, at ``ts +- _EPS``, near entries
        and past both ends."""
        rng = np.random.default_rng(n_updates)
        S = SkylineSet()
        for _ in range(n_updates):
            S.update(float(rng.uniform(1.0, 50.0)), float(rng.choice([0.0, rng.random()])), None)
        probes = [-1.0, 0.0, 0.5, 1.0, 2.0]
        for ts, _tl, _r in S.entries:
            probes += [ts, ts - _EPS, ts + _EPS, ts - 1e-3, ts + 1e-3]
        got = (
            spark.createDataFrame([(p,) for p in probes], "s DOUBLE")
            .select("s", threshold_col(S, F.col("s")).alias("t"))
            .collect()
        )
        assert len(got) == len(probes)
        for r in got:
            assert r["t"] == S.threshold(r["s"]), (r["s"], S.entries)

    def test_full_query_against_duckdb_oracle(self, spark, random_world_factory):
        """End-to-end oracle: the pipeline's minimal score set equals a
        DuckDB SQL formulation (k-way join over a pairwise-distance table,
        NOT EXISTS skyline) on a small world."""
        from repro.core.query import QueryContext
        from repro.graphs.dijkstra import dijkstra
        from repro.oracle import assert_equivalent
        import pandas as pd

        g, f, rng = random_world_factory(12, n_road=60, n_pois=35)
        v_q, cats = random_query(g, f, rng, 2)
        ctx = QueryContext(g, f, v_q, cats)

        dist_rows = []
        for s in {v_q} | set(matches(ctx, 0)):
            d = dijkstra(g, s)
            for t in matches(ctx, 0) + matches(ctx, 1):
                if np.isfinite(d[t]):
                    dist_rows.append((s, int(t), float(d[t])))
        dists = pd.DataFrame(dist_rows, columns=["src", "dst", "d"]).drop_duplicates()
        m1 = pd.DataFrame(
            {"poi": matches(ctx, 0), "sim": [ctx.sim_at(0, p) for p in matches(ctx, 0)]}
        )
        m2 = pd.DataFrame(
            {"poi": matches(ctx, 1), "sim": [ctx.sim_at(1, p) for p in matches(ctx, 1)]}
        )

        sdf = (
            skysr_spark(spark, g, f, v_q, cats)
            .select(
                F.round("length", 6).alias("length"), F.round("semantic", 6).alias("semantic")
            )
            .distinct()
        )
        assert_equivalent(
            sdf,
            f"""
            WITH cand AS (
              SELECT d0.d + d1.d AS length,
                     1 - m1.sim * m2.sim AS semantic
              FROM m1
              JOIN dists d0 ON d0.src = {v_q} AND d0.dst = m1.poi
              JOIN m2 ON m2.poi <> m1.poi
              JOIN dists d1 ON d1.src = m1.poi AND d1.dst = m2.poi
            )
            SELECT DISTINCT ROUND(length, 6) AS length, ROUND(semantic, 6) AS semantic
            FROM cand c
            WHERE NOT EXISTS (
              SELECT 1 FROM cand o
              WHERE (o.length < c.length - 1e-9 AND o.semantic <= c.semantic + 1e-9)
                 OR (o.semantic < c.semantic - 1e-9 AND o.length <= c.length + 1e-9)
            )
            """,
            dists=dists,
            m1=m1,
            m2=m2,
        )
