"""The distributed SkySR pipeline vs local BSSR (and brute force), and
its level function :func:`extend` on hand-built frames."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.baselines.brute import brute_force_skysr, score_set
from repro.core.bounds import MinDistBounds
from repro.core.bssr import bssr
from repro.core.nninit import nninit
from repro.core.query import QueryContext
from repro.core.skysr_spark import expand, extend, skysr_spark
from repro.graphs.categories import foursquare_lite_forest
from repro.graphs.generator import graph_from_edges
from tests.conftest import is_sequenced_route, leaves_of_tree, matches, random_query, route_scores, skysr_spark_scores


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
        leaf = leaves_of_tree(f, 0)[0]
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

    def test_repeated_tree_runs_without_through(self, spark, random_world_factory):
        """A query whose categories repeat a tree has overlapping match
        sets, so its scans run without Lemma 5.5; it still equals brute
        force."""
        g, f, rng = random_world_factory(4)
        v_q, cats = random_query(g, f, rng, 3, distinct_trees=False)
        assert QueryContext(g, f, v_q, cats).through is None
        want = score_set(brute_force_skysr(g, f, v_q, cats))
        assert skysr_spark_scores(skysr_spark(spark, g, f, v_q, cats)) == want


def _frame(*rows: tuple[list[int], int, float, float]) -> pd.DataFrame:
    """A frontier frame of ``(route, end, length, prod)`` rows, typed as the
    pipeline's Arrow batches arrive."""
    return pd.DataFrame(
        {
            "route": pd.Series([np.array(r[0], dtype=np.int64) for r in rows], dtype=object),
            "end": np.array([r[1] for r in rows], dtype=np.int64),
            "length": np.array([r[2] for r in rows], dtype=np.float64),
            "prod": np.array([r[3] for r in rows], dtype=np.float64),
        }
    )


def _routes(out: pd.DataFrame) -> dict[tuple[int, ...], tuple[int, float, float]]:
    return {tuple(r): (e, l, p) for r, e, l, p in zip(out["route"], out["end"], out["length"], out["prod"])}


class TestExtend:
    """One level, called on pandas frames without a Spark session: a path
    ``0 - 1 - 2 - 3 - 4`` with unit weights, so vertex ``v`` is ``v`` away
    from vertex 0."""

    @pytest.fixture(scope="class")
    def path(self):
        return graph_from_edges(5, [(i, i + 1, 1.0) for i in range(4)], {})

    def test_rows_sharing_an_end_keep_their_own_budgets(self, path):
        """Two rows end at vertex 0 with budgets 5 and 3: they share one
        scan at the larger budget, and each keeps only the records below
        its own."""
        mark = np.array([0.0, 1.0, 1.0, 1.0, 1.0])
        rows = _frame(([], 0, 0.0, 1.0), ([7], 0, 2.0, 1.0))
        got = _routes(extend(rows, path, mark, None, [(5.0, 0.0)], 0.0))
        assert got == {
            (1,): (1, 1.0, 1.0),
            (2,): (2, 2.0, 1.0),
            (3,): (3, 3.0, 1.0),
            (4,): (4, 4.0, 1.0),
            (7, 1): (1, 3.0, 1.0),
            (7, 2): (2, 4.0, 1.0),
        }

    def test_poi_on_the_route_is_skipped(self, path):
        """The scan from PoI 1 records PoI 1 itself at distance 0; the route
        already holds it, so only PoI 2 extends it (Def. 3.4-iii)."""
        mark = np.array([0.0, 0.5, 0.5, 0.0, 0.0])
        got = _routes(extend(_frame(([1], 1, 1.0, 0.5)), path, mark, None, [], 0.0))
        assert got == {(1, 2): (2, 2.0, 0.25)}

    def test_reprune_drops_a_dominated_route(self, path):
        """NNinit's set holds ``(2.5, 0)`` and ``(1.5, 0.5)``.  PoI 2 is
        within the row's budget of 2.5, but the route to it scores
        ``(2, 0.5)``, which ``(1.5, 0.5)`` dominates; PoI 1 at ``(1, 0)``
        survives."""
        mark = np.array([0.0, 1.0, 0.5, 0.0, 0.0])
        got = _routes(extend(_frame(([], 0, 0.0, 1.0)), path, mark, None, [(2.5, 0.0), (1.5, 0.5)], 0.0))
        assert got == {(1,): (1, 1.0, 1.0)}

    def test_empty_frame(self, path):
        out = extend(_frame(), path, np.ones(5), None, [], 0.0)
        assert out.empty
        assert list(out.columns) == ["route", "end", "length", "prod"]


class TestPlanShape:
    @pytest.mark.parametrize(("size", "max_jobs"), [(2, 4), (3, 5)])
    def test_jobs_per_query(self, spark, tiny_tokyo, size, max_jobs):
        """A query runs at most ``max_jobs`` = k + 2 Spark jobs: one
        shuffle per level, the collect of the survivors and the collect of
        the answer, with no per-level round trip through the driver."""
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

    @pytest.mark.parametrize("size", [2, 3])
    def test_one_exchange_per_level(self, spark, tiny_tokyo, size):
        """The last level's executed plan holds exactly k ``Exchange``
        nodes, one per level, and no join."""
        ds = tiny_tokyo
        v_q, cats = random_query(ds.graph, ds.forest, np.random.default_rng(size), size)
        ctx = QueryContext(ds.graph, ds.forest, v_q, cats)
        S0 = nninit(ctx)
        suffix = MinDistBounds.compute(ctx, S0.threshold(0.0)).ls_suffix
        frontier = expand(spark, ctx, [(l, s) for l, s, _r in S0.routes()], suffix)
        frontier.collect()
        # Adaptive execution prints the final plan, then the initial one.
        plan = frontier._jdf.queryExecution().executedPlan().toString().split("== Initial Plan ==")[0]
        assert plan.count("Exchange ") == size, plan
        assert "Join" not in plan, plan


class TestRelationalPieces:
    def test_full_query_against_duckdb_oracle(self, spark, random_world_factory):
        """End-to-end oracle: the pipeline's minimal score set equals a
        DuckDB SQL formulation (k-way join over a pairwise-distance table,
        NOT EXISTS skyline) on a small world."""
        from repro.graphs.dijkstra import dijkstra
        from tests.oracle import assert_equivalent
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
