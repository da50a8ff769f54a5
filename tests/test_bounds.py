"""Possible-minimum distances (§5.3.3, Def. 5.7, Algorithm 4, Lemma 5.9)."""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.bounds import MinDistBounds
from repro.core.query import QueryContext
from repro.graphs.dijkstra import dijkstra
from tests.conftest import (
    floyd_warshall_reference,
    matches,
    multi_source_to_targets,
    perfect_matches,
    random_query,
)

INF = float("inf")


def _brute_leg_min(graph, srcs, tgts) -> float:
    if len(srcs) == 0 or len(tgts) == 0:
        return 0.0
    ref = floyd_warshall_reference(graph)
    m = float(ref[np.ix_(list(srcs), list(tgts))].min())
    return m if np.isfinite(m) else 0.0


class TestLegMinima:
    @pytest.mark.parametrize("seed", range(5))
    def test_ls_matches_brute(self, random_world_factory, seed):
        g, f, rng = random_world_factory(seed, n_road=60, n_pois=40)
        v_q, cats = random_query(g, f, rng, 3)
        ctx = QueryContext(g, f, v_q, cats)
        b = MinDistBounds.compute(ctx)
        for i in range(ctx.k - 1):
            want = _brute_leg_min(g, matches(ctx, i), matches(ctx, i + 1))
            assert b.ls_leg[i] == pytest.approx(want)

    @pytest.mark.parametrize("seed", range(5))
    def test_lp_matches_brute(self, random_world_factory, seed):
        g, f, rng = random_world_factory(seed, n_road=60, n_pois=40)
        v_q, cats = random_query(g, f, rng, 3)
        ctx = QueryContext(g, f, v_q, cats)
        b = MinDistBounds.compute(ctx)
        for i in range(ctx.k - 1):
            want = _brute_leg_min(g, matches(ctx, i), perfect_matches(ctx, i + 1))
            assert b.lp_leg[i] == pytest.approx(want)

    def test_lp_geq_ls(self, random_world_factory):
        """Perfect targets are a subset of semantic targets, so the
        perfect-match minimum can only be larger (§5.3.3)."""
        for seed in range(5):
            g, f, rng = random_world_factory(seed)
            v_q, cats = random_query(g, f, rng, 3)
            ctx = QueryContext(g, f, v_q, cats)
            b = MinDistBounds.compute(ctx)
            for i in range(ctx.k - 1):
                assert b.lp_leg[i] >= b.ls_leg[i] - 1e-12


class TestSuffixSums:
    def test_indexing(self):
        b = MinDistBounds(
            ls_leg=[1.0, 2.0, 4.0], lp_leg=[1.5, 2.5, 4.5],
            ls_suffix=[], lp_suffix=[],
        )
        from repro.core.bounds import _suffix

        ls = _suffix(b.ls_leg, 4)
        # size-0/1 routes still face all legs; size-2 faces legs 1,2; ...
        assert ls == [7.0, 7.0, 6.0, 4.0, 0.0]

    def test_k1_zero(self, random_world_factory):
        """A one-position query has no leg: no minima, all-zero suffixes."""
        g, f, rng = random_world_factory(1)
        v_q, cats = random_query(g, f, rng, 1)
        b = MinDistBounds.compute(QueryContext(g, f, v_q, cats))
        assert b.ls_leg == b.lp_leg == []
        assert b.ls_suffix == b.lp_suffix == [0.0, 0.0]

    def test_remaining_decreases_with_size(self, random_world_factory):
        g, f, rng = random_world_factory(1)
        v_q, cats = random_query(g, f, rng, 3)
        ctx = QueryContext(g, f, v_q, cats)
        b = MinDistBounds.compute(ctx)
        vals = b.ls_suffix
        assert all(vals[i] >= vals[i + 1] - 1e-12 for i in range(len(vals) - 1))
        assert vals[-1] == 0.0


class TestOnePassLegs:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("size", [2, 4])
    def test_equals_two_multi_source_calls(self, random_world_factory, seed, size):
        """One settle loop per leg gives exactly the l_s and l_p of two
        separate Lemma 5.9 searches, with and without the Algorithm 4 range
        filter."""
        g, f, rng = random_world_factory(seed)
        v_q, cats = random_query(g, f, rng, size)
        ctx = QueryContext(g, f, v_q, cats)
        d0 = dijkstra(g, v_q)
        for threshold0 in (INF, float(np.quantile(d0, 0.6)), float(np.quantile(d0, 0.2))):
            in_range = d0 < threshold0
            b = MinDistBounds.compute(ctx, threshold0)
            for i in range(ctx.k - 1):
                srcs = [p for p in matches(ctx, i) if in_range[p]]
                ls = multi_source_to_targets(g, srcs, [p for p in matches(ctx, i + 1) if in_range[p]])
                lp = multi_source_to_targets(g, srcs, [p for p in perfect_matches(ctx, i + 1) if in_range[p]])
                assert b.ls_leg[i] == (ls if np.isfinite(ls) else 0.0)
                assert b.lp_leg[i] == (lp if np.isfinite(lp) else 0.0)


class TestThresholdRestriction:
    def test_restriction_can_only_raise_minima(self, random_world_factory):
        """Restricting to PoIs within l̄(φ) of v_q (Algorithm 4 lines 3–4)
        shrinks both sets, so leg minima cannot decrease."""
        g, f, rng = random_world_factory(2)
        v_q, cats = random_query(g, f, rng, 3)
        ctx = QueryContext(g, f, v_q, cats)
        free = MinDistBounds.compute(ctx)
        from repro.graphs.dijkstra import dijkstra

        d0 = dijkstra(g, v_q)
        radius = float(np.median(d0[np.isfinite(d0)]))
        in_range = d0 < radius
        if any(
            not in_range[matches(ctx, i)].any() or not in_range[matches(ctx, i + 1)].any()
            for i in range(ctx.k - 1)
        ):
            pytest.skip("radius empties a PoI set; the bound degrades to 0 by design")
        tight = MinDistBounds.compute(ctx, radius)
        for i in range(ctx.k - 1):
            assert tight.ls_leg[i] >= free.ls_leg[i] - 1e-12
