"""Skyline machinery (Def. 4.1/4.2): dominance, minimal sets, Eq. 3
thresholds — against brute force, hypothesis properties, and the DuckDB
NOT-EXISTS skyline oracle."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dominance import _EPS, SkylineSet, dominates, skyline
from tests.conftest import ReferenceSkylineSet

INF = float("inf")


def equivalent(a: tuple[float, float], b: tuple[float, float]) -> bool:
    """Equal score pairs under the one ``_EPS`` rounding rule."""
    return abs(a[0] - b[0]) <= _EPS and abs(a[1] - b[1]) <= _EPS


def brute_minimal_scores(pairs: list[tuple[float, float]]) -> set[tuple[float, float]]:
    """Reference minimal score set: undominated pairs, deduplicated."""
    out = set()
    for a in pairs:
        if not any(dominates(b, a) for b in pairs):
            out.add(a)
    return out


class TestDominates:
    def test_strict_both(self):
        assert dominates((1.0, 0.1), (2.0, 0.2))

    def test_strict_one_equal_other(self):
        assert dominates((1.0, 0.2), (2.0, 0.2))
        assert dominates((2.0, 0.1), (2.0, 0.2))

    def test_equal_pairs_not_dominating(self):
        assert not dominates((1.0, 0.2), (1.0, 0.2))
        assert equivalent((1.0, 0.2), (1.0, 0.2))

    def test_incomparable(self):
        assert not dominates((1.0, 0.5), (2.0, 0.1))
        assert not dominates((2.0, 0.1), (1.0, 0.5))

    def test_antisymmetric(self):
        assert dominates((1, 0.1), (2, 0.2)) and not dominates((2, 0.2), (1, 0.1))


class TestSkylineFunction:
    def test_basic(self):
        rows = [(1.0, 0.5, "a"), (2.0, 0.2, "b"), (3.0, 0.1, "c"), (2.5, 0.3, "d")]
        got = {(l, s) for l, s, _ in skyline(rows)}
        assert got == {(1.0, 0.5), (2.0, 0.2), (3.0, 0.1)}

    def test_equivalents_deduped(self):
        rows = [(1.0, 0.5, "a"), (1.0, 0.5, "b")]
        assert len(skyline(rows)) == 1

    def test_empty(self):
        assert skyline([]) == []

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 1000).map(lambda x: x / 10.0),
                st.integers(0, 10).map(lambda x: x / 10.0),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_brute(self, pairs):
        rows = [(l, s, i) for i, (l, s) in enumerate(pairs)]
        got = {(l, s) for l, s, _ in skyline(rows)}
        assert got == brute_minimal_scores(pairs)


class TestSkylineSet:
    def test_update_insert_and_evict(self):
        S = SkylineSet()
        assert S.update(10.0, 0.0, "perfect")
        assert S.update(5.0, 0.5, "loose")
        assert len(S) == 2
        # Dominates "loose": evicts it.
        assert S.update(4.0, 0.4, "better")
        assert len(S) == 2
        assert ("loose" not in [p for (_l, _s, p) in S.routes()])

    def test_update_rejects_dominated(self):
        S = SkylineSet()
        S.update(10.0, 0.0, "a")
        assert not S.update(12.0, 0.1, "worse")
        assert len(S) == 1

    def test_update_rejects_equivalent(self):
        S = SkylineSet()
        S.update(10.0, 0.2, "a")
        assert not S.update(10.0, 0.2, "b")

    def test_equal_semantic_shorter_length_replaces(self):
        S = SkylineSet()
        S.update(10.0, 0.2, "a")
        assert S.update(8.0, 0.2, "b")
        assert len(S) == 1 and S.routes()[0][2] == "b"

    def test_threshold_eq3(self):
        S = SkylineSet()
        S.update(10.0, 0.0, "perfect")
        S.update(6.0, 0.3, "mid")
        S.update(3.0, 0.6, "loose")
        # Route with min-semantic 0: only the s=0 entry qualifies.
        assert S.threshold(0.0) == 10.0
        assert S.threshold(0.3) == 6.0
        assert S.threshold(0.45) == 6.0
        assert S.threshold(0.9) == 3.0

    def test_threshold_empty(self):
        assert SkylineSet().threshold(0.5) == INF

    def test_threshold_below_all(self):
        S = SkylineSet()
        S.update(6.0, 0.3, "mid")
        assert S.threshold(0.1) == INF

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 1000).map(lambda x: x / 10.0),
                st.integers(0, 10).map(lambda x: x / 10.0),
            ),
            max_size=50,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_incremental_matches_batch(self, pairs):
        S = SkylineSet()
        for i, (l, s) in enumerate(pairs):
            S.update(l, s, i)
        got = {(l, s) for (l, s, _p) in S.routes()}
        assert got == brute_minimal_scores(pairs)

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 1000).map(lambda x: x / 10.0),
                st.integers(0, 10).map(lambda x: x / 10.0),
            ),
            min_size=1,
            max_size=30,
        ),
        st.integers(0, 10).map(lambda x: x / 10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_threshold_is_min_qualifying_length(self, pairs, s_query):
        S = SkylineSet()
        for i, (l, s) in enumerate(pairs):
            S.update(l, s, i)
        want = min((l for (l, s, _p) in S.routes() if s <= s_query + 1e-12), default=INF)
        assert S.threshold(s_query) == pytest.approx(want)

    def test_frontier_invariant(self):
        rng = np.random.default_rng(0)
        S = SkylineSet()
        for _ in range(200):
            S.update(float(rng.uniform(0, 50)), float(rng.uniform(0, 1)), None)
        ss = [s for (_l, s, _p) in S.routes()]
        ls = [l for (l, _s, _p) in S.routes()]
        assert ss == sorted(ss)
        assert ls == sorted(ls, reverse=True)


# Scores from a few values, each also nudged by one or two _EPS, so that
# exact ties, ties within the tolerance and near-misses just outside it all
# occur often; plus any float, and an unreachable length.
def _nudged(*values: float) -> st.SearchStrategy[float]:
    return st.sampled_from([v + k * _EPS for v in values for k in (-2, -1, 0, 1, 2) if v + k * _EPS >= 0])


_LENGTH = st.one_of(_nudged(0.0, 1.0, 2.0, 3.0), st.just(INF), st.floats(0.0, 10.0))
_SEMANTIC = st.one_of(_nudged(0.0, 0.25, 0.5, 1.0), st.floats(0.0, 1.0))


class TestAgainstReference:
    """The compiled frontier against the Python one it replaced."""

    @given(st.lists(st.tuples(_LENGTH, _SEMANTIC), max_size=80), st.lists(_SEMANTIC, max_size=6))
    @settings(max_examples=400, deadline=None)
    def test_same_entries_and_thresholds_after_every_update(self, stream, probes):
        S, ref = SkylineSet(), ReferenceSkylineSet()
        for i, (l, s) in enumerate(stream):
            assert S.update(l, s, i) == ref.update(l, s, i), (l, s)
            assert S.routes() == ref.routes()
            assert len(S) == len(ref)
            for x in [*probes, s, s - _EPS, s + _EPS, *(e[0] for e in ref.entries)]:
                assert S.threshold(x) == ref.threshold(x), x


class TestDuckDBSkylineOracle:
    def test_not_exists_dominance_sql(self, spark):
        """``SkylineSet`` fed random scores == DuckDB NOT EXISTS skyline
        (checked through the repo oracle)."""
        import pandas as pd

        from tests.oracle import assert_equivalent

        rng = np.random.default_rng(7)
        pdf = pd.DataFrame(
            {
                "length": rng.uniform(0, 50, 60).round(3),
                "semantic": rng.choice([0.0, 0.2, 0.4, 0.6], 60),
            }
        )
        S = SkylineSet()
        for l, s in zip(pdf["length"].tolist(), pdf["semantic"].tolist()):
            S.update(l, s, None)
        sdf = spark.createDataFrame([(l, s) for l, s, _p in S.routes()], "length DOUBLE, semantic DOUBLE")
        assert_equivalent(
            sdf,
            """
            SELECT DISTINCT length, semantic FROM cand c
            WHERE NOT EXISTS (
              SELECT 1 FROM cand o
              WHERE (o.length < c.length AND o.semantic <= c.semantic)
                 OR (o.semantic < c.semantic AND o.length <= c.length)
            )
            """,
            cand=pdf,
        )
