"""Experiment drivers (Tables 5–9, Figures 3–6 counters) — shape smoke
tests at tiny scale, asserting the *relationships* each paper table shows,
not absolute values."""
from __future__ import annotations

import pytest

from repro.tables import figures, table5, table6, table7, table8, table9
from repro.tables.common import fmt_table

SCALE = 0.06
NQ = 2


class TestTable5:
    def test_rows_local(self):
        rows = table5.rows(scale=SCALE)
        assert len(rows) == 3
        for r in rows:
            assert r["ours |V|"] > 0 and r["ours |P|"] > 0 and r["ours |E|"] > 0
        cal = next(r for r in rows if r["Dataset"] == "cal-lite")
        assert cal["ours |P|"] > cal["ours |V|"]  # Cal's PoI-dense signature

    def test_formatting(self):
        rows = table5.rows(scale=SCALE)
        text = fmt_table(rows, table5.COLUMNS)
        assert "tokyo-lite" in text and "paper |V|" in text


class TestTable6:
    @pytest.fixture(scope="class")
    def rows6(self):
        return table6.rows(scale=SCALE, n_queries=NQ, size=3)

    def test_all_cells_present(self, rows6):
        assert len(rows6) == 3
        for r in rows6:
            for a in table6.ALGOS:
                assert r[a] > 0

    def test_dij_heaviest(self, rows6):
        """Table 6's shape: Dij's route queue dominates its footprint."""
        for r in rows6:
            assert r["Dij"] >= r["BSSR"]
            assert r["Dij"] >= r["PNE"]

    def test_graph_dominates_bssr_and_pne(self, rows6):
        for r in rows6:
            assert r["BSSR"] < 3 * r["graph MB"] + 20
            assert r["PNE"] < 3 * r["graph MB"] + 20


class TestTable7:
    @pytest.fixture(scope="class")
    def rows7(self):
        return table7.rows(scale=SCALE, n_queries=NQ, sizes=(2, 3))

    def test_initial_search_shrinks_first_scan(self, rows7):
        for r in rows7:
            assert r["weight sum"] <= r["existing ws"]

    def test_existing_constant_in_size(self, rows7):
        """Without NNinit the first scan sweeps essentially the whole graph,
        so the metric barely depends on |S_q| (the paper's 'regardless
        |S_q|').  Queries differ per size and Lemma 5.5 stops expansion at
        perfect matches, so allow modest variation."""
        for name in {r["Dataset"] for r in rows7}:
            vals = [r["existing ws"] for r in rows7 if r["Dataset"] == name]
            assert max(vals) <= 1.5 * min(vals)

    def test_nninit_metrics_sane(self, rows7):
        for r in rows7:
            assert r["# routes"] >= 1
            assert 0 < r["ratio"] <= 1.0
            assert r["NNinit ms"] >= 0


class TestTable8:
    def test_proposed_never_worse(self):
        rows = table8.rows(scale=SCALE, n_queries=NQ, sizes=(2, 3))
        assert len(rows) == 6
        for r in rows:
            assert r["proposed"] <= r["distance-based"] * 1.05
            assert r["proposed"] > 0


class TestTable9:
    def test_usecase_rows(self):
        rows = table9.rows(scale=0.5)
        assert len(rows) >= 1
        for r in rows:
            assert r["Distance"] > 0
            assert 0 <= r["Semantic"] <= 1
            assert "->" in r["Sequenced route"]

    def test_semantic_diversity_when_multiple(self):
        rows = table9.rows(scale=0.5)
        if len(rows) >= 2:
            # Skyline: sorted by semantic, lengths must strictly decrease.
            ds = [r["Distance"] for r in rows]
            ss = [r["Semantic"] for r in rows]
            assert ss == sorted(ss)
            assert ds == sorted(ds, reverse=True)


class TestFigures:
    def test_fig3_rows(self):
        rows = figures.fig3_rows(scale=SCALE, n_queries=1, sizes=(2,))
        assert len(rows) == 3
        for r in rows:
            assert r["BSSR"] > 0 and r["Dij"] > 0 and r["PNE"] > 0

    def test_fig4_ratios(self):
        rows = figures.fig4_rows(scale=SCALE, n_queries=NQ, size=3)
        for r in rows:
            assert r["l_p / init length"] >= r["l_s / init length"] - 1e-9
            assert r["l_s / init length"] >= 0

    def test_fig5_cache_saves_runs(self):
        rows = figures.fig5_rows(scale=SCALE, n_queries=NQ, sizes=(3,))
        for r in rows:
            assert r["mDijkstra w/ cache"] <= r["mDijkstra w/o cache"]

    def test_fig6_counts(self):
        rows = figures.fig6_rows(scale=SCALE, n_queries=NQ, sizes=(2, 3))
        for r in rows:
            assert r["mean #SkySR"] >= 1
