"""A worked Figure-1-style example (§1 / §5.5) on a hand-built graph.

The paper's running example graph is only partially specified, so this
rebuilds its *structure*: a start vertex, Asian/Italian restaurants (Food
tree), A&E places, and Gift/Hobby shops (Shop tree), where the perfect-match
route is long and a semantically looser route is much shorter — then checks
every algorithm end-to-end against hand-computed scores.
"""
from __future__ import annotations

import pytest

from repro.baselines.brute import brute_force_skysr, score_set
from repro.baselines.naive import naive_skysr
from repro.core.bssr import BSSROptions, bssr
from repro.core.nninit import nninit
from repro.core.query import QueryContext
from repro.graphs.categories import foursquare_lite_forest
from repro.graphs.generator import graph_from_edges
from tests.conftest import children


@pytest.fixture(scope="module")
def example():
    f = foursquare_lite_forest()
    asian_mid = children(f, 0)[0]  # "Asian Restaurant" mid category
    asian = next(c for c in range(f.n_categories) if f.parent[c] == asian_mid)
    italian_mid = children(f, 0)[1]  # "European Restaurant" stands in for Italian
    italian = next(c for c in range(f.n_categories) if f.parent[c] == italian_mid)
    ae_root_kids = children(f, 2 * 29)  # Arts & Entertainment tree root (tree 2)
    museum = next(c for c in range(f.n_categories) if f.parent[c] == ae_root_kids[0])
    shop_mid_gift = children(f, 29)[0]  # "Gift Shop" mid of Shop tree (tree 1)
    gift = next(c for c in range(f.n_categories) if f.parent[c] == shop_mid_gift)
    shop_mid_hobby = children(f, 29)[3]
    hobby = next(c for c in range(f.n_categories) if f.parent[c] == shop_mid_hobby)

    # Vertex 0 = v_q.  A long "perfect" corridor 0-1-2-3 (asian, A&E, gift)
    # and a short "semantic" corridor 0-4-5-6 (italian, A&E, hobby).
    edges = [
        (0, 1, 4.0), (1, 2, 4.0), (2, 3, 4.0),   # perfect corridor, length 12
        (0, 4, 1.0), (4, 5, 1.0), (5, 6, 1.0),   # semantic corridor, length 3
        (3, 6, 10.0),                            # back link keeps it connected
    ]
    pois = {1: asian, 2: museum, 3: gift, 4: italian, 5: museum, 6: hobby}
    g = graph_from_edges(7, edges, pois)
    return g, f, {"asian": asian, "italian": italian, "museum": museum, "gift": gift, "hobby": hobby}


class TestHandComputedScores:
    def test_brute_force_skyline(self, example):
        g, f, cats = example
        query = [cats["asian"], cats["museum"], cats["gift"]]
        rows = brute_force_skysr(g, f, 0, query)
        scores = score_set(rows)
        # Perfect route <1,2,3>: l = 4+4+4 = 12, s = 0.
        assert (12.0, 0.0) in scores
        # Fully semantic route <4,5,6>: l = 1+1+1 = 3,
        # s = 1 - sim(it,as)*1*sim(hobby,gift) = 1 - (2/6)*(2/6) = 8/9.
        sem = 1 - (2 / 6) * (2 / 6)
        assert any(l == pytest.approx(3.0) and s == pytest.approx(sem) for l, s in scores)

    def test_bssr_matches_and_includes_both_corridors(self, example):
        g, f, cats = example
        query = [cats["asian"], cats["museum"], cats["gift"]]
        res = bssr(g, f, 0, query)
        assert res.score_set() == score_set(brute_force_skysr(g, f, 0, query))
        routes = {r for (_l, _s, r) in res.routes}
        assert (1, 2, 3) in routes  # perfect but long
        assert (4, 5, 6) in routes  # loose but short

    def test_mixed_route_in_skyline(self, example):
        """<4, 5, 3>: italian corridor then cross to the gift shop —
        l = 1+1+ (1+1+... ) hand-check it appears iff undominated."""
        g, f, cats = example
        query = [cats["asian"], cats["museum"], cats["gift"]]
        rows = brute_force_skysr(g, f, 0, query)
        # dist(5 -> 3): 5-6(1) + 6-3(10) = 11 vs 5-4-0-1-2-3(14) -> 11.
        l_mixed = 1 + 1 + 11
        s_mixed = 1 - (2 / 6)  # only position 1 is loose
        in_skyline = any(
            l == pytest.approx(l_mixed) and s == pytest.approx(s_mixed)
            for (l, s, _r) in rows
        )
        # (12, 0) dominates (13, 2/3): longer AND semantically worse.
        assert not in_skyline

    def test_naive_baseline_agrees_here(self, example):
        g, f, cats = example
        query = [cats["asian"], cats["museum"], cats["gift"]]
        want = score_set(brute_force_skysr(g, f, 0, query))
        for engine in ("dijkstra", "pne"):
            assert score_set(naive_skysr(g, f, 0, query, engine=engine)) == want

    def test_all_option_combos_agree(self, example):
        g, f, cats = example
        query = [cats["asian"], cats["museum"], cats["gift"]]
        want = score_set(brute_force_skysr(g, f, 0, query))
        for nn in (True, False):
            for md in (True, False):
                opts = BSSROptions(use_nninit=nn, use_min_dist=md)
                assert bssr(g, f, 0, query, options=opts).score_set() == want


class TestNNinitOnExample:
    def test_seeds_perfect_route(self, example):
        g, f, cats = example
        ctx = QueryContext(g, f, 0, [cats["asian"], cats["museum"], cats["gift"]])
        S = nninit(ctx)
        perfect = [(l, r) for (l, s, r) in S.routes() if s == 0.0]
        assert perfect and perfect[0][1] == (1, 2, 3)
        assert perfect[0][0] == pytest.approx(12.0)


class TestTable9Shape:
    def test_semantic_route_much_shorter(self, example):
        """The §7.5 headline: the loosest SkySR is far shorter than the
        perfect one (paper: 1295 m vs 7451 m)."""
        g, f, cats = example
        query = [cats["asian"], cats["museum"], cats["gift"]]
        res = bssr(g, f, 0, query)
        perfect_l = min(l for (l, s, _r) in res.routes if s == 0.0)
        loosest = max(res.routes, key=lambda r: r[1])
        assert loosest[0] < 0.5 * perfect_l
