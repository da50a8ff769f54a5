"""NNinit (§5.3.1, Algorithm 3) — greedy initial search."""
from __future__ import annotations

import pytest

from repro.core.nninit import nninit, nninit_ratio
from repro.core.query import QueryContext
from repro.graphs.categories import foursquare_lite_forest
from repro.graphs.generator import graph_from_edges
from tests.conftest import is_sequenced_route, leaves_of_tree, random_query, route_scores


@pytest.fixture(scope="module")
def chain_world():
    """Line graph: vq=0, food PoIs at 2 (perfect) and 1 (sibling), shop PoIs
    at 4 (sibling of target) and 5 (perfect)."""
    f = foursquare_lite_forest()
    food = leaves_of_tree(f, 0)
    shop = leaves_of_tree(f, 1)
    g = graph_from_edges(
        6,
        [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 5, 1.0)],
        {1: food[1], 2: food[0], 4: shop[1], 5: shop[0]},
    )
    return g, f, food, shop


class TestNNinitChain:
    def test_finds_perfect_route(self, chain_world):
        g, f, food, shop = chain_world
        ctx = QueryContext(g, f, 0, [food[0], shop[0]])
        S = nninit(ctx)
        rows = S.routes()
        perfect = [r for (l, s, r) in rows if s == 0.0]
        assert perfect == [(2, 5)]
        l0 = [l for (l, s, _r) in rows if s == 0.0][0]
        assert l0 == pytest.approx(2 + 3)

    def test_collects_semantic_matches_on_last_leg(self, chain_world):
        g, f, food, shop = chain_world
        ctx = QueryContext(g, f, 0, [food[0], shop[0]])
        S = nninit(ctx)
        # PoI 4 (sibling shop) is settled before 5, so <2,4> is also found.
        assert len(S) == 2
        semantic = [(l, s, r) for (l, s, r) in S.routes() if s > 0]
        assert semantic[0][2] == (2, 4)
        assert semantic[0][0] == pytest.approx(2 + 2)

    def test_ratio_below_one(self, chain_world):
        g, f, food, shop = chain_world
        ctx = QueryContext(g, f, 0, [food[0], shop[0]])
        S = nninit(ctx)
        assert nninit_ratio(S) == pytest.approx(4 / 5)

    def test_greedy_is_not_global_optimum_by_design(self, chain_world):
        """NNinit chains nearest perfect matches — an upper bound seeding,
        not the OSR; its perfect route length must be >= the true optimum."""
        g, f, food, shop = chain_world
        from repro.baselines.brute import brute_force_skysr

        bf = brute_force_skysr(g, f, 0, [food[0], shop[0]])
        best_perfect = min(l for (l, s, _r) in bf if s == 0.0)
        ctx = QueryContext(g, f, 0, [food[0], shop[0]])
        S = nninit(ctx)
        l0 = [l for (l, s, _r) in S.routes() if s == 0.0][0]
        assert l0 >= best_perfect - 1e-12


class TestNNinitEdgeCases:
    def test_no_perfect_match_returns_partial_findings(self):
        f = foursquare_lite_forest()
        food = leaves_of_tree(f, 0)
        shop = leaves_of_tree(f, 1)
        # Only a *sibling* of the requested shop category exists.
        g = graph_from_edges(
            4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)], {1: food[0], 3: shop[1]}
        )
        ctx = QueryContext(g, f, 0, [food[0], shop[0]])
        S = nninit(ctx)
        rows = S.routes()
        assert len(rows) == 1  # the semantic route, found during the last leg
        assert rows[0][2] == (1, 3)
        assert rows[0][1] > 0

    def test_missing_intermediate_perfect_aborts_softly(self):
        f = foursquare_lite_forest()
        food = leaves_of_tree(f, 0)
        shop = leaves_of_tree(f, 1)
        g = graph_from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)], {2: shop[0]})
        ctx = QueryContext(g, f, 0, [food[0], shop[0]])
        S = nninit(ctx)
        assert len(S) == 0  # no food PoI at all -> no routes, no crash

    def test_distinct_poi_constraint(self):
        """Same tree twice: the single perfect PoI cannot be reused."""
        f = foursquare_lite_forest()
        food = leaves_of_tree(f, 0)
        g = graph_from_edges(
            4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)], {1: food[0], 3: food[0]}
        )
        ctx = QueryContext(g, f, 0, [food[0], food[0]])
        S = nninit(ctx)
        for _l, _s, r in S.routes():
            assert len(set(r)) == len(r)

    def test_ratio_degenerate_sets(self):
        from repro.core.dominance import SkylineSet

        S = SkylineSet()
        assert nninit_ratio(S) == 1.0
        S.update(5.0, 0.3, (1,))
        assert nninit_ratio(S) == 1.0  # no perfect route found


class TestNNinitRandomized:
    @pytest.mark.parametrize("seed", range(6))
    def test_outputs_are_valid_sequenced_routes(self, random_world_factory, seed):
        g, f, rng = random_world_factory(seed)
        v_q, cats = random_query(g, f, rng, 2 + seed % 2)
        ctx = QueryContext(g, f, v_q, cats)
        S = nninit(ctx)
        for l, s, r in S.routes():
            assert is_sequenced_route(g, f, cats, r)
            l2, s2 = route_scores(g, f, v_q, cats, r)
            # NNinit lengths chain greedy legs, which are genuine shortest
            # paths between consecutive choices — scores must be exact.
            assert l == pytest.approx(l2)
            assert s == pytest.approx(s2)
