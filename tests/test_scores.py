"""Route scores (Def. 3.4/3.5, Eq. 7) and partial-route bookkeeping."""
from __future__ import annotations

import pytest

from repro.core.scores import semantic_score
from repro.graphs.categories import foursquare_lite_forest
from repro.graphs.generator import graph_from_edges
from tests.conftest import is_sequenced_route, leaves_of_tree, route_scores


@pytest.fixture(scope="module")
def world():
    f = foursquare_lite_forest()
    t0 = leaves_of_tree(f, 0)  # Food leaves
    t1 = leaves_of_tree(f, 1)  # Shop leaves
    # Path graph 0-1-2-3-4 with PoIs at 1 (food), 3 (shop), 4 (food sibling).
    g = graph_from_edges(
        5,
        [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.5), (3, 4, 0.5)],
        {1: t0[0], 3: t1[0], 4: t0[1]},
    )
    return g, f, t0, t1


class TestSemanticScore:
    def test_perfect_product_is_zero(self):
        assert semantic_score(1.0) == 0.0

    def test_decreasing_in_product(self):
        assert semantic_score(0.5) > semantic_score(0.8)


class TestRouteScores:
    def test_perfect_route(self, world):
        g, f, t0, t1 = world
        l, s = route_scores(g, f, 0, [t0[0], t1[0]], (1, 3))
        assert l == pytest.approx(1.0 + 3.5)
        assert s == pytest.approx(0.0)

    def test_semantic_route(self, world):
        g, f, t0, t1 = world
        # PoI 4 is a sibling leaf of t0[0]: sim = 4/6.
        l, s = route_scores(g, f, 0, [t1[0], t0[0]], (3, 4))
        assert l == pytest.approx(4.5 + 0.5)
        assert s == pytest.approx(1 - 2 * 2 / 6)

    def test_size_mismatch_raises(self, world):
        g, f, t0, t1 = world
        with pytest.raises(ValueError):
            route_scores(g, f, 0, [t0[0]], (1, 3))

    def test_legs_are_shortest_paths(self, world):
        g, f, t0, _t1 = world
        # v_q = 4 to PoI 1 must use the full path back (0.5+1.5+2).
        l, _s = route_scores(g, f, 4, [t0[0]], (1,))
        assert l == pytest.approx(4.0)


class TestIsSequencedRoute:
    def test_valid(self, world):
        g, f, t0, t1 = world
        assert is_sequenced_route(g, f, [t0[0], t1[0]], (1, 3))
        assert is_sequenced_route(g, f, [t0[0], t0[0]], (1, 4))  # semantic match

    def test_wrong_size(self, world):
        g, f, t0, _ = world
        assert not is_sequenced_route(g, f, [t0[0]], (1, 3))

    def test_duplicate_poi(self, world):
        g, f, t0, _ = world
        assert not is_sequenced_route(g, f, [t0[0], t0[0]], (1, 1))

    def test_cross_tree_mismatch(self, world):
        g, f, t0, t1 = world
        assert not is_sequenced_route(g, f, [t1[0], t0[0]], (1, 3))

    def test_road_vertex_rejected(self, world):
        g, f, t0, t1 = world
        assert not is_sequenced_route(g, f, [t0[0], t1[0]], (0, 3))
