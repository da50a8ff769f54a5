"""QueryContext — the per-query match table."""
from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.brute import brute_force_skysr
from repro.baselines.naive import naive_skysr
from repro.core.bssr import bssr
from repro.core.query import QueryContext
from repro.graphs.categories import foursquare_lite_forest
from repro.graphs.generator import graph_from_edges, road_network
from tests.conftest import (
    children,
    leaves_of_tree,
    matches,
    perfect_matches,
    pois_of_tree,
    random_query,
    wu_palmer,
)


@pytest.fixture(scope="module")
def world():
    f = foursquare_lite_forest()
    g = road_network(n_road=100, n_edges_road=130, n_pois=60, forest=f, seed=13)
    return g, f


class TestMatchTables:
    def test_sim_arr_matches_forest(self, world):
        """Every vertex's entry is exactly its best category's Wu–Palmer
        similarity, over its primary and §6 extra categories.  The second
        world has a PoI with extra categories, a road vertex with extra
        categories only, and an empty extra list."""
        g, f = world
        rng = np.random.default_rng(0)
        v_q, cats = random_query(g, f, rng, 3)
        leaf = leaves_of_tree(f, 0)[0]
        sibling = next(c for c in children(f, f.parent[leaf]) if c != leaf)
        other = leaves_of_tree(f, 1)[0]
        g6 = graph_from_edges(
            5,
            [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)],
            {2: other, 3: sibling, 4: leaf},
            n_road=2,
            extra_cats={2: [sibling], 0: [f.parent[leaf], other], 3: []},
        )
        ctx6 = QueryContext(g6, f, 1, [leaf, other])
        for ctx in (QueryContext(g, f, v_q, cats), ctx6):
            for i, c in enumerate(ctx.seq_cats):
                for v in range(ctx.graph.n_vertices):
                    cats_v = [int(ctx.graph.cat_of[v])] if ctx.graph.cat_of[v] >= 0 else []
                    cats_v += ctx.graph.extra_cats.get(v, [])
                    assert ctx.sim_at(i, v) == max((wu_palmer(f, c2, c) for c2 in cats_v), default=0.0)
        assert ctx6.sim[:, 0].tolist() == [0.8, 1.0]  # a road vertex, matching through extras only
        assert ctx6.sim[:, 2].tolist() == [2 / 3, 1.0]

    def test_road_vertices_never_match(self, world):
        g, f = world
        rng = np.random.default_rng(1)
        v_q, cats = random_query(g, f, rng, 2)
        ctx = QueryContext(g, f, v_q, cats)
        for i in range(ctx.k):
            assert all(v >= g.n_road for v in matches(ctx, i))

    def test_perfect_subset_of_tree(self, world):
        g, f = world
        rng = np.random.default_rng(2)
        v_q, cats = random_query(g, f, rng, 3)
        ctx = QueryContext(g, f, v_q, cats)
        for i in range(ctx.k):
            assert set(perfect_matches(ctx, i)) <= set(matches(ctx, i))
            for p in perfect_matches(ctx, i):
                assert ctx.sim_at(i, p) == 1.0

    def test_tree_pois_is_whole_tree(self, world):
        g, f = world
        rng = np.random.default_rng(3)
        v_q, cats = random_query(g, f, rng, 2)
        ctx = QueryContext(g, f, v_q, cats)
        for i, c in enumerate(cats):
            want = set(int(p) for p in pois_of_tree(g, f, f.tree_id[c]))
            assert set(matches(ctx, i)) == want


class TestGates:
    def test_distinct_trees_gate_on(self, world):
        g, f = world
        rng = np.random.default_rng(4)
        v_q, cats = random_query(g, f, rng, 3)
        ctx = QueryContext(g, f, v_q, cats)
        assert ctx.trees_distinct
        assert np.array_equal(ctx.through, ctx.sim != 1.0)

    def test_repeated_tree_gate_off(self, world):
        g, f = world
        leaves0 = [c for c in leaves_of_tree(f, 0) if len(g.pois_of_category(c))]
        if len(leaves0) < 2:
            pytest.skip("need two populated leaves in one tree")
        ctx = QueryContext(g, f, 0, [leaves0[0], leaves0[1]])
        assert not ctx.trees_distinct
        assert ctx.through is None


class TestNonperfectBounds:
    def test_max_nonperfect_is_category_level(self, world):
        g, f = world
        leaf = leaves_of_tree(f, 0)[0]
        ctx = QueryContext(g, f, 0, [leaf])
        # For a depth-3 leaf the best non-equal category is its parent: 0.8.
        assert ctx.max_nonperfect[0] == pytest.approx(f.max_nonperfect(f.sim_row(leaf)))

    def test_suffix_is_max_over_remaining(self, world):
        g, f = world
        rng = np.random.default_rng(5)
        v_q, cats = random_query(g, f, rng, 3)
        ctx = QueryContext(g, f, v_q, cats)
        for pos in range(ctx.k + 1):
            want = max(ctx.max_nonperfect[pos:], default=0.0)
            assert ctx.nonperfect_suffix[pos] == pytest.approx(want)

    def test_suffix_bound_dominates_achievable(self, world):
        """Any non-perfect single-position match factor achievable by an
        actual PoI must be <= the category-level bound (Lemma 5.8 safety)."""
        g, f = world
        rng = np.random.default_rng(6)
        v_q, cats = random_query(g, f, rng, 3)
        ctx = QueryContext(g, f, v_q, cats)
        for i in range(ctx.k):
            sims = ctx.sim[i][ctx.sim[i] > 0]
            nonperf = sims[sims < 1.0]
            if len(nonperf):
                assert nonperf.max() <= ctx.max_nonperfect[i] + 1e-12


# Bad queries as (v_q, S_q, destination) for a graph g and forest f; category
# 0 and vertex 0 are valid, so each query has exactly one fault.
_BAD_QUERIES = {
    "v_q-negative": (lambda g, f: (-1, [0], None), "v_q -1 is outside"),
    "v_q-past-end": (lambda g, f: (g.n_vertices, [0], None), "v_q .* is outside"),
    "destination-negative": (lambda g, f: (0, [0], -1), "destination -1 is outside"),
    "destination-past-end": (lambda g, f: (0, [0], g.n_vertices), "destination .* is outside"),
    "category-negative": (lambda g, f: (0, [0, -1], None), "category id -1 is outside"),
    "category-past-end": (lambda g, f: (0, [f.n_categories], None), "category id .* is outside"),
    "empty-S_q": (lambda g, f: (0, [], None), "empty category sequence"),
}


class TestValidation:
    """Every engine builds a QueryContext, so each rejects the same bad query."""

    @pytest.mark.parametrize("engine", [bssr, naive_skysr, brute_force_skysr])
    @pytest.mark.parametrize("case", list(_BAD_QUERIES))
    def test_bad_query_raises(self, world, engine, case):
        g, f = world
        make, message = _BAD_QUERIES[case]
        v_q, cats, dest = make(g, f)
        with pytest.raises(ValueError, match=message):
            engine(g, f, v_q, cats, destination=dest)
