"""Category forest and Wu–Palmer similarity (Def. 3.3, Eq. 6)."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.categories import CategoryForest, build_forest, foursquare_lite_forest, generated_forest
from tests.conftest import children, depth2_forest, lca, leaves_of_tree, wu_palmer


@pytest.fixture(scope="module")
def fsq() -> CategoryForest:
    return foursquare_lite_forest()


@pytest.fixture(scope="module")
def cal() -> CategoryForest:
    return generated_forest(49, fanout=3, height=3)


# ------------------------------------------------------------ construction
class TestConstruction:
    def test_foursquare_has_10_trees(self, fsq):
        assert fsq.n_trees == 10

    def test_foursquare_structure(self, fsq):
        # 10 trees x (1 root + 4 mids + 24 leaves)
        assert fsq.n_categories == 10 * 29
        assert sum(1 for d in fsq.depth if d == 1) == 10
        assert sum(1 for d in fsq.depth if d == 2) == 40
        assert sum(1 for d in fsq.depth if d == 3) == 240

    def test_cal_forest_matches_paper_footnote5(self, cal):
        # height three, fanout three: 1+3+9 = 13 nodes per tree, 49 trees
        # => 637 categories ~ the Cal dataset's 635.
        assert cal.n_categories == 49 * 13
        assert cal.n_trees == 49

    def test_roots_have_no_parent(self, fsq):
        for c in range(fsq.n_categories):
            assert (fsq.parent[c] == -1) == (fsq.depth[c] == 1)

    def test_depth_consistent_with_parent(self, fsq):
        for c in range(fsq.n_categories):
            if fsq.parent[c] != -1:
                assert fsq.depth[c] == fsq.depth[fsq.parent[c]] + 1

    def test_ancestors_chain(self, fsq):
        for c in range(0, fsq.n_categories, 17):
            chain = fsq.ancestors(c)
            assert chain[0] == c
            assert fsq.parent[chain[-1]] == -1
            assert [fsq.depth[a] for a in chain] == list(range(fsq.depth[c], 0, -1))

    def test_leaves_of_tree(self, fsq):
        leaves = leaves_of_tree(fsq, 0)
        assert len(leaves) == 24
        assert all(fsq.tree_id[c] == 0 and fsq.depth[c] == 3 for c in leaves)

    def test_depth2_forest(self):
        f = depth2_forest(4, 3)
        assert f.n_categories == 4 * 4
        assert max(f.depth) == 2

    def test_build_forest_empty_mid(self):
        f = build_forest([("solo", [])])
        assert f.n_categories == 1
        assert f.leaves() == [0]

    def test_children(self, fsq):
        root0 = 0
        kids = children(fsq, root0)
        assert len(kids) == 4
        assert all(fsq.parent[k] == root0 for k in kids)


# ------------------------------------------------------------- similarity
class TestSimilarity:
    def test_identity(self, fsq):
        for c in range(0, fsq.n_categories, 13):
            assert fsq.sim_row(c)[c] == 1.0

    def test_cross_tree_zero(self, fsq):
        t0 = leaves_of_tree(fsq, 0)[0]
        t1 = leaves_of_tree(fsq, 1)[0]
        assert fsq.sim_row(t1)[t0] == 0.0

    def test_symmetry(self, fsq):
        leaves = fsq.leaves()
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b = rng.choice(leaves, 2)
            assert fsq.sim_row(int(b))[int(a)] == fsq.sim_row(int(a))[int(b)]

    def test_sibling_leaves_wu_palmer(self, fsq):
        # Two leaves under the same mid: lca depth 2, both depth 3 -> 4/6.
        mid = children(fsq, 0)[0]
        l1, l2 = [c for c in range(fsq.n_categories) if fsq.parent[c] == mid][:2]
        assert fsq.sim_row(l2)[l1] == pytest.approx(2 * 2 / (3 + 3))

    def test_cousin_leaves_wu_palmer(self, fsq):
        # Leaves under different mids of one tree: lca is the root -> 2/6.
        m1, m2 = children(fsq, 0)[:2]
        l1 = next(c for c in range(fsq.n_categories) if fsq.parent[c] == m1)
        l2 = next(c for c in range(fsq.n_categories) if fsq.parent[c] == m2)
        assert fsq.sim_row(l2)[l1] == pytest.approx(2 * 1 / (3 + 3))

    def test_parent_child(self, fsq):
        mid = children(fsq, 0)[0]
        leaf = next(c for c in range(fsq.n_categories) if fsq.parent[c] == mid)
        assert fsq.sim_row(leaf)[mid] == pytest.approx(2 * 2 / (2 + 3))
        assert fsq.sim_row(leaf)[0] == pytest.approx(2 * 1 / (1 + 3))

    def test_range(self, cal):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a, b = rng.integers(0, cal.n_categories, 2)
            s = cal.sim_row(int(b))[int(a)]
            assert 0.0 <= s <= 1.0

    def test_max_nonperfect_sim_leaf(self, fsq):
        leaf = leaves_of_tree(fsq, 0)[0]
        # Best non-equal category for a depth-3 leaf is a sibling leaf (4/6)
        # or its parent (4/5) — parent wins.
        assert fsq.max_nonperfect(fsq.sim_row(leaf)) == pytest.approx(0.8)

    def test_lca_cross_tree(self, fsq):
        assert lca(fsq, 0, leaves_of_tree(fsq, 1)[0]) == -1

    @pytest.mark.parametrize(
        "forest",
        [
            foursquare_lite_forest(),
            generated_forest(49),
            depth2_forest(3, 4),
            build_forest([("solo", [])]),
        ],
        ids=["foursquare-lite", "generated-49", "depth2", "one-category"],
    )
    def test_sim_row_is_wu_palmer_on_every_pair(self, forest):
        """The vectorised row equals the LCA walk exactly, on every pair,
        and footnote 2's delta is its largest entry below 1: 0.0, not an
        error, for a category alone in its tree."""
        for c in range(forest.n_categories):
            want = [wu_palmer(forest, c2, c) for c2 in range(forest.n_categories)]
            assert forest.sim_row(c).tolist() == want
            assert forest.max_nonperfect(forest.sim_row(c)) == max(want[:c] + want[c + 1 :], default=0.0)

    @given(st.integers(2, 5), st.integers(2, 4), st.data())
    @settings(max_examples=25, deadline=None)
    def test_sim_properties_generated(self, n_trees, fanout, data):
        f = generated_forest(n_trees, fanout=fanout, height=3)
        a = data.draw(st.integers(0, f.n_categories - 1))
        b = data.draw(st.integers(0, f.n_categories - 1))
        s = f.sim_row(b)[a]
        assert 0.0 <= s <= 1.0
        assert s == f.sim_row(a)[b]
        assert (s == 1.0) == (a == b)
        assert (s == 0.0) == (f.tree_id[a] != f.tree_id[b])

