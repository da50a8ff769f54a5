"""OSR engines (Dij / PNE) and the naive super-sequence SkySR baseline."""
from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.baselines.osr as osr_mod
from repro.baselines.brute import brute_force_skysr, score_set
from repro.baselines.naive import (
    naive_skysr,
    subtree_match_set,
    super_category_sequences,
)
from repro.baselines.osr import osr_dijkstra, osr_pne
from repro.core.bssr import bssr
from repro.core.query import QueryContext
from repro.graphs.categories import foursquare_lite_forest, generated_forest
from repro.graphs.dijkstra import dijkstra, settle_to
from repro.graphs.generator import graph_from_edges
from tests.conftest import leaves_of_tree, matches, perfect_matches, pois_of_tree, random_query


def brute_osr(graph, v_q, match_sets):
    """Reference OSR: enumerate all distinct PoI tuples."""
    best = None
    rows = {v_q: dijkstra(graph, v_q)}
    for m in match_sets:
        for p in m:
            p = int(p)
            if p not in rows:
                rows[p] = dijkstra(graph, p)
    for combo in itertools.product(*[list(map(int, m)) for m in match_sets]):
        if len(set(combo)) != len(combo):
            continue
        length = rows[v_q][combo[0]]
        prev = combo[0]
        for p in combo[1:]:
            length += rows[prev][p]
            prev = p
        if np.isfinite(length) and (best is None or length < best[0]):
            best = (float(length), combo)
    return best


def _assert_valid_route(graph, v_q, match_sets, hit):
    """``hit`` visits one distinct PoI per position, in order, and its
    length is the sum of its shortest legs."""
    length, route = hit
    assert len(route) == len(match_sets) and len(set(route)) == len(route)
    for p, m in zip(route, match_sets):
        assert p in set(int(x) for x in m)
    assert sum(dijkstra(graph, a)[b] for a, b in zip((v_q, *route), route)) == pytest.approx(length)


@st.composite
def _osr_worlds(draw):
    """Small undirected multigraphs with weights 1-3, so distance ties are
    common, often in several components; 1-3 match sets that may overlap.
    Returns ``(graph, v_q, match_sets)``."""
    n = draw(st.integers(2, 9))
    edges = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 3)), max_size=2 * n)
    )
    g = graph_from_edges(n, [(u, v, float(w)) for u, v, w in edges], {})
    k = draw(st.integers(1, 3))
    sets = [np.array(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1))), dtype=np.int64) for _ in range(k)]
    return g, draw(st.integers(0, n - 1)), sets


class TestOSREngines:
    @pytest.mark.parametrize("engine", [osr_dijkstra, osr_pne])
    @pytest.mark.parametrize("seed", range(5))
    def test_optimal_length(self, random_world_factory, engine, seed):
        g, f, rng = random_world_factory(seed, n_road=80, n_pois=50)
        v_q, cats = random_query(g, f, rng, 3)
        ctx = QueryContext(g, f, v_q, cats)
        sets = [perfect_matches(ctx, i) for i in range(ctx.k)]
        if any(len(s) == 0 for s in sets):
            pytest.skip("a position has no perfect match")
        want = brute_osr(g, v_q, sets)
        got = engine(g, v_q, sets)
        assert (got is None) == (want is None)
        if want is not None:
            assert got[0] == pytest.approx(want[0])

    @pytest.mark.parametrize("seed", range(3))
    def test_engines_agree(self, random_world_factory, seed):
        g, f, rng = random_world_factory(seed + 10, n_road=80, n_pois=50)
        v_q, cats = random_query(g, f, rng, 2)
        ctx = QueryContext(g, f, v_q, cats)
        sets = [matches(ctx, i) for i in range(ctx.k)]
        a = osr_dijkstra(g, v_q, sets)
        b = osr_pne(g, v_q, sets)
        assert (a is None) == (b is None)
        if a is not None:
            assert a[0] == pytest.approx(b[0])

    def test_empty_match_set(self, random_world_factory):
        g, _f, _rng = random_world_factory(0)
        assert osr_dijkstra(g, 0, [np.array([], dtype=np.int64)]) is None
        assert osr_pne(g, 0, [np.array([], dtype=np.int64)]) is None

    def test_route_is_returned_in_order(self, random_world_factory):
        g, f, rng = random_world_factory(2)
        v_q, cats = random_query(g, f, rng, 3)
        ctx = QueryContext(g, f, v_q, cats)
        sets = [matches(ctx, i) for i in range(ctx.k)]
        hit = osr_dijkstra(g, v_q, sets)
        assert hit is not None
        _l, route = hit
        for pos, p in enumerate(route):
            assert p in set(int(x) for x in sets[pos])

    def test_queue_peak_stat(self, random_world_factory):
        g, f, rng = random_world_factory(3)
        v_q, cats = random_query(g, f, rng, 2)
        ctx = QueryContext(g, f, v_q, cats)
        sets = [matches(ctx, i) for i in range(ctx.k)]
        sd, sp = {}, {}
        osr_dijkstra(g, v_q, sets, stats=sd)
        osr_pne(g, v_q, sets, stats=sp)
        # The Table 6 mechanism: Dij's route queue dwarfs PNE's.
        assert sd["queue_peak"] >= sp["queue_peak"]


class TestPNELazyLists:
    """PNE over neighbour lists grown on demand is still exact."""

    @settings(max_examples=300, deadline=None)
    @given(_osr_worlds())
    def test_length_equals_brute_force(self, world):
        g, v_q, sets = world
        want = brute_osr(g, v_q, sets)
        got = osr_pne(g, v_q, sets)
        assert (got is None) == (want is None)
        if want is not None:
            assert got[0] == want[0]
            _assert_valid_route(g, v_q, sets, got)

    def test_directed_ranks_past_the_reachable_list(self, monkeypatch):
        """Position 0 matches 1, 2 and 5; 5 cannot be reached from v_q = 0.
        Position 1 matches 3, reachable only through 2, and 6, reachable
        from nowhere.  PNE must take 2, the second neighbour, and then asks
        for rank 2 of a list whose reachable part holds only 1 and 2."""
        edges = [(0, 1, 1.0), (0, 2, 2.0), (1, 4, 1.0), (2, 3, 1.0), (5, 0, 1.0), (6, 5, 1.0)]
        g = graph_from_edges(7, edges, {}, directed=True)
        sets = [np.array([1, 2, 5]), np.array([3, 6])]
        exhausted = []

        def spy(graph, sources, target, *, limit=None):
            found = settle_to(graph, sources, target, limit=limit)
            if limit is None or len(found) < limit:
                exhausted.append(tuple(sources))  # the search ran out before the caller's limit
            return found

        monkeypatch.setattr(osr_mod, "settle_to", spy)
        got = osr_pne(g, 0, sets)
        assert got == brute_osr(g, 0, sets) == (3.0, (2, 3))
        _assert_valid_route(g, 0, sets, got)
        assert (0,) in exhausted


class TestSuperSequences:
    def test_count_is_product_of_depths(self, random_world_factory):
        _g, f, _rng = random_world_factory(0)
        cats = [leaves_of_tree(f, 0)[0], leaves_of_tree(f, 1)[0]]
        seqs = super_category_sequences(f, cats)
        assert len(seqs) == f.depth[cats[0]] * f.depth[cats[1]]
        assert (cats[0], cats[1]) in seqs

    def test_each_position_is_ancestor(self, random_world_factory):
        _g, f, _rng = random_world_factory(0)
        cats = [leaves_of_tree(f, 2)[3], leaves_of_tree(f, 4)[1]]
        for sseq in super_category_sequences(f, cats):
            for anc, c in zip(sseq, cats):
                assert anc in f.ancestors(c)

    def test_subtree_match_set(self, random_world_factory):
        g, f, _rng = random_world_factory(1)
        root0 = 0
        got = set(int(p) for p in subtree_match_set(g, f, root0))
        want = set(int(p) for p in pois_of_tree(g, f, 0))
        assert got == want  # root closure == whole tree

    def test_subtree_match_leaf_is_exact(self, random_world_factory):
        g, f, _rng = random_world_factory(1)
        leaf = leaves_of_tree(f, 0)[0]
        got = set(int(p) for p in subtree_match_set(g, f, leaf))
        assert got == set(int(p) for p in g.pois_of_category(leaf))

    @pytest.mark.parametrize("forest", [foursquare_lite_forest(), generated_forest(4)], ids=["foursquare", "generated"])
    def test_subtree_match_set_equals_ancestor_definition(self, forest):
        """Every category, inner ones included, carries one PoI; each
        subtree set is the PoIs whose category has ``anc`` as an ancestor."""
        n_road, n_cat = 3, forest.n_categories
        g = graph_from_edges(n_road + n_cat, [], {n_road + c: c for c in range(n_cat)})
        for anc in range(n_cat):
            want = [n_road + c for c in range(n_cat) if anc in forest.ancestors(c)]
            assert subtree_match_set(g, forest, anc).tolist() == want, anc


class TestNaiveSkySR:
    @pytest.mark.parametrize("engine", ["dijkstra", "pne"])
    @pytest.mark.parametrize("seed", range(4))
    def test_depth2_equals_bssr_and_brute(self, random_world_factory, engine, seed):
        """On depth-2 forests the naive baseline is provably exact
        (DESIGN.md §deviations-4): all three methods must agree."""
        g, f, rng = random_world_factory(seed, depth2=True)
        v_q, cats = random_query(g, f, rng, 3)
        want = score_set(brute_force_skysr(g, f, v_q, cats))
        nv = score_set(naive_skysr(g, f, v_q, cats, engine=engine))
        bs = bssr(g, f, v_q, cats).score_set()
        assert bs == want
        assert nv == want

    @pytest.mark.parametrize("seed", range(3))
    def test_deep_trees_subset_of_candidates(self, random_world_factory, seed):
        """On deeper forests the naive result is a set of genuine sequenced
        routes whose perfect-match candidate always appears; every naive
        route must be undominated within the naive candidate set and never
        dominate a BSSR skyline member."""
        from repro.core.dominance import dominates

        g, f, rng = random_world_factory(seed)
        v_q, cats = random_query(g, f, rng, 2)
        nv = naive_skysr(g, f, v_q, cats, engine="dijkstra")
        truth = bssr(g, f, v_q, cats).routes
        for l, s, _r in nv:
            assert not any(dominates((l, s), (tl, ts)) for (tl, ts, _tr) in truth)

    def test_osr_query_count_matches_enumeration(self, random_world_factory):
        g, f, rng = random_world_factory(5)
        v_q, cats = random_query(g, f, rng, 2)
        stats: dict = {}
        naive_skysr(g, f, v_q, cats, engine="pne", stats=stats)
        assert stats["osr_queries"] == len(super_category_sequences(f, cats))

    def test_unknown_engine_raises(self, random_world_factory):
        g, f, rng = random_world_factory(5)
        v_q, cats = random_query(g, f, rng, 2)
        with pytest.raises(ValueError, match="unknown OSR engine"):
            naive_skysr(g, f, v_q, cats, engine="PNE")

    def test_destination_variant(self, random_world_factory):
        g, f, rng = random_world_factory(6, depth2=True)
        v_q, cats = random_query(g, f, rng, 2)
        dest = int(rng.integers(0, g.n_road))
        want = score_set(brute_force_skysr(g, f, v_q, cats, destination=dest))
        nv = score_set(naive_skysr(g, f, v_q, cats, engine="dijkstra", destination=dest))
        assert nv == want


# naive_skysr(engine="pne") on five fixed tiny_tokyo queries (those of
# test_bssr.TestPinnedCounters): skyline rows (l, s rounded to 9 digits,
# route) and the OSR queue peak, recorded with the eager neighbour lists.
_PINNED_PNE = {
    (92, (248, 111, 213)): (
        [
            (1.041368048, 0.777777778, (203, 173, 197)),
            (1.098057958, 0.666666667, (203, 173, 227)),
            (1.852607708, 0.333333333, (161, 177, 197)),
            (1.949161574, 0.0, (203, 163, 224)),
        ],
        12,
    ),
    (35, (172, 213, 111)): (
        [
            (0.317101592, 0.666666667, (216, 224, 163)),
            (1.64793188, 0.555555556, (180, 197, 177)),
            (1.781911129, 0.0, (184, 224, 163)),
        ],
        14,
    ),
    (45, (111, 213, 172)): (
        [
            (0.471800875, 0.851851852, (221, 197, 180)),
            (0.633901027, 0.666666667, (163, 224, 216)),
            (1.317668449, 0.555555556, (163, 197, 180)),
            (1.481485112, 0.333333333, (163, 222, 180)),
            (1.521233685, 0.0, (163, 224, 184)),
        ],
        14,
    ),
    (143, (111, 172, 18, 248)): (
        [
            (1.256699957, 0.888888889, (226, 167, 196, 203)),
            (1.28113124, 0.777777778, (226, 180, 196, 203)),
            (1.361240683, 0.666666667, (173, 160, 179, 166)),
            (2.121626968, 0.333333333, (177, 184, 218, 161)),
            (2.200589092, 0.0, (177, 184, 196, 203)),
        ],
        24,
    ),
    (7, (213, 212)): (
        [
            (0.436657753, 0.777777778, (193, 228)),
            (0.518265727, 0.666666667, (228, 193)),
            (0.521713813, 0.0, (224, 193)),
        ],
        4,
    ),
}


def test_pinned_pne_answers(tiny_tokyo):
    """Lazy neighbour lists leave PNE's routes, score sets and queue peak
    exactly as the eager lists gave them."""
    for (v_q, cats), (rows, peak) in _PINNED_PNE.items():
        stats: dict = {}
        got = naive_skysr(tiny_tokyo.graph, tiny_tokyo.forest, v_q, list(cats), engine="pne", stats=stats)
        assert [(round(l, 9), round(s, 9), r) for l, s, r in got] == rows, (v_q, cats)
        assert score_set(got) == {(l, s) for l, s, _r in rows}
        assert stats["queue_peak"] == peak, (v_q, cats)
