"""BSSR (Algorithms 1–2 + §5.3 optimizations) vs brute-force ground truth.

Theorem 3 (exactness) must hold under *every* optimization flag
combination, on distinct-tree and repeated-tree queries, with and without a
destination, over both forest shapes.
"""
from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.query as query_mod
from repro.baselines.brute import brute_force_skysr, score_set
from repro.core.bounds import MinDistBounds
from repro.core.bssr import BSSROptions, bssr
from repro.core.dominance import SkylineSet
from repro.core.nninit import nninit, nninit_ratio
from repro.core.query import QueryContext
from repro.graphs.categories import foursquare_lite_forest
from repro.graphs.dijkstra import settle_below
from repro.graphs.generator import graph_from_edges
from tests.conftest import adjacency, is_sequenced_route, leaves_of_tree, poi_ids, random_query, route_scores

ALL_FLAG_COMBOS = [
    BSSROptions(use_nninit=nn, pq_mode=pq, use_min_dist=md, use_cache=ca)
    for nn, pq, md, ca in itertools.product(
        [True, False], ["proposed", "distance"], [True, False], [True, False]
    )
]


class TestExactnessRandomized:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("size", [2, 3])
    def test_matches_brute_force_foursquare(self, random_world_factory, seed, size):
        g, f, rng = random_world_factory(seed)
        v_q, cats = random_query(g, f, rng, size)
        want = score_set(brute_force_skysr(g, f, v_q, cats))
        got = bssr(g, f, v_q, cats)
        assert got.score_set() == want

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_brute_force_depth2(self, random_world_factory, seed):
        g, f, rng = random_world_factory(seed, depth2=True)
        v_q, cats = random_query(g, f, rng, 3)
        want = score_set(brute_force_skysr(g, f, v_q, cats))
        assert bssr(g, f, v_q, cats).score_set() == want

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_brute_force_cal_forest(self, tiny_cal, seed):
        ds = tiny_cal
        rng = np.random.default_rng(seed)
        v_q, cats = random_query(ds.graph, ds.forest, rng, 2)
        want = score_set(brute_force_skysr(ds.graph, ds.forest, v_q, cats))
        assert bssr(ds.graph, ds.forest, v_q, cats).score_set() == want

    @pytest.mark.parametrize("combo_idx", range(len(ALL_FLAG_COMBOS)))
    def test_every_flag_combo_is_exact(self, random_world_factory, combo_idx):
        opts = ALL_FLAG_COMBOS[combo_idx]
        g, f, rng = random_world_factory(42)
        v_q, cats = random_query(g, f, rng, 3)
        want = score_set(brute_force_skysr(g, f, v_q, cats))
        got = bssr(g, f, v_q, cats, options=opts)
        assert got.score_set() == want, opts

    @pytest.mark.parametrize("seed", range(4))
    def test_repeated_tree_queries(self, random_world_factory, seed):
        """Same tree twice in S_q — Lemma 5.5/caching auto-disable path."""
        g, f, rng = random_world_factory(seed)
        v_q, cats = random_query(g, f, rng, 3, distinct_trees=False)
        want = score_set(brute_force_skysr(g, f, v_q, cats))
        got = bssr(g, f, v_q, cats)
        assert got.score_set() == want

    @pytest.mark.parametrize("seed", range(4))
    def test_destination_variant(self, random_world_factory, seed):
        """§6 extension: a final leg to a fixed destination."""
        g, f, rng = random_world_factory(seed)
        v_q, cats = random_query(g, f, rng, 2)
        dest = int(rng.integers(0, g.n_road))
        want = score_set(brute_force_skysr(g, f, v_q, cats, destination=dest))
        got = bssr(g, f, v_q, cats, destination=dest)
        assert got.score_set() == want

    @pytest.mark.parametrize("seed", range(4))
    def test_destination_routes_rescore_exactly(self, random_world_factory, seed):
        """``route_scores`` adds the same destination leg BSSR adds."""
        g, f, rng = random_world_factory(seed)
        v_q, cats = random_query(g, f, rng, 2)
        dest = int(rng.integers(0, g.n_road))
        for l, s, r in bssr(g, f, v_q, cats, destination=dest).routes:
            assert route_scores(g, f, v_q, cats, r, destination=dest) == pytest.approx((l, s))

    def test_destination_runs_one_reverse_search(self, tiny_tokyo, monkeypatch):
        """The §6 destination leg is one reverse search per query, shared by
        NNinit and the main search."""
        ds = tiny_tokyo
        v_q, cats = random_query(ds.graph, ds.forest, np.random.default_rng(7), 2)
        dijkstra, reverse_calls = query_mod.dijkstra, []

        def spy(*args, **kwargs):
            if kwargs.get("reverse"):
                reverse_calls.append(args[1])
            return dijkstra(*args, **kwargs)

        monkeypatch.setattr(query_mod, "dijkstra", spy)
        bssr(ds.graph, ds.forest, v_q, cats, destination=92)
        assert reverse_calls == [92]

    def test_unreachable_destination_gives_no_route(self):
        """A route whose destination leg is unreachable has no finite length,
        so it is no result (brute force skips it too)."""
        f = foursquare_lite_forest()
        leaf = leaves_of_tree(f, 0)[0]
        g = graph_from_edges(3, [(0, 1, 1.0)], {1: leaf})
        assert brute_force_skysr(g, f, 0, [leaf], destination=2) == []
        for opts in ALL_FLAG_COMBOS:
            assert bssr(g, f, 0, [leaf], options=opts, destination=2).routes == []


_FOREST = foursquare_lite_forest()
# Categories of two trees at every depth, so a match can be perfect, a
# sibling, an ancestor or a cousin.
_FUZZ_CATS = sorted(
    {
        a
        for t in (0, 1)
        for leaf in (*leaves_of_tree(_FOREST, t)[:2], leaves_of_tree(_FOREST, t)[-1])
        for a in _FOREST.ancestors(leaf)
    }
)


@st.composite
def _skysr_worlds(draw):
    """Random small worlds for the differential test: multigraphs with
    weights 0-4 (so ties are common), directed or not, PoIs with §6 extra
    categories, an ``S_q`` of up to three categories from two trees (so
    trees repeat), and an optional destination.  Returns ``(graph, v_q,
    seq_cats, destination)``."""
    n = draw(st.integers(1, 9))
    vertex = st.integers(0, n - 1)
    cat = st.sampled_from(_FUZZ_CATS)
    edges = draw(st.lists(st.tuples(vertex, vertex, st.integers(0, 4)), max_size=2 * n))
    g = graph_from_edges(
        n,
        [(u, v, float(w)) for u, v, w in edges],
        draw(st.dictionaries(vertex, cat)),
        directed=draw(st.booleans()),
        extra_cats=draw(st.dictionaries(vertex, st.lists(cat, min_size=1, max_size=2), max_size=3)),
    )
    return g, draw(vertex), draw(st.lists(cat, min_size=1, max_size=3)), draw(st.none() | vertex)


class TestZeroWeights:
    """Zero-weight edges: a self-loop at the query vertex, a zero-weight
    cycle back to a settled vertex, and a scan that reaches its own start
    again at distance 0."""

    @pytest.mark.parametrize(
        "n, edges, pois, cats",
        [
            (1, [(0, 0, 0.0)], {}, [0]),
            (4, [(0, 1, 0.0), (0, 3, 1.0), (1, 1, 0.0)], {0: 0, 3: 1}, [1]),
            (3, [(0, 1, 0.0), (0, 2, 0.0), (1, 1, 0.0)], {0: 0}, [1]),
        ],
        ids=["self-loop", "cycle-back", "own-start"],
    )
    def test_every_flag_combo_equals_brute_force(self, n, edges, pois, cats):
        g = graph_from_edges(n, edges, pois)
        want = score_set(brute_force_skysr(g, _FOREST, 0, cats))
        for opts in ALL_FLAG_COMBOS:
            assert bssr(g, _FOREST, 0, cats, options=opts).score_set() == want, opts


class TestDifferentialFuzz:
    @settings(max_examples=1500, deadline=None)
    @given(_skysr_worlds())
    def test_every_flag_combo_equals_brute_force(self, world):
        g, v_q, cats, dest = world
        want = score_set(brute_force_skysr(g, _FOREST, v_q, cats, destination=dest))
        for opts in ALL_FLAG_COMBOS:
            assert bssr(g, _FOREST, v_q, cats, options=opts, destination=dest).score_set() == want, opts


class TestOutputValidity:
    @pytest.mark.parametrize("seed", range(5))
    def test_routes_are_valid_with_exact_scores(self, random_world_factory, seed):
        g, f, rng = random_world_factory(seed)
        v_q, cats = random_query(g, f, rng, 3)
        res = bssr(g, f, v_q, cats)
        assert len(res.routes) >= 1
        for l, s, r in res.routes:
            assert is_sequenced_route(g, f, cats, r)
            l2, s2 = route_scores(g, f, v_q, cats, r)
            assert l == pytest.approx(l2)
            assert s == pytest.approx(s2)

    def test_result_is_minimal(self, random_world_factory):
        from repro.core.dominance import dominates

        g, f, rng = random_world_factory(3)
        v_q, cats = random_query(g, f, rng, 3)
        res = bssr(g, f, v_q, cats)
        scores = [(l, s) for (l, s, _r) in res.routes]
        for i, a in enumerate(scores):
            for j, b in enumerate(scores):
                if i != j:
                    assert not dominates(a, b)
                    assert a != b  # minimal: no equivalents either

    def test_contains_perfect_route_when_one_exists(self, random_world_factory):
        g, f, rng = random_world_factory(5)
        v_q, cats = random_query(g, f, rng, 2)
        bf = brute_force_skysr(g, f, v_q, cats)
        if any(s == 0.0 for (_l, s, _r) in bf):
            res = bssr(g, f, v_q, cats)
            assert any(s == 0.0 for (_l, s, _r) in res.routes)


class TestInstrumentation:
    def test_counters_populated(self, tiny_tokyo):
        ds = tiny_tokyo
        rng = np.random.default_rng(0)
        v_q, cats = random_query(ds.graph, ds.forest, rng, 3)
        res = bssr(ds.graph, ds.forest, v_q, cats)
        st = res.stats
        assert st.visited_vertices > 0
        assert st.mdijkstra_runs >= 1
        assert st.mdijkstra_requests >= st.mdijkstra_runs
        assert st.first_weight_sum > 0
        assert st.n_results == len(res.routes)
        assert st.total_time_ms > 0

    def test_cache_reduces_runs(self, tiny_tokyo):
        ds = tiny_tokyo
        rng = np.random.default_rng(1)
        v_q, cats = random_query(ds.graph, ds.forest, rng, 3)
        with_cache = bssr(ds.graph, ds.forest, v_q, cats).stats
        no_cache = bssr(
            ds.graph, ds.forest, v_q, cats, options=BSSROptions(use_cache=False)
        ).stats
        assert with_cache.mdijkstra_runs <= no_cache.mdijkstra_runs
        assert with_cache.cache_hits >= 0

    def test_nninit_reduces_first_scan(self, tiny_tokyo):
        """Table 7's core claim: the seeded first search scans far less edge
        weight than the unseeded one."""
        ds = tiny_tokyo
        rng = np.random.default_rng(2)
        v_q, cats = random_query(ds.graph, ds.forest, rng, 3)
        seeded = bssr(ds.graph, ds.forest, v_q, cats).stats
        unseeded = bssr(ds.graph, ds.forest, v_q, cats, options=BSSROptions(use_nninit=False)).stats
        assert seeded.first_weight_sum <= unseeded.first_weight_sum
        assert unseeded.first_weight_sum == pytest.approx(
            2 * ds.graph.edges_w.sum(), rel=0.2
        )  # unbounded scan sweeps ~every edge from both sides

    def test_weight_sum_is_the_settle_order_loop(self, random_world_factory):
        """Table 7's sum, which the kernel adds as it relaxes, equals the
        edge-by-edge loop in (dist, vertex) order bit for bit."""
        g, _f, rng = random_world_factory(5, n_road=600, n_pois=300)
        adj = adjacency(g)
        for s in rng.choice(g.n_vertices, 4, replace=False):
            mask = rng.random(g.n_vertices) > 0.1
            mask[s] = True
            for through in (None, mask.tobytes()):
                ball = settle_below(g, int(s), float("inf"), through=through)
                dist = dict(zip(ball.order.tolist(), ball.dist.tolist()))
                want = 0.0
                for u in sorted(dist, key=lambda u: (dist[u], u)):
                    if through is None or through[u]:
                        for _v, w in adj[u]:
                            want += w
                assert ball.weight_sum == want

    def test_first_scan_matches_full_run(self, tiny_tokyo):
        """Table 7's counters: a full run's first scan is the empty route's
        ``settle_below`` from ``v_q``, at the budget that the NNinit seed,
        when on, and the l_s bound leave it."""
        ds = tiny_tokyo
        rng = np.random.default_rng(3)
        v_q, cats = random_query(ds.graph, ds.forest, rng, 2)
        ctx = QueryContext(ds.graph, ds.forest, v_q, cats)
        for use_nninit in (True, False):
            S = nninit(ctx) if use_nninit else SkylineSet()
            ls = MinDistBounds.compute(ctx, S.threshold(0.0)).ls_suffix
            ball = settle_below(ds.graph, v_q, S.threshold(0.0) - ls[1], through=ctx.through[0], mark=ctx.sim[0])
            full = bssr(ds.graph, ds.forest, v_q, cats, options=BSSROptions(use_nninit=use_nninit)).stats
            assert full.first_weight_sum == ball.weight_sum
            assert full.first_radius == ball.dist[-1]
            assert full.nninit_routes == len(S)
            assert full.nninit_ratio == nninit_ratio(S)

    def test_proposed_pq_visits_no_more(self, tiny_tokyo):
        """Table 8's direction on a realistic slice (aggregate over a few
        queries to smooth noise)."""
        ds = tiny_tokyo
        rng = np.random.default_rng(4)
        tot = {"proposed": 0, "distance": 0}
        for _ in range(4):
            v_q, cats = random_query(ds.graph, ds.forest, rng, 3)
            for mode in tot:
                r = bssr(
                    ds.graph, ds.forest, v_q, cats, options=BSSROptions(pq_mode=mode)
                )
                tot[mode] += r.stats.visited_vertices
        assert tot["proposed"] <= tot["distance"] * 1.05


# Paper counters (Tables 7–8, Fig. 5) of fixed tiny_tokyo queries, recorded
# from the implementation before the shortest-path kernel was unified.  The
# last query repeats a tree, so it runs without Lemma 5.5 and the cache.
_PIN_FIELDS = (
    "visited_vertices",
    "mdijkstra_runs",
    "mdijkstra_requests",
    "cache_hits",
    "queue_pushes",
    "first_weight_sum",
    "first_radius",
)
_PINNED = {
    "default": {
        (92, (248, 111, 213)): (937, 10, 16, 6, 16, 30.76432525629885, 1.9895500554533452),
        (35, (172, 213, 111)): (1277, 15, 18, 3, 31, 31.993138971871904, 1.98272143242719),
        (45, (111, 213, 172)): (668, 11, 14, 3, 13, 27.02967623068262, 1.4013015905949142),
        (143, (111, 172, 18, 248)): (1283, 25, 35, 10, 44, 29.83233956515254, 1.9797018587383595),
        (7, (213, 212)): (54, 4, 4, 0, 3, 3.3318092038321145, 0.5173392520561519),
    },
    "none": {
        (92, (248, 111, 213)): (1615, 16, 16, 0, 19, 30.846644871823493, 2.0134291729290767),
        (35, (172, 213, 111)): (2317, 19, 19, 0, 41, 31.993138971871904, 1.98272143242719),
        (45, (111, 213, 172)): (1484, 14, 14, 0, 24, 31.669235777674846, 1.9619321270248449),
        (143, (111, 172, 18, 248)): (3871, 45, 45, 0, 91, 31.669235777674853, 2.136064965083366),
        (7, (213, 212)): (475, 4, 4, 0, 12, 32.20290970121377, 2.133998441667303),
    },
}

# The same counters on tiny_cal, where 88 % of the vertices have degree 2
# (long chains between few core vertices), recorded from the settle-order
# scan before the chain-compressed search replaced it.  The fifth query
# repeats a tree.
_PINNED_CAL = {
    "default": {
        (13, (511, 164, 336)): (432, 5, 5, 0, 4, 14.476616311398239, 2.359337493627723),
        (16, (252, 36, 20)): (159, 4, 4, 0, 3, 9.67153151103479, 1.0280341463492855),
        (13, (252, 336, 154)): (129, 3, 3, 0, 2, 8.682177562701527, 1.5690971593933314),
        (15, (434, 154, 20)): (168, 6, 7, 1, 6, 1.3681578573319102, 0.6484084090186163),
        (14, (511, 164, 511)): (470, 11, 11, 0, 11, 1.041054200282354, 0.20711862071190493),
        (15, (336, 164)): (107, 2, 2, 0, 1, 3.3294630740892215, 0.5945651641799573),
    },
    "none": {
        (13, (511, 164, 336)): (436, 5, 5, 0, 6, 14.476616311398239, 2.359337493627723),
        (16, (252, 36, 20)): (247, 4, 4, 0, 3, 13.120828524389498, 1.5169862821373523),
        (13, (252, 336, 154)): (230, 3, 3, 0, 4, 13.12082852438952, 2.359337493627723),
        (15, (434, 154, 20)): (459, 7, 7, 0, 7, 1.3681578573319102, 0.6484084090186163),
        (14, (511, 164, 511)): (2011, 15, 15, 0, 22, 14.485666661905977, 2.236084431320878),
        (15, (336, 164)): (247, 2, 2, 0, 3, 14.289110062021589, 1.7935960557671002),
    },
}


# The answers to the same queries, as BSSRResult.routes rows (l, s, PoIs),
# recorded from the Python branch-and-bound loop before it was compiled.
# Which route stands for a score pair may differ between the option sets
# (tiny_cal's fifth query).
_PINNED_ROUTES = {
    "default": {
        (92, (248, 111, 213)): [
            (1.9491615737629742, 0.0, (203, 163, 224)),
            (1.8526077078028513, 0.33333333333333337, (161, 177, 197)),
            (1.0980579583468468, 0.6666666666666667, (203, 173, 227)),
            (1.0413680479978276, 0.7777777777777778, (203, 173, 197)),
        ],
        (35, (172, 213, 111)): [
            (1.7819111287498386, 0.0, (184, 224, 163)),
            (1.6479318799287306, 0.5555555555555556, (180, 197, 177)),
            (0.3171015922871567, 0.6666666666666667, (216, 224, 163)),
        ],
        (45, (111, 213, 172)): [
            (1.5212336852581263, 0.0, (163, 224, 184)),
            (1.4814851115982406, 0.33333333333333337, (163, 222, 180)),
            (1.317668449165626, 0.5555555555555556, (163, 197, 180)),
            (0.6339010274624777, 0.6666666666666667, (163, 224, 216)),
            (0.4718008752428145, 0.8518518518518519, (221, 197, 180)),
        ],
        (143, (111, 172, 18, 248)): [
            (2.2005890924111076, 0.0, (177, 184, 196, 203)),
            (2.1216269679916313, 0.33333333333333337, (177, 184, 218, 161)),
            (1.3612406826593104, 0.6666666666666667, (173, 160, 179, 166)),
            (1.2811312402930373, 0.7777777777777778, (226, 180, 196, 203)),
            (1.2566999565047527, 0.8888888888888888, (226, 167, 196, 203)),
        ],
        (7, (213, 212)): [
            (0.52171381298757, 0.0, (224, 193)),
            (0.518265726538557, 0.6666666666666667, (228, 193)),
            (0.43665775284997643, 0.7777777777777778, (193, 228)),
        ],
    },
    "none": {
        (92, (248, 111, 213)): [
            (1.9491615737629742, 0.0, (203, 163, 224)),
            (1.8526077078028513, 0.33333333333333337, (161, 177, 197)),
            (1.0980579583468468, 0.6666666666666667, (203, 173, 227)),
            (1.0413680479978276, 0.7777777777777778, (203, 173, 197)),
        ],
        (35, (172, 213, 111)): [
            (1.7819111287498386, 0.0, (184, 224, 163)),
            (1.6479318799287306, 0.5555555555555556, (180, 197, 177)),
            (0.3171015922871567, 0.6666666666666667, (216, 224, 163)),
        ],
        (45, (111, 213, 172)): [
            (1.5212336852581263, 0.0, (163, 224, 184)),
            (1.4814851115982406, 0.33333333333333337, (163, 222, 180)),
            (1.317668449165626, 0.5555555555555556, (163, 197, 180)),
            (0.6339010274624777, 0.6666666666666667, (163, 224, 216)),
            (0.4718008752428145, 0.8518518518518519, (221, 197, 180)),
        ],
        (143, (111, 172, 18, 248)): [
            (2.2005890924111076, 0.0, (177, 184, 196, 203)),
            (2.1216269679916313, 0.33333333333333337, (177, 184, 218, 161)),
            (1.3612406826593104, 0.6666666666666667, (173, 160, 179, 166)),
            (1.2811312402930373, 0.7777777777777778, (226, 180, 196, 203)),
            (1.2566999565047527, 0.8888888888888888, (226, 167, 196, 203)),
        ],
        (7, (213, 212)): [
            (0.52171381298757, 0.0, (224, 193)),
            (0.518265726538557, 0.6666666666666667, (228, 193)),
            (0.43665775284997643, 0.7777777777777778, (193, 228)),
        ],
    },
}
_PINNED_CAL_ROUTES = {
    "default": {
        (13, (511, 164, 336)): [
            (2.250306359558979, 0.0, (69, 110, 119)),
            (1.4473722455539761, 0.33333333333333337, (121, 188, 111)),
            (1.4215507399293337, 0.6666666666666667, (121, 188, 51)),
        ],
        (16, (252, 36, 20)): [
            (1.085122486223218, 0.0, (66, 46, 130)),
        ],
        (13, (252, 336, 154)): [
            (2.182512426605798, 0.0, (66, 65, 202)),
        ],
        (15, (434, 154, 20)): [
            (0.6496069887933928, 0.0, (50, 81, 98)),
        ],
        (14, (511, 164, 511)): [
            (0.2071186207119875, 0.0, (69, 110, 182)),
            (0.2069274588956263, 0.7777777777777778, (213, 201, 69)),
            (0.20685493600219712, 0.8518518518518519, (149, 47, 213)),
        ],
        (15, (336, 164)): [
            (0.6496069958292636, 0.0, (65, 110)),
            (0.6455453633309087, 0.33333333333333337, (65, 47)),
            (0.5818213338379358, 0.6666666666666667, (65, 154)),
        ],
    },
    "none": {
        (13, (511, 164, 336)): [
            (2.250306359558979, 0.0, (69, 110, 119)),
            (1.4473722455539761, 0.33333333333333337, (121, 188, 111)),
            (1.4215507399293337, 0.6666666666666667, (121, 188, 51)),
        ],
        (16, (252, 36, 20)): [
            (1.085122486223218, 0.0, (66, 46, 130)),
        ],
        (13, (252, 336, 154)): [
            (2.182512426605798, 0.0, (66, 65, 202)),
        ],
        (15, (434, 154, 20)): [
            (0.6496069887933928, 0.0, (50, 81, 98)),
        ],
        (14, (511, 164, 511)): [
            (0.2071186207119875, 0.0, (69, 110, 182)),
            (0.2069274588956264, 0.7777777777777778, (149, 47, 69)),
            (0.20685493600219712, 0.8518518518518519, (149, 47, 213)),
        ],
        (15, (336, 164)): [
            (0.6496069958292636, 0.0, (65, 110)),
            (0.6455453633309087, 0.33333333333333337, (65, 47)),
            (0.5818213338379358, 0.6666666666666667, (65, 154)),
        ],
    },
}

class TestPinnedCounters:
    @pytest.mark.parametrize("opts", ["default", "none"])
    def test_counters_exactly_unchanged(self, tiny_tokyo, opts):
        options = BSSROptions() if opts == "default" else BSSROptions.none()
        for (v_q, cats), want in _PINNED[opts].items():
            st = bssr(tiny_tokyo.graph, tiny_tokyo.forest, v_q, list(cats), options=options).stats
            assert tuple(getattr(st, f) for f in _PIN_FIELDS) == want, (v_q, cats)

    @pytest.mark.parametrize("opts", ["default", "none"])
    def test_counters_on_long_chains(self, tiny_cal, opts):
        options = BSSROptions() if opts == "default" else BSSROptions.none()
        for (v_q, cats), want in _PINNED_CAL[opts].items():
            st = bssr(tiny_cal.graph, tiny_cal.forest, v_q, list(cats), options=options).stats
            assert tuple(getattr(st, f) for f in _PIN_FIELDS) == want, (v_q, cats)

    @pytest.mark.parametrize("opts", ["default", "none"])
    def test_routes_exactly_unchanged(self, tiny_tokyo, tiny_cal, opts):
        options = BSSROptions() if opts == "default" else BSSROptions.none()
        for ds, pinned in ((tiny_tokyo, _PINNED_ROUTES), (tiny_cal, _PINNED_CAL_ROUTES)):
            for (v_q, cats), want in pinned[opts].items():
                assert bssr(ds.graph, ds.forest, v_q, list(cats), options=options).routes == want, (v_q, cats)


class TestDegenerateQueries:
    def test_single_category(self, random_world_factory):
        g, f, rng = random_world_factory(6)
        v_q, cats = random_query(g, f, rng, 1)
        want = score_set(brute_force_skysr(g, f, v_q, cats))
        assert bssr(g, f, v_q, cats).score_set() == want

    def test_category_with_no_pois(self, random_world_factory):
        g, f, rng = random_world_factory(7)
        # A leaf category whose tree has no PoIs at all -> empty result.
        counts = np.bincount(g.cat_of[g.cat_of >= 0], minlength=f.n_categories)
        tree_counts = {}
        for c in range(f.n_categories):
            tree_counts[f.tree_id[c]] = tree_counts.get(f.tree_id[c], 0) + counts[c]
        empty_trees = [t for t, n in tree_counts.items() if n == 0]
        if not empty_trees:
            pytest.skip("all trees populated in this world")
        cat = next(c for c in f.leaves() if f.tree_id[c] == empty_trees[0])
        res = bssr(g, f, 0, [cat])
        assert res.routes == []

    def test_start_on_poi_vertex(self, random_world_factory):
        g, f, rng = random_world_factory(8)
        _v, cats = random_query(g, f, rng, 2)
        v_q = int(poi_ids(g)[0])
        want = score_set(brute_force_skysr(g, f, v_q, cats))
        assert bssr(g, f, v_q, cats).score_set() == want
