"""Direct checks of the paper's lemmas on randomized instances.

These don't test one function so much as the *inequalities the pruning
relies on* — if any of them failed, BSSR's exactness proofs (Theorem 3)
would be void, so they get explicit randomized coverage.
"""
from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.bounds import MinDistBounds
from repro.core.dominance import SkylineSet, dominates
from repro.core.query import QueryContext
from repro.graphs.dijkstra import dijkstra
from tests.conftest import (
    leaves_of_tree,
    matches,
    multi_source_to_targets,
    perfect_matches,
    poi_ids,
    random_query,
    route_scores,
)


def _sequenced_routes(ctx, max_total=400):
    """Enumerate some sequenced routes (prefix-closed) for lemma checks."""
    match = [matches(ctx, i)[:6] for i in range(ctx.k)]
    out = []
    for combo in itertools.islice(
        (c for c in itertools.product(*match) if len(set(c)) == len(c)), max_total
    ):
        out.append(tuple(combo))
    return out


class TestLemma52SuperRouteMonotonicity:
    @pytest.mark.parametrize("seed", range(4))
    def test_scores_never_decrease_under_extension(self, random_world_factory, seed):
        g, f, rng = random_world_factory(seed, n_road=60, n_pois=40)
        v_q, cats = random_query(g, f, rng, 3)
        ctx = QueryContext(g, f, v_q, cats)
        for route in _sequenced_routes(ctx, max_total=40):
            # l of every proper prefix <= l of the full route (Lemma 5.2)…
            for cut in range(1, ctx.k):
                lp, _sp = route_scores(g, f, v_q, cats[:cut], route[:cut])
                lf, sf = route_scores(g, f, v_q, cats, route)
                assert lp <= lf + 1e-9
                # …and s_ (min possible semantic) of the prefix <= s(full).
                prod_prefix = np.prod([ctx.sim_at(i, route[i]) for i in range(cut)])
                assert 1 - prod_prefix <= sf + 1e-9


class TestLemma53PruningSafety:
    @pytest.mark.parametrize("seed", range(3))
    def test_threshold_prune_never_kills_skyline_route(self, random_world_factory, seed):
        """For every brute-force skyline route R and every prefix of R, the
        Eq. 3 threshold computed from the final S must NOT prune that
        prefix — otherwise BSSR could not have produced R."""
        from repro.baselines.brute import brute_force_skysr

        g, f, rng = random_world_factory(seed, n_road=60, n_pois=40)
        v_q, cats = random_query(g, f, rng, 2)
        ctx = QueryContext(g, f, v_q, cats)
        sky = brute_force_skysr(g, f, v_q, cats)
        S = SkylineSet()
        for l, s, r in sky:
            S.update(l, s, r)
        for l, s, route in sky:
            for cut in range(1, ctx.k + 1):
                lp, _ = route_scores(g, f, v_q, cats[:cut], route[:cut])
                prod = float(np.prod([ctx.sim_at(i, route[i]) for i in range(cut)]))
                # Prefix prunable iff lp >= threshold(1 - prod); a skyline
                # member's prefix may at most *equal* the threshold (its own
                # entry), never exceed it.
                assert lp <= S.threshold(1.0 - prod) + 1e-9


class TestLemma58PerfectMatchBound:
    @pytest.mark.parametrize("seed", range(3))
    def test_lp_lower_bounds_perfect_completion(self, random_world_factory, seed):
        """Completing a size-m route with only perfect matches adds at
        least lp_suffix[m] length."""
        g, f, rng = random_world_factory(seed, n_road=60, n_pois=40)
        v_q, cats = random_query(g, f, rng, 3)
        ctx = QueryContext(g, f, v_q, cats)
        b = MinDistBounds.compute(ctx)
        perfect = [perfect_matches(ctx, i)[:5] for i in range(ctx.k)]
        if any(not p for p in perfect):
            pytest.skip("no perfect matches at some position")
        rows = {p: dijkstra(g, p) for ps in perfect for p in ps}
        for combo in itertools.islice(itertools.product(*perfect), 60):
            if len(set(combo)) != len(combo):
                continue
            for m in range(1, ctx.k):
                added = sum(
                    float(rows[combo[i]][combo[i + 1]]) for i in range(m - 1, ctx.k - 1)
                )
                assert added >= b.lp_suffix[m] - 1e-9


class TestLemma55SwapDominance:
    def test_pass_through_better_poi_dominates(self):
        """Construct the Lemma 5.5 situation concretely: reaching a worse
        match u through a better match x — the swapped route dominates."""
        from repro.graphs.categories import foursquare_lite_forest
        from repro.graphs.generator import graph_from_edges

        f = foursquare_lite_forest()
        food = leaves_of_tree(f, 0)
        shop = leaves_of_tree(f, 1)
        # v_q=0 -> x(1, perfect food) -> u(2, sibling food) -> shop(3).
        g = graph_from_edges(
            4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)], {1: food[0], 2: food[1], 3: shop[0]}
        )
        cats = [food[0], shop[0]]
        l_u, s_u = route_scores(g, f, 0, cats, (2, 3))
        l_x, s_x = route_scores(g, f, 0, cats, (1, 3))
        assert dominates((l_x, s_x), (l_u, s_u))


class TestLemma59MultiSourceDijkstra:
    @pytest.mark.parametrize("seed", range(3))
    def test_first_settled_target_is_global_min(self, random_world_factory, seed):
        g, f, rng = random_world_factory(seed, n_road=50, n_pois=30)
        srcs = [int(p) for p in poi_ids(g)[:4]]
        tgts = [int(p) for p in poi_ids(g)[-4:]]
        got = multi_source_to_targets(g, srcs, tgts)
        want = min(float(dijkstra(g, s)[t]) for s in srcs for t in tgts)
        assert got == pytest.approx(want)
