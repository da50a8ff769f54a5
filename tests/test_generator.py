"""Synthetic road networks + PoI embedding (Table 5 substrate)."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.graphs.categories import foursquare_lite_forest
from repro.graphs.generator import (
    PAPER_TABLE5,
    Dataset,
    dataset,
    graph_from_edges,
    popular_leaf_categories,
    road_network,
)
from tests.conftest import pois_of_tree


@pytest.fixture(scope="module")
def small_graph():
    return road_network(
        n_road=100, n_edges_road=130, n_pois=40, forest=foursquare_lite_forest(), seed=1
    )


def _components(graph) -> int:
    indptr, indices, _w = graph.csr()
    seen = np.zeros(graph.n_vertices, dtype=bool)
    n_comp = 0
    for s in range(graph.n_vertices):
        if seen[s]:
            continue
        n_comp += 1
        stack = [s]
        seen[s] = True
        while stack:
            u = stack.pop()
            for i in range(indptr[u], indptr[u + 1]):
                v = indices[i]
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
    return n_comp


class TestRoadNetwork:
    def test_counts(self, small_graph):
        g = small_graph
        assert g.n_road == 100
        assert g.n_pois == 40
        assert g.n_vertices == 140
        assert g.n_edges == 130 + 40  # each embedded PoI adds one net edge

    def test_connected(self, small_graph):
        assert _components(small_graph) == 1

    def test_weights_positive_and_euclidean(self, small_graph):
        g = small_graph
        assert (g.edges_w > 0).all()
        # Each edge weight equals the Euclidean gap between its endpoints
        # (PoI splitting preserves this by placing the PoI on the segment).
        d = np.linalg.norm(g.xy[g.edges_u] - g.xy[g.edges_v], axis=1)
        assert np.allclose(d, g.edges_w, rtol=1e-9, atol=1e-12)

    def test_total_length_preserved_by_embedding(self):
        f = foursquare_lite_forest()
        g0 = road_network(n_road=80, n_edges_road=100, n_pois=0, forest=f, seed=4)
        g1 = road_network(n_road=80, n_edges_road=100, n_pois=30, forest=f, seed=4)
        # Splitting an edge conserves total weight exactly.
        assert g1.edges_w.sum() == pytest.approx(g0.edges_w.sum())

    def test_determinism(self):
        f = foursquare_lite_forest()
        a = road_network(n_road=60, n_edges_road=75, n_pois=20, forest=f, seed=7)
        b = road_network(n_road=60, n_edges_road=75, n_pois=20, forest=f, seed=7)
        assert np.array_equal(a.edges_u, b.edges_u)
        assert np.array_equal(a.edges_w, b.edges_w)
        assert np.array_equal(a.cat_of, b.cat_of)

    def test_seed_changes_graph(self):
        f = foursquare_lite_forest()
        a = road_network(n_road=60, n_edges_road=75, n_pois=20, forest=f, seed=7)
        b = road_network(n_road=60, n_edges_road=75, n_pois=20, forest=f, seed=8)
        assert not np.array_equal(a.edges_w, b.edges_w)

    def test_poi_categories_are_leaves(self, small_graph):
        f = foursquare_lite_forest()
        leaves = set(f.leaves())
        cats = small_graph.cat_of[small_graph.cat_of >= 0]
        assert set(int(c) for c in cats) <= leaves

    def test_road_vertices_have_no_category(self, small_graph):
        assert (small_graph.cat_of[: small_graph.n_road] == -1).all()

    def test_too_few_edges_rejected(self):
        with pytest.raises(ValueError):
            road_network(n_road=50, n_edges_road=10, n_pois=0, forest=foursquare_lite_forest())

    def test_category_skew(self):
        """Zipf assignment: the top leaf category should hold several times
        the median count ("significantly biased", §7.1)."""
        f = foursquare_lite_forest()
        g = road_network(n_road=200, n_edges_road=260, n_pois=600, forest=f, seed=2)
        counts = np.bincount(g.cat_of[g.cat_of >= 0], minlength=f.n_categories)
        nz = counts[counts > 0]
        assert counts.max() >= 4 * np.median(nz)

    def test_csr_consistency(self, small_graph):
        indptr, indices, w = small_graph.csr()
        assert indptr[-1] == 2 * small_graph.n_edges
        degs = np.diff(indptr)
        assert degs.sum() == 2 * small_graph.n_edges


class TestPresets:
    @pytest.mark.parametrize("name", list(PAPER_TABLE5))
    def test_preset_scaled_shape(self, name):
        ds = dataset(name, scale=0.1)
        g = ds.graph
        assert _components(g) == 1
        assert g.n_pois > 0 and g.n_edges >= g.n_vertices - 1

    def test_preset_tracks_paper_ratios(self):
        """At full lite scale the |P|/|V| ratio should be within 25% of the
        paper's Table 5 ratio for each map."""
        for name, (_a, pv, pp, _pe) in PAPER_TABLE5.items():
            ds = dataset(name)
            ours = ds.graph.n_pois / ds.graph.n_road
            paper = pp / pv
            assert abs(ours - paper) / paper < 0.25, name

    def test_cal_pois_clustered(self):
        """Cal's PoIs concentrate in a small area (§7.3) — their coordinate
        spread must be well below the road vertices'."""
        ds = dataset("cal-lite", scale=0.25)
        g = ds.graph
        poi_xy = g.xy[g.poi_ids]
        road_xy = g.xy[: g.n_road]
        assert poi_xy.std(axis=0).mean() < 0.8 * road_xy.std(axis=0).mean()

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            dataset("berlin-lite")

    def test_dataset_deterministic(self):
        a = dataset("tokyo-lite", scale=0.05)
        b = dataset("tokyo-lite", scale=0.05)
        assert np.array_equal(a.graph.edges_w, b.graph.edges_w)


class TestHelpers:
    def test_graph_from_edges(self):
        g = graph_from_edges(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.5)], {3: 5})
        assert g.n_vertices == 4 and g.n_pois == 1
        assert int(g.cat_of[3]) == 5
        assert g.pois_of_category(5).tolist() == [3]

    @pytest.mark.parametrize(
        "edges, pois, extra",
        [
            ([(0, 1, -1.0)], {}, None),
            ([(0, 1, float("nan"))], {}, None),
            ([(0, 1, float("inf"))], {}, None),
            ([(0, 4, 1.0)], {}, None),
            ([(-1, 1, 1.0)], {}, None),
            ([(0, 1, 1.0)], {4: 5}, None),
            ([(0, 1, 1.0)], {-1: 5}, None),
            ([(0, 1, 1.0)], {3: 5}, {7: [6]}),
        ],
        ids=[
            "negative-weight",
            "nan-weight",
            "inf-weight",
            "endpoint-past-end",
            "negative-endpoint",
            "poi-past-end",
            "negative-poi",
            "extra-poi-past-end",
        ],
    )
    def test_graph_from_edges_rejects_bad_input(self, edges, pois, extra):
        with pytest.raises(ValueError):
            graph_from_edges(4, edges, pois, extra_cats=extra)

    def test_graph_from_edges_accepts_zero_weight(self):
        g = graph_from_edges(2, [(0, 1, 0.0)], {})
        assert g.edges_w.tolist() == [0.0]

    def test_popular_leaf_categories(self, small_graph):
        f = foursquare_lite_forest()
        by_tree = popular_leaf_categories(small_graph, f, min_pois=2)
        for t, cats in by_tree.items():
            for c in cats:
                assert f.tree_id[c] == t
                assert len(small_graph.pois_of_category(c)) >= 2

    def test_pois_of_tree(self, small_graph):
        f = foursquare_lite_forest()
        all_pois = set()
        for t in range(f.n_trees):
            ps = pois_of_tree(small_graph, f, t)
            for p in ps:
                assert f.tree_id[int(small_graph.cat_of[p])] == t
            all_pois |= set(int(p) for p in ps)
        assert all_pois == set(int(p) for p in small_graph.poi_ids)

    def test_pandas_views(self, spark, small_graph):
        """The relational edges/pois views: one row per edge and per PoI,
        every PoI id present, each PoI tagged with its own category."""
        from repro.core.skysr_spark import dataset_tables

        g = small_graph
        t = dataset_tables(spark, Dataset("small", g, foursquare_lite_forest()))
        e = t["edges"].toPandas()
        p = t["pois"].toPandas()
        assert len(e) == g.n_edges
        assert len(p) == g.n_pois
        assert set(p.poi_id) == set(int(x) for x in g.poi_ids)
        assert all(int(c) == int(g.cat_of[i]) for i, c in zip(p.poi_id, p.cat_id))


def test_local_engines_import_neither_pandas_nor_pyspark():
    """The local query path loads no DataFrame library.  It runs in a fresh
    interpreter because conftest has already imported both here."""
    root = Path(__file__).resolve().parent.parent
    code = (
        "import sys\n"
        "import repro.core.bssr, repro.baselines.naive, repro.baselines.brute\n"
        "import repro.workloads, repro.tables.common\n"
        "import repro.tables.table6, repro.tables.table7, repro.tables.table8, repro.tables.table9\n"
        "loaded = sorted({'pandas', 'pyspark'} & set(sys.modules))\n"
        "assert not loaded, loaded\n"
    )
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    r = subprocess.run([sys.executable, "-c", code], env=env, cwd=root, capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


def test_built_kernel_loads_without_its_build_tools():
    """Once the shortest-path kernel is built, a fresh interpreter's local
    engines load only the built module and ``_cffi_backend``: neither
    cffi's parser nor setuptools."""
    import repro.graphs.dijkstra  # noqa: F401  (builds the kernel if it is missing)

    root = Path(__file__).resolve().parent.parent
    code = (
        "import sys\n"
        "import repro.core.bssr, repro.baselines.naive\n"
        "tools = {'pycparser', 'setuptools'}\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] in tools or m == 'cffi.api')\n"
        "assert not loaded, loaded\n"
        "assert '_cffi_backend' in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    r = subprocess.run([sys.executable, "-c", code], env=env, cwd=root, capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
