"""Synthetic road networks + PoI embedding (Table 5 substrate)."""
from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.graphs.categories import foursquare_lite_forest
from repro.graphs.generator import (
    PAPER_TABLE5,
    dataset,
    graph_from_edges,
    popular_leaf_categories,
    road_network,
)
from tests.conftest import poi_ids, pois_of_tree


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
        poi_xy = g.xy[poi_ids(g)]
        road_xy = g.xy[: g.n_road]
        assert poi_xy.std(axis=0).mean() < 0.8 * road_xy.std(axis=0).mean()

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            dataset("berlin-lite")

    def test_dataset_deterministic(self):
        a = dataset("tokyo-lite", scale=0.05)
        b = dataset("tokyo-lite", scale=0.05)
        assert np.array_equal(a.graph.edges_w, b.graph.edges_w)


# SHA-256 of each preset's arrays at seed 7, at two scales: every dataset,
# table and stored benchmark reference rests on these exact graphs, so any
# rewrite of the generator must reproduce them bit for bit.
_PRESET_DIGESTS = {
    ("tokyo-lite", 0.05): {
        "edges_u": "0623d95a0935ccbc4580022957470705cf07808d0ec2f8c62d9ef5581aea12ae",
        "edges_v": "1c353938b6983b59d9b7973bca45457748f8877700da7221387177987f5332eb",
        "edges_w": "a52fd5b1995a2523db4f30c9d8a4486c9c62572101345c71de24030e9b08926c",
        "xy": "697e94dce32de5f794b676c748c2cd0b9cb5fb1fad1afcd15873121d354595e0",
        "cat_of": "6c9944a895e44e089215511fdf7df2253576e76a20a48dd15c2c75be74ae8893",
    },
    ("tokyo-lite", 1.0): {
        "edges_u": "ab32547517fb41296eeb24f8aeae065b9455260d03cd8d9eff9dc97cc4f7a976",
        "edges_v": "de153a67b05aeb4090a69a84bf4fb81a681b91e694c2867d9b57dd958a4978a2",
        "edges_w": "b42c8fdab83ad5075c0f61833fad575eef69bb0ca0666913e0283453873aeebd",
        "xy": "4260553727dd24cda8b05081b34fc8831cd63f76104b767ddfcd2a9302144d81",
        "cat_of": "a97f6f7123e586397fa6dacb5083b17372a4ec4dc4f1a51db2bde970b69e18e3",
    },
    ("nyc-lite", 0.05): {
        "edges_u": "2af0ebe8bdec9645df371a89a47f2f387f22d0cdd477448172213516d5ce99fb",
        "edges_v": "a123b7c116d95a401b2f3a03f95911aeec4c7e153d4e9633a612542e7a504729",
        "edges_w": "2f5f8bcd43c8412ec6ef6f5192a28a58d0bccefd1847f3ee95f51f53a430c2a9",
        "xy": "d0d36f7550fd5e1f7201285a59e1de22388c144d6e46732b2f43edcbf5a4d76e",
        "cat_of": "d009f0d7987b8b1b6c8d8a91c3ec16cc5e3e3eac9a9e7dce15b70349057cd303",
    },
    ("nyc-lite", 1.0): {
        "edges_u": "43387fb9067d60ab63c1bd34630b72e05590b43825e202fd8306ecb0fb8a7d75",
        "edges_v": "c94ba9f085465c2fe8b2faddbf11cd5d640fa7e520554e3140ac7552fa3a2dbe",
        "edges_w": "9e4f44aa501492e538e93e4f9e88192d4b6c155734b9ff6eebce48c40ac14e3e",
        "xy": "9eededaf89d3cfc806f82ba9e49ef1ab686d9d2579927478d45f8c8482f96827",
        "cat_of": "db22e7c7026f1d3e305cea85e50ea99096d827eefb0f1c1c279cefa3b401a133",
    },
    ("cal-lite", 0.05): {
        "edges_u": "26db03d54131ecf27f5f4f9f41e641919ea58e592a73e9111c4d535bc1ce3e9f",
        "edges_v": "220b13f7d3211e5ae72d372a55f6c83b901a6700d5af5631e5ee882c669f937e",
        "edges_w": "772e6ffbac1285bdcbac2b3955a147b5fe6c0da953a60ee591ec0402f659a796",
        "xy": "753ac72c1e5fb13bbfdaac97e2eab561b382b8f57fda56792853db8c7da8cde4",
        "cat_of": "0da432244953a4feb50e2fc1359b72f2cb9e5fb81aae22b94f48a2f852c4cc90",
    },
    ("cal-lite", 1.0): {
        "edges_u": "410487db06f34198a9013efbe9e6ff7dd6d8b398ebb42161e15c8fef80319178",
        "edges_v": "4720b5188cc6dbdff506093d0a40c2c95be04a0a8a38d9e7558b17730520e7f2",
        "edges_w": "5f756a464aa738b162b585ad692f1d2c91c7d0fc66e642da81206ba14f57701c",
        "xy": "e92c5bacca57a0dfae881ea954508f63409dc3cbe4356b2365c6220197ddaa83",
        "cat_of": "d2df6852b6d1da1d708e73a9470f04cc43d1eb5fc08ad2619cbd614a064f6825",
    },
}


@pytest.mark.parametrize("name, scale", list(_PRESET_DIGESTS))
def test_preset_arrays_are_pinned(name, scale):
    g = dataset(name, scale=scale).graph
    got = {k: hashlib.sha256(getattr(g, k).tobytes()).hexdigest() for k in _PRESET_DIGESTS[name, scale]}
    assert got == _PRESET_DIGESTS[name, scale]


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
        assert all_pois == set(int(p) for p in poi_ids(small_graph))



def test_local_engines_import_neither_pandas_nor_pyspark():
    """The local query path loads no DataFrame library.  It runs in a fresh
    interpreter because conftest has already imported both here."""
    root = Path(__file__).resolve().parent.parent
    code = (
        "import sys\n"
        "import repro.core.bssr, repro.baselines.naive, repro.baselines.brute\n"
        "import repro.workloads, repro.tables.common\n"
        "import repro.tables.table5, repro.tables.table6, repro.tables.table7, repro.tables.table8\n"
        "import repro.tables.table9\n"
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
