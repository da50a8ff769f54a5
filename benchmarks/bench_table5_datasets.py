"""Table 5 benchmark: dataset generation."""
import pytest

from repro.graphs.generator import dataset


@pytest.mark.parametrize("name", ["tokyo-lite", "nyc-lite", "cal-lite"])
def test_generate_dataset(benchmark, name):
    ds = benchmark(lambda: dataset(name, scale=0.25))
    benchmark.extra_info["V"] = ds.graph.n_road
    benchmark.extra_info["P"] = ds.graph.n_pois
    benchmark.extra_info["E"] = ds.graph.n_edges
