"""Table 6 benchmark: per-algorithm runtime at |S_q|=4 with traced peak
memory recorded in extra_info (the RSS analogue)."""
from functools import partial

import pytest

from repro.tables.common import ENGINES, traced_peak_mb


@pytest.mark.parametrize("algo", list(ENGINES))
def test_table6_memory(benchmark, bench_world_small, bench_queries_small, algo):
    ds = bench_world_small
    q = bench_queries_small[4][0]
    fn = partial(ENGINES[algo], ds, q)
    peak_mb = traced_peak_mb(fn)
    benchmark.pedantic(fn, rounds=1, iterations=1)
    benchmark.extra_info["peak_mb"] = round(peak_mb, 3)
