"""Table 7 — effect of the initial search (NNinit, §5.3.1) for |S_q|=2..5.

Per (dataset, size) cell, averaged over the query batch, from the counters
of full :func:`~repro.core.bssr.bssr` runs with NNinit on and off (the
other optimizations on):

* ``weight sum``      — edge weight scanned by the *first* modified Dijkstra
                        when NNinit seeded the threshold (proposed);
* ``existing``        — same metric with NNinit disabled: with no upper
                        bound the first search sweeps the whole graph, which
                        is why the paper's "existing" row is constant in
                        |S_q|;
* ``NNinit ms``       — response time of NNinit alone;
* ``# routes``        — sequenced routes NNinit finds (paper: 1.3–2.4);
* ``ratio``           — length of NNinit's loosest-semantic route over its
                        semantic-score-0 route (paper: 0.67–0.86).
"""
from __future__ import annotations

import numpy as np

from repro.core.bssr import BSSROptions, bssr
from repro.tables.common import DATASETS, env_queries, env_scale, get_dataset
from repro.workloads import make_queries

PAPER = {
    "tokyo-lite": {
        "weight sum": {2: 0.009, 3: 0.013, 4: 0.017, 5: 0.021},
        "existing": 0.32,
        "nninit_ms": {2: 3.5, 3: 5.1, 4: 6.9, 5: 8.6},
        "n_routes": {2: 1.49, 3: 1.33, 4: 1.36, 5: 1.49},
        "ratio": {2: 0.74, 3: 0.79, 4: 0.82, 5: 0.86},
    },
    "nyc-lite": {
        "weight sum": {2: 0.044, 3: 0.066, 4: 0.073, 5: 0.078},
        "existing": 1.31,
        "nninit_ms": {2: 10.7, 3: 16.5, 4: 19.5, 5: 24.1},
        "n_routes": {2: 1.76, 3: 1.79, 4: 1.81, 5: 1.82},
        "ratio": {2: 0.67, 3: 0.81, 4: 0.85, 5: 0.83},
    },
    "cal-lite": {
        "weight sum": {2: 0.79, 3: 1.28, 4: 1.57, 5: 1.85},
        "existing": 12.14,
        "nninit_ms": {2: 1.4, 3: 2.3, 4: 2.9, 5: 3.9},
        "n_routes": {2: 2.27, 3: 2.37, 4: 2.28, 5: 2.25},
        "ratio": {2: 0.70, 3: 0.79, 4: 0.85, 5: 0.86},
    },
}

SIZES = (2, 3, 4, 5)


def rows(*, scale: float | None = None, n_queries: int | None = None, sizes=SIZES) -> list[dict]:
    scale = env_scale(1.0) if scale is None else scale
    n_queries = env_queries(5) if n_queries is None else n_queries
    out = []
    for name in DATASETS:
        ds = get_dataset(name, scale)
        for size in sizes:
            queries = make_queries(ds, size=size, n_queries=n_queries, seed=31)
            with_init, without_init, nn_ms, nn_routes, nn_ratio = [], [], [], [], []
            for q in queries:
                cats = list(q.seq_cats)
                st = bssr(ds.graph, ds.forest, q.v_q, cats).stats
                with_init.append(st.first_weight_sum)
                nn_ms.append(st.nninit_time_ms)
                nn_routes.append(st.nninit_routes)
                nn_ratio.append(st.nninit_ratio)
                st0 = bssr(ds.graph, ds.forest, q.v_q, cats, options=BSSROptions(use_nninit=False)).stats
                without_init.append(st0.first_weight_sum)
            p = PAPER[name]
            out.append(
                {
                    "Dataset": name,
                    "|Sq|": size,
                    "weight sum": round(float(np.mean(with_init)), 4),
                    "paper ws": p["weight sum"][size],
                    "existing ws": round(float(np.mean(without_init)), 4),
                    "paper existing": p["existing"],
                    "NNinit ms": round(float(np.mean(nn_ms)), 2),
                    "paper ms": p["nninit_ms"][size],
                    "# routes": round(float(np.mean(nn_routes)), 2),
                    "paper #": p["n_routes"][size],
                    "ratio": round(float(np.mean(nn_ratio)), 2),
                    "paper ratio": p["ratio"][size],
                }
            )
    return out


COLUMNS = [
    "Dataset", "|Sq|", "weight sum", "paper ws", "existing ws", "paper existing",
    "NNinit ms", "paper ms", "# routes", "paper #", "ratio", "paper ratio",
]
