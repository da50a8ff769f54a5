"""Table 6 — peak memory (RSS analogue) of BSSR / BSSR w/o Opt / PNE / Dij
at |S_q| = 4.

The paper reports max RSS of a C++ process; here each cell is the traced
Python allocation peak over the query batch plus the resident graph size
(DESIGN.md §deviations-5).  The comparison shape is the target: Dij's route
queue dwarfs everything, BSSR ~= PNE ~= graph-dominated, and BSSR w/o Opt
sits above BSSR.
"""
from __future__ import annotations

from repro.tables.common import (
    DATASETS,
    ENGINES,
    env_queries,
    env_scale,
    get_dataset,
    graph_mem_mb,
    traced_peak_mb,
)
from repro.workloads import make_queries

PAPER_RSS_MB = {
    "tokyo-lite": {"BSSR": 239.6, "BSSR w/o Opt": 497.5, "PNE": 239.8, "Dij": 4800.0},
    "nyc-lite": {"BSSR": 658.0, "BSSR w/o Opt": 659.4, "PNE": 658.7, "Dij": 9700.0},
    "cal-lite": {"BSSR": 36.7, "BSSR w/o Opt": 53.7, "PNE": 36.6, "Dij": 70.3},
}

ALGOS = list(ENGINES)


def rows(*, scale: float | None = None, n_queries: int | None = None, size: int = 4) -> list[dict]:
    # Dij at |S_q|=4 is the paper's pathological case; a reduced default
    # scale keeps the whole cell under a minute while preserving the shape.
    scale = env_scale(0.2) if scale is None else scale
    n_queries = env_queries(3) if n_queries is None else n_queries
    out = []
    for name in DATASETS:
        ds = get_dataset(name, scale)
        g_mb = graph_mem_mb(ds)
        queries = make_queries(ds, size=size, n_queries=n_queries, seed=21)
        row: dict = {"Dataset": name, "graph MB": round(g_mb, 1)}
        for algo in ALGOS:
            def batch():
                for q in queries:
                    ENGINES[algo](ds, q)
            row[algo] = round(g_mb + traced_peak_mb(batch), 1)
            row[f"{algo} paper"] = PAPER_RSS_MB[name][algo]
        out.append(row)
    return out


COLUMNS = ["Dataset", "graph MB"] + [c for a in ALGOS for c in (a, f"{a} paper")]
