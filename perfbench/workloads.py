"""The benchmark's workloads, shared by ``run.py``, ``worker.py`` and
``build_refs.py``.

Each workload draws its queries from a fixed pool, ``make_queries(ds,
size=..., n_queries=pool, seed=POOL_SEED)``, whose reference score sets are
stored in ``refs/<name>.json``.  Pool query 0 is the untimed warm-up query;
``--seed`` picks which of the others a run answers, so every seed gets
distinct queries that all have a stored reference.

This module imports nothing from the program, so the runner stays light.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

POOL_SEED = 2018
SETUPS = 5  # fresh-process set-ups per untraced run; setup_s is their median
REFS_DIR = Path(__file__).resolve().parent / "refs"


@dataclass(frozen=True)
class Workload:
    name: str
    engine: str  # "bssr" (default BSSROptions) | "naive-pne" (naive_skysr, engine="pne")
    dataset: str
    scale: float
    size: int  # |S_q|, one per workload so the latency distribution has one mode
    pool: int  # queries with a stored reference; query 0 is the warm-up
    rate: float  # queries/s at the commit that defined the benchmark (4 vCPUs)

    def n_queries(self, seconds: int) -> int:
        """Timed queries per run: about ``seconds`` of work at ``rate``, and
        at least 21, so a percentile above the median has ten samples
        beyond it."""
        return min(self.pool - 1, max(21, round(seconds * self.rate)))

    def refs_path(self) -> Path:
        return REFS_DIR / f"{self.name}.json"


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("bssr-tokyo", "bssr", "tokyo-lite", 1.0, 3, pool=303, rate=5.5),
        Workload("naive-tokyo", "naive-pne", "tokyo-lite", 0.15, 2, pool=413, rate=7.5),
    )
}
