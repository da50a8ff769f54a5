"""Table 5 — dataset summary: |V|, |P|, |E| per map, paper vs generated.

Our presets track the paper's shape at 1/100 scale (Cal: 1/10); the row
layout mirrors the paper's Table 5 with the reproduction columns appended.
"""
from __future__ import annotations

from repro.graphs.generator import PAPER_TABLE5
from repro.tables.common import DATASETS, env_scale, get_dataset


def rows(*, scale: float | None = None) -> list[dict]:
    scale = env_scale(1.0) if scale is None else scale
    out = []
    for name in DATASETS:
        ds = get_dataset(name, scale)
        area, pv, pp, pe = PAPER_TABLE5[name]
        out.append(
            {
                "Dataset": ds.name,
                "Area": area,
                "paper |V|": pv,
                "paper |P|": pp,
                "paper |E|": pe,
                "ours |V|": ds.graph.n_road,
                "ours |P|": ds.graph.n_pois,
                "ours |E|": ds.graph.n_edges,
                "categories": ds.forest.n_categories,
                "trees": ds.forest.n_trees,
            }
        )
    return out


COLUMNS = [
    "Dataset", "Area", "paper |V|", "paper |P|", "paper |E|",
    "ours |V|", "ours |P|", "ours |E|", "categories", "trees",
]
