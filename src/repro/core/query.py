"""Per-query precomputation shared by NNinit, BSSR and the baselines.

For each position ``i`` of the category sequence the search needs, over and
over: which vertices semantically match ``c_i`` (same tree), with what
similarity, and which match perfectly.  :class:`QueryContext` materializes
those once per query, as dense per-vertex arrays and as per-position dicts
of the matching vertices, so the inner Dijkstra loops are O(1) per settled
vertex.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graphs.categories import CategoryForest
from repro.graphs.generator import Graph


@dataclass
class QueryContext:
    """Dense match/similarity tables for one SkySR query ``(v_q, S_q)``."""

    graph: Graph
    forest: CategoryForest
    v_q: int
    seq_cats: list[int]
    destination: int | None = None

    sim_arrs: list[np.ndarray] = field(init=False)  # per position: vertex -> sim (0 if no match)
    match_sims: list[dict[int, float]] = field(init=False)  # per position: matching vertex -> sim
    perfect_pois: list[np.ndarray] = field(init=False)
    tree_pois: list[np.ndarray] = field(init=False)
    max_nonperfect: list[float] = field(init=False)
    trees_distinct: bool = field(init=False)

    def __post_init__(self) -> None:
        g, forest = self.graph, self.forest
        self.sim_arrs = []
        self.match_sims = []
        self.perfect_pois = []
        self.tree_pois = []
        self.max_nonperfect = []
        for c in self.seq_cats:
            simmap = np.zeros(forest.n_categories)
            for c2 in range(forest.n_categories):
                if forest.same_tree(c2, c):
                    simmap[c2] = forest.sim(c2, c)
            arr = np.zeros(g.n_vertices)
            mask = g.cat_of >= 0
            arr[mask] = simmap[g.cat_of[mask]]
            # §6 "PoI with multiple categories": a PoI matches through its
            # best category (the paper allows highest-or-average; we use
            # highest).
            for p, cats in g.extra_cats.items():
                for c2 in cats:
                    arr[p] = max(arr[p], simmap[c2])
            tree = np.nonzero(arr > 0)[0]
            self.sim_arrs.append(arr)
            self.match_sims.append(dict(zip(tree.tolist(), arr[tree].tolist())))
            self.perfect_pois.append(np.nonzero(arr == 1.0)[0])
            self.tree_pois.append(tree)
            nonperf = simmap[(simmap > 0) & (simmap < 1.0)]
            self.max_nonperfect.append(float(nonperf.max()) if len(nonperf) else 0.0)
        # Gate for Lemma 5.5 / on-the-fly caching: those arguments need the
        # per-position match sets to be pairwise disjoint (then a route's
        # earlier PoIs can never matter to a later position's search).
        # Set disjointness is the precise condition; distinct trees (the
        # paper's workload constraint) implies it for single-category PoIs.
        sets = [set(map(int, m)) for m in self.tree_pois]
        self.trees_distinct = all(
            not (sets[i] & sets[j]) for i in range(len(sets)) for j in range(i + 1, len(sets))
        )

    @property
    def k(self) -> int:
        return len(self.seq_cats)

    def sim_at(self, pos: int, vertex: int) -> float:
        """Similarity of ``vertex``'s category to ``S_q[pos]`` (0 = no match)."""
        return float(self.sim_arrs[pos][vertex])

    def is_perfect(self, pos: int, vertex: int) -> bool:
        return self.sim_arrs[pos][vertex] == 1.0

    def max_nonperfect_suffix(self, pos: int) -> float:
        """Largest non-perfect similarity over positions ``pos..k-1`` — the
        best factor a completion can salvage if it cannot be all-perfect
        (the delta of Lemma 5.8, footnote 2, in product form)."""
        vals = self.max_nonperfect[pos:]
        return max(vals) if vals else 0.0
