"""Per-query precomputation shared by every SkySR engine.

One table per query.  For each position ``i`` of ``S_q``, ``match_sims[i]``
maps every vertex that semantically matches ``c_i`` (Def. 3.4-ii: its
category lies in ``c_i``'s tree; a §6 multi-category PoI matches through its
best category) to its Wu–Palmer similarity, in vertex order.  Every other
per-position view is read from that table: :meth:`QueryContext.sim_at`,
:meth:`QueryContext.perfect` and the match sets themselves.  BSSR, NNinit,
the bounds, the Spark pipeline, brute force, the naive baselines' scoring
and route scoring therefore agree on what matches and how well.

The §6 destination leg is computed here once: ``dest_dist`` holds every
vertex's distance *to* the destination, from one reverse search, or is
``None`` when the query has no destination.

Building the context validates the query, so every engine rejects the same
bad input with a ``ValueError``: a start point or destination outside
``[0, n_vertices)``, a category id outside ``[0, n_categories)``, or an
empty ``S_q``.
"""
from __future__ import annotations

from collections.abc import Collection, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.graphs.categories import CategoryForest
from repro.graphs.dijkstra import dijkstra
from repro.graphs.generator import Graph


def pairwise_disjoint(sets: Sequence[Collection[int]]) -> bool:
    """True when no vertex lies in two of ``sets``."""
    seen: set[int] = set()
    for s in sets:
        if not seen.isdisjoint(s):
            return False
        seen.update(s)
    return True


@dataclass
class QueryContext:
    """The match table and destination leg of one SkySR query ``(v_q, S_q)``."""

    graph: Graph
    forest: CategoryForest
    v_q: int
    seq_cats: list[int]
    destination: int | None = None

    match_sims: list[dict[int, float]] = field(init=False)  # per position: matching vertex -> sim
    max_nonperfect: list[float] = field(init=False)
    trees_distinct: bool = field(init=False)
    dest_dist: np.ndarray | None = field(init=False)  # per vertex: distance to the destination

    def __post_init__(self) -> None:
        g, forest = self.graph, self.forest
        if not self.seq_cats:
            raise ValueError("empty category sequence S_q")
        for name, v in (("v_q", self.v_q), ("destination", self.destination)):
            if v is not None and not 0 <= v < g.n_vertices:
                raise ValueError(f"{name} {v} is outside [0, {g.n_vertices})")
        for c in self.seq_cats:
            if not 0 <= c < forest.n_categories:
                raise ValueError(f"category id {c} is outside [0, {forest.n_categories})")
        self.match_sims = []
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
            self.match_sims.append(dict(zip(tree.tolist(), arr[tree].tolist())))
            nonperf = simmap[(simmap > 0) & (simmap < 1.0)]
            self.max_nonperfect.append(float(nonperf.max()) if len(nonperf) else 0.0)
        # Gate for Lemma 5.5 / on-the-fly caching: those arguments need the
        # per-position match sets to be pairwise disjoint (then a route's
        # earlier PoIs can never matter to a later position's search).
        # Set disjointness is the precise condition; distinct trees (the
        # paper's workload constraint) implies it for single-category PoIs.
        self.trees_distinct = pairwise_disjoint(self.match_sims)
        # §6 destination leg: one search from the destination on the
        # reversed graph, which is the graph itself when undirected.
        self.dest_dist = (
            dijkstra(g, self.destination, reverse=True) if self.destination is not None else None
        )

    @property
    def k(self) -> int:
        return len(self.seq_cats)

    def sim_at(self, pos: int, vertex: int) -> float:
        """Similarity of ``vertex``'s category to ``S_q[pos]`` (0 = no match)."""
        return self.match_sims[pos].get(vertex, 0.0)

    def perfect(self, pos: int) -> list[int]:
        """The perfect matches of position ``pos`` (sim 1), in vertex order."""
        return [v for v, s in self.match_sims[pos].items() if s == 1.0]

    def max_nonperfect_suffix(self, pos: int) -> float:
        """Largest non-perfect similarity over positions ``pos..k-1`` — the
        best factor a completion can salvage if it cannot be all-perfect
        (the delta of Lemma 5.8, footnote 2, in product form)."""
        vals = self.max_nonperfect[pos:]
        return max(vals) if vals else 0.0
