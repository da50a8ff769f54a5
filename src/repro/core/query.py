"""Per-query precomputation shared by every SkySR engine.

One table per query: ``sim``, a ``(k, n_vertices)`` float64 array whose
entry ``sim[i, v]`` is vertex ``v``'s Wu–Palmer similarity to ``S_q[i]``
(Def. 3.4-ii), and 0 when ``v`` does not match, i.e. when none of its
categories lies in ``S_q[i]``'s tree.  A §6 multi-category PoI matches
through its best category.  Row ``i`` is one
:meth:`~repro.graphs.categories.CategoryForest.sim_row` per position,
gathered through ``cat_of``.  Every per-position view is a comparison on
that table: the matches are ``sim[i] > 0``, the perfect matches
``sim[i] == 1.0``, and BSSR's modified Dijkstra reads ``sim[i]`` itself as
its marks.  BSSR, NNinit, the bounds, the Spark pipeline, brute force, the
naive baselines' scoring and route scoring therefore agree on what matches
and how well.  The Lemma 5.5 mask ``through`` is defined here once too, so
BSSR's scans and the Spark pipeline's apply the same rule.

The §6 destination leg is computed here once: ``dest_dist`` holds every
vertex's distance *to* the destination, from one reverse search, or is
``None`` when the query has no destination.

Building the context validates the query with :func:`validate_query`,
which the naive baselines call too, so every engine rejects the same bad
input with a ``ValueError``: a start point or destination outside
``[0, n_vertices)``, a category id outside ``[0, n_categories)``, or an
empty ``S_q``.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.graphs.categories import CategoryForest
from repro.graphs.dijkstra import dijkstra
from repro.graphs.generator import Graph


def pairwise_disjoint(sets: Sequence[np.ndarray]) -> bool:
    """True when no vertex lies in two of ``sets``: one or more arrays, each
    of distinct vertex ids."""
    ids = np.concatenate(sets)
    return np.unique(ids).size == ids.size


def validate_query(
    graph: Graph, forest: CategoryForest, v_q: int, seq_cats: Sequence[int], destination: int | None = None
) -> None:
    """Raise ``ValueError`` unless ``(v_q, S_q)`` with the optional
    ``destination`` is a query on ``graph`` and ``forest``."""
    if not seq_cats:
        raise ValueError("empty category sequence S_q")
    for name, v in (("v_q", v_q), ("destination", destination)):
        if v is not None and not 0 <= v < graph.n_vertices:
            raise ValueError(f"{name} {v} is outside [0, {graph.n_vertices})")
    for c in seq_cats:
        if not 0 <= c < forest.n_categories:
            raise ValueError(f"category id {c} is outside [0, {forest.n_categories})")


@dataclass
class QueryContext:
    """The match table and destination leg of one SkySR query ``(v_q, S_q)``."""

    graph: Graph
    forest: CategoryForest
    v_q: int
    seq_cats: list[int]
    destination: int | None = None

    sim: np.ndarray = field(init=False)  # (k, n_vertices): each vertex's sim to S_q[i], 0 = no match
    max_nonperfect: list[float] = field(init=False)  # footnote 2's delta per position
    nonperfect_suffix: list[float] = field(init=False)  # [pos]: max of max_nonperfect[pos:], 0 at k
    trees_distinct: bool = field(init=False)
    through: np.ndarray | None = field(init=False)  # (k, n_vertices): the vertices a scan may walk past
    dest_dist: np.ndarray | None = field(init=False)  # per vertex: distance to the destination

    def __post_init__(self) -> None:
        g, forest = self.graph, self.forest
        validate_query(g, forest, self.v_q, self.seq_cats, self.destination)
        # One Wu–Palmer row per position, and a last column of zeros that a
        # road vertex's cat_of of -1 picks.  ``take`` keeps the rows
        # contiguous, as the kernel reads them.
        rows = np.zeros((self.k, forest.n_categories + 1))
        for i, c in enumerate(self.seq_cats):
            rows[i, :-1] = forest.sim_row(c)
        self.sim = rows.take(g.cat_of, axis=1)
        # §6 "PoI with multiple categories": a PoI matches through its best
        # category (the paper allows highest-or-average; we use highest).
        for p, cats in g.extra_cats.items():
            self.sim[:, p] = rows[:, [g.cat_of[p], *cats]].max(axis=1)
        self.max_nonperfect = [forest.max_nonperfect(row[:-1]) for row in rows]
        self.nonperfect_suffix = [0.0] * (self.k + 1)
        for i in range(self.k - 1, -1, -1):
            self.nonperfect_suffix[i] = max(self.max_nonperfect[i], self.nonperfect_suffix[i + 1])
        # Gate for Lemma 5.5 / on-the-fly caching: those arguments need the
        # per-position match sets to be pairwise disjoint (then a route's
        # earlier PoIs can never matter to a later position's search), i.e.
        # no column of ``sim`` has two nonzero entries.  Distinct trees (the
        # paper's workload constraint) imply it for single-category PoIs.
        self.trees_distinct = pairwise_disjoint([np.flatnonzero(hit) for hit in self.sim > 0])
        # Per position, the vertices a modified Dijkstra may walk past: all
        # but the perfect matches (Lemma 5.5-ii; given ``through``, the
        # kernel applies Lemma 5.5-i too and records only the matches it may
        # return).  ``None`` when the match sets overlap, which turns
        # Lemma 5.5 off in BSSR's scans and the Spark pipeline's alike.
        self.through = self.sim != 1.0 if self.trees_distinct else None
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
        return float(self.sim[pos, vertex])
