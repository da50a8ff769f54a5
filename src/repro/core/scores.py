"""Route scores (Def. 3.5) under the paper's experimental scoring (Eq. 6/7).

A route ``R = <p_1 ... p_k>`` for query ``(v_q, S_q)`` has

* length score ``l(R) = D(v_q, p_1) + sum_i D(p_i, p_{i+1})`` — network
  shortest-path legs, plus ``D(p_k, v_d)`` for a §6 destination ``v_d``,
  and
* semantic score ``s(R) = 1 - prod_i sim(c_{p_i}, c_{S_q}[i])`` — one minus
  the product of Wu–Palmer similarities (Eq. 7), so a perfectly matching
  route scores 0 and anything semantically looser scores more.

A partial route carries its running similarity *product*; its possible
minimum semantic score ``s_(R)`` assumes every remaining position matches
perfectly (factor 1), i.e. ``s_(R) = 1 - prod``.
"""
from __future__ import annotations

from repro.core.query import QueryContext
from repro.graphs.categories import CategoryForest
from repro.graphs.dijkstra import settle_to, vertex_mask
from repro.graphs.generator import Graph


def semantic_score(sim_product: float) -> float:
    """Eq. 7: s = 1 - prod of per-position similarities."""
    return 1.0 - sim_product


def route_scores(
    graph: Graph,
    forest: CategoryForest,
    v_q: int,
    seq_cats: list[int],
    route: tuple[int, ...],
    *,
    destination: int | None = None,
) -> tuple[float, float]:
    """Recompute ``(l(R), s(R))`` from scratch — the slow, obviously-correct
    path used by tests (never by BSSR itself).  Similarities come from
    :class:`QueryContext`, so a §6 multi-category PoI scores through its
    best category, as in every engine.  With a §6 ``destination``, the
    length includes the leg from the last PoI to it."""
    if len(route) != len(seq_cats):
        raise ValueError("route and category sequence sizes differ (Def. 3.4-i)")
    ctx = QueryContext(graph, forest, v_q, list(seq_cats), destination)
    total = 0.0
    prev = v_q
    prod = 1.0
    for pos, poi in enumerate(route):
        found = settle_to(graph, (prev,), vertex_mask(graph.n_vertices, (poi,)), limit=1)
        total += found[0][0] if found else float("inf")
        prod *= ctx.sim_at(pos, poi)
        prev = poi
    if ctx.dest_dist is not None:
        total += float(ctx.dest_dist[prev])
    return total, semantic_score(prod)


def is_sequenced_route(
    graph: Graph, forest: CategoryForest, seq_cats: list[int], route: tuple[int, ...]
) -> bool:
    """Def. 3.4: right size, per-position semantic match (through any of a
    PoI's categories, as :class:`QueryContext` defines it), all PoIs
    distinct."""
    if len(route) != len(seq_cats):
        return False
    if len(set(route)) != len(route):
        return False
    # Matching does not depend on the start point; any vertex serves as v_q.
    ctx = QueryContext(graph, forest, 0, list(seq_cats))
    return all(ctx.sim_at(pos, poi) > 0 for pos, poi in enumerate(route))
