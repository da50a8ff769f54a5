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


def semantic_score(sim_product: float) -> float:
    """Eq. 7: s = 1 - prod of per-position similarities."""
    return 1.0 - sim_product
