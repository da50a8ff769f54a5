"""The skyline machinery (Def. 4.1/4.2).

``R`` dominates ``R'`` when it is at least as good in both scores and
strictly better in one.  A *minimal* result set keeps exactly one route per
undominated (length, semantic) score pair.

:class:`SkylineSet` maintains the paper's running set ``S`` as a score
frontier sorted by semantic score with strictly decreasing length, which
makes the branch-and-bound threshold of Eq. (3) an O(log |S|) lookup.  The
frontier is the compiled kernel's ``skyline`` struct (``_skyline.c``): the
same code serves NNinit, the Spark pipeline's last level and BSSR's
compiled loop, which updates a ``SkylineSet`` in place.  ``_EPS`` is handed
to the struct, so the tolerance is written once, here.
"""
from __future__ import annotations

from typing import Any

import numpy as np

from repro.graphs.dijkstra import ffi, lib

INF = float("inf")
_EPS = 1e-12  # score-equality tolerance for float legs summed in different orders


def score_key(l: float, s: float) -> tuple[float, float]:
    """``(l, s)`` rounded to 9 digits: the key under which engines' score
    sets are compared, robust to float legs summed in different orders."""
    return (round(l, 9), round(s, 9))


def dominates(a: tuple[float, float], b: tuple[float, float]) -> bool:
    """True iff score pair ``a=(l,s)`` dominates ``b`` per Def. 4.1."""
    la, sa = a
    lb, sb = b
    return (la < lb - _EPS and sa <= sb + _EPS) or (sa < sb - _EPS and la <= lb + _EPS)


def skyline(items: list[tuple[float, float, Any]]) -> list[tuple[float, float, Any]]:
    """Minimal skyline of ``(l, s, payload)`` rows.

    Sorts by (l, s) and sweeps keeping strictly improving ``s``; among
    equivalent score pairs the first payload encountered is kept (the query
    returns *a* minimal set — any representative per score pair is valid).
    """
    out: list[tuple[float, float, Any]] = []
    best_s = INF
    for l, s, payload in sorted(items, key=lambda r: (r[0], r[1])):
        if s < best_s - _EPS:
            out.append((l, s, payload))
            best_s = s
    # The sweep can keep a row whose length ties a later, semantically
    # better row within _EPS (float legs summed in different orders); a
    # pairwise pass over the small survivor set removes those.
    return [
        a
        for i, a in enumerate(out)
        if not any(i != j and dominates((b[0], b[1]), (a[0], a[1])) for j, b in enumerate(out))
    ]


class SkylineSet:
    """Running minimal set ``S`` with Eq. (3) threshold queries.

    Invariant: the frontier is sorted by semantic score ascending with
    length strictly decreasing — a proper 2-D skyline frontier.  The scores
    live in :attr:`frontier`; each payload stays here under the id the
    kernel gave its entry.
    """

    def __init__(self) -> None:
        frontier = ffi.new("skyline *")
        frontier.eps = _EPS
        self.frontier = ffi.gc(frontier, lib.skyline_release)
        self._payloads: dict[int, Any] = {}

    def __len__(self) -> int:
        return self.frontier.n

    def _rows(self) -> list[tuple[float, float, int]]:
        """The frontier's ``(s, l, id)`` entries, in order."""
        f = self.frontier
        if not f.n:
            return []
        return np.frombuffer(ffi.buffer(f.e, f.n * _ENTRY.itemsize), dtype=_ENTRY).tolist()

    def routes(self) -> list[tuple[float, float, Any]]:
        """Contents as ``(l, s, payload)`` rows."""
        return [(l, s, self._payloads[i]) for (s, l, i) in self._rows()]

    def update(self, l: float, s: float, payload: Any) -> bool:
        """``S.update(R)`` — insert unless dominated/equivalent; evict any
        entries the newcomer dominates.  Returns True when inserted.  An
        infinite ``l`` is no route (its §6 destination leg is unreachable)
        and is never inserted."""
        i = lib.skyline_update(self.frontier, l, s)
        if i == -2:
            raise MemoryError("the skyline frontier could not grow")
        if i < 0:
            return False
        self.attach([i], [payload])
        return True

    def attach(self, ids: list[int], payloads: list[Any]) -> None:
        """Give the entries the kernel inserted under ``ids`` their payloads,
        and drop the payloads of evicted entries once they outnumber the
        frontier."""
        self._payloads.update(zip(ids, payloads))
        if len(self._payloads) > 2 * len(self) + 16:
            self._payloads = {i: self._payloads[i] for (_s, _l, i) in self._rows()}

    def threshold(self, min_semantic: float) -> float:
        """Eq. (3): min ``l(R')`` over ``R' in S`` with ``s(R') <= s_(R)``.

        A route whose length reaches this value is dominated-or-equivalent
        however it is completed (Lemma 5.3), so it can be pruned.
        """
        return lib.skyline_threshold(self.frontier, min_semantic)


# The layout of the kernel's `sky_entry` struct.
_ENTRY = np.dtype([("s", np.float64), ("l", np.float64), ("id", np.int64)])
