"""The skyline machinery (Def. 4.1/4.2) — local and DataFrame forms.

``R`` dominates ``R'`` when it is at least as good in both scores and
strictly better in one.  A *minimal* result set keeps exactly one route per
undominated (length, semantic) score pair.

:class:`SkylineSet` maintains the paper's running set ``S`` as a score
frontier sorted by semantic score with strictly decreasing length, which
makes the branch-and-bound threshold of Eq. (3) an O(log |S|) lookup.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any

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


@dataclass
class SkylineSet:
    """Running minimal set ``S`` with Eq. (3) threshold queries.

    Invariant: ``entries`` is sorted by semantic score ascending with length
    strictly decreasing — a proper 2-D skyline frontier.
    """

    entries: list[tuple[float, float, Any]] = field(default_factory=list)  # (s, l, payload)

    def __len__(self) -> int:
        return len(self.entries)

    def routes(self) -> list[tuple[float, float, Any]]:
        """Contents as ``(l, s, payload)`` rows."""
        return [(l, s, p) for (s, l, p) in self.entries]

    def update(self, l: float, s: float, payload: Any) -> bool:
        """``S.update(R)`` — insert unless dominated/equivalent; evict any
        entries the newcomer dominates.  Returns True when inserted.  An
        infinite ``l`` is no route (its §6 destination leg is unreachable)
        and is never inserted."""
        if l == INF:
            return False
        i = bisect.bisect_right(self.entries, (s + _EPS, INF, None))
        # Frontier lengths decrease with s, so the tightest competitor with
        # s' <= s is the one just before the insertion point.
        if i > 0 and self.entries[i - 1][1] <= l + _EPS:
            return False  # dominated or equivalent
        start = i
        # An equal-s entry sits just before i; if it survived the check above
        # its length is larger, so the newcomer dominates it (Def. 4.1-i).
        while start > 0 and self.entries[start - 1][0] >= s - _EPS and self.entries[start - 1][1] >= l - _EPS:
            start -= 1
        j = i
        while j < len(self.entries) and self.entries[j][1] >= l - _EPS:
            j += 1  # these have s' >= s and l' >= l: dominated by newcomer
        self.entries[start:j] = [(s, l, payload)]
        return True

    def threshold(self, min_semantic: float) -> float:
        """Eq. (3): min ``l(R')`` over ``R' in S`` with ``s(R') <= s_(R)``.

        A route whose length reaches this value is dominated-or-equivalent
        however it is completed (Lemma 5.3), so it can be pruned.
        """
        i = bisect.bisect_right(self.entries, (min_semantic + _EPS, INF, None))
        if i == 0:
            return INF
        return self.entries[i - 1][1]
