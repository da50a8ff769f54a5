/* The running minimal set S of Def. 4.2 as a score frontier, with the
 * Eq. 3 threshold lookup.
 *
 * R dominates R' when it is at least as good in both scores and strictly
 * better in one, each comparison with the tolerance `eps`.  The entries
 * are sorted by semantic score with strictly decreasing length, so the
 * tightest competitor of a score s is the last entry with s' <= s + eps,
 * found by bisection.  repro.core.dominance.SkylineSet wraps this struct,
 * and bssr_run updates the same one.  Compiled after _settle.c.
 */
#include "_kernel.h"

/* How many entries have s' <= key: bisect.bisect_right over the
 * (s, l, payload) rows with (key, inf, None), step for step. */
static inline int64_t upper(const skyline *S, double key)
{
    int64_t lo = 0, hi = S->n;
    while (lo < hi) {
        int64_t mid = (lo + hi) / 2;
        if (key < S->e[mid].s)
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo;
}

/* Eq. 3: the smallest length among the entries with s' <= min_semantic
 * (within eps), inf if none.  A route whose length reaches it is dominated
 * or equivalent however it is completed (Lemma 5.3). */
double skyline_threshold(const skyline *S, double min_semantic)
{
    int64_t i = upper(S, min_semantic + S->eps);
    return i == 0 ? INFINITY : S->e[i - 1].l;
}

/* S.update(R): insert (l, s) unless an entry dominates it or is equivalent,
 * and evict the entries it dominates.  Returns the new entry's id, -1 when
 * it is not inserted (an infinite l is no route, a §6 destination leg that
 * is unreachable), or -2 when the frontier cannot grow. */
int64_t skyline_update(skyline *S, double l, double s)
{
    double eps = S->eps;
    if (l == INFINITY)
        return -1;
    int64_t i = upper(S, s + eps);
    if (i > 0 && S->e[i - 1].l <= l + eps)
        return -1; /* dominated or equivalent */
    /* An equal-s entry sits just before i; having passed the test above,
     * it is longer, so the newcomer dominates it (Def. 4.1-i). */
    int64_t start = i;
    while (start > 0 && S->e[start - 1].s >= s - eps && S->e[start - 1].l >= l - eps)
        start--;
    int64_t j = i;
    while (j < S->n && S->e[j].l >= l - eps)
        j++; /* s' >= s and l' >= l: dominated by the newcomer */
    if (start == j && S->n == S->cap) {
        sky_entry *grown = grow(S->e, &S->cap, S->n + 1, sizeof(sky_entry), 8);
        if (!grown)
            return -2;
        S->e = grown;
    }
    /* entries[start:j] = [(s, l, id)] */
    memmove(S->e + start + 1, S->e + j, (size_t)(S->n - j) * sizeof(sky_entry));
    S->e[start] = (sky_entry){s, l, S->next_id};
    S->n += 1 - (j - start);
    return S->next_id++;
}

void skyline_release(skyline *S)
{
    PyMem_RawFree(S->e);
    S->e = NULL;
    S->n = S->cap = 0;
}
