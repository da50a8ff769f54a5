/* Textbook binary-heap Dijkstra over a CSR graph, in settle order.
 *
 * The heap holds (dist, vertex) pairs with lazy deletion: a vertex is
 * pushed again whenever a relaxation shortens it, and a popped pair whose
 * dist is above the vertex's current one is skipped.  Distances are the
 * stepwise sums d + w, and a vertex is relaxed only by a strictly shorter
 * path, so the first settled relaxer of its final distance stays its
 * parent.  Pops come in (dist, vertex) order among the pairs pushed so
 * far, which is the settle order that repro.graphs.dijkstra documents.
 *
 * Both entry points work in one graph's workspace.  `dist` is all inf
 * between calls: a search lists every vertex whose dist it lowers from inf
 * in `touched` and resets only those on exit, so a call costs what it
 * visits, not O(n).  The heap starts at 1,024 pairs and the marked records
 * at 256, and each doubles when full; a search that cannot grow them
 * returns -2 with the workspace reset.  The record struct is the caller's
 * numpy record layout.  Compiled without -ffast-math or FMA contraction,
 * every double is the one Python computes.
 *
 * _skyline.c and _bssr.c are compiled after this file, in one unit, and
 * use its `grow`.
 */
#include <Python.h>
#include <math.h>
#include <string.h>

#include "_kernel.h"

/* `buf`, which holds `*cap` items of `size` bytes, reallocated to hold at
 * least `need`: the capacity doubles from `initial`.  NULL, with `buf` and
 * `*cap` as they were, when the allocator fails. */
static void *grow(void *buf, int64_t *cap, int64_t need, size_t size, int64_t initial)
{
    int64_t c = *cap ? *cap : initial;
    while (c < need)
        c *= 2;
    void *p = PyMem_RawRealloc(buf, (size_t)c * size);
    if (p)
        *cap = c;
    return p;
}

/* (dist, vertex) order; without && and || it compiles free of branches */
static inline int before(pair a, pair b)
{
    return (a.d < b.d) | ((a.d == b.d) & (a.v < b.v));
}

static inline int push(workspace *w, int64_t *size, double d, int64_t v)
{
    if (*size == w->heap_cap) {
        pair *grown = grow(w->heap, &w->heap_cap, *size + 1, sizeof(pair), 1024);
        if (!grown)
            return -1;
        w->heap = grown;
    }
    pair *heap = w->heap, x = {d, v};
    int64_t i = (*size)++;
    while (i > 0) {
        int64_t up = (i - 1) / 2;
        if (!before(x, heap[up]))
            break;
        heap[i] = heap[up];
        i = up;
    }
    heap[i] = x;
    return 0;
}

static inline pair pop(pair *heap, int64_t *size)
{
    pair top = heap[0], x = heap[--(*size)];
    int64_t n = *size, i = 0;
    for (;;) {
        int64_t c = 2 * i + 1;
        if (c >= n)
            break;
        if (c + 1 < n)
            c += before(heap[c + 1], heap[c]); /* the smaller child */
        if (!before(heap[c], x))
            break;
        heap[i] = heap[c];
        i = c;
    }
    if (n > 0)
        heap[i] = x;
    return top;
}

/* Settle every vertex closer to `source` than `budget`.
 *
 * Writes the settled vertices and their distances to `out_vertex` and
 * `out_dist` in settle order and returns their count.  No pair at or above
 * `budget` enters the heap, so `radius` is taken from the reached vertices
 * on exit: the smallest tentative distance not below `budget` (inf when the
 * search ran out), which is the pop a search pushing every pair would stop
 * at.  A vertex whose `through` byte is 0 settles but relaxes nothing.
 *
 * When `mark` is given, a settled vertex with mark > 0 goes to `marked` in
 * settle order as (dist, vertex, passed, mark), where `passed` is the
 * largest mark strictly before it on its path from the source (0 if none);
 * with `through` given too, only when its mark exceeds `passed` (Lemma
 * 5.5-i).  `weight_sum` is the sum of the weights the search relaxes,
 * added one by one in settle order and CSR row order. */
int64_t settle_below(workspace *w, int64_t source, double budget,
                     const uint8_t *through, const double *mark)
{
    const int64_t *indptr = w->indptr, *indices = w->indices;
    const double *weights = w->weights;
    double *dist = w->dist, *carry = w->carry;
    int64_t *touched = w->touched;
    double *out_dist = w->out_dist;
    int64_t *out_vertex = w->out_vertex;
    int64_t size = 0, count = 0, nm = 0, nt = 0;
    double ws = 0.0, radius = INFINITY;
    int failed = 0;
    dist[source] = 0.0;
    carry[source] = 0.0;
    touched[nt++] = source;
    if (0.0 < budget)
        failed = push(w, &size, 0.0, source);
    while (size > 0 && !failed) {
        pair top = pop(w->heap, &size);
        double d = top.d;
        int64_t u = top.v;
        if (d > dist[u])
            continue; /* superseded by a shorter pair already settled */
        out_dist[count] = d;
        out_vertex[count++] = u;
        double pm = carry[u];
        if (mark && mark[u] > 0.0) {
            double m = mark[u];
            if (!through || m > pm) {
                if (nm == w->marked_cap) {
                    marked_t *grown = grow(w->marked, &w->marked_cap, nm + 1, sizeof(marked_t), 256);
                    if (!grown) {
                        failed = 1;
                        break;
                    }
                    w->marked = grown;
                }
                w->marked[nm++] = (marked_t){d, u, pm, m};
            }
            if (m > pm)
                pm = m;
        }
        if (through && !through[u])
            continue;
        for (int64_t j = indptr[u]; j < indptr[u + 1] && !failed; j++) {
            int64_t x = indices[j];
            double nd = d + weights[j];
            ws += weights[j];
            if (nd < dist[x]) {
                if (dist[x] == INFINITY)
                    touched[nt++] = x;
                dist[x] = nd;
                carry[x] = pm;
                if (nd < budget)
                    failed = push(w, &size, nd, x);
            }
        }
    }
    for (int64_t i = 0; i < nt; i++) {
        int64_t x = touched[i];
        if (dist[x] >= budget && dist[x] < radius)
            radius = dist[x];
        dist[x] = INFINITY;
    }
    w->n_marked = failed ? 0 : nm;
    w->radius = radius;
    w->weight_sum = ws;
    return failed ? -2 : count;
}

/* Settle from all `sources` at once (each at distance 0) and write the
 * vertices whose `target` byte is set, and their distances, to `out_vertex`
 * and `out_dist` in settle order; returns how many.  The search stops after
 * the `limit`-th target, or after the first target whose `stop` byte is set.
 * Returns -1, having searched nothing, when a source is not a vertex. */
int64_t settle_to(workspace *w, const int64_t *sources, int64_t n_sources,
                  const uint8_t *target, const uint8_t *stop, int64_t limit)
{
    const int64_t *indptr = w->indptr, *indices = w->indices;
    const double *weights = w->weights;
    double *dist = w->dist;
    int64_t *touched = w->touched;
    double *out_dist = w->out_dist;
    int64_t *out_vertex = w->out_vertex;
    int64_t size = 0, count = 0, nt = 0;
    int failed = 0;
    for (int64_t i = 0; i < n_sources; i++)
        if (sources[i] < 0 || sources[i] >= w->n)
            return -1;
    for (int64_t i = 0; i < n_sources && !failed; i++) {
        int64_t s = sources[i];
        if (dist[s] > 0.0) {
            dist[s] = 0.0;
            touched[nt++] = s;
            failed = push(w, &size, 0.0, s);
        }
    }
    while (size > 0 && count < limit && !failed) {
        pair top = pop(w->heap, &size);
        double d = top.d;
        int64_t u = top.v;
        if (d > dist[u])
            continue;
        if (target[u]) {
            out_dist[count] = d;
            out_vertex[count++] = u;
            if (stop && stop[u])
                break;
        }
        for (int64_t j = indptr[u]; j < indptr[u + 1] && !failed; j++) {
            int64_t x = indices[j];
            double nd = d + weights[j];
            if (nd < dist[x]) {
                if (dist[x] == INFINITY)
                    touched[nt++] = x;
                dist[x] = nd;
                failed = push(w, &size, nd, x);
            }
        }
    }
    for (int64_t i = 0; i < nt; i++)
        dist[touched[i]] = INFINITY;
    return failed ? -2 : count;
}

/* Free the buffers the kernel grew; the workspace can search again. */
void workspace_release(workspace *w)
{
    PyMem_RawFree(w->heap);
    PyMem_RawFree(w->marked);
    w->heap = NULL;
    w->marked = NULL;
    w->heap_cap = w->marked_cap = w->n_marked = 0;
}
