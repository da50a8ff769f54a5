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
 * Every buffer is the caller's; nothing here allocates.  The pair and
 * triple structs are the caller's numpy record layouts.  Compiled without
 * -ffast-math or FMA contraction, every double is the one Python computes.
 */
#include <math.h>
#include <stdint.h>

typedef struct {
    double d;
    int64_t v;
} pair;

typedef struct {
    double d;
    int64_t v;
    double passed;
} marked_t;

/* (dist, vertex) order; without && and || it compiles free of branches */
static inline int before(pair a, pair b)
{
    return (a.d < b.d) | ((a.d == b.d) & (a.v < b.v));
}

static inline void push(pair *heap, int64_t *size, double d, int64_t v)
{
    pair x = {d, v};
    int64_t i = (*size)++;
    while (i > 0) {
        int64_t up = (i - 1) / 2;
        if (!before(x, heap[up]))
            break;
        heap[i] = heap[up];
        i = up;
    }
    heap[i] = x;
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
 * Writes the settled vertices to `order` in settle order and returns their
 * count.  `dist` ends with each settled vertex's distance (below `budget`)
 * and each other reached vertex's tentative one (not below it); `*radius`
 * is the first popped distance not below `budget` (inf when the search ran
 * out).  A vertex whose `through` byte is 0 settles but relaxes nothing.
 * When `mark` is given, each settled vertex with mark > 0 goes to `marked`
 * in settle order, with its distance and the largest mark strictly before
 * it on its path from the source (0 if none); `*n_marked` counts them.
 * `*weight_sum` is the sum of the weights the search relaxes, added one by
 * one in settle order and CSR row order.
 * `work` holds n doubles, then room for 1 + indptr[n] heap pairs. */
int64_t settle_below(int64_t n, const int64_t *indptr, const int64_t *indices,
                     const double *weights, int64_t source, double budget,
                     const uint8_t *through, const double *mark, double *dist,
                     int64_t *order, void *work, void *marked_buf,
                     int64_t *n_marked, double *radius, double *weight_sum)
{
    double *carry = work; /* per vertex: the largest mark before it */
    pair *heap = (pair *)(carry + n);
    marked_t *marked = marked_buf;
    int64_t size = 0, count = 0, nm = 0;
    double ws = 0.0;
    for (int64_t i = 0; i < n; i++)
        dist[i] = INFINITY;
    dist[source] = 0.0;
    carry[source] = 0.0;
    push(heap, &size, 0.0, source);
    *radius = INFINITY;
    while (size > 0) {
        pair top = pop(heap, &size);
        double d = top.d;
        int64_t u = top.v;
        if (d > dist[u])
            continue; /* superseded by a shorter pair already settled */
        if (d >= budget) {
            *radius = d;
            break;
        }
        order[count++] = u;
        double pm = carry[u];
        if (mark && mark[u] > 0.0) {
            marked[nm++] = (marked_t){d, u, pm};
            if (mark[u] > pm)
                pm = mark[u];
        }
        if (through && !through[u])
            continue;
        for (int64_t j = indptr[u]; j < indptr[u + 1]; j++) {
            int64_t x = indices[j];
            double nd = d + weights[j];
            ws += weights[j];
            if (nd < dist[x]) {
                dist[x] = nd;
                carry[x] = pm;
                push(heap, &size, nd, x);
            }
        }
    }
    *n_marked = nm;
    *weight_sum = ws;
    return count;
}

/* Settle from all `sources` at once (each at distance 0) and write the
 * vertices whose `target` byte is set, as (dist, vertex) pairs, to `out` in
 * settle order; returns how many.  The search stops after the `limit`-th
 * target, or after the first target whose `stop` byte is set.  `work`
 * holds n doubles, then room for n_sources + indptr[n] heap pairs.
 * Returns -1, having searched nothing, when a source is not a vertex. */
int64_t settle_to(int64_t n, const int64_t *indptr, const int64_t *indices,
                  const double *weights, const int64_t *sources,
                  int64_t n_sources, const uint8_t *target, const uint8_t *stop,
                  int64_t limit, void *work, void *out_buf)
{
    double *dist = work;
    pair *heap = (pair *)(dist + n), *out = out_buf;
    int64_t size = 0, count = 0;
    for (int64_t i = 0; i < n_sources; i++)
        if (sources[i] < 0 || sources[i] >= n)
            return -1;
    for (int64_t i = 0; i < n; i++)
        dist[i] = INFINITY;
    for (int64_t i = 0; i < n_sources; i++) {
        if (dist[sources[i]] > 0.0) {
            dist[sources[i]] = 0.0;
            push(heap, &size, 0.0, sources[i]);
        }
    }
    while (size > 0 && count < limit) {
        pair top = pop(heap, &size);
        double d = top.d;
        int64_t u = top.v;
        if (d > dist[u])
            continue;
        if (target[u]) {
            out[count++] = top;
            if (stop && stop[u])
                break;
        }
        for (int64_t j = indptr[u]; j < indptr[u + 1]; j++) {
            int64_t x = indices[j];
            double nd = d + weights[j];
            if (nd < dist[x]) {
                dist[x] = nd;
                push(heap, &size, nd, x);
            }
        }
    }
    return count;
}
