/* The compiled kernel's types and entry points.
 *
 * repro.graphs.dijkstra gives this header to cffi as its cdef, without the
 * preprocessor lines, so Python and C read one declaration of each struct.
 * Every buffer the kernel grows comes from PyMem_RawMalloc and friends,
 * which need no GIL and which tracemalloc traces.
 */
#ifndef REPRO_KERNEL_H
#define REPRO_KERNEL_H
#include <stdint.h>

/* A heap entry of the searches: a tentative distance and its vertex. */
typedef struct {
    double d;
    int64_t v;
} pair;

/* A marked vertex a search settled: its distance, the largest mark strictly
 * before it on its path, and its own mark. */
typedef struct {
    double d;
    int64_t v;
    double passed;
    double mark;
} marked_t;

/* One graph's search buffers.  The caller binds the CSR and the per-vertex
 * buffers; the kernel grows `heap` and `marked` itself. */
typedef struct {
    int64_t n;
    const int64_t *indptr;
    const int64_t *indices;
    const double *weights;
    double *dist;        /* n, all inf between calls */
    double *carry;       /* n, per reached vertex: the largest mark before it */
    int64_t *touched;    /* n */
    double *out_dist;    /* n */
    int64_t *out_vertex; /* n */
    pair *heap;          /* heap_cap entries */
    int64_t heap_cap;
    marked_t *marked;    /* marked_cap records, n_marked of them filled */
    int64_t marked_cap;
    int64_t n_marked;
    double radius;
    double weight_sum;
} workspace;

/* One entry of a skyline frontier; `id` names its payload. */
typedef struct {
    double s;
    double l;
    int64_t id;
} sky_entry;

/* The running minimal set S (Def. 4.2) as a score frontier: `e` sorted by
 * semantic score s ascending with length l strictly decreasing.  `eps` is
 * the score-equality tolerance; `next_id` is the id the next insert gets. */
typedef struct {
    sky_entry *e;
    int64_t n;
    int64_t cap;
    int64_t next_id;
    double eps;
} skyline;

/* One BSSR query for bssr_run: the caller sets the query fields, the run
 * adds to the counters and fills the routes. */
typedef struct {
    int64_t k;
    int64_t v_q;
    const double *sim;       /* k rows of n: each vertex's similarity to S_q[i] */
    const uint8_t *through;  /* k rows of n, 0 at a perfect match; NULL without Lemma 5.5 */
    const double *ls;        /* k + 1, by route size: Lemma 5.8's l_s suffix */
    const double *lp;        /* k + 1: the l_p suffix */
    const double *delta;     /* k + 1: footnote 2's delta suffix */
    const double *dest_dist; /* n: each vertex's distance to the destination, or NULL */
    int32_t proposed;        /* the §5.3.2 queue order; else by length */
    int32_t use_min_dist;    /* Lemma 5.8 */
    int32_t use_cache;       /* §5.3.4 */
    int64_t visited_vertices;
    int64_t mdijkstra_runs;
    int64_t mdijkstra_requests;
    int64_t cache_hits;
    int64_t queue_pushes;
    double first_weight_sum;
    double first_radius;
    int64_t n_routes;        /* frontier entries the run inserted and kept */
    int64_t *route_ids;      /* n_routes ids */
    int64_t *routes;         /* n_routes rows of k PoIs */
} bssr_query;

int64_t settle_below(workspace *w, int64_t source, double budget,
                     const uint8_t *through, const double *mark);
int64_t settle_to(workspace *w, const int64_t *sources, int64_t n_sources,
                  const uint8_t *target, const uint8_t *stop, int64_t limit);
void workspace_release(workspace *w);

int64_t skyline_update(skyline *S, double l, double s);
double skyline_threshold(const skyline *S, double min_semantic);
void skyline_release(skyline *S);

int64_t bssr_run(workspace *w, skyline *S, bssr_query *q);
void bssr_release(bssr_query *q);

#endif
