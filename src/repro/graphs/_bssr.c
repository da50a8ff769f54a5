/* BSSR's branch and bound (Algorithms 1-2 with the §5.3 optimizations),
 * one call per query.
 *
 * The caller has built the query's match table, seeded S (NNinit) and
 * computed the Lemma 5.8 bounds; bssr_run does the rest in the graph's
 * workspace, updating S in place.  It keeps the float operations and the
 * tie order of the Python loop it replaces, so answers and counters are the
 * same bit for bit:
 *
 *  - a route is its PoIs, its length and its similarity product; its PoIs
 *    are a chain of nodes, each its last PoI and its parent's index;
 *  - the queue pops the smallest key: (-size, 1 - prod, length, seq) under
 *    the §5.3.2 order, (length, seq) otherwise, where seq counts pushes;
 *  - a scan is one settle_below from the route's last PoI with that
 *    position's row of `sim` as its marks, `through` (Lemma 5.5) when the
 *    caller gives it, and the budget t_min - length - ls[pos + 1];
 *  - with the §5.3.4 cache, a scan's records are kept per (PoI, position)
 *    with its radius, and read again while the radius covers the budget;
 *  - the records below the budget are the candidates, in settle order; a
 *    candidate already on the route is skipped (Def. 3.4-iii), a complete
 *    one goes to S.update, and a partial one that Lemma 5.3 and Lemma 5.8
 *    do not prune is pushed.
 *
 * Everything the run allocates comes from PyMem_Raw* and is freed before it
 * returns, except the routes it hands back, which bssr_release frees.
 * Compiled after _settle.c and _skyline.c.
 */
#include "_kernel.h"

typedef struct {
    int64_t parent; /* the node of the route's prefix, -1 for the empty route */
    int64_t poi;
} route_node;

typedef struct {
    int64_t size;
    double sem; /* 1 - prod */
    double len;
    int64_t seq;
    double prod;
    int64_t route; /* its last node */
} qentry;

typedef struct {
    int64_t key; /* p_d * k + pos, -1 when the slot is free */
    double radius;
    marked_t *rec;
    int64_t n;
} cache_slot;

typedef struct {
    workspace *w;
    skyline *S;
    bssr_query *q;
    route_node *nodes; /* the PoIs of the pushed routes */
    int64_t n_nodes, nodes_cap;
    qentry *queue; /* a binary heap */
    int64_t n_queue, queue_cap;
    cache_slot *cache; /* open addressing, at most half full */
    int64_t n_cache, cache_cap;
    route_node *done; /* [id - id0]: the route S.update took under that id */
    int64_t n_done, done_cap;
    int64_t id0;
} run_t;

static inline int q_before(const qentry *a, const qentry *b, int proposed)
{
    if (proposed) {
        if (a->size != b->size)
            return a->size > b->size;
        if (a->sem != b->sem)
            return a->sem < b->sem;
    }
    if (a->len != b->len)
        return a->len < b->len;
    return a->seq < b->seq;
}

static int q_push(run_t *r, qentry x)
{
    if (r->n_queue == r->queue_cap) {
        qentry *grown = grow(r->queue, &r->queue_cap, r->n_queue + 1, sizeof(qentry), 64);
        if (!grown)
            return -2;
        r->queue = grown;
    }
    qentry *heap = r->queue;
    int proposed = r->q->proposed;
    int64_t i = r->n_queue++;
    while (i > 0) {
        int64_t up = (i - 1) / 2;
        if (!q_before(&x, &heap[up], proposed))
            break;
        heap[i] = heap[up];
        i = up;
    }
    heap[i] = x;
    return 0;
}

static qentry q_pop(run_t *r)
{
    qentry *heap = r->queue;
    int proposed = r->q->proposed;
    qentry top = heap[0], x = heap[--r->n_queue];
    int64_t n = r->n_queue, i = 0;
    for (;;) {
        int64_t c = 2 * i + 1;
        if (c >= n)
            break;
        if (c + 1 < n && q_before(&heap[c + 1], &heap[c], proposed))
            c++;
        if (!q_before(&heap[c], &x, proposed))
            break;
        heap[i] = heap[c];
        i = c;
    }
    if (n > 0)
        heap[i] = x;
    return top;
}

/* Whether `poi` is on the route ending at node `route`. */
static int on_route(const run_t *r, int64_t route, int64_t poi)
{
    for (int64_t x = route; x >= 0; x = r->nodes[x].parent)
        if (r->nodes[x].poi == poi)
            return 1;
    return 0;
}

/* The slot holding `key`, or the free slot where it goes; NULL before the
 * first slot is claimed. */
static cache_slot *cache_find(const run_t *r, int64_t key)
{
    if (!r->cache)
        return NULL;
    uint64_t mask = (uint64_t)r->cache_cap - 1;
    uint64_t i = ((uint64_t)key * 0x9E3779B97F4A7C15ull) >> 17;
    for (;; i++) {
        cache_slot *e = &r->cache[i & mask];
        if (e->key == key || e->key == -1)
            return e;
    }
}

/* A new slot for `key`, after doubling the table when it would be more
 * than half full; NULL when the allocator fails. */
static cache_slot *cache_claim(run_t *r, int64_t key)
{
    if (2 * (r->n_cache + 1) > r->cache_cap) {
        cache_slot *old = r->cache;
        int64_t old_cap = r->cache_cap, cap = old_cap ? 2 * old_cap : 64;
        cache_slot *table = PyMem_RawMalloc((size_t)cap * sizeof(cache_slot));
        if (!table)
            return NULL;
        for (int64_t i = 0; i < cap; i++)
            table[i].key = -1;
        r->cache = table;
        r->cache_cap = cap;
        for (int64_t i = 0; i < old_cap; i++)
            if (old[i].key != -1)
                *cache_find(r, old[i].key) = old[i];
        PyMem_RawFree(old);
    }
    cache_slot *e = cache_find(r, key);
    *e = (cache_slot){key, -INFINITY, NULL, 0};
    r->n_cache++;
    return e;
}

/* One modified-Dijkstra execution (Algorithm 2) from `p_d` for position
 * `pos`; its records are the workspace's.  Returns settle_below's count. */
static int64_t scan(run_t *r, int64_t p_d, int64_t pos, double budget)
{
    workspace *w = r->w;
    bssr_query *q = r->q;
    const uint8_t *through = q->through ? q->through + pos * w->n : NULL;
    int64_t count = settle_below(w, p_d, budget, through, q->sim + pos * w->n);
    if (count < 0)
        return count;
    q->visited_vertices += count;
    if (q->mdijkstra_runs == 0) {
        q->first_weight_sum = w->weight_sum;
        q->first_radius = count ? w->out_dist[count - 1] : 0.0;
    }
    q->mdijkstra_runs++;
    return count;
}

/* Lemma 5.3 (with the l_s tightening) and Lemma 5.8 for a route of `size`
 * PoIs whose Eq. 3 threshold is `t_min`: a popped route, and each partial
 * candidate of expand. */
static int prunable(const run_t *r, int64_t size, double length, double prod, double t_min)
{
    const bssr_query *q = r->q;
    if (length + q->ls[size] >= t_min)
        return 1;
    /* Lemma 5.8: (a) every non-perfect completion is dominated, and (b)
     * the forced perfect completion is dominated too. */
    return q->use_min_dist && size < q->k
        && skyline_threshold(r->S, 1.0 - prod * q->delta[size]) <= length
        && t_min <= length + q->lp[size];
}

/* Algorithm 1's expansion of the route ending at node `route`, of `pos`
 * PoIs, whose Eq. 3 threshold is `t_min`.  Returns 0, or -2 when out of
 * memory. */
static int expand(run_t *r, int64_t route, int64_t pos, double length, double prod, double t_min)
{
    bssr_query *q = r->q;
    workspace *w = r->w;
    skyline *S = r->S;
    int64_t p_d = pos ? r->nodes[route].poi : q->v_q;
    double budget = t_min - length - q->ls[pos + 1];
    if (budget <= 0.0)
        return 0;
    q->mdijkstra_requests++;
    const marked_t *rec;
    int64_t n_rec;
    if (q->use_cache) {
        /* The cache already holds a deep-enough scan from p_d, or it gets
         * this one; its records below the budget are a prefix. */
        int64_t key = p_d * q->k + pos;
        cache_slot *e = cache_find(r, key);
        if (e && e->key == key && e->radius >= budget) {
            q->cache_hits++;
        } else {
            if ((!e || e->key != key) && !(e = cache_claim(r, key)))
                return -2;
            if (scan(r, p_d, pos, budget) < 0)
                return -2;
            if (w->n_marked > 0) {
                marked_t *kept = PyMem_RawRealloc(e->rec, (size_t)w->n_marked * sizeof(marked_t));
                if (!kept)
                    return -2;
                memcpy(kept, w->marked, (size_t)w->n_marked * sizeof(marked_t));
                e->rec = kept;
            }
            e->n = w->n_marked;
            e->radius = w->radius;
        }
        rec = e->rec;
        n_rec = e->n;
    } else {
        if (scan(r, p_d, pos, budget) < 0)
            return -2;
        rec = w->marked;
        n_rec = w->n_marked;
    }
    int64_t size = pos + 1;
    if (size == q->k) {
        for (int64_t i = 0; i < n_rec && rec[i].d < budget; i++) {
            int64_t u = rec[i].v;
            if (on_route(r, route, u))
                continue; /* Def. 3.4-iii, reachable only when trees repeat */
            double new_len = length + rec[i].d;
            double final_len = new_len + (q->dest_dist ? q->dest_dist[u] : 0.0);
            int64_t id = skyline_update(S, final_len, 1.0 - prod * rec[i].mark);
            if (id == -2)
                return -2;
            if (id >= 0) {
                if (r->n_done == r->done_cap) {
                    route_node *grown = grow(r->done, &r->done_cap, r->n_done + 1, sizeof(route_node), 16);
                    if (!grown)
                        return -2;
                    r->done = grown;
                }
                r->done[r->n_done++] = (route_node){route, u};
            }
        }
        return 0;
    }
    for (int64_t i = 0; i < n_rec && rec[i].d < budget; i++) {
        int64_t u = rec[i].v;
        if (on_route(r, route, u))
            continue;
        double new_len = length + rec[i].d;
        double new_prod = prod * rec[i].mark;
        if (prunable(r, size, new_len, new_prod, skyline_threshold(S, 1.0 - new_prod)))
            continue;
        if (r->n_nodes == r->nodes_cap) {
            route_node *grown = grow(r->nodes, &r->nodes_cap, r->n_nodes + 1, sizeof(route_node), 256);
            if (!grown)
                return -2;
            r->nodes = grown;
        }
        r->nodes[r->n_nodes] = (route_node){route, u};
        q->queue_pushes++;
        qentry x = {size, 1.0 - new_prod, new_len, q->queue_pushes, new_prod, r->n_nodes++};
        if (q_push(r, x))
            return -2;
    }
    return 0;
}

/* Hand back the PoIs of every entry of S that this run inserted. */
static int collect(run_t *r)
{
    skyline *S = r->S;
    bssr_query *q = r->q;
    int64_t k = q->k, m = 0;
    for (int64_t i = 0; i < S->n; i++)
        m += S->e[i].id >= r->id0;
    if (m == 0)
        return 0;
    q->route_ids = PyMem_RawMalloc((size_t)m * sizeof(int64_t));
    q->routes = PyMem_RawMalloc((size_t)(m * k) * sizeof(int64_t));
    if (!q->route_ids || !q->routes)
        return -2;
    for (int64_t i = 0; i < S->n; i++) {
        int64_t id = S->e[i].id;
        if (id < r->id0)
            continue;
        route_node last = r->done[id - r->id0];
        int64_t *row = q->routes + q->n_routes * k;
        row[k - 1] = last.poi;
        for (int64_t pos = k - 2, x = last.parent; pos >= 0; pos--, x = r->nodes[x].parent)
            row[pos] = r->nodes[x].poi;
        q->route_ids[q->n_routes++] = id;
    }
    return 0;
}

/* Answer the query: the empty route's expansion, then pop, re-test against
 * the thresholds S has now and expand until the queue is empty.  Returns 0,
 * or -2 when out of memory (S then holds what the run had inserted). */
int64_t bssr_run(workspace *w, skyline *S, bssr_query *q)
{
    run_t r = {.w = w, .S = S, .q = q, .id0 = S->next_id};
    int64_t rc = expand(&r, -1, 0, 0.0, 1.0, skyline_threshold(S, 0.0));
    while (rc == 0 && r.n_queue > 0) {
        qentry top = q_pop(&r);
        double t_min = skyline_threshold(S, 1.0 - top.prod);
        if (!prunable(&r, top.size, top.len, top.prod, t_min))
            rc = expand(&r, top.route, top.size, top.len, top.prod, t_min);
    }
    if (rc == 0)
        rc = collect(&r);
    for (int64_t i = 0; i < r.cache_cap; i++)
        if (r.cache[i].key != -1)
            PyMem_RawFree(r.cache[i].rec);
    PyMem_RawFree(r.cache);
    PyMem_RawFree(r.queue);
    PyMem_RawFree(r.nodes);
    PyMem_RawFree(r.done);
    return rc;
}

void bssr_release(bssr_query *q)
{
    PyMem_RawFree(q->route_ids);
    PyMem_RawFree(q->routes);
    q->route_ids = q->routes = NULL;
    q->n_routes = 0;
}
