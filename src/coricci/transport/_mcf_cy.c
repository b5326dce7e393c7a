/* Compiled transport kernel: successive shortest paths for dense
 * transportation, and the single-pair solve and batched pair scan built on it.
 *
 * solve_transport has the contract of coricci.transport._mcf_py and the same
 * arithmetic in the same order: every reduced cost and distance is summed as
 * there, and the plan is listed in row-major order, as np.nonzero lists it.
 * The supply total is summed in numpy's pairwise order, as a.sum() sums it
 * there.  Each Dijkstra step pops its node from a binary heap ordered by
 * (distance, node index): the node of smallest distance, the lowest index on
 * ties, which is the node _mcf_py's linear scan picks, so both kernels give
 * the same plans and duals.  The heap lives in the caller's work block, so
 * the kernel keeps no state between calls.
 *
 * solve_pair(mu, nu, dist) certifies W1 between two probability vectors in
 * one call, as transport.w1 needs it: common mass stays in place, the rest is
 * shipped by solve(), the plan is reduced to a forest by a port of
 * _mcf_py._cancel_cycles, and the plan (diagonal entries first, then the
 * forest in sorted order), its cost, the union of the supports, the
 * c-transform dual on it, the dual's Lipschitz slack and the primal-dual gap
 * are returned.  solve_pairs(P, dist, I, J) does the same for the rows P[I[k]]
 * and P[J[k]] for every k, through the same static certify_pair, and returns
 * per pair the cost, the integrals of (d(x,y) - d(x',y'))_+ and _- over the
 * plan, the slack and the gap.  It lists the support of each row of P once,
 * and each pair visits only the merged supports of its two rows, in index
 * order: a point outside both has no mass, so no sum changes.  The
 * arithmetic, including numpy's pairwise summation order for the demand
 * rescaling, is that of _mcf_py.solve_pair and _mcf_py.solve_pairs, so both
 * kernels give the same bits.
 *
 * triangle_violation(dist, atol) is the triangle check that coricci.metric
 * runs on every distance table: the first intermediate point through which
 * the inequality fails by more than atol, and the worst pair through it, as
 * the numpy loop of _mcf_py.triangle_violation finds them.  On a table equal
 * to its transpose bit for bit it tests the cells j >= i alone, since the
 * cells (i, j) and (j, i) then give the same sum; the witness is still
 * searched over the whole table.
 *
 * geodesic_certificate(dist, hop_limit) is the one-hop certificate that
 * coricci.metric.is_epsilon_geodesic asks for before its Dijkstra search:
 * whether every ordered pair s != t is a hop, or has a hop s-k (the entries
 * at most hop_limit, taken both ways) with d[k,t] < d[s,t] and
 * w(s,k) + d[k,t] <= d[s,t], compared exactly.  It stops at the first pair
 * that fails, and gives the answer of _mcf_py.geodesic_certificate.
 *
 * lipschitz_vertices(dist) enumerates the vertices of the 1-Lipschitz
 * polytope {f : |f(a) - f(b)| <= d(a,b), f(0) = 0} for the exact maxVar of
 * coricci.chain.  It grows partial assignments from a stack and a hash set,
 * in the order of _mcf_py.lipschitz_vertices, and returns the same vertices,
 * bit for bit, in the same order.
 *
 * skeleton(dist) lists the 1-skeleton of a distance table: the pairs with no
 * third point between them, compared exactly, in one O(n^3) pass that stops
 * each pair's scan at its first point between.  solve_flow(mu, nu, dist,
 * indptr, indices) computes W1 on it as a min-cost flow (the Beckmann form
 * of Kantorovich-Rubinstein duality: on a shortest-path metric, W1 is the
 * cheapest flow on the graph's edges that ships mu - nu).  It reduces the
 * problem as certify_pair does, then runs successive shortest paths on the
 * edges, one signed net flow per edge: each phase runs one full Dijkstra,
 * with the heap above, from every point with supply left, raises the
 * potentials by the distances and serves every point with demand left, in
 * index order, along its tree path.  It returns the cost with three
 * certificate numbers (the flow's conservation error, the potential's
 * Lipschitz slack on the dense table over the union of the supports, and
 * the primal-dual gap) and needs no coupling: any flow ships mu - nu at a
 * cost of at least W1, and any 1-Lipschitz potential bounds W1 from below.
 * Both kernels do the same arithmetic in the same order and give the same
 * bits.  Its one caller is transport.w1_cost, behind
 * curvature.contraction_check: on cube 7 (448 edges of 8,128 pairs) a solve
 * is 3-4 times faster than solve_pair, on a complete skeleton (128 random
 * points of the plane) about 1.4 times slower.
 *
 * decimal_table(rows) reads a chain file's distance table from the strings
 * json decoded: a list of n lists of n compact-ASCII str becomes the n x n
 * float64 table in one pass, each string parsed to its end by
 * PyOS_string_to_double, the parser float(str) calls, so the bits are
 * float()'s.  Any other list gives None (a row of the wrong length or type,
 * a number, whitespace, '_', a non-ASCII digit, an empty or partly parsed
 * string); coricci.chainfile then converts the rows entry by entry.
 * _mcf_py.decimal_table gives the same table, or None, on every input.
 *
 * Hand-written against the CPython and numpy C APIs; it builds with a C
 * compiler and the numpy headers alone (see setup.py).  The module keeps the
 * name _mcf_cy because perfbench/run.py builds and checks this exact file.
 */

#define PY_SSIZE_T_CLEAN
#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include <Python.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <numpy/arrayobject.h>

#define MASS_EPS 1e-15
#define MASS_ATOL 1e-12 /* coricci.transport.MASS_ATOL */

/* The nodes whose distance is finite and not yet final, as a binary heap
 * ordered by (distance, node index): its top is the node a linear scan for
 * the smallest distance, lowest index first, would pick.  slot[v] is v's
 * position in node[], or -1 when v is not in the heap. */
typedef struct {
    npy_intp *node, *slot, size;
} Heap;

static int before(const double *dist, npy_intp u, npy_intp v)
{
    return dist[u] < dist[v] || (dist[u] == dist[v] && u < v);
}

static void heap_place(Heap *h, npy_intp k, npy_intp v)
{
    h->node[k] = v;
    h->slot[v] = k;
}

/* Inserts v, or moves it up after its distance decreased. */
static void heap_update(Heap *h, const double *dist, npy_intp v)
{
    npy_intp k = h->slot[v] < 0 ? h->size++ : h->slot[v], p;

    for (; k > 0 && before(dist, v, h->node[p = (k - 1) / 2]); k = p)
        heap_place(h, k, h->node[p]);
    heap_place(h, k, v);
}

/* Removes and returns the top node, or -1 when the heap is empty. */
static npy_intp heap_pop(Heap *h, const double *dist)
{
    npy_intp top, last, k = 0, c;

    if (h->size == 0)
        return -1;
    top = h->node[0];
    h->slot[top] = -1;
    last = h->node[--h->size];
    if (h->size == 0)
        return top;
    for (; (c = 2 * k + 1) < h->size; k = c) {
        if (c + 1 < h->size && before(dist, h->node[c + 1], h->node[c]))
            c++;
        if (!before(dist, h->node[c], last))
            break;
        heap_place(h, k, h->node[c]);
    }
    heap_place(h, k, last);
    return top;
}

/* numpy's summation order for a contiguous float64 array (pairwise, eight
 * accumulators per block of at most 128), so that the demand rescaling
 * matches transport.w1, which sums with np.sum, and the supply total of
 * solve() matches _mcf_py's a.sum(). */
static double pairwise_sum(const double *a, npy_intp n)
{
    npy_intp i, k, n2;
    double r[8], res;

    if (n < 8) {
        res = -0.0;
        for (i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        for (k = 0; k < 8; k++)
            r[k] = a[k];
        for (i = 8; i < n - (n % 8); i += 8)
            for (k = 0; k < 8; k++)
                r[k] += a[i + k];
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

/* Resizes the array *p to count items of size bytes; returns 0 when memory
 * runs out, leaving *p as it was. */
static int grow(void *p, npy_intp count, size_t size)
{
    void *q = realloc(*(void **)p, (size_t)count * size);

    if (!q)
        return 0;
    *(void **)p = q;
    return 1;
}

/* Returns 0 on success, -1 when a sink with demand left is unreachable
 * (infeasible).  heap and slot hold ns + nt entries each. */
static int solve(const double *C, double *a, double *b, npy_intp ns,
                 npy_intp nt, double *flow, double *pot, double *dist,
                 npy_intp *parent, char *done, npy_intp *heap, npy_intp *slot)
{
    npy_intp nv = ns + nt, i, j, u, v, target, root;
    double total, remaining, dt, rc, nd, eps, stop;
    Heap h = {heap, slot, 0};

    total = pairwise_sum(a, ns);
    remaining = total;
    stop = MASS_EPS * (total > 1.0 ? total : 1.0);
    while (remaining > stop) {
        for (v = 0; v < nv; v++) {
            dist[v] = INFINITY;
            parent[v] = -1;
            done[v] = 0;
            slot[v] = -1;
        }
        h.size = 0;
        for (i = 0; i < ns; i++)
            if (a[i] > MASS_EPS) {
                dist[i] = 0.0;
                heap_update(&h, dist, i);
            }
        target = -1;
        while ((u = heap_pop(&h, dist)) >= 0) {
            done[u] = 1;
            if (u >= ns && b[u - ns] > MASS_EPS) {
                target = u;
                break;
            }
            if (u < ns) {
                for (j = 0; j < nt; j++) {
                    v = ns + j;
                    if (done[v])
                        continue;
                    rc = C[u * nt + j] + pot[u] - pot[v];
                    if (rc < 0.0)
                        rc = 0.0;
                    nd = dist[u] + rc;
                    if (nd < dist[v]) {
                        dist[v] = nd;
                        parent[v] = u;
                        heap_update(&h, dist, v);
                    }
                }
            } else {
                j = u - ns;
                for (i = 0; i < ns; i++) {
                    if (done[i] || flow[i * nt + j] <= MASS_EPS)
                        continue;
                    rc = pot[u] - pot[i] - C[i * nt + j];
                    if (rc < 0.0)
                        rc = 0.0;
                    nd = dist[u] + rc;
                    if (nd < dist[i]) {
                        dist[i] = nd;
                        parent[i] = u;
                        heap_update(&h, dist, i);
                    }
                }
            }
        }
        if (target < 0) {
            /* No sink with demand left is reachable.  When every sink is
             * served, the supply left is the rounding that the augmentations
             * collected, and the plan is complete. */
            for (j = 0; j < nt; j++)
                if (b[j] > MASS_EPS)
                    return -1;
            return 0;
        }
        dt = dist[target];
        for (v = 0; v < nv; v++)
            pot[v] += dist[v] < dt ? dist[v] : dt;
        /* Bottleneck of the augmenting path: backward edges carry flow. */
        eps = b[target - ns];
        for (v = target; parent[v] >= 0; v = u) {
            u = parent[v];
            if (u >= ns && flow[v * nt + u - ns] < eps)
                eps = flow[v * nt + u - ns];
        }
        root = v;
        if (a[root] < eps)
            eps = a[root];
        for (v = target; parent[v] >= 0; v = u) {
            u = parent[v];
            if (u < ns)
                flow[u * nt + v - ns] += eps;
            else
                flow[v * nt + u - ns] -= eps;
        }
        a[root] -= eps;
        b[target - ns] -= eps;
        remaining -= eps;
    }
    return 0;
}

/* (src_idx, tgt_idx, mass, u, v) from the final flow and potentials. */
static PyObject *pack(const double *flow, const double *pot, npy_intp ns,
                      npy_intp nt)
{
    npy_intp k, count = 0, n = ns * nt;
    PyArrayObject *src, *tgt, *mass, *u, *v;

    for (k = 0; k < n; k++)
        count += flow[k] > MASS_EPS;
    src = (PyArrayObject *)PyArray_SimpleNew(1, &count, NPY_INTP);
    tgt = (PyArrayObject *)PyArray_SimpleNew(1, &count, NPY_INTP);
    mass = (PyArrayObject *)PyArray_SimpleNew(1, &count, NPY_DOUBLE);
    u = (PyArrayObject *)PyArray_SimpleNew(1, &ns, NPY_DOUBLE);
    v = (PyArrayObject *)PyArray_SimpleNew(1, &nt, NPY_DOUBLE);
    if (src && tgt && mass && u && v) {
        npy_intp *s = PyArray_DATA(src), *t = PyArray_DATA(tgt);
        double *m = PyArray_DATA(mass), *du = PyArray_DATA(u);
        count = 0;
        for (k = 0; k < n; k++) {
            if (flow[k] > MASS_EPS) {
                s[count] = k / nt;
                t[count] = k % nt;
                m[count++] = flow[k];
            }
        }
        for (k = 0; k < ns; k++)
            du[k] = -pot[k];
        memcpy(PyArray_DATA(v), pot + ns, nt * sizeof(double));
        return Py_BuildValue("(NNNNN)", src, tgt, mass, u, v);
    }
    Py_XDECREF(src);
    Py_XDECREF(tgt);
    Py_XDECREF(mass);
    Py_XDECREF(u);
    Py_XDECREF(v);
    return NULL;
}

static PyObject *solve_transport(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *cost_in, *supply_in, *demand_in, *out = NULL;
    PyArrayObject *cost = NULL, *supply = NULL, *demand = NULL;
    double *work = NULL;
    npy_intp ns, nt, nv;
    int flags = NPY_ARRAY_IN_ARRAY;

    if (!PyArg_ParseTuple(args, "OOO:solve_transport", &cost_in, &supply_in,
                          &demand_in))
        return NULL;
    cost = (PyArrayObject *)PyArray_FROMANY(cost_in, NPY_DOUBLE, 2, 2, flags);
    supply = (PyArrayObject *)PyArray_FROMANY(supply_in, NPY_DOUBLE, 1, 1, flags);
    demand = (PyArrayObject *)PyArray_FROMANY(demand_in, NPY_DOUBLE, 1, 1, flags);
    if (!cost || !supply || !demand)
        goto finish;
    ns = PyArray_DIM(cost, 0);
    nt = PyArray_DIM(cost, 1);
    if (PyArray_DIM(supply, 0) != ns || PyArray_DIM(demand, 0) != nt) {
        PyErr_Format(PyExc_ValueError,
                     "supply and demand have %zd and %zd entries for a "
                     "%zd x %zd cost matrix",
                     (Py_ssize_t)PyArray_DIM(supply, 0),
                     (Py_ssize_t)PyArray_DIM(demand, 0), (Py_ssize_t)ns,
                     (Py_ssize_t)nt);
        goto finish;
    }
    nv = ns + nt;
    /* a and b (nv), flow (ns * nt), pot and dist (2 nv), parent, heap, slot
     * and done (nv each, done over-allocated); one more slot so the size is
     * never 0. */
    work = calloc(7 * nv + ns * nt + 1, sizeof(double));
    if (!work) {
        PyErr_NoMemory();
        goto finish;
    }
    {
        double *a = work, *b = a + ns, *flow = b + nt, *pot = flow + ns * nt;
        double *dist = pot + nv;
        npy_intp *parent = (npy_intp *)(dist + nv), *heap = parent + nv;
        npy_intp *slot = heap + nv;
        char *done = (char *)(slot + nv);

        memcpy(a, PyArray_DATA(supply), ns * sizeof(double));
        memcpy(b, PyArray_DATA(demand), nt * sizeof(double));
        if (solve(PyArray_DATA(cost), a, b, ns, nt, flow, pot, dist, parent,
                  done, heap, slot) < 0)
            PyErr_SetString(PyExc_RuntimeError,
                            "transportation problem infeasible");
        else
            out = pack(flow, pot, ns, nt);
    }
finish:
    free(work);
    Py_XDECREF(cost);
    Py_XDECREF(supply);
    Py_XDECREF(demand);
    return out;
}

/* Work arrays for one pair, sized for rows of n points.  The caller lists in
 * sup[] the nsup points, ascending, where mu or nu is not zero: every other
 * point has no mass, so certify_pair and plan_parts visit these alone.  After
 * certify_pair they hold the pair's plan and dual: the ns sources pos[] and
 * nt sinks neg[], the forest (tree, in_tree) over the ns x nt cells with its
 * ncell cells listed in sorted order in cell[], and the dual f on the nuni
 * points uni[] of the union of the supports. */
typedef struct {
    double *diff, *a, *b, *f, *C, *flow, *tree, *pot, *dist;
    npy_intp *sup, *pos, *neg, *uni, *parent, *prev, *queue, *path, *heap;
    npy_intp *slot, *cell;
    char *done, *in_tree;
    npy_intp nsup, ns, nt, nuni, ncell;
} Work;

static void *work_alloc(Work *w, npy_intp n)
{
    npy_intp nn = n * n;
    /* Doubles, then indices, then flags, so that every part is aligned;
     * one more byte so the size is never 0. */
    char *block = malloc((8 * n + 3 * nn) * sizeof(double) +
                         18 * n * sizeof(npy_intp) + 2 * n + nn + 1);
    double *d = (double *)block;
    npy_intp *p;

    if (!block)
        return NULL;
    p = (npy_intp *)(d + 8 * n + 3 * nn);
    w->diff = d;
    w->a = d + n;
    w->b = d + 2 * n;
    w->f = d + 3 * n;
    w->pot = d + 4 * n;  /* ns + nt <= 2 n */
    w->dist = d + 6 * n; /* 2 n */
    w->C = d + 8 * n;
    w->flow = w->C + nn;
    w->tree = w->flow + nn;
    w->pos = p;
    w->neg = p + n;
    w->uni = p + 2 * n;
    w->parent = p + 3 * n; /* 2 n each from here */
    w->prev = p + 5 * n;
    w->queue = p + 7 * n;
    w->path = p + 9 * n;
    w->heap = p + 11 * n;
    w->slot = p + 13 * n;
    w->cell = p + 15 * n; /* 2 n: a forest on ns + nt nodes has fewer edges */
    w->sup = p + 17 * n;
    w->done = (char *)(p + 18 * n); /* 2 n */
    w->in_tree = w->done + 2 * n;
    return block;
}

/* The forest path from source s to sink t (node ns + t) over the cells in
 * in_tree, as cell indices from s to t; returns its length, or -1 when s and
 * t are not connected.  A forest has one path between two nodes, so the
 * order in which the breadth-first search visits neighbours cannot change
 * it. */
static npy_intp tree_path(const char *in_tree, npy_intp ns, npy_intp nt,
                          npy_intp s, npy_intp t, npy_intp *prev,
                          npy_intp *queue, npy_intp *path)
{
    npy_intp v, u, i, j, head = 0, tail = 0, len = 0, goal = ns + t;

    for (v = 0; v < ns + nt; v++)
        prev[v] = -1;
    prev[s] = s;
    queue[tail++] = s;
    while (head < tail) {
        u = queue[head++];
        if (u == goal)
            break;
        if (u < ns) {
            for (j = 0; j < nt; j++)
                if (in_tree[u * nt + j] && prev[ns + j] < 0) {
                    prev[ns + j] = u;
                    queue[tail++] = ns + j;
                }
        } else {
            for (i = 0; i < ns; i++)
                if (in_tree[i * nt + u - ns] && prev[i] < 0) {
                    prev[i] = u;
                    queue[tail++] = i;
                }
        }
    }
    if (prev[goal] < 0)
        return -1;
    for (v = goal; v != s; v = prev[v])
        path[len++] = v >= ns ? prev[v] * nt + v - ns : v * nt + prev[v] - ns;
    for (i = 0; i < len / 2; i++) {
        u = path[i];
        path[i] = path[len - 1 - i];
        path[len - 1 - i] = u;
    }
    return len;
}

/* _mcf_py._cancel_cycles on the (ns x nt) flow: cells are inserted in
 * row-major (sorted) order, each cycle an insertion closes is cancelled at
 * once, and flows at or below MASS_ATOL are dropped.  tree receives the
 * forest's flows and in_tree its support. */
static void cancel_cycles(const double *flow, npy_intp ns, npy_intp nt,
                          Work *w)
{
    npy_intp k, q, len, n = ns * nt;
    double m, eps, *tree = w->tree;
    char *in_tree = w->in_tree;

    for (k = 0; k < n; k++) {
        tree[k] = 0.0;
        in_tree[k] = 0;
    }
    for (k = 0; k < n; k++) {
        m = flow[k];
        if (m <= MASS_EPS)
            continue;
        while (m > MASS_ATOL) {
            len = tree_path(in_tree, ns, nt, k / nt, k % nt, w->prev,
                            w->queue, w->path);
            if (len < 0)
                break;
            /* Decrease cell k by eps; the path alternates +eps, -eps. */
            eps = m;
            for (q = 1; q < len; q += 2)
                if (tree[w->path[q]] < eps)
                    eps = tree[w->path[q]];
            for (q = 0; q < len; q++)
                tree[w->path[q]] += q % 2 == 0 ? eps : -eps;
            m -= eps;
            for (q = 0; q < len; q++)
                if (tree[w->path[q]] <= MASS_ATOL) {
                    tree[w->path[q]] = 0.0;
                    in_tree[w->path[q]] = 0;
                }
        }
        if (m > MASS_ATOL) {
            tree[k] = m;
            in_tree[k] = 1;
        }
    }
}

/* Adds m * (d(x,y) - d(x',y')) to *plus or subtracts it from *minus, as
 * _mcf_py.plan_parts does for one plan entry. */
static void add_part(double m, double change, double *plus, double *minus)
{
    if (change > 0)
        *plus += m * change;
    else
        *minus -= m * change;
}

/* The common mass of mu and nu at point u, the diagonal plan entry there. */
static double common(const double *mu, const double *nu, npy_intp u)
{
    return mu[u] < nu[u] ? mu[u] : nu[u];
}

/* W1 between the rows mu and nu (n points, distances D, supports in w->sup),
 * as _mcf_py.pair_plan computes it, with its certificate: out = (cost, slack,
 * gap), and the plan and dual are left in w.  Returns -1 when the
 * transportation problem is infeasible. */
static int certify_pair(const double *mu, const double *nu, const double *D,
                      npy_intp n, Work *w, double *out)
{
    npy_intp u, i, j, k, q, r, ns = 0, nt = 0, nuni = 0, ncell = 0;
    double scale, cost = 0.0, slack, obj, s;

    for (q = 0; q < w->nsup; q++) {
        u = w->sup[q];
        w->diff[u] = mu[u] - nu[u];
        if (w->diff[u] > MASS_ATOL)
            w->pos[ns++] = u;
        else if (w->diff[u] < -MASS_ATOL)
            w->neg[nt++] = u;
        if (mu[u] > 0 || nu[u] > 0)
            w->uni[nuni++] = u;
    }
    w->ns = ns;
    w->nt = nt;
    w->nuni = nuni;
    w->ncell = 0;
    if (ns == 0 || nt == 0) {
        /* Nothing moves: the dual is zero on the union of supports. */
        for (q = 0; q < nuni; q++)
            w->f[q] = 0.0;
        goto certify;
    }

    for (i = 0; i < ns; i++)
        w->a[i] = w->diff[w->pos[i]];
    for (j = 0; j < nt; j++)
        w->b[j] = -w->diff[w->neg[j]];
    /* Marginal totals can differ at rounding level; rescale the demand. */
    scale = (0.0 + pairwise_sum(w->a, ns)) / (0.0 + pairwise_sum(w->b, nt));
    for (j = 0; j < nt; j++)
        w->b[j] = w->b[j] * scale;
    for (i = 0; i < ns; i++)
        for (j = 0; j < nt; j++)
            w->C[i * nt + j] = D[w->pos[i] * n + w->neg[j]];
    memset(w->flow, 0, ns * nt * sizeof(double));
    memset(w->pot, 0, (ns + nt) * sizeof(double));
    if (solve(w->C, w->a, w->b, ns, nt, w->flow, w->pot, w->dist, w->parent,
              w->done, w->heap, w->slot) < 0)
        return -1;

    cancel_cycles(w->flow, ns, nt, w);
    for (k = 0; k < ns * nt; k++)
        if (w->in_tree[k]) {
            w->cell[ncell++] = k;
            cost += w->tree[k] * w->C[k];
        }
    w->ncell = ncell;

    /* Kantorovich potential on the union of supports: the c-transform of
     * the sink duals, f(x) = min_j d(x, neg[j]) - v[j]. */
    for (q = 0; q < nuni; q++) {
        const double *row = D + w->uni[q] * n;
        w->f[q] = row[w->neg[0]] - w->pot[ns];
        for (j = 1; j < nt; j++)
            if (row[w->neg[j]] - w->pot[ns + j] < w->f[q])
                w->f[q] = row[w->neg[j]] - w->pot[ns + j];
    }
certify:
    slack = -INFINITY;
    for (q = 0; q < nuni; q++)
        for (r = 0; r < nuni; r++) {
            s = fabs(w->f[q] - w->f[r]) - D[w->uni[q] * n + w->uni[r]];
            if (s > slack)
                slack = s;
        }
    obj = 0.0;
    for (q = 0; q < nuni; q++)
        obj += w->f[q] * w->diff[w->uni[q]];
    out[0] = cost;
    out[1] = slack;
    out[2] = fabs(obj - cost);
    return 0;
}

/* The ascending union of the ascending point lists a (na entries) and b (nb
 * entries), written to out; returns its length. */
static npy_intp merge(const npy_intp *a, npy_intp na, const npy_intp *b,
                      npy_intp nb, npy_intp *out)
{
    npy_intp i = 0, j = 0, m = 0;

    while (i < na && j < nb)
        if (a[i] < b[j])
            out[m++] = a[i++];
        else if (b[j] < a[i])
            out[m++] = b[j++];
        else {
            out[m++] = a[i++];
            j++;
        }
    while (i < na)
        out[m++] = a[i++];
    while (j < nb)
        out[m++] = b[j++];
    return m;
}

/* The integrals of (dxy - d(x',y'))_+ and _- over the plan certify_pair left
 * in w: the diagonal entries first, then the forest in sorted order.  They
 * are summed in locals, which cannot alias the plan. */
static void plan_parts(const double *mu, const double *nu, const double *D,
                       npy_intp n, double dxy, const Work *w, double *plus,
                       double *minus)
{
    npy_intp u, q, k;
    double c, p = 0.0, m = 0.0;

    for (q = 0; q < w->nsup; q++)
        if ((c = common(mu, nu, u = w->sup[q])) > 0)
            add_part(c, dxy - D[u * n + u], &p, &m);
    for (q = 0; q < w->ncell; q++) {
        k = w->cell[q];
        add_part(w->tree[k], dxy - w->C[k], &p, &m);
    }
    *plus = p;
    *minus = m;
}

static PyObject *solve_pairs(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *P_in, *dist_in, *xs_in, *ys_in, *out = NULL;
    PyArrayObject *P = NULL, *dist = NULL, *xs = NULL, *ys = NULL;
    PyArrayObject *res[5] = {NULL, NULL, NULL, NULL, NULL};
    void *block = NULL;
    npy_intp *ptr = NULL, *idx = NULL;
    Work w;
    npy_intp n, rows, npairs, k, x, y, u;
    int flags = NPY_ARRAY_IN_ARRAY, f;

    if (!PyArg_ParseTuple(args, "OOOO:solve_pairs", &P_in, &dist_in, &xs_in,
                          &ys_in))
        return NULL;
    P = (PyArrayObject *)PyArray_FROMANY(P_in, NPY_DOUBLE, 2, 2, flags);
    dist = (PyArrayObject *)PyArray_FROMANY(dist_in, NPY_DOUBLE, 2, 2, flags);
    xs = (PyArrayObject *)PyArray_FROMANY(xs_in, NPY_INTP, 1, 1, flags);
    ys = (PyArrayObject *)PyArray_FROMANY(ys_in, NPY_INTP, 1, 1, flags);
    if (!P || !dist || !xs || !ys)
        goto finish;
    n = PyArray_DIM(dist, 0);
    rows = PyArray_DIM(P, 0);
    npairs = PyArray_DIM(xs, 0);
    if (PyArray_DIM(dist, 1) != n || PyArray_DIM(P, 1) != n) {
        PyErr_Format(PyExc_ValueError,
                     "rows of %zd points for a %zd x %zd distance matrix",
                     (Py_ssize_t)PyArray_DIM(P, 1), (Py_ssize_t)n,
                     (Py_ssize_t)PyArray_DIM(dist, 1));
        goto finish;
    }
    if (PyArray_DIM(ys, 0) != npairs) {
        PyErr_Format(PyExc_ValueError, "I and J have %zd and %zd entries",
                     (Py_ssize_t)npairs, (Py_ssize_t)PyArray_DIM(ys, 0));
        goto finish;
    }
    for (k = 0; k < npairs; k++) {
        x = ((npy_intp *)PyArray_DATA(xs))[k];
        y = ((npy_intp *)PyArray_DATA(ys))[k];
        if (x < 0 || x >= rows || y < 0 || y >= rows) {
            PyErr_Format(PyExc_ValueError,
                         "pair %zd: row index (%zd, %zd) out of range for "
                         "%zd rows",
                         (Py_ssize_t)k, (Py_ssize_t)x, (Py_ssize_t)y,
                         (Py_ssize_t)rows);
            goto finish;
        }
    }
    for (f = 0; f < 5; f++)
        if (!(res[f] = (PyArrayObject *)PyArray_SimpleNew(1, &npairs,
                                                          NPY_DOUBLE)))
            goto finish;
    block = work_alloc(&w, n);
    ptr = malloc((rows + 1) * sizeof *ptr);
    if (!block || !ptr)
        goto nomem;
    {
        const double *Pd = PyArray_DATA(P), *D = PyArray_DATA(dist);
        double *o[5], one[3];

        /* The support of each row, ascending: idx[ptr[x] .. ptr[x + 1] - 1]. */
        ptr[0] = 0;
        for (x = 0; x < rows; x++) {
            ptr[x + 1] = ptr[x];
            for (u = 0; u < n; u++)
                ptr[x + 1] += Pd[x * n + u] != 0;
        }
        if (!(idx = malloc(ptr[rows] * sizeof *idx + 1)))
            goto nomem;
        for (x = 0, k = 0; x < rows; x++)
            for (u = 0; u < n; u++)
                if (Pd[x * n + u] != 0)
                    idx[k++] = u;
        for (f = 0; f < 5; f++)
            o[f] = PyArray_DATA(res[f]);
        for (k = 0; k < npairs; k++) {
            x = ((npy_intp *)PyArray_DATA(xs))[k];
            y = ((npy_intp *)PyArray_DATA(ys))[k];
            w.nsup = merge(idx + ptr[x], ptr[x + 1] - ptr[x], idx + ptr[y],
                           ptr[y + 1] - ptr[y], w.sup);
            if (certify_pair(Pd + x * n, Pd + y * n, D, n, &w, one) < 0) {
                PyErr_SetString(PyExc_RuntimeError,
                                "transportation problem infeasible");
                goto finish;
            }
            o[0][k] = one[0];
            plan_parts(Pd + x * n, Pd + y * n, D, n, D[x * n + y], &w,
                       o[1] + k, o[2] + k);
            o[3][k] = one[1];
            o[4][k] = one[2];
        }
    }
    out = Py_BuildValue("(NNNNN)", res[0], res[1], res[2], res[3], res[4]);
    for (f = 0; f < 5; f++)
        res[f] = NULL; /* owned by out (or released by Py_BuildValue) */
    goto finish;
nomem:
    PyErr_NoMemory();
finish:
    free(block);
    free(ptr);
    free(idx);
    for (f = 0; f < 5; f++)
        Py_XDECREF(res[f]);
    Py_XDECREF(P);
    Py_XDECREF(dist);
    Py_XDECREF(xs);
    Py_XDECREF(ys);
    return out;
}

/* (src, tgt, mass, cost, union, f, slack, gap) from the plan and dual
 * certify_pair left in w and its out = (cost, slack, gap). */
static PyObject *pack_pair(const double *mu, const double *nu, const Work *w,
                           const double *out)
{
    npy_intp u, q, k, count = w->ncell, nuni = w->nuni;
    PyArrayObject *src, *tgt, *mass, *uni, *f;

    for (q = 0; q < w->nsup; q++)
        count += common(mu, nu, w->sup[q]) > 0;
    src = (PyArrayObject *)PyArray_SimpleNew(1, &count, NPY_INTP);
    tgt = (PyArrayObject *)PyArray_SimpleNew(1, &count, NPY_INTP);
    mass = (PyArrayObject *)PyArray_SimpleNew(1, &count, NPY_DOUBLE);
    uni = (PyArrayObject *)PyArray_SimpleNew(1, &nuni, NPY_INTP);
    f = (PyArrayObject *)PyArray_SimpleNew(1, &nuni, NPY_DOUBLE);
    if (src && tgt && mass && uni && f) {
        npy_intp *s = PyArray_DATA(src), *t = PyArray_DATA(tgt);
        double *m = PyArray_DATA(mass), c;

        count = 0;
        for (q = 0; q < w->nsup; q++) {
            if ((c = common(mu, nu, u = w->sup[q])) > 0) {
                s[count] = t[count] = u;
                m[count++] = c;
            }
        }
        for (q = 0; q < w->ncell; q++) {
            k = w->cell[q];
            s[count] = w->pos[k / w->nt];
            t[count] = w->neg[k % w->nt];
            m[count++] = w->tree[k];
        }
        memcpy(PyArray_DATA(uni), w->uni, nuni * sizeof(npy_intp));
        memcpy(PyArray_DATA(f), w->f, nuni * sizeof(double));
        return Py_BuildValue("(NNNdNNdd)", src, tgt, mass, out[0], uni, f,
                             out[1], out[2]);
    }
    Py_XDECREF(src);
    Py_XDECREF(tgt);
    Py_XDECREF(mass);
    Py_XDECREF(uni);
    Py_XDECREF(f);
    return NULL;
}

static PyObject *solve_pair(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *mu_in, *nu_in, *dist_in, *out = NULL;
    PyArrayObject *mu = NULL, *nu = NULL, *dist = NULL;
    void *block = NULL;
    Work w;
    npy_intp n;
    double one[3];
    int flags = NPY_ARRAY_IN_ARRAY;

    if (!PyArg_ParseTuple(args, "OOO:solve_pair", &mu_in, &nu_in, &dist_in))
        return NULL;
    mu = (PyArrayObject *)PyArray_FROMANY(mu_in, NPY_DOUBLE, 1, 1, flags);
    nu = (PyArrayObject *)PyArray_FROMANY(nu_in, NPY_DOUBLE, 1, 1, flags);
    dist = (PyArrayObject *)PyArray_FROMANY(dist_in, NPY_DOUBLE, 2, 2, flags);
    if (!mu || !nu || !dist)
        goto finish;
    n = PyArray_DIM(mu, 0);
    if (PyArray_DIM(nu, 0) != n || PyArray_DIM(dist, 0) != n ||
        PyArray_DIM(dist, 1) != n) {
        PyErr_Format(PyExc_ValueError,
                     "mu and nu have %zd and %zd entries for a %zd x %zd "
                     "distance matrix",
                     (Py_ssize_t)n, (Py_ssize_t)PyArray_DIM(nu, 0),
                     (Py_ssize_t)PyArray_DIM(dist, 0),
                     (Py_ssize_t)PyArray_DIM(dist, 1));
        goto finish;
    }
    if (!(block = work_alloc(&w, n))) {
        PyErr_NoMemory();
        goto finish;
    }
    {
        const double *Mu = PyArray_DATA(mu), *Nu = PyArray_DATA(nu);
        npy_intp u;

        w.nsup = 0;
        for (u = 0; u < n; u++)
            if (Mu[u] != 0 || Nu[u] != 0)
                w.sup[w.nsup++] = u;
        if (certify_pair(Mu, Nu, PyArray_DATA(dist), n, &w, one) < 0) {
            PyErr_SetString(PyExc_RuntimeError,
                            "transportation problem infeasible");
            goto finish;
        }
        out = pack_pair(Mu, Nu, &w, one);
    }
finish:
    free(block);
    Py_XDECREF(mu);
    Py_XDECREF(nu);
    Py_XDECREF(dist);
    return out;
}

/* W1 between mu and nu as a min-cost flow on a graph, as
 * _mcf_py.solve_flow computes it.  The m edges are e = (tail[e], head[e]),
 * tail[e] < head[e], of length len[e], in row-major order; g[e] is the
 * signed net flow on e, positive from tail to head.  adj[adjptr[x] ..
 * adjptr[x + 1] - 1] lists x's neighbours, ascending, and adje[] the edge to
 * each.  exc and need hold each point's supply and demand left, total the
 * supply's sum.  pot, dist, parent, parc, cancel, done, heap and slot have n
 * entries each. */
static void transship(npy_intp n, const npy_intp *adjptr, const npy_intp *adj,
                      const npy_intp *adje, const npy_intp *tail,
                      const double *len, double *exc, double *need,
                      double total, double *g, double *pot, double *dist,
                      npy_intp *parent, npy_intp *parc, char *cancel,
                      char *done, npy_intp *heap, npy_intp *slot)
{
    npy_intp u, v, s, e, t, root;
    double remaining = total, stop, rc, nd, eps, cap, along;
    int reached;
    char c;
    Heap h = {heap, slot, 0};

    stop = MASS_EPS * (total > 1.0 ? total : 1.0);
    while (remaining > stop) {
        for (v = 0; v < n; v++) {
            dist[v] = INFINITY;
            parent[v] = -1;
            done[v] = 0;
            slot[v] = -1;
        }
        h.size = 0;
        for (v = 0; v < n; v++)
            if (exc[v] > MASS_EPS) {
                dist[v] = 0.0;
                heap_update(&h, dist, v);
            }
        while ((u = heap_pop(&h, dist)) >= 0) {
            done[u] = 1;
            for (s = adjptr[u]; s < adjptr[u + 1]; s++) {
                v = adj[s];
                if (done[v])
                    continue;
                e = adje[s];
                /* Flow against u -> v, above the threshold, is cancelled
                 * first. */
                along = tail[e] == u ? g[e] : -g[e];
                c = along < -MASS_EPS;
                rc = (c ? -len[e] : len[e]) + pot[u] - pot[v];
                if (rc < 0.0)
                    rc = 0.0;
                nd = dist[u] + rc;
                if (nd < dist[v]) {
                    dist[v] = nd;
                    parent[v] = u;
                    parc[v] = e;
                    cancel[v] = c;
                    heap_update(&h, dist, v);
                }
            }
        }
        reached = 0;
        for (t = 0; t < n && !reached; t++)
            reached = need[t] > MASS_EPS && dist[t] < INFINITY;
        if (!reached)
            break;
        for (v = 0; v < n; v++)
            if (dist[v] < INFINITY)
                pot[v] += dist[v];
        /* Every tree arc now has reduced cost zero: serve each point with
         * demand left along its tree path. */
        for (t = 0; t < n; t++) {
            if (need[t] <= MASS_EPS || dist[t] == INFINITY)
                continue;
            eps = need[t];
            for (v = t; parent[v] >= 0; v = parent[v]) {
                if (!cancel[v])
                    continue;
                e = parc[v];
                cap = tail[e] == parent[v] ? -g[e] : g[e];
                if (cap <= MASS_EPS)
                    break;
                if (cap < eps)
                    eps = cap;
            }
            /* A cancelling arc is used up, or the root is empty. */
            if (parent[v] >= 0 || exc[v] <= MASS_EPS)
                continue;
            root = v;
            if (exc[root] < eps)
                eps = exc[root];
            for (v = t; parent[v] >= 0; v = parent[v]) {
                e = parc[v];
                if (tail[e] == parent[v])
                    g[e] += eps;
                else
                    g[e] -= eps;
            }
            exc[root] -= eps;
            need[t] -= eps;
            remaining -= eps;
        }
    }
}

/* Checks the (indptr, indices) graph of _mcf_py._edge_arrays on n points and
 * writes each edge's tail; returns 0, or -1 with a ValueError set. */
static int edge_tails(const npy_intp *indptr, npy_intp np1,
                      const npy_intp *indices, npy_intp m, npy_intp n,
                      npy_intp *tail)
{
    npy_intp u, s, ok = np1 == n + 1 && indptr[0] == 0 && indptr[n] == m;

    for (u = 0; ok && u < n; u++)
        ok = indptr[u] <= indptr[u + 1];
    if (!ok) {
        PyErr_Format(PyExc_ValueError, "indptr does not list %zd edges on %zd "
                     "points", (Py_ssize_t)m, (Py_ssize_t)n);
        return -1;
    }
    for (u = 0; u < n; u++)
        for (s = indptr[u]; s < indptr[u + 1]; s++) {
            tail[s] = u;
            if (indices[s] <= u || indices[s] >= n ||
                (s > indptr[u] && indices[s] <= indices[s - 1])) {
                PyErr_Format(PyExc_ValueError, "edge %zd (%zd, %zd) is out of "
                             "order or not above the diagonal", (Py_ssize_t)s,
                             (Py_ssize_t)u, (Py_ssize_t)indices[s]);
                return -1;
            }
        }
    return 0;
}

static PyObject *solve_flow(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *mu_in, *nu_in, *dist_in, *indptr_in, *indices_in, *out = NULL;
    PyArrayObject *mu = NULL, *nu = NULL, *dist = NULL, *indptr = NULL;
    PyArrayObject *indices = NULL, *flow = NULL, *fout = NULL;
    char *block = NULL;
    npy_intp n, m;
    int flags = NPY_ARRAY_IN_ARRAY;

    if (!PyArg_ParseTuple(args, "OOOOO:solve_flow", &mu_in, &nu_in, &dist_in,
                          &indptr_in, &indices_in))
        return NULL;
    mu = (PyArrayObject *)PyArray_FROMANY(mu_in, NPY_DOUBLE, 1, 1, flags);
    nu = (PyArrayObject *)PyArray_FROMANY(nu_in, NPY_DOUBLE, 1, 1, flags);
    dist = (PyArrayObject *)PyArray_FROMANY(dist_in, NPY_DOUBLE, 2, 2, flags);
    indptr = (PyArrayObject *)PyArray_FROMANY(indptr_in, NPY_INTP, 1, 1, flags);
    indices = (PyArrayObject *)PyArray_FROMANY(indices_in, NPY_INTP, 1, 1, flags);
    if (!mu || !nu || !dist || !indptr || !indices)
        goto finish;
    n = PyArray_DIM(mu, 0);
    m = PyArray_DIM(indices, 0);
    if (PyArray_DIM(nu, 0) != n || PyArray_DIM(dist, 0) != n ||
        PyArray_DIM(dist, 1) != n) {
        PyErr_Format(PyExc_ValueError,
                     "mu and nu have %zd and %zd entries for a %zd x %zd "
                     "distance matrix",
                     (Py_ssize_t)n, (Py_ssize_t)PyArray_DIM(nu, 0),
                     (Py_ssize_t)PyArray_DIM(dist, 0),
                     (Py_ssize_t)PyArray_DIM(dist, 1));
        goto finish;
    }
    flow = (PyArrayObject *)PyArray_SimpleNew(1, &m, NPY_DOUBLE);
    fout = (PyArrayObject *)PyArray_SimpleNew(1, &n, NPY_DOUBLE);
    /* Doubles (diff, exc, need, pot, dist, div, a, b: n each; len: m), then
     * indices (pos, neg, uni, parent, parc, heap, slot, cursor: n each;
     * adjptr: n + 1; tail: m; adj, adje: 2 m each), then flags (cancel,
     * done: n each); one more byte so the size is never 0. */
    block = malloc((8 * n + m) * sizeof(double) +
                   (9 * n + 1 + 5 * m) * sizeof(npy_intp) + 2 * n + 1);
    if (!flow || !fout || !block) {
        if (flow && fout)
            PyErr_NoMemory();
        goto finish;
    }
    {
        const double *Mu = PyArray_DATA(mu), *Nu = PyArray_DATA(nu);
        const double *D = PyArray_DATA(dist);
        const npy_intp *head = PyArray_DATA(indices);
        double *g = PyArray_DATA(flow), *f = PyArray_DATA(fout);
        double *diff = (double *)block, *exc = diff + n, *need = exc + n;
        double *pot = need + n, *dst = pot + n, *div = dst + n, *a = div + n;
        double *b = a + n, *len = b + n;
        npy_intp *pos = (npy_intp *)(len + m), *neg = pos + n, *uni = neg + n;
        npy_intp *parent = uni + n, *parc = parent + n, *heap = parc + n;
        npy_intp *slot = heap + n, *cursor = slot + n, *adjptr = cursor + n;
        npy_intp *tail = adjptr + n + 1, *adj = tail + m, *adje = adj + 2 * m;
        char *cancel = (char *)(adje + 2 * m), *done = cancel + n;
        npy_intp x, e, q, r, ns = 0, nt = 0, nuni = 0;
        double scale, cost = 0.0, cons = 0.0, slack = -INFINITY, obj = 0.0, t;

        if (edge_tails(PyArray_DATA(indptr), PyArray_DIM(indptr, 0), head, m,
                       n, tail) < 0)
            goto finish;
        /* Each point's neighbours, in edge order: the points before it
         * (edges into it), then those after it, both ascending. */
        for (x = 0; x <= n; x++)
            adjptr[x] = 0;
        for (e = 0; e < m; e++) {
            adjptr[tail[e] + 1]++;
            adjptr[head[e] + 1]++;
        }
        for (x = 0; x < n; x++) {
            adjptr[x + 1] += adjptr[x];
            cursor[x] = adjptr[x];
        }
        for (e = 0; e < m; e++) {
            adj[cursor[tail[e]]] = head[e];
            adje[cursor[tail[e]]++] = e;
            adj[cursor[head[e]]] = tail[e];
            adje[cursor[head[e]]++] = e;
            len[e] = D[tail[e] * n + head[e]];
            g[e] = 0.0;
        }

        for (x = 0; x < n; x++) {
            diff[x] = Mu[x] - Nu[x];
            exc[x] = need[x] = pot[x] = 0.0;
            if (diff[x] > MASS_ATOL)
                pos[ns++] = x;
            else if (diff[x] < -MASS_ATOL)
                neg[nt++] = x;
            if (Mu[x] > 0 || Nu[x] > 0)
                uni[nuni++] = x;
        }
        if (ns > 0 && nt > 0) {
            for (q = 0; q < ns; q++)
                a[q] = diff[pos[q]];
            for (q = 0; q < nt; q++)
                b[q] = -diff[neg[q]];
            /* Marginal totals can differ at rounding level; rescale the
             * demand. */
            scale = (0.0 + pairwise_sum(a, ns)) / (0.0 + pairwise_sum(b, nt));
            for (q = 0; q < ns; q++)
                exc[pos[q]] = a[q];
            for (q = 0; q < nt; q++)
                need[neg[q]] = b[q] * scale;
            transship(n, adjptr, adj, adje, tail, len, exc, need,
                      pairwise_sum(a, ns), g, pot, dst, parent, parc, cancel,
                      done, heap, slot);
        }

        for (e = 0; e < m; e++)
            cost += fabs(g[e]) * len[e];
        for (x = 0; x < n; x++)
            div[x] = 0.0;
        for (e = 0; e < m; e++) {
            div[tail[e]] += g[e];
            div[head[e]] -= g[e];
        }
        for (x = 0; x < n; x++) {
            t = fabs(div[x] - diff[x]);
            if (t > cons)
                cons = t;
            f[x] = -pot[x];
        }
        for (q = 0; q < nuni; q++)
            for (r = 0; r < nuni; r++) {
                t = fabs(f[uni[q]] - f[uni[r]]) - D[uni[q] * n + uni[r]];
                if (t > slack)
                    slack = t;
            }
        for (q = 0; q < nuni; q++)
            obj += f[uni[q]] * diff[uni[q]];
        out = Py_BuildValue("(dNNddd)", cost, flow, fout, cons, slack,
                            fabs(obj - cost));
        flow = fout = NULL; /* owned by out (or released by Py_BuildValue) */
    }
finish:
    free(block);
    Py_XDECREF(flow);
    Py_XDECREF(fout);
    Py_XDECREF(mu);
    Py_XDECREF(nu);
    Py_XDECREF(dist);
    Py_XDECREF(indptr);
    Py_XDECREF(indices);
    return out;
}

/* The 1-skeleton of the (n x n) table d, as _mcf_py.skeleton defines it:
 * the pairs u < v with no k such that d[u,k] < d[u,v], d[k,v] < d[u,v] and
 * d[u,k] + d[k,v] <= d[u,v], compared exactly.  Each pair's scan stops at its
 * first such k.  Column v of d is read from a transposed copy, so both terms
 * are read in order. */
static PyObject *skeleton(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *dist_in, *out = NULL;
    PyArrayObject *dist, *indptr = NULL, *indices = NULL;
    double *T = NULL, duv, a, b;
    npy_intp n, np1, u, v, k, m = 0, cap = 0, *edge = NULL, *ptr;

    if (!PyArg_ParseTuple(args, "O:skeleton", &dist_in))
        return NULL;
    dist = (PyArrayObject *)PyArray_FROMANY(dist_in, NPY_DOUBLE, 2, 2,
                                            NPY_ARRAY_IN_ARRAY);
    if (!dist)
        return NULL;
    n = PyArray_DIM(dist, 0);
    if (PyArray_DIM(dist, 1) != n) {
        PyErr_Format(PyExc_ValueError, "distance table is %zd x %zd, not square",
                     (Py_ssize_t)n, (Py_ssize_t)PyArray_DIM(dist, 1));
        goto finish;
    }
    np1 = n + 1;
    if (!(indptr = (PyArrayObject *)PyArray_SimpleNew(1, &np1, NPY_INTP)))
        goto finish;
    if (!(T = malloc(n * n * sizeof(double) + 1)))
        goto nomem;
    {
        const double *d = PyArray_DATA(dist), *du, *tv;

        ptr = PyArray_DATA(indptr);
        for (u = 0; u < n; u++)
            for (v = 0; v < n; v++)
                T[v * n + u] = d[u * n + v];
        for (u = 0; u < n; u++) {
            ptr[u] = m;
            du = d + u * n;
            for (v = u + 1; v < n; v++) {
                duv = du[v];
                tv = T + v * n;
                for (k = 0; k < n; k++) {
                    a = du[k];
                    b = tv[k];
                    if (a < duv && b < duv && a + b <= duv)
                        break;
                }
                if (k < n)
                    continue;
                if (m == cap && !grow(&edge, cap = cap ? 2 * cap : 64,
                                      sizeof *edge))
                    goto nomem;
                edge[m++] = v;
            }
        }
        ptr[n] = m;
    }
    if (!(indices = (PyArrayObject *)PyArray_SimpleNew(1, &m, NPY_INTP)))
        goto finish;
    if (m)
        memcpy(PyArray_DATA(indices), edge, m * sizeof *edge);
    out = Py_BuildValue("(NN)", indptr, indices);
    indptr = indices = NULL; /* owned by out (or released by Py_BuildValue) */
    goto finish;
nomem:
    PyErr_NoMemory();
finish:
    free(T);
    free(edge);
    Py_XDECREF(indptr);
    Py_XDECREF(indices);
    Py_DECREF(dist);
    return out;
}

/* Two doubles, and the lane masks that comparing two of them gives. */
typedef double v2d __attribute__((vector_size(16)));
typedef long long v2m __attribute__((vector_size(16)));

#define TRIANGLE_BLOCK 4 /* intermediate points tested per pass over d */

/* Whether d[i,j] - (d[i,k] + d[k,j]) > atol for some (i, j) and some k in
 * k0 .. k0 + nk - 1, with nk <= TRIANGLE_BLOCK: one pass over the rows of d,
 * two columns at a time, tests the nk points.  With half set, d is exactly
 * symmetric and each row i is tested from column i on (from i - 1 when i
 * is odd): the cells (i, j) and (j, i) then hold the same two terms, so
 * their sums and slacks are equal bit for bit. */
static inline int triangle_fails(const double *d, npy_intp n, double atol,
                                 npy_intp k0, npy_intp nk, int half)
{
    npy_intp i, j, q;
    const v2d lim = {atol, atol};
    v2m bad[TRIANGLE_BLOCK] = {{0}}, any = {0, 0};

    for (i = 0; i < n; i++) {
        const double *di = d + i * n;
        v2d dik[TRIANGLE_BLOCK], dij, dkj;

        for (q = 0; q < nk; q++)
            dik[q] = (v2d){di[k0 + q], di[k0 + q]};
        for (j = half ? i - i % 2 : 0; j + 1 < n; j += 2) {
            memcpy(&dij, di + j, sizeof dij);
            for (q = 0; q < nk; q++) {
                memcpy(&dkj, d + (k0 + q) * n + j, sizeof dkj);
                bad[q] |= dij - (dik[q] + dkj) > lim;
            }
        }
        for (q = 0; q < nk && j < n; q++)
            if (di[j] - (di[k0 + q] + d[(k0 + q) * n + j]) > atol)
                bad[q][0] = -1;
    }
    for (q = 0; q < nk; q++)
        any |= bad[q];
    return (any[0] | any[1]) != 0;
}

/* Whether the (n x n) table d equals its transpose exactly. */
static int symmetric(const double *d, npy_intp n)
{
    npy_intp i, j;

    for (i = 0; i < n; i++)
        for (j = i + 1; j < n; j++)
            if (d[i * n + j] != d[j * n + i])
                return 0;
    return 1;
}

/* The triangle check of _mcf_py.triangle_violation on the (n x n) table d:
 * the first k with d[i,j] - (d[i,k] + d[k,j]) > atol for some (i, j), and the
 * first (i, j) in row-major order where that slack is largest at that k, as
 * np.argmax finds it, in w = (k, i, j).  Returns 1 when some k fails, else
 * 0.  Points are tested TRIANGLE_BLOCK at a time, on one half of d when d
 * is exactly symmetric; a block that fails is tested again point by point,
 * and the first point that fails is scanned over all of d for its
 * witness. */
static int triangle_witness(const double *d, npy_intp n, double atol,
                            npy_intp *w)
{
    npy_intp i, j, k, nk;
    double s, worst;
    int half = symmetric(d, n);

    for (k = 0; k < n; k += nk) {
        nk = n - k < TRIANGLE_BLOCK ? 1 : TRIANGLE_BLOCK;
        if (!triangle_fails(d, n, atol, k, nk, half))
            continue;
        while (!triangle_fails(d, n, atol, k, 1, half))
            k++;
        worst = -INFINITY;
        w[1] = w[2] = 0;
        for (i = 0; i < n; i++)
            for (j = 0; j < n; j++) {
                s = d[i * n + j] - (d[i * n + k] + d[k * n + j]);
                if (s > worst) {
                    worst = s;
                    w[1] = i;
                    w[2] = j;
                }
            }
        w[0] = k;
        return 1;
    }
    return 0;
}

static PyObject *triangle_violation(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *dist_in;
    PyArrayObject *dist;
    double atol;
    npy_intp n, w[3];
    int found;

    if (!PyArg_ParseTuple(args, "Od:triangle_violation", &dist_in, &atol))
        return NULL;
    dist = (PyArrayObject *)PyArray_FROMANY(dist_in, NPY_DOUBLE, 2, 2,
                                            NPY_ARRAY_IN_ARRAY);
    if (!dist)
        return NULL;
    n = PyArray_DIM(dist, 0);
    if (PyArray_DIM(dist, 1) != n) {
        PyErr_Format(PyExc_ValueError, "distance table is %zd x %zd, not square",
                     (Py_ssize_t)n, (Py_ssize_t)PyArray_DIM(dist, 1));
        Py_DECREF(dist);
        return NULL;
    }
    found = triangle_witness(PyArray_DATA(dist), n, atol, w);
    Py_DECREF(dist);
    if (!found)
        Py_RETURN_NONE;
    return Py_BuildValue("(nnn)", (Py_ssize_t)w[0], (Py_ssize_t)w[1],
                         (Py_ssize_t)w[2]);
}

/* The one-hop geodesic certificate of _mcf_py.geodesic_certificate on the
 * (n x n) table d: 1 when every ordered pair s != t is joined by an edge of
 * the hop graph, or has an edge s-k with d[k,t] < d[s,t] and
 * w(s,k) + d[k,t] <= d[s,t]; 0 when some pair has neither, or when some hop
 * is negative; -1 when memory runs out.  An entry is a hop when it is at
 * most lim, and s-k is an edge of weight w(s,k) when w(s,k), the smaller of
 * the hops among d[s,k] and d[k,s], is positive and finite.  One source s
 * at a time: its edges are listed and marked, then every t is tested,
 * stopping at the first pair that fails. */
static int geodesic_holds(const double *d, npy_intp n, double lim)
{
    npy_intp s, t, k, q, deg;
    npy_intp *nbr = malloc(n * sizeof *nbr + 1);
    double *len = malloc(n * sizeof *len + 1), a, b, w, dst, dkt;
    char *edge = calloc(n + 1, 1);
    int holds = 1;

    if (!nbr || !len || !edge) {
        holds = -1;
        goto finish;
    }
    for (s = 0; s < n && holds == 1; s++) {
        const double *ds = d + s * n;

        for (k = 0, deg = 0; k < n; k++) {
            a = ds[k];
            b = d[k * n + s];
            if (k == s || !(a <= lim || b <= lim))
                continue;
            w = !(b <= lim) || (a <= lim && a < b) ? a : b;
            if (w < 0) {
                holds = 0;
                break;
            }
            if (w > 0 && w < INFINITY) {
                nbr[deg] = k;
                len[deg++] = w;
                edge[k] = 1;
            }
        }
        for (t = 0; t < n && holds == 1; t++) {
            if (t == s || edge[t])
                continue;
            dst = ds[t];
            for (q = 0; q < deg; q++) {
                dkt = d[nbr[q] * n + t];
                if (dkt < dst && len[q] + dkt <= dst)
                    break;
            }
            if (q == deg)
                holds = 0;
        }
        for (q = 0; q < deg; q++)
            edge[nbr[q]] = 0;
    }
finish:
    free(nbr);
    free(len);
    free(edge);
    return holds;
}

static PyObject *geodesic_certificate(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *dist_in;
    PyArrayObject *dist;
    double lim;
    npy_intp n;
    int holds;

    if (!PyArg_ParseTuple(args, "Od:geodesic_certificate", &dist_in, &lim))
        return NULL;
    dist = (PyArrayObject *)PyArray_FROMANY(dist_in, NPY_DOUBLE, 2, 2,
                                            NPY_ARRAY_IN_ARRAY);
    if (!dist)
        return NULL;
    n = PyArray_DIM(dist, 0);
    if (PyArray_DIM(dist, 1) != n) {
        PyErr_Format(PyExc_ValueError, "distance table is %zd x %zd, not square",
                     (Py_ssize_t)n, (Py_ssize_t)PyArray_DIM(dist, 1));
        Py_DECREF(dist);
        return NULL;
    }
    holds = geodesic_holds(PyArray_DATA(dist), n, lim);
    Py_DECREF(dist);
    if (holds < 0)
        return PyErr_NoMemory();
    return PyBool_FromLong(holds);
}

/* Vertices of the 1-Lipschitz polytope {f : |f(a) - f(b)| <= d(a,b),
 * f(0) = 0}, enumerated as _mcf_py.lipschitz_vertices enumerates them. */

#define VERTEX_MAX_POINTS 63 /* assigned points are kept in a 64-bit mask */
#define LIPSCHITZ_EPS 1e-12

static inline uint64_t splitmix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/* Partial assignments on n points, stored once each: mask[k] holds the
 * points that assignment k assigns, val[k * n + i] its value at point i, and
 * order[k * n ..] its points in the order they were assigned.  A hash set
 * (open addressing over slot[], -1 when empty) finds an assignment by its
 * points and their values, compared with ==, so that -0.0 and +0.0 are
 * equal, as in the tuple keys of the Python kernel. */
typedef struct {
    npy_intp n, size, cap, nslot;
    uint64_t *mask, *hash;
    double *val;
    unsigned char *order;
    npy_intp *slot;
} Assignments;

static uint64_t assignment_hash(uint64_t mask, const double *val)
{
    uint64_t h = splitmix64(mask), m, bits;
    double v;

    for (m = mask; m; m &= m - 1) {
        v = val[__builtin_ctzll(m)];
        v = v == 0.0 ? 0.0 : v;
        memcpy(&bits, &v, sizeof bits);
        h = splitmix64(h ^ bits);
    }
    return h;
}

/* Makes room for extra more assignments, with the hash set at most half
 * full.  Returns 0 when memory runs out. */
static int assignments_reserve(Assignments *s, npy_intp extra)
{
    npy_intp need = s->size + extra, cap = s->cap, nslot = s->nslot, k, j;

    if (need > cap) {
        while (cap < need)
            cap = cap ? 2 * cap : 64;
        if (cap > NPY_MAX_INTP / 8 / (s->n + 1) ||
            !grow(&s->mask, cap, sizeof *s->mask) ||
            !grow(&s->hash, cap, sizeof *s->hash) ||
            !grow(&s->val, cap * s->n, sizeof *s->val) ||
            !grow(&s->order, cap * s->n, sizeof *s->order))
            return 0;
        s->cap = cap;
    }
    if (2 * need > nslot) {
        while (nslot < 2 * need)
            nslot = nslot ? 2 * nslot : 128;
        if (!grow(&s->slot, nslot, sizeof *s->slot))
            return 0;
        s->nslot = nslot;
        for (j = 0; j < nslot; j++)
            s->slot[j] = -1;
        for (k = 0; k < s->size; k++) {
            for (j = s->hash[k] & (nslot - 1); s->slot[j] >= 0;
                 j = (j + 1) & (nslot - 1))
                ;
            s->slot[j] = k;
        }
    }
    return 1;
}

/* Adds the assignment written at index size, unless an equal one is stored.
 * Returns whether it was added. */
static int assignments_add(Assignments *s)
{
    npy_intp k = s->size, n = s->n, j, e;
    uint64_t mask = s->mask[k], m;
    const double *v = s->val + k * n;
    uint64_t h = assignment_hash(mask, v);

    for (j = h & (s->nslot - 1); (e = s->slot[j]) >= 0;
         j = (j + 1) & (s->nslot - 1)) {
        if (s->hash[e] != h || s->mask[e] != mask)
            continue;
        for (m = mask; m; m &= m - 1)
            if (s->val[e * n + __builtin_ctzll(m)] != v[__builtin_ctzll(m)])
                break;
        if (!m)
            return 0;
    }
    s->slot[j] = k;
    s->hash[k] = h;
    s->size++;
    return 1;
}

static void assignments_free(Assignments *s)
{
    free(s->mask);
    free(s->hash);
    free(s->val);
    free(s->order);
    free(s->slot);
}

/* Grows assignments from f(0) = 0 one tight edge at a time, last in, first
 * out: a parent's points in the order they were assigned, then each new
 * point b ascending, f(a) + d before f(a) - d, each kept when it is within
 * d + 1e-12 of every assigned value and not seen before.  The full
 * assignments, in the order they leave the stack, go to s's indices full[];
 * their number is returned, or -1 when memory runs out.  n >= 1. */
static npy_intp grow_vertices(const double *d, Assignments *s, npy_intp **full)
{
    npy_intp n = s->n, top = 0, nfull = 0, cap = 0, p, c, j, t, k, a, b;
    npy_intp *stack = NULL, *out = NULL;
    uint64_t all = (1ULL << n) - 1;
    const double *pv;
    const unsigned char *po;
    double fa, fb, dab;
    int sign, ok;

    if (!assignments_reserve(s, 1))
        goto nomem;
    s->mask[0] = 1;
    memset(s->val, 0, n * sizeof *s->val);
    s->order[0] = 0;
    assignments_add(s);
    if (!grow(&stack, s->cap, sizeof *stack) ||
        !grow(&out, s->cap, sizeof *out))
        goto nomem;
    cap = s->cap;
    stack[top++] = 0;
    while (top) {
        p = stack[--top];
        if (s->mask[p] == all) {
            out[nfull++] = p;
            continue;
        }
        c = __builtin_popcountll(s->mask[p]);
        if (!assignments_reserve(s, 2 * c * (n - c)))
            goto nomem;
        if (cap < s->cap) {
            cap = s->cap;
            if (!grow(&stack, cap, sizeof *stack) ||
                !grow(&out, cap, sizeof *out))
                goto nomem;
        }
        pv = s->val + p * n;
        po = s->order + p * n;
        for (j = 0; j < c; j++) {
            a = po[j];
            fa = pv[a];
            for (b = 0; b < n; b++) {
                if (s->mask[p] >> b & 1)
                    continue;
                dab = d[a * n + b];
                for (sign = 0; sign < 2; sign++) {
                    fb = sign ? fa - dab : fa + dab;
                    for (ok = 1, t = 0; ok && t < c; t++)
                        ok = fabs(fb - pv[po[t]]) <= d[b * n + po[t]] + LIPSCHITZ_EPS;
                    if (!ok)
                        continue;
                    k = s->size;
                    s->mask[k] = s->mask[p] | 1ULL << b;
                    memcpy(s->val + k * n, pv, n * sizeof *pv);
                    s->val[k * n + b] = fb;
                    memcpy(s->order + k * n, po, c);
                    s->order[k * n + c] = (unsigned char)b;
                    if (assignments_add(s))
                        stack[top++] = k;
                }
            }
        }
    }
    free(stack);
    *full = out;
    return nfull;
nomem:
    free(stack);
    free(out);
    return -1;
}

/* The rows of the full assignments full[0 .. m-1] of s, as an (m', n) array,
 * keeping a row only when no earlier row is equal to it after rounding to 12
 * decimals the way np.round(f, 12) rounds, rint(x * 1e12) / 1e12. */
static PyObject *distinct_rows(const Assignments *s, const npy_intp *full,
                               npy_intp m)
{
    Assignments r = {0};
    npy_intp n = s->n, dims[2] = {0, n}, i, k;
    npy_intp *keep = malloc((m + 1) * sizeof *keep);
    double *rounded;
    PyObject *out = NULL;

    r.n = n;
    if (!keep || !assignments_reserve(&r, m)) {
        PyErr_NoMemory();
        goto finish;
    }
    for (k = 0; k < m; k++) {
        r.mask[r.size] = s->mask[full[k]];
        rounded = r.val + r.size * n;
        for (i = 0; i < n; i++)
            rounded[i] = rint(s->val[full[k] * n + i] * 1e12) / 1e12;
        if (assignments_add(&r))
            keep[dims[0]++] = full[k];
    }
    if (!(out = PyArray_SimpleNew(2, dims, NPY_DOUBLE)))
        goto finish;
    for (k = 0; k < dims[0]; k++)
        memcpy((double *)PyArray_DATA((PyArrayObject *)out) + k * n,
               s->val + keep[k] * n, n * sizeof(double));
finish:
    free(keep);
    assignments_free(&r);
    return out;
}

static PyObject *lipschitz_vertices(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *dist_in, *out = NULL;
    PyArrayObject *dist;
    Assignments s = {0};
    npy_intp n, m, *full = NULL, empty[2] = {0, 0};

    if (!PyArg_ParseTuple(args, "O:lipschitz_vertices", &dist_in))
        return NULL;
    dist = (PyArrayObject *)PyArray_FROMANY(dist_in, NPY_DOUBLE, 2, 2,
                                            NPY_ARRAY_IN_ARRAY);
    if (!dist)
        return NULL;
    n = PyArray_DIM(dist, 0);
    if (PyArray_DIM(dist, 1) != n)
        PyErr_Format(PyExc_ValueError, "distance table is %zd x %zd, not square",
                     (Py_ssize_t)n, (Py_ssize_t)PyArray_DIM(dist, 1));
    else if (n > VERTEX_MAX_POINTS)
        PyErr_Format(PyExc_ValueError,
                     "lipschitz_vertices takes at most %d points, not %zd",
                     VERTEX_MAX_POINTS, (Py_ssize_t)n);
    else if (n == 0)
        out = PyArray_SimpleNew(2, empty, NPY_DOUBLE);
    else {
        s.n = n;
        m = grow_vertices(PyArray_DATA(dist), &s, &full);
        if (m < 0)
            PyErr_NoMemory();
        else
            out = distinct_rows(&s, full, m);
    }
    free(full);
    assignments_free(&s);
    Py_DECREF(dist);
    return out;
}

/* decimal_table(rows), as the header describes it; rows that is not a list
 * raises TypeError. */
static PyObject *decimal_table(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *rows, *row, *s, *out;
    npy_intp n, dims[2], i, j;
    const char *text;
    char *end;
    double *t, x;

    if (!PyArg_ParseTuple(args, "O:decimal_table", &rows))
        return NULL;
    if (!PyList_CheckExact(rows))
        return PyErr_Format(PyExc_TypeError, "decimal_table takes a list, not %.200s",
                            Py_TYPE(rows)->tp_name);
    n = PyList_GET_SIZE(rows);
    if (n == 0)
        Py_RETURN_NONE;
    dims[0] = dims[1] = n;
    if (!(out = PyArray_SimpleNew(2, dims, NPY_DOUBLE)))
        return NULL;
    t = PyArray_DATA((PyArrayObject *)out);
    for (i = 0; i < n; i++) {
        row = PyList_GET_ITEM(rows, i);
        if (!PyList_CheckExact(row) || PyList_GET_SIZE(row) != n)
            goto none;
        for (j = 0; j < n; j++) {
            s = PyList_GET_ITEM(row, j);
            if (!PyUnicode_CheckExact(s) || !PyUnicode_IS_COMPACT_ASCII(s))
                goto none;
            text = PyUnicode_DATA(s);
            x = *t++ = PyOS_string_to_double(text, &end, NULL);
            /* An error means nothing was parsed, or no memory was left. */
            if (x == -1.0 && PyErr_Occurred()) {
                if (PyErr_ExceptionMatches(PyExc_MemoryError)) {
                    Py_DECREF(out);
                    return NULL;
                }
                PyErr_Clear();
                goto none;
            }
            if (end != text + PyUnicode_GET_LENGTH(s))
                goto none;
        }
    }
    return out;
none:
    Py_DECREF(out);
    Py_RETURN_NONE;
}

static PyMethodDef methods[] = {
    {"solve_transport", solve_transport, METH_VARARGS,
     "See coricci.transport._mcf_py.solve_transport."},
    {"solve_pair", solve_pair, METH_VARARGS,
     "See coricci.transport._mcf_py.solve_pair."},
    {"solve_pairs", solve_pairs, METH_VARARGS,
     "See coricci.transport._mcf_py.solve_pairs."},
    {"triangle_violation", triangle_violation, METH_VARARGS,
     "See coricci.transport._mcf_py.triangle_violation."},
    {"geodesic_certificate", geodesic_certificate, METH_VARARGS,
     "See coricci.transport._mcf_py.geodesic_certificate."},
    {"lipschitz_vertices", lipschitz_vertices, METH_VARARGS,
     "See coricci.transport._mcf_py.lipschitz_vertices."},
    {"skeleton", skeleton, METH_VARARGS,
     "See coricci.transport._mcf_py.skeleton."},
    {"solve_flow", solve_flow, METH_VARARGS,
     "See coricci.transport._mcf_py.solve_flow."},
    {"decimal_table", decimal_table, METH_VARARGS,
     "See coricci.transport._mcf_py.decimal_table."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_mcf_cy",
    "Compiled transport kernel: dense transportation, single certified pairs, "
    "batched pair scans, the triangle check of distance tables, the "
    "one-hop geodesic certificate, the vertices of the 1-Lipschitz polytope behind exact maxVar, "
    "W1 as a min-cost flow on the 1-skeleton of a metric, and the distance "
    "table of a chain file's decimal strings.",
    -1, methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__mcf_cy(void)
{
    import_array();
    return PyModule_Create(&module);
}
