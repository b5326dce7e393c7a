/* Compiled successive-shortest-paths kernel for dense transportation.
 *
 * Same contract as coricci.transport._mcf_py.solve_transport and the same
 * arithmetic in the same order: Dijkstra ties break on the lowest node
 * index, every reduced cost and distance is summed as there, and the plan is
 * listed in row-major order, as np.nonzero lists it.  The supply total is a
 * sequential sum.
 *
 * Hand-written against the CPython and numpy C APIs; it builds with a C
 * compiler and the numpy headers alone (see setup.py).  The module keeps the
 * name _mcf_cy because perfbench/run.py builds and checks this exact file.
 */

#define PY_SSIZE_T_CLEAN
#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include <Python.h>
#include <math.h>
#include <stdlib.h>
#include <string.h>
#include <numpy/arrayobject.h>

#define MASS_EPS 1e-15

/* Returns 0 on success, -1 when no sink is reachable (infeasible). */
static int solve(const double *C, double *a, double *b, npy_intp ns,
                 npy_intp nt, double *flow, double *pot, double *dist,
                 npy_intp *parent, char *done)
{
    npy_intp nv = ns + nt, i, j, u, v, target, root;
    double total = 0.0, remaining, best, dt, rc, nd, eps, stop;

    for (i = 0; i < ns; i++)
        total += a[i];
    remaining = total;
    stop = MASS_EPS * (total > 1.0 ? total : 1.0);
    while (remaining > stop) {
        for (v = 0; v < nv; v++) {
            dist[v] = INFINITY;
            parent[v] = -1;
            done[v] = 0;
        }
        for (i = 0; i < ns; i++)
            if (a[i] > MASS_EPS)
                dist[i] = 0.0;
        target = -1;
        for (;;) {
            u = -1;
            best = INFINITY;
            for (v = 0; v < nv; v++) {
                if (!done[v] && dist[v] < best) {
                    best = dist[v];
                    u = v;
                }
            }
            if (u < 0)
                break;
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
                    }
                }
            }
        }
        if (target < 0)
            return -1;
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

static PyObject *solve_transport(PyObject *self, PyObject *args)
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
    /* a and b (nv), flow (ns * nt), pot and dist (2 nv), parent and done
     * (nv each, done over-allocated); one more slot so the size is never 0. */
    work = calloc(5 * nv + ns * nt + 1, sizeof(double));
    if (!work) {
        PyErr_NoMemory();
        goto finish;
    }
    {
        double *a = work, *b = a + ns, *flow = b + nt, *pot = flow + ns * nt;
        double *dist = pot + nv;
        npy_intp *parent = (npy_intp *)(dist + nv);
        char *done = (char *)(parent + nv);

        memcpy(a, PyArray_DATA(supply), ns * sizeof(double));
        memcpy(b, PyArray_DATA(demand), nt * sizeof(double));
        if (solve(PyArray_DATA(cost), a, b, ns, nt, flow, pot, dist, parent,
                  done) < 0)
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

static PyMethodDef methods[] = {
    {"solve_transport", solve_transport, METH_VARARGS,
     "See coricci.transport._mcf_py.solve_transport."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_mcf_cy",
    "Compiled successive-shortest-paths kernel for dense transportation.",
    -1, methods,
};

PyMODINIT_FUNC PyInit__mcf_cy(void)
{
    import_array();
    return PyModule_Create(&module);
}
