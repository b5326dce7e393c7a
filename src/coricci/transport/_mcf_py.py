"""Pure-Python successive-shortest-paths kernel for dense transportation.

Fallback used when the C extension coricci.transport._mcf_cy is unavailable
(or forced via CORICCI_PURE_PYTHON=1), and the reference that extension is
tested against.
"""

from __future__ import annotations

import numpy as np

_MASS_EPS = 1e-15


def solve_transport(cost, supply, demand):
    """Minimum-cost transportation on a dense bipartite cost matrix.

    cost: (ns, nt) nonnegative float array.
    supply, demand: positive float vectors with equal sums.

    Returns (src_idx, tgt_idx, mass, u, v): flow triples plus dual
    potentials with u[i] + v[j] <= cost[i, j] and equality on flow edges.
    Deterministic: Dijkstra ties break on lowest node index.
    Raises ValueError when supply or demand does not fit the cost matrix.
    """
    cost = np.asarray(cost, dtype=np.float64)
    a = np.array(supply, dtype=np.float64)
    b = np.array(demand, dtype=np.float64)
    ns, nt = cost.shape
    if a.shape != (ns,) or b.shape != (nt,):
        raise ValueError(
            f"supply and demand have {a.size} and {b.size} entries for a "
            f"{ns} x {nt} cost matrix"
        )
    nv = ns + nt
    pot = np.zeros(nv)
    flow = np.zeros((ns, nt))

    total = a.sum()
    remaining = total
    while remaining > _MASS_EPS * max(1.0, total):
        dist = np.full(nv, np.inf)
        parent = np.full(nv, -1, dtype=np.int64)
        done = np.zeros(nv, dtype=bool)
        dist[:ns][a > _MASS_EPS] = 0.0
        target = -1
        while True:
            u = -1
            best = np.inf
            for v in range(nv):
                if not done[v] and dist[v] < best:
                    best = dist[v]
                    u = v
            if u < 0:
                break
            done[u] = True
            if u >= ns and b[u - ns] > _MASS_EPS:
                target = u
                break
            if u < ns:
                rc = cost[u] + pot[u] - pot[ns:]
                np.maximum(rc, 0.0, out=rc)
                nd = dist[u] + rc
                for j in range(nt):
                    v = ns + j
                    if not done[v] and nd[j] < dist[v]:
                        dist[v] = nd[j]
                        parent[v] = u
            else:
                j = u - ns
                rc = pot[u] - pot[:ns] - cost[:, j]
                np.maximum(rc, 0.0, out=rc)
                nd = dist[u] + rc
                for i in range(ns):
                    if flow[i, j] > _MASS_EPS and not done[i] and nd[i] < dist[i]:
                        dist[i] = nd[i]
                        parent[i] = u
        if target < 0:
            raise RuntimeError("transportation problem infeasible")
        dt = dist[target]
        for v in range(nv):
            pot[v] += min(dist[v], dt)
        # Trace the augmenting path and find the bottleneck.
        path = []
        v = target
        while parent[v] >= 0:
            path.append((parent[v], v))
            v = parent[v]
        root = v
        eps = min(a[root], b[target - ns])
        for u, w in path:
            if u >= ns:  # backward edge sink -> source
                eps = min(eps, flow[w, u - ns])
        for u, w in path:
            if u < ns:
                flow[u, w - ns] += eps
            else:
                flow[w, u - ns] -= eps
        a[root] -= eps
        b[target - ns] -= eps
        remaining -= eps

    # Reduced-cost invariant: cost[i, j] + pot[i] - pot[ns + j] >= 0 with
    # equality on flow edges, so (u, v) = (-pot_src, pot_snk) is dual feasible.
    src, tgt = np.nonzero(flow > _MASS_EPS)
    return src, tgt, flow[src, tgt], -pot[:ns].copy(), pot[ns:].copy()
