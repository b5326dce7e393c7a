"""Pure-Python transport kernel: successive shortest paths for dense
transportation, the reduction of a plan to a forest, the single-pair solve
and batched pair scan built on both, the triangle check that
coricci.metric runs on every distance table, and the enumeration of the
vertices of the 1-Lipschitz polytope behind coricci.chain's exact maxVar.

Fallback used when the C extension coricci.transport._mcf_cy is unavailable
(or forced via CORICCI_PURE_PYTHON=1), and the reference that extension is
tested against: both do the same arithmetic in the same order.  Each
Dijkstra step here scans for the node of smallest distance, lowest index
first; the C kernel pops the same node from a binary heap ordered by
(distance, node index).
"""

from __future__ import annotations

import numpy as np

# The kernel interface: what the C extension exports, function for function.
__all__ = [
    "solve_transport", "solve_pair", "solve_pairs", "triangle_violation",
    "lipschitz_vertices",
]

_MASS_EPS = 1e-15
MASS_ATOL = 1e-12  # mass at or below this is dropped from plans and marginals
MAX_VERTEX_POINTS = 63  # the C kernel keeps the assigned points in a 64-bit mask


def solve_transport(cost, supply, demand):
    """Minimum-cost transportation on a dense bipartite cost matrix.

    cost: (ns, nt) nonnegative float array.
    supply, demand: positive float vectors with equal sums.

    Returns (src_idx, tgt_idx, mass, u, v): flow triples plus dual
    potentials with u[i] + v[j] <= cost[i, j] and equality on flow edges.
    Deterministic: Dijkstra ties break on lowest node index.  Stops when the
    supply left falls to 1e-15 * max(1, total), or when every sink's demand
    left is at most 1e-15.
    Raises ValueError when supply or demand does not fit the cost matrix, and
    RuntimeError when a sink with demand left cannot be reached.
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
            # No sink with demand left is reachable.  When every sink is
            # served, the supply left is the rounding that the augmentations
            # collected, and the plan is complete.
            if np.any(b > _MASS_EPS):
                raise RuntimeError("transportation problem infeasible")
            break
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


def _cancel_cycles(entries):
    """Reduce a bipartite flow to a forest (tree solution) at equal cost.

    Every support edge of an optimal flow is complementary-slackness tight
    (c_ij = pi_j - pi_i), so the alternating cost around any support cycle
    telescopes to zero: shifting mass around a cycle keeps the cost and the
    marginals, and pushing until some edge empties removes it.  Inserting
    edges one at a time into a forest, each insertion closes at most one
    cycle, which is cancelled immediately.
    """
    flows = {}
    for i, j, m in entries:
        flows[(i, j)] = flows.get((i, j), 0.0) + m
    adj = {}  # forest adjacency: node -> list of (neighbor, edge)

    def drop(e):
        del flows[e]
        for node in (("s", e[0]), ("t", e[1])):
            adj[node] = [(n, ed) for n, ed in adj[node] if ed != e]

    def find_path(start, goal):
        # Forest path from start to goal as an ordered edge list, or None.
        prev = {start: None}
        queue = [start]
        while queue:
            node = queue.pop(0)
            if node == goal:
                break
            for nxt, edge in adj.get(node, []):
                if nxt not in prev:
                    prev[nxt] = (node, edge)
                    queue.append(nxt)
        if goal not in prev:
            return None
        path = []
        node = goal
        while prev[node] is not None:
            node, edge = prev[node]
            path.append(edge)
        path.reverse()
        return path

    for (i, j), m in sorted(flows.items()):
        del flows[(i, j)]
        src, tgt = ("s", i), ("t", j)
        while m > MASS_ATOL:
            path = find_path(src, tgt)
            if path is None:
                break
            # Decrease (i, j) by eps; the path edges alternate +eps, -eps
            # starting (and ending) with + to keep every marginal fixed.
            minus = path[1::2]
            eps = min([m] + [flows[e] for e in minus])
            dead = []
            for k, e in enumerate(path):
                flows[e] += eps if k % 2 == 0 else -eps
                if flows[e] <= MASS_ATOL:
                    dead.append(e)
            m -= eps
            for e in dead:
                drop(e)
        if m > MASS_ATOL:
            flows[(i, j)] = m
            adj.setdefault(src, []).append((tgt, (i, j)))
            adj.setdefault(tgt, []).append((src, (i, j)))
    return sorted(flows.items())


def pair_plan(mu, nu, dist):
    """The plan and dual transport.w1 returns between the probability
    vectors mu and nu.

    The common mass stays in place; the difference is shipped by
    solve_transport and the plan is reduced to a forest by _cancel_cycles.
    Returns (entries, cost, union, f, obj): the plan as (i, j, mass) with the
    diagonal entries first and the forest after, in sorted order; its cost;
    the union of the two supports; the dual potential f on it, the
    c-transform of the sink duals (zero when no mass moves); and the dual
    objective <f, mu - nu>.
    Every sum runs in the order the C kernel's solve_pair uses.
    """
    diff = mu - nu
    common = np.minimum(mu, nu)
    pos = np.nonzero(diff > MASS_ATOL)[0]
    neg = np.nonzero(diff < -MASS_ATOL)[0]
    union = np.nonzero((mu > 0) | (nu > 0))[0]
    entries = [(int(i), int(i), float(common[i])) for i in np.nonzero(common > 0)[0]]
    if len(pos) == 0 or len(neg) == 0:
        return entries, 0.0, union, np.zeros(len(union)), 0.0
    supply = diff[pos]
    demand = -diff[neg]
    # Marginal totals can differ at rounding level; rescale the demand.
    demand = demand * (supply.sum() / demand.sum())
    src, tgt, mass, _u, v = solve_transport(dist[np.ix_(pos, neg)], supply, demand)
    moved = [(int(pos[i]), int(neg[j]), float(m)) for i, j, m in zip(src, tgt, mass)]
    cost = 0.0
    for (i, j), m in _cancel_cycles(moved):
        cost += m * float(dist[i, j])
        entries.append((i, j, m))
    # Kantorovich potential: c-transform of the sink duals, 1-Lipschitz on
    # all of X as a minimum of 1-Lipschitz functions.
    f = np.min(dist[np.ix_(union, neg)] - v[None, :], axis=1)
    obj = 0.0
    for term in (f * diff[union]).tolist():
        obj += term
    return entries, cost, union, f, obj


def plan_parts(entries, dist, dxy):
    """The integrals of (dxy - d(x',y'))_+ and (dxy - d(x',y'))_- over the
    plan entries (x', y', mass), summed in the order given."""
    plus = minus = 0.0
    for a, b, m in entries:
        change = dxy - dist[a, b]
        if change > 0:
            plus += m * change
        else:
            minus -= m * change
    return plus, minus


def _certificate(dist, union, f, cost, obj):
    """(slack, gap): the worst |f(a) - f(b)| - d(a, b) over the union of the
    supports, and the primal-dual gap |obj - cost|."""
    slack = np.abs(f[:, None] - f[None, :]) - dist[np.ix_(union, union)]
    return float(slack.max(initial=-np.inf)), abs(obj - cost)


def solve_pair(mu, nu, dist):
    """Certified W1 between the probability vectors mu and nu over the
    (n, n) distance matrix dist: the plan and dual of pair_plan.

    Returns (src, tgt, mass, cost, union, f, slack, gap): the plan as
    index, index and mass arrays (diagonal entries first, then the forest in
    sorted order); its cost; the union of the two supports; the dual
    potential f on it; the worst slack |f(a) - f(b)| - d(a,b) over the
    union; and the primal-dual gap |<f, mu - nu> - cost|.
    Raises ValueError when mu, nu and dist do not fit.
    """
    mu = np.asarray(mu, dtype=np.float64)
    nu = np.asarray(nu, dtype=np.float64)
    dist = np.asarray(dist, dtype=np.float64)
    if mu.ndim != 1 or nu.shape != mu.shape or dist.shape != mu.shape * 2:
        raise ValueError(
            f"mu and nu have {mu.size} and {nu.size} entries for a "
            f"{dist.shape[0]} x {dist.shape[-1]} distance matrix"
        )
    entries, cost, union, f, obj = pair_plan(mu, nu, dist)
    src = np.array([i for i, _j, _m in entries], dtype=np.intp)
    tgt = np.array([j for _i, j, _m in entries], dtype=np.intp)
    mass = np.array([m for _i, _j, m in entries], dtype=np.float64)
    return (src, tgt, mass, cost, union, f, *_certificate(dist, union, f, cost, obj))


def solve_pairs(P, dist, I, J):
    """Certified W1 between the rows P[I[k]] and P[J[k]], for every k.

    P: (rows, n) probability rows; dist: (n, n) distance matrix; I, J:
    integer arrays of equal length.  Each pair gets the plan and dual of
    pair_plan, which transport.w1 returns.

    Returns five float arrays over the pairs: the cost W1; the integrals of
    (d(x,y) - d(x',y'))_+ and (d(x,y) - d(x',y'))_- over the plan (diagonal
    entries first, then the forest in sorted order), with (x, y) the pair;
    the worst slack |f(a) - f(b)| - d(a,b) of the dual potential f on the
    union of the two supports; and the primal-dual gap |<f, mu - nu> - cost|.
    Raises ValueError when the shapes or indices do not fit.
    """
    P = np.asarray(P, dtype=np.float64)
    dist = np.asarray(dist, dtype=np.float64)
    I = np.asarray(I, dtype=np.intp)
    J = np.asarray(J, dtype=np.intp)
    n = dist.shape[0]
    if dist.shape != (n, n) or P.ndim != 2 or P.shape[1] != n:
        raise ValueError(
            f"rows of {P.shape[-1]} points for a {n} x {dist.shape[-1]} distance matrix"
        )
    if I.shape != J.shape or I.ndim != 1:
        raise ValueError(f"I and J have {I.size} and {J.size} entries")
    for k, (x, y) in enumerate(zip(I.tolist(), J.tolist())):
        if not (0 <= x < len(P) and 0 <= y < len(P)):
            raise ValueError(
                f"pair {k}: row index ({x}, {y}) out of range for {len(P)} rows"
            )
    out = np.zeros((5, len(I)))
    for k, (x, y) in enumerate(zip(I.tolist(), J.tolist())):
        entries, cost, union, f, obj = pair_plan(P[x], P[y], dist)
        out[:, k] = (cost, *plan_parts(entries, dist, dist[x, y]),
                     *_certificate(dist, union, f, cost, obj))
    return tuple(out)


def triangle_violation(dist, atol):
    """The first point k through which the triangle inequality fails by more
    than atol, d(i, j) - (d(i, k) + d(k, j)) > atol for some (i, j), as
    (k, i, j), where (i, j) is the first pair in row-major order at which
    that slack is largest; None when there is no such k.

    dist: a finite (n, n) float array.  One intermediate point at a time, in
    one buffer, to bound memory.
    Raises ValueError when dist is not square.
    """
    dist = np.asarray(dist, dtype=np.float64)
    n = dist.shape[0]
    if dist.ndim != 2 or dist.shape[1] != n:
        raise ValueError(f"distance table is {n} x {dist.shape[-1]}, not square")
    slack = np.empty_like(dist)
    for k in range(n):
        np.add.outer(dist[:, k], dist[k, :], out=slack)
        np.subtract(dist, slack, out=slack)
        if slack.max() > atol:
            i, j = np.unravel_index(np.argmax(slack), slack.shape)
            return k, int(i), int(j)
    return None


def lipschitz_vertices(dist):
    """All vertex functions of {f : |f(a)-f(b)| <= d(a,b), f(0) = 0}, as the
    rows of one (m, n) float array.

    At a vertex, the graph of tight constraints f(b) - f(a) = +-d(a,b) spans
    the points.  Grow assignments one tight edge at a time from f(0) = 0,
    in every feasible order, memoizing on the set of assigned values.  The
    rows are the full assignments in the order they leave the stack, with
    those equal after rounding to 12 decimals kept only the first time.

    dist: a finite (n, n) float array, n <= MAX_VERTEX_POINTS.
    Raises ValueError when dist is not square or has too many points.
    """
    dist = np.asarray(dist, dtype=np.float64)
    n = dist.shape[0]
    if dist.ndim != 2 or dist.shape[1] != n:
        raise ValueError(f"distance table is {n} x {dist.shape[-1]}, not square")
    if n > MAX_VERTEX_POINTS:
        raise ValueError(
            f"lipschitz_vertices takes at most {MAX_VERTEX_POINTS} points, not {n}"
        )
    start = ((0, 0.0),)
    seen = {start}
    stack = [dict(start)]
    vertices = []
    while stack:
        assign = stack.pop()
        if len(assign) == n:
            vertices.append(assign)
            continue
        for a, fa in assign.items():
            for b in range(n):
                if b in assign:
                    continue
                for fb in (fa + dist[a, b], fa - dist[a, b]):
                    ok = all(
                        abs(fb - fc) <= dist[b, c] + 1e-12
                        for c, fc in assign.items()
                    )
                    if not ok:
                        continue
                    new = dict(assign)
                    new[b] = fb
                    key = tuple(sorted(new.items()))
                    if key not in seen:
                        seen.add(key)
                        stack.append(new)
    out = []
    dedup = set()
    for assign in vertices:
        f = np.array([assign[i] for i in range(n)])
        key = tuple(np.round(f, 12))
        if key not in dedup:
            dedup.add(key)
            out.append(f)
    return np.array(out, dtype=np.float64).reshape(len(out), n)
