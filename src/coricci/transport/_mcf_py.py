"""Pure-Python transport kernel: successive shortest paths for dense
transportation, the reduction of a plan to a forest, the single-pair solve
and batched pair scan built on both, the triangle check that
coricci.metric runs on every distance table, its one-hop geodesic
certificate, the enumeration of the
vertices of the 1-Lipschitz polytope behind coricci.chain's exact maxVar,
W1 as a min-cost flow on the 1-skeleton of a metric (skeleton and
solve_flow), and decimal_table, the distance table of a chain file's
decimal strings.

Fallback used when the C extension coricci.transport._mcf_cy is unavailable
(or forced via CORICCI_PURE_PYTHON=1), and the reference that extension is
tested against: both do the same arithmetic in the same order.  Each
Dijkstra step here scans for the node of smallest distance, lowest index
first; the C kernel pops the same node from a binary heap ordered by
(distance, node index).
"""

from __future__ import annotations

import heapq
import math

import numpy as np

# The kernel interface: what the C extension exports, function for function.
__all__ = [
    "solve_transport", "solve_pair", "solve_pairs", "triangle_violation",
    "geodesic_certificate", "lipschitz_vertices", "skeleton", "solve_flow",
    "decimal_table",
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


def _pair_arrays(mu, nu, dist):
    """mu, nu and dist as float arrays; raises ValueError unless mu and nu
    are vectors of n entries and dist is n x n."""
    mu = np.asarray(mu, dtype=np.float64)
    nu = np.asarray(nu, dtype=np.float64)
    dist = np.asarray(dist, dtype=np.float64)
    if mu.ndim != 1 or nu.shape != mu.shape or dist.shape != mu.shape * 2:
        raise ValueError(
            f"mu and nu have {mu.size} and {nu.size} entries for a "
            f"{dist.shape[0]} x {dist.shape[-1]} distance matrix"
        )
    return mu, nu, dist


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
    mu, nu, dist = _pair_arrays(mu, nu, dist)
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


def _edge_arrays(indptr, indices, n):
    """The edges of an (indptr, indices) graph as tail and head index arrays;
    raises ValueError unless indptr has n + 1 entries rising from 0 to
    len(indices) and each point's heads are ascending points after it."""
    indptr = np.asarray(indptr, dtype=np.intp)
    indices = np.asarray(indices, dtype=np.intp)
    m = indices.size
    if (indptr.shape != (n + 1,) or indices.ndim != 1 or indptr[0] != 0
            or indptr[-1] != m or np.any(indptr[1:] < indptr[:-1])):
        raise ValueError(f"indptr does not list {m} edges on {n} points")
    tail = np.repeat(np.arange(n, dtype=np.intp), np.diff(indptr))
    bad = (indices <= tail) | (indices >= n)
    bad[1:] |= (tail[1:] == tail[:-1]) & (indices[1:] <= indices[:-1])
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"edge {k} ({tail[k]}, {indices[k]}) is out of order "
                         f"or not above the diagonal")
    return tail, indices


def solve_flow(mu, nu, dist, indptr, indices):
    """Certified W1 between the probability vectors mu and nu as a min-cost
    flow on a graph, the 1-skeleton of dist as skeleton returns it.

    The graph's edges are (u, indices[s]) for s in indptr[u]:indptr[u + 1],
    each of length dist[u, indices[s]], listed in that order; each point's
    neighbours ascend.  The problem is reduced as pair_plan reduces it: the
    points where mu - nu > MASS_ATOL supply it, those where it is below
    -MASS_ATOL demand its negative, rescaled so the totals match, and every
    point passes flow on.  Each edge keeps one signed net flow, positive
    from u to v; moving mass against it cancels flow at cost -length, up to
    the flow there, and any other move costs +length.

    Successive shortest paths with potentials, stopped as solve_transport
    stops: each phase runs one Dijkstra on the reduced costs from every
    point with supply left, to exhaustion, taking the point of smallest
    distance, lowest index first, and relaxing each point's edges in
    order.  The potentials then grow by the distances, so every arc of the
    shortest-path tree has reduced cost zero, and each point with demand
    left, in index order, is served along its tree path, by as much as the
    path's root, the demand and the cancelling arcs on the path allow.  A
    path is skipped when its root has no supply left, or when a cancelling
    arc on it was used up by an earlier path of the phase.  A phase that
    reaches no point with demand left ends the solve.

    Returns (cost, flow, f, conservation, slack, gap): the flow's cost
    sum |flow_e| length_e, summed in edge order; the flow per edge; the
    potential f = -pot on every point; the largest |div flow - (mu - nu)|
    over the points; the worst slack |f(a) - f(b)| - d(a, b) over the union
    of the supports; and the primal-dual gap |<f, mu - nu> - cost|.
    Raises ValueError when the arrays do not fit.
    """
    mu, nu, dist = _pair_arrays(mu, nu, dist)
    n = mu.size
    tail, head = _edge_arrays(indptr, indices, n)
    tail, head = tail.tolist(), head.tolist()
    length = dist[tail, head].tolist()
    # (neighbour, edge, whether the edge points from here to it), in edge
    # order, which lists each point's neighbours in ascending order.
    adj = [[] for _ in range(n)]
    for e, (u, v) in enumerate(zip(tail, head)):
        adj[u].append((v, e, True))
        adj[v].append((u, e, False))

    diff = mu - nu
    pos = np.nonzero(diff > MASS_ATOL)[0]
    neg = np.nonzero(diff < -MASS_ATOL)[0]
    g = [0.0] * len(tail)
    pot = [0.0] * n
    if len(pos) and len(neg):
        supply = diff[pos]
        demand = -diff[neg]
        # Marginal totals can differ at rounding level; rescale the demand.
        demand = demand * (supply.sum() / demand.sum())
        exc = [0.0] * n
        need = [0.0] * n
        for i, a in zip(pos.tolist(), supply.tolist()):
            exc[i] = a
        for j, b in zip(neg.tolist(), demand.tolist()):
            need[j] = b
        _transship(adj, length, exc, need, float(supply.sum()), g, pot)

    cost = 0.0
    for ge, le in zip(g, length):
        cost += abs(ge) * le
    div = [0.0] * n
    for u, v, ge in zip(tail, head, g):
        div[u] += ge
        div[v] -= ge
    conservation = 0.0
    for dx, x in zip(div, diff.tolist()):
        err = abs(dx - x)
        if err > conservation:
            conservation = err
    f = np.array([-p for p in pot])
    union = np.nonzero((mu > 0) | (nu > 0))[0]
    obj = 0.0
    for term in (f[union] * diff[union]).tolist():
        obj += term
    return (cost, np.array(g, dtype=np.float64), f, conservation,
            *_certificate(dist, union, f[union], cost, obj))


def _transship(adj, length, exc, need, total, g, pot):
    """The phases of solve_flow, updating the flows g and potentials pot in
    place; exc and need hold each point's supply and demand left."""
    n = len(adj)
    inf = math.inf
    remaining = total
    while remaining > _MASS_EPS * max(1.0, total):
        dist = [inf] * n
        parent = [-1] * n
        arc = [None] * n  # (edge, forward along the edge, cancels) into each point
        done = [False] * n
        heap = [(0.0, x) for x in range(n) if exc[x] > _MASS_EPS]
        for _zero, x in heap:
            dist[x] = 0.0
        while heap:
            du, u = heapq.heappop(heap)
            if done[u]:
                continue
            done[u] = True
            pu = pot[u]
            for v, e, forward in adj[u]:
                if done[v]:
                    continue
                # Flow against u -> v, above the threshold, is cancelled first.
                cancel = (g[e] if forward else -g[e]) < -_MASS_EPS
                rc = (-length[e] if cancel else length[e]) + pu - pot[v]
                if rc < 0.0:
                    rc = 0.0
                nd = du + rc
                if nd < dist[v]:
                    dist[v] = nd
                    parent[v] = u
                    arc[v] = (e, forward, cancel)
                    heapq.heappush(heap, (nd, v))
        if not any(need[t] > _MASS_EPS and dist[t] < inf for t in range(n)):
            break
        for x in range(n):
            if dist[x] < inf:
                pot[x] += dist[x]
        for t in range(n):
            if need[t] <= _MASS_EPS or dist[t] == inf:
                continue
            eps = need[t]
            v = t
            while parent[v] >= 0:
                e, forward, cancel = arc[v]
                if cancel:
                    cap = -g[e] if forward else g[e]
                    if cap <= _MASS_EPS:
                        break
                    if cap < eps:
                        eps = cap
                v = parent[v]
            if parent[v] >= 0 or exc[v] <= _MASS_EPS:
                continue  # a cancelling arc is used up, or the root is empty
            root = v
            if exc[root] < eps:
                eps = exc[root]
            v = t
            while parent[v] >= 0:
                e, forward, _cancel = arc[v]
                if forward:
                    g[e] += eps
                else:
                    g[e] -= eps
                v = parent[v]
            exc[root] -= eps
            need[t] -= eps
            remaining -= eps


def skeleton(dist):
    """The 1-skeleton of the (n, n) distance table dist: the pairs u < v with
    no third point k such that d(u, k) + d(k, v) <= d(u, v), compared
    exactly, with d(u, k) < d(u, v) and d(k, v) < d(u, v).

    The strict comparisons leave out k = u and k = v, and keep the skeleton
    connected where d(u, k) + d(k, v) rounds to d(u, v) because one term is
    below its last digit.  On a metric whose sums are exact (integer or
    dyadic distances), the shortest-path metric of the skeleton is dist.
    Returns (indptr, indices): the edges u < v as the strict upper triangle
    of the adjacency in CSR form, each row's points ascending.
    Raises ValueError when dist is not square.
    """
    dist = np.asarray(dist, dtype=np.float64)
    n = dist.shape[0]
    if dist.ndim != 2 or dist.shape[1] != n:
        raise ValueError(f"distance table is {n} x {dist.shape[-1]}, not square")
    rows = []
    for u in range(n):
        du = dist[u]
        # between[k, v]: k lies between u and v.
        between = (du[:, None] + dist <= du) & (du[:, None] < du) & (dist < du)
        rows.append(u + 1 + np.flatnonzero(~between[:, u + 1:].any(axis=0)))
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum([len(r) for r in rows], out=indptr[1:])
    indices = np.concatenate(rows).astype(np.intp) if rows else np.zeros(0, np.intp)
    return indptr, indices


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


def geodesic_certificate(dist, hop_limit):
    """Whether every ordered pair s != t of the (n, n) table dist is joined
    by an edge of the hop graph, or has an edge s-k that starts a shortest
    path to t: dist[k, t] < dist[s, t] and w(s, k) + dist[k, t] <= dist[s, t],
    compared exactly.

    The hops are the entries at most hop_limit; s-k is an edge of weight
    w(s, k), the smaller of the hops among dist[s, k] and dist[k, s], when
    that is positive and finite.  Returns False, for the caller's exact
    search to decide, when some pair fails or some hop is negative.
    Raises ValueError when dist is not square.
    """
    dist = np.asarray(dist, dtype=np.float64)
    n = dist.shape[0]
    if dist.ndim != 2 or dist.shape[1] != n:
        raise ValueError(f"distance table is {n} x {dist.shape[-1]}, not square")
    hop = np.where(dist <= hop_limit, dist, np.inf)
    w = np.minimum(hop, hop.T)
    np.fill_diagonal(w, np.inf)
    if np.any(w < 0):
        return False
    edge = (w > 0) & np.isfinite(w)
    for s in range(n):
        k = np.flatnonzero(edge[s])
        dk, ds = dist[k], dist[s]
        ahead = (dk < ds) & (w[s, k][:, None] + dk <= ds)
        reached = edge[s] | ahead.any(axis=0)
        reached[s] = True
        if not reached.all():
            return False
    return True


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


def decimal_table(rows):
    """The n x n float64 table of rows, a list of n >= 1 lists of n ASCII
    str, each entry parsed whole as float(str) parses it; None for any other
    list of rows.  The C kernel parses each string to its end with
    PyOS_string_to_double, the parser float() calls once it has stripped
    whitespace, dropped underscores and mapped non-ASCII digits, so a string
    that needs one of those steps gives None here too, as do a number, an
    empty string and a string float() cannot read.  Raises TypeError when
    rows is not a list."""
    if type(rows) is not list:
        raise TypeError(f"decimal_table takes a list, not {type(rows).__name__}")
    n = len(rows)
    if n == 0 or not all(type(row) is list and len(row) == n for row in rows):
        return None
    table = np.empty((n, n))
    for i, row in enumerate(rows):
        for j, s in enumerate(row):
            if (type(s) is not str or not s.isascii() or "_" in s
                    or s[:1].isspace() or s[-1:].isspace()):
                return None
            try:
                table[i, j] = float(s)
            except ValueError:
                return None
    return table
