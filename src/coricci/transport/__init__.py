"""Exact L1 optimal transport with primal plans and dual certificates.

The hot kernel (successive shortest paths on the reduced bipartite problem)
is a C extension with a pure-Python fallback; selection happens at import
time and can be forced with CORICCI_PURE_PYTHON=1.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from ..errors import Infeasible
from ..metric import FiniteMetricSpace

if os.environ.get("CORICCI_PURE_PYTHON"):
    from . import _mcf_py as _kernel

    BACKEND = "python"
else:
    try:
        from . import _mcf_cy as _kernel

        BACKEND = "c"
    except ImportError:
        from . import _mcf_py as _kernel

        BACKEND = "python"

MASS_ATOL = 1e-12
MARGINAL_ATOL = 1e-10
LIPSCHITZ_ATOL = 1e-10
GAP_RTOL = 1e-9


@dataclass(frozen=True)
class Distribution:
    """A probability vector over the points of a FiniteMetricSpace."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if np.any(w < 0):
            raise ValueError("negative weight in distribution")
        if abs(w.sum() - 1.0) > MASS_ATOL:
            raise ValueError(f"weights sum to {w.sum()!r}, not 1")
        object.__setattr__(self, "weights", w)
        w.setflags(write=False)

    @classmethod
    def dirac(cls, space: FiniteMetricSpace, point) -> "Distribution":
        w = np.zeros(space.n)
        w[space.index(point)] = 1.0
        return cls(w)

    def support(self) -> np.ndarray:
        return np.nonzero(self.weights > 0)[0]

    def mean(self, f: np.ndarray) -> float:
        return float(self.weights @ np.asarray(f))

    def variance(self, f: np.ndarray) -> float:
        f = np.asarray(f, dtype=np.float64)
        m = self.weights @ f
        return float(self.weights @ (f - m) ** 2)


@dataclass(frozen=True)
class CouplingPlan:
    """Sparse transport plan: (source index, target index, mass) triples."""

    entries: tuple

    def cost(self, space: FiniteMetricSpace) -> float:
        return float(sum(m * space.dist[i, j] for i, j, m in self.entries))

    def validate(self, mu: Distribution, nu: Distribution, space: FiniteMetricSpace) -> None:
        row = np.zeros(space.n)
        col = np.zeros(space.n)
        for i, j, m in self.entries:
            if m < 0:
                raise Infeasible("negative mass in coupling plan")
            row[i] += m
            col[j] += m
        if np.max(np.abs(row - mu.weights)) > MARGINAL_ATOL:
            raise Infeasible("row marginals do not match mu")
        if np.max(np.abs(col - nu.weights)) > MARGINAL_ATOL:
            raise Infeasible("column marginals do not match nu")
        cap = len(mu.support()) + len(nu.support()) - 1
        if len(self.entries) > max(cap, 1):
            raise Infeasible(f"plan support {len(self.entries)} exceeds tree bound {cap}")


@dataclass(frozen=True)
class DualPotential:
    """1-Lipschitz Kantorovich potential on the union of supports."""

    indices: tuple  # point indices the potential is defined on
    values: np.ndarray

    def objective(self, mu: Distribution, nu: Distribution) -> float:
        diff = mu.weights - nu.weights
        return float(sum(self.values[k] * diff[i] for k, i in enumerate(self.indices)))

    def validate(self, space: FiniteMetricSpace) -> None:
        idx = np.array(self.indices, dtype=np.intp)
        f = self.values
        d = space.dist[np.ix_(idx, idx)]
        gap = np.abs(f[:, None] - f[None, :]) - d
        if gap.size and gap.max() > LIPSCHITZ_ATOL:
            a, b = np.unravel_index(np.argmax(gap), gap.shape)
            raise Infeasible(
                f"dual potential not 1-Lipschitz at pair ({idx[a]}, {idx[b]})"
            )


@dataclass(frozen=True)
class W1Result:
    cost: float
    plan: CouplingPlan
    dual: DualPotential


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


def w1(mu: Distribution, nu: Distribution, space: FiniteMetricSpace) -> W1Result:
    """Exact W1 distance with an optimal plan and a 1-Lipschitz dual.

    The common mass of mu and nu stays in place (diagonal plan entries);
    only the difference is shipped through the min-cost-flow kernel.
    Every call asserts strong duality to 1e-9 relative.
    """
    if len(mu.weights) != space.n or len(nu.weights) != space.n:
        raise Infeasible("distribution size does not match space")
    diff = mu.weights - nu.weights
    common = np.minimum(mu.weights, nu.weights)
    pos = np.nonzero(diff > MASS_ATOL)[0]
    neg = np.nonzero(diff < -MASS_ATOL)[0]
    union = np.nonzero((mu.weights > 0) | (nu.weights > 0))[0]

    diag = [(int(i), int(i), float(common[i])) for i in np.nonzero(common > 0)[0]]

    if len(pos) == 0 or len(neg) == 0:
        plan = CouplingPlan(tuple(diag))
        dual = DualPotential(tuple(int(i) for i in union), np.zeros(len(union)))
        return W1Result(0.0, plan, dual)

    supply = diff[pos]
    demand = -diff[neg]
    # Marginal totals can differ at rounding level; rescale the smaller side.
    scale = supply.sum() / demand.sum()
    demand = demand * scale
    cost_matrix = space.dist[np.ix_(pos, neg)]
    src, tgt, mass, _u, v = _kernel.solve_transport(cost_matrix, supply, demand)

    moved = [(int(pos[i]), int(neg[j]), float(m)) for i, j, m in zip(src, tgt, mass)]
    moved = [(i, j, m) for (i, j), m in _cancel_cycles(moved)]
    cost = float(sum(m * space.dist[i, j] for i, j, m in moved))

    # Kantorovich potential: c-transform of the sink duals, 1-Lipschitz on
    # all of X as a minimum of 1-Lipschitz functions.
    f_all = np.min(space.dist[:, neg] - v[None, :], axis=1)
    dual = DualPotential(tuple(int(i) for i in union), f_all[union])
    dual.validate(space)
    dual_obj = float(f_all @ diff)
    if abs(dual_obj - cost) > GAP_RTOL * max(1.0, abs(cost)):
        raise Infeasible(
            f"primal-dual gap {abs(dual_obj - cost)!r} exceeds tolerance "
            f"(primal {cost!r}, dual {dual_obj!r})"
        )

    plan = CouplingPlan(tuple(diag + moved))
    return W1Result(cost, plan, dual)
