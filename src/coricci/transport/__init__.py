"""Exact L1 optimal transport with primal plans and dual certificates.

w1 solves one pair in one kernel call and returns its plan and dual.
w1_pairs solves every pair of a curvature scan in one kernel call, with the
plans w1 would return, and returns per-pair costs and plan integrals.  Both
check each pair's certificate.  The kernel (successive shortest paths on
the reduced bipartite problem, whose Dijkstra takes the node of smallest
distance, lowest index first, from a binary heap ordered by (distance, node
index); the reduction of each plan to a forest; the
c-transform dual with its Lipschitz slack and primal-dual gap; and, for the
scan, the integrals over each plan) is a C extension with a pure-Python
fallback of identical arithmetic; selection happens at import time and can
be forced with CORICCI_PURE_PYTHON=1.  The selected kernel, _kernel, also
holds the triangle check that coricci.metric runs on every distance table,
the one-hop certificate its geodesic test tries first, and
lipschitz_vertices, which enumerates the vertices of the 1-Lipschitz
polytope for the exact maxVar of coricci.chain, the same vertices in the
same order in both kernels, and decimal_table, which reads a chain file's
distance table from its decimal strings with float()'s bits for
coricci.chainfile.

w1_cost is a second certified W1, made for full-support measures, which
only curvature.contraction_check uses: a min-cost flow on the 1-skeleton of the
metric (kernel functions skeleton and solve_flow; the Beckmann form of
Kantorovich-Rubinstein duality).  It returns the cost alone, certified by
the flow's conservation error, the potential's Lipschitz slack on the dense
table and the primal-dual gap; no coupling is built.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from ..errors import Infeasible
from ..metric import FiniteMetricSpace
from ._mcf_py import MASS_ATOL, plan_parts

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

MARGINAL_ATOL = 1e-10
LIPSCHITZ_ATOL = 1e-10
GAP_RTOL = 1e-9


@dataclass(frozen=True)
class Distribution:
    """A probability vector over the points of a FiniteMetricSpace."""

    weights: np.ndarray

    def __post_init__(self):
        # A copy, made read-only below: the caller's array stays writeable,
        # and a later write to it cannot change these weights.
        w = np.array(self.weights, dtype=np.float64)
        total = w.sum()
        # A NaN or infinite weight makes the sum non-finite; look for it only then.
        if not math.isfinite(total) and not np.isfinite(w).all():
            k = np.flatnonzero(~np.isfinite(w))[0]
            raise ValueError(f"non-finite weight {float(w[k])!r} at index {k}")
        if np.any(w < 0):
            raise ValueError("negative weight in distribution")
        if abs(total - 1.0) > MASS_ATOL:
            raise ValueError(f"weights sum to {total!r}, not 1")
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


def _check_dual(dual, slack, gap, cost, mu, nu, space) -> None:
    """Raises Infeasible when the kernel's Lipschitz slack exceeds
    LIPSCHITZ_ATOL, naming the witness pair, or when the primal-dual gap
    exceeds GAP_RTOL relative, with the primal and dual values.  dual is a
    zero-argument callable giving the DualPotential, called only to raise."""
    if slack > LIPSCHITZ_ATOL:
        dual().validate(space)  # raises, naming the witness pair
    if gap > GAP_RTOL * max(1.0, abs(cost)):
        raise Infeasible(
            f"primal-dual gap {gap!r} exceeds tolerance "
            f"(primal {cost!r}, dual {dual().objective(mu, nu)!r})"
        )


def w1(mu: Distribution, nu: Distribution, space: FiniteMetricSpace) -> W1Result:
    """Exact W1 distance with an optimal plan and a 1-Lipschitz dual.

    The common mass of mu and nu stays in place (diagonal plan entries);
    only the difference is shipped through the min-cost-flow kernel, in one
    kernel call that also certifies the dual.  Every call asserts a
    1-Lipschitz dual and strong duality to 1e-9 relative.
    """
    if len(mu.weights) != space.n or len(nu.weights) != space.n:
        raise Infeasible("distribution size does not match space")
    src, tgt, mass, cost, union, f, slack, gap = _kernel.solve_pair(
        mu.weights, nu.weights, space.dist)
    dual = DualPotential(tuple(union.tolist()), f)
    _check_dual(lambda: dual, slack, gap, cost, mu, nu, space)
    plan = CouplingPlan(tuple(zip(src.tolist(), tgt.tolist(), mass.tolist())))
    return W1Result(cost, plan, dual)


def w1_cost(mu: Distribution, nu: Distribution, space: FiniteMetricSpace) -> float:
    """Exact W1 as the cheapest flow that ships mu - nu along the edges of
    space.skeleton, each edge costing its length per unit of mass.

    On a shortest-path metric the two agree: a 1-Lipschitz potential on the
    edges is 1-Lipschitz for d, and a flow splits into paths from mu's
    excess to nu's, each no shorter than d between its ends.  So the value
    is certified without a coupling: by the flow's conservation error
    (within MARGINAL_ATOL), by the potential's 1-Lipschitz slack on the
    dense table over the union of the supports (within LIPSCHITZ_ATOL), and
    by the primal-dual gap (within GAP_RTOL relative).  Raises Infeasible
    when one is out of tolerance.  The certificate is against the
    skeleton's path metric: where dist breaks the triangle inequality by up
    to metric.METRIC_ATOL, as space_from_matrix allows, a path of h edges
    can be shorter than d between its ends by up to (h - 1) METRIC_ATOL,
    and the value can sit below w1's by that much per unit of mass.

    The skeleton is computed on the first call for a space.  The gallery
    presets have sparse ones (cube 7: 448 of 8,128 pairs; a birth-death
    chain on n states: n - 1), where this is several times faster than w1;
    on a complete one (Euclidean points) it is slower.
    """
    if len(mu.weights) != space.n or len(nu.weights) != space.n:
        raise Infeasible("distribution size does not match space")
    cost, _flow, f, conservation, slack, gap = _kernel.solve_flow(
        mu.weights, nu.weights, space.dist, *space.skeleton)
    if conservation > MARGINAL_ATOL:
        raise Infeasible(f"flow conservation error {conservation!r} exceeds tolerance")

    def dual():
        union = np.flatnonzero((mu.weights > 0) | (nu.weights > 0))
        return DualPotential(tuple(union.tolist()), f[union])

    _check_dual(dual, slack, gap, cost, mu, nu, space)
    return cost


def w1_pairs(P: np.ndarray, space: FiniteMetricSpace, I, J):
    """W1 between the rows P[I[k]] and P[J[k]] of a kernel matrix, for every k,
    in one kernel call.

    Each pair gets the plan w1 would return.  Returns (cost, plus, minus),
    float arrays over the pairs, where plus and minus integrate the positive
    and negative parts of d(x,y) - d(x',y') over the plan.  Raises Infeasible
    naming the first pair whose dual potential is not 1-Lipschitz on the
    union of supports within LIPSCHITZ_ATOL, or whose primal-dual gap exceeds
    GAP_RTOL relative.
    """
    cost, plus, minus, slack, gap = _kernel.solve_pairs(P, space.dist, I, J)
    bad = np.flatnonzero((slack > LIPSCHITZ_ATOL)
                         | (gap > GAP_RTOL * np.maximum(1.0, np.abs(cost))))
    if bad.size:
        k = bad[0]
        pair = f"({space.points[I[k]]!r}, {space.points[J[k]]!r})"
        if slack[k] > LIPSCHITZ_ATOL:
            raise Infeasible(f"dual potential of pair {pair} not 1-Lipschitz: "
                             f"slack {slack[k]!r}")
        raise Infeasible(f"primal-dual gap {gap[k]!r} of pair {pair} exceeds "
                         f"tolerance (primal {cost[k]!r})")
    return cost, plus, minus
