"""Coarse Ricci curvature: pointwise kappa, the kappa+/kappa- decomposition
and unstability, global scans with geodesic reduction, kappa up to delta,
and direct contraction checks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import Chain, push_forward
from .errors import NoPairs, NotGeodesic, SamePoint
from .metric import is_epsilon_geodesic, is_hop
from .transport import Distribution, plan_parts, w1, w1_pairs

KAPPA_ATOL = 1e-9


@dataclass(frozen=True)
class PairCurvature:
    x: object
    y: object
    kappa: float
    kappa_plus: float
    kappa_minus: float
    U: float | None  # None when kappa <= 0 (unstability undefined)


@dataclass(frozen=True)
class CurvatureReport:
    pairs: tuple
    global_kappa: float
    mode: str  # "all-pairs" | "geodesic(eps)"
    delta: float


def _pair_w1(chain: Chain, x, y):
    """Indices of x and y and the certified W1 between their rows."""
    space = chain.space
    i, j = space.index(x), space.index(y)
    if i == j:
        raise SamePoint(f"curvature in the direction ({x!r}, {x!r}) is undefined")
    dense = chain.dense()
    return i, j, w1(Distribution(dense[i]), Distribution(dense[j]), space)


def _curvature_parts(plus, minus, dxy):
    """(kappa+, kappa-, U) from the plan integrals of the positive and
    negative parts of d(x,y) - d(x',y'): each divided by d(x,y), and
    U = kappa-/kappa (None when kappa <= 0)."""
    k_plus, k_minus = plus / dxy, minus / dxy
    k = k_plus - k_minus
    return k_plus, k_minus, (k_minus / k if k > 0 else None)


def _coupling_parts(plan, dist, i, j):
    """(kappa+, kappa-, U) at the pair (i, j) over a CouplingPlan."""
    dxy = dist[i, j]
    return _curvature_parts(*plan_parts(plan.entries, dist, dxy), dxy)


def kappa(chain: Chain, x, y, delta: float = 0.0) -> float:
    """kappa(x,y) = 1 - T1(m_x, m_y)/d(x,y); delta > 0 gives the Def.-48
    curvature up to delta, 1 - (T1 - delta)_+ / d."""
    if delta < 0:
        raise ValueError("delta must be >= 0")
    i, j, res = _pair_w1(chain, x, y)
    return 1.0 - max(res.cost - delta, 0.0) / chain.space.dist[i, j]


def kappa_decomposition(chain: Chain, x, y):
    """(kappa+, kappa-, U) over the canonical optimal coupling.

    Integrates the positive and negative parts of d(x,y) - d(x', y') over
    the plan returned by the transport solver (the canonical plan; optimal
    plans are not unique in general).  U = kappa-/kappa, undefined (None)
    when kappa <= 0.
    """
    i, j, res = _pair_w1(chain, x, y)
    return _coupling_parts(res.plan, chain.space.dist, i, j)


def kappa_global(chain: Chain, mode="all-pairs", eps=None,
                 delta: float = 0.0) -> CurvatureReport:
    """Scan unordered pairs; geodesic mode restricts to the hops d(x,y) <= eps
    (the predicate is_epsilon_geodesic uses), which lower-bounds kappa over
    all pairs by the eps-geodesic reduction.  Every pair is solved and
    certified in one kernel call, with the plan w1 returns for it."""
    space = chain.space
    if mode == "geodesic":
        if eps is None or eps <= 0:
            raise ValueError("geodesic mode requires eps > 0")
        ok, witness = is_epsilon_geodesic(space, eps)
        if not ok:
            raise NotGeodesic(f"space is not {eps}-geodesic; witness pair {witness}")
        mode_str = f"geodesic({eps:g})"
    elif mode == "all-pairs":
        mode_str = "all-pairs"
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if space.n < 2:
        raise NoPairs("the space has one point, so no pair to scan")

    dense = chain.dense()
    for row in dense:
        Distribution(row)  # raises unless the row is a probability vector
    d = space.dist
    scanned = is_hop(d, eps) if mode == "geodesic" else np.ones(d.shape, dtype=bool)
    I, J = np.nonzero(np.triu(scanned, 1))  # row-major: (0, 1), (0, 2), ...
    cost, plus, minus = w1_pairs(dense, space, I, J)
    dxy = d[I, J]
    kappas = 1.0 - np.maximum(cost - delta, 0.0) / dxy
    points = space.points
    pairs = tuple(
        PairCurvature(points[i], points[j], k, *_curvature_parts(p, m, dij))
        for i, j, k, p, m, dij in zip(I.tolist(), J.tolist(), kappas.tolist(),
                                      plus.tolist(), minus.tolist(), dxy.tolist())
    )
    return CurvatureReport(pairs, float(kappas.min()), mode_str, delta)


def contraction_check(chain: Chain, mu: Distribution, nu: Distribution, kappa_bound: float):
    """W1(mu*m, nu*m) <= (1 - kappa) W1(mu, nu) + 1e-9 (the contraction
    characterization of a curvature lower bound)."""
    space = chain.space
    lhs = w1(
        Distribution(push_forward(chain, mu.weights)),
        Distribution(push_forward(chain, nu.weights)),
        space,
    ).cost
    rhs = (1.0 - kappa_bound) * w1(mu, nu, space).cost
    return lhs, rhs, lhs <= rhs + KAPPA_ATOL
