"""Coarse Ricci curvature: pointwise kappa, the kappa+/kappa- decomposition
and unstability, global scans with geodesic reduction, kappa up to delta,
and direct contraction checks."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .chain import Chain, push_forward
from .errors import NoPairs, NotGeodesic, SamePoint
from .metric import is_epsilon_geodesic
from .transport import Distribution, w1

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


def _coupling_parts(plan, dist, i, j):
    """(kappa+, kappa-, U) at the pair (i, j): the positive and negative parts
    of d(x,y) - d(x',y') integrated over the plan, divided by d(x,y), and
    U = kappa-/kappa (None when kappa <= 0)."""
    dxy = dist[i, j]
    plus = minus = 0.0
    for a, b, m in plan.entries:
        change = dxy - dist[a, b]
        if change > 0:
            plus += m * change
        else:
            minus -= m * change
    k_plus, k_minus = plus / dxy, minus / dxy
    k = k_plus - k_minus
    return k_plus, k_minus, (k_minus / k if k > 0 else None)


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
    """Scan unordered pairs; geodesic mode restricts to d(x,y) <= eps, which
    lower-bounds kappa over all pairs by the eps-geodesic reduction."""
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
    d = space.dist
    rows = [Distribution(dense[i]) for i in range(space.n)]
    pairs = []
    for i, j in combinations(range(space.n), 2):
        if mode == "geodesic" and d[i, j] > eps * (1 + 1e-12):
            continue
        res = w1(rows[i], rows[j], space)
        k = 1.0 - max(res.cost - delta, 0.0) / d[i, j]
        k_plus, k_minus, U = _coupling_parts(res.plan, d, i, j)
        pairs.append(PairCurvature(space.points[i], space.points[j], k,
                                   k_plus, k_minus, U))
    global_kappa = min(p.kappa for p in pairs)
    return CurvatureReport(tuple(pairs), global_kappa, mode_str, delta)


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
