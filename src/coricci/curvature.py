"""Coarse Ricci curvature: pointwise kappa, the kappa+/kappa- decomposition
and unstability, global scans with geodesic reduction, kappa up to delta,
and direct contraction checks."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .chain import Chain, push_forward
from .errors import NoPairs, NotGeodesic, SamePoint
from .metric import is_epsilon_geodesic, is_hop
from .transport import MASS_ATOL, Distribution, plan_parts, w1, w1_cost, w1_pairs

# Every Check is decided within this tolerance.
CHECK_ATOL = 1e-9


class Check(NamedTuple):
    """One inequality lhs <= rhs of the paper, decided once: holds is
    lhs <= rhs + CHECK_ATOL.  Build it with Check.of(lhs, rhs)."""

    lhs: float
    rhs: float
    holds: bool

    @classmethod
    def of(cls, lhs, rhs) -> Check:
        return cls(lhs, rhs, bool(lhs <= rhs + CHECK_ATOL))


@dataclass(frozen=True)
class PairCurvature:
    x: object
    y: object
    kappa: float
    kappa_plus: float
    kappa_minus: float
    U: float | None  # None when kappa <= 0 (unstability undefined)


class _Pairs(Sequence):
    """The pairs of a CurvatureReport as PairCurvature, built from the
    report's columns on first item access; len() reads the columns only."""

    def __init__(self, report):
        self._report = report

    def __len__(self):
        return len(self._report.I)

    @cached_property
    def _items(self):
        r = self._report
        points = r.points
        return tuple(
            PairCurvature(points[i], points[j], k, kp, km, None if math.isnan(u) else u)
            for i, j, k, kp, km, u in zip(r.I.tolist(), r.J.tolist(), r.kappa.tolist(),
                                          r.kappa_plus.tolist(), r.kappa_minus.tolist(),
                                          r.U.tolist())
        )

    def __getitem__(self, k):
        return self._items[k]

    def __iter__(self):
        return iter(self._items)


@dataclass(frozen=True, eq=False)
class CurvatureReport:
    """A pair scan as columns, one entry per scanned pair x < y in row-major
    order: the point indices I and J into points, and the float arrays kappa,
    kappa_plus, kappa_minus and U, where U is NaN when kappa <= 0
    (unstability undefined).  The arrays are read-only.  pairs holds the same
    scan as PairCurvature objects, built only when an item is read."""

    points: tuple
    I: np.ndarray
    J: np.ndarray
    kappa: np.ndarray
    kappa_plus: np.ndarray
    kappa_minus: np.ndarray
    U: np.ndarray
    global_kappa: float
    mode: str  # "all-pairs" | "geodesic(eps)"
    delta: float

    def __post_init__(self):
        for column in (self.I, self.J, self.kappa, self.kappa_plus, self.kappa_minus, self.U):
            column.setflags(write=False)

    @cached_property
    def pairs(self) -> _Pairs:
        return _Pairs(self)


def _pair_w1(chain: Chain, x, y):
    """Indices of x and y and the certified W1 between their rows."""
    space = chain.space
    i, j = space.index(x), space.index(y)
    if i == j:
        raise SamePoint(f"curvature in the direction ({x!r}, {x!r}) is undefined")
    dense = chain.dense()
    return i, j, w1(Distribution(dense[i]), Distribution(dense[j]), space)


def _curvature_parts(plus, minus, dxy):
    """Arrays (kappa+, kappa-, U) from arrays of the plan integrals of the
    positive and negative parts of d(x,y) - d(x',y'): each divided by d(x,y),
    and U = kappa-/kappa, NaN where kappa <= 0."""
    k_plus, k_minus = plus / dxy, minus / dxy
    k = k_plus - k_minus
    U = np.full(np.shape(k), np.nan)
    np.divide(k_minus, k, out=U, where=k > 0)
    return k_plus, k_minus, U


def _coupling_parts(plan, dist, i, j):
    """(kappa+, kappa-, U) at the pair (i, j) over a CouplingPlan, as floats
    with U None when kappa <= 0."""
    dxy = dist[i, j]
    k_plus, k_minus, U = map(float, _curvature_parts(*plan_parts(plan.entries, dist, dxy), dxy))
    return k_plus, k_minus, None if math.isnan(U) else U


def _check_delta(delta) -> None:
    """Raises ValueError unless delta is a finite number >= 0."""
    if not (delta >= 0 and math.isfinite(delta)):
        raise ValueError(f"delta must be finite and >= 0, not {delta!r}")


def kappa(chain: Chain, x, y, delta: float = 0.0) -> float:
    """kappa(x,y) = 1 - T1(m_x, m_y)/d(x,y); delta > 0 gives the Def.-48
    curvature up to delta, 1 - (T1 - delta)_+ / d."""
    _check_delta(delta)
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
    certified in one kernel call, with the plan w1 returns for it, and the
    report keeps the kernel's per-pair results as columns.

    Every kernel row must be a probability vector: the first that is not
    raises the ValueError of Distribution.  delta must be finite and >= 0,
    and eps, in geodesic mode, > 0 (so not NaN)."""
    space = chain.space
    _check_delta(delta)
    if mode == "geodesic":
        if eps is None or not eps > 0:
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
    # Rows that could fail the Distribution check, found in one pass: a
    # non-finite or negative entry, or a sum off 1 by more than half the
    # tolerance (so a row sum rounded differently here cannot hide a row
    # the check rejects).  Only those rows get the check itself.
    suspect = (~np.isfinite(dense).all(axis=1) | (dense < 0).any(axis=1)
               | (np.abs(dense.sum(axis=1) - 1.0) > MASS_ATOL / 2))
    for row in dense[suspect]:
        Distribution(row)
    d = space.dist
    scanned = is_hop(d, eps) if mode == "geodesic" else np.ones(d.shape, dtype=bool)
    I, J = np.nonzero(np.triu(scanned, 1))  # row-major: (0, 1), (0, 2), ...
    cost, plus, minus = w1_pairs(dense, space, I, J)
    dxy = d[I, J]
    kappas = 1.0 - np.maximum(cost - delta, 0.0) / dxy
    return CurvatureReport(space.points, I, J, kappas, *_curvature_parts(plus, minus, dxy),
                           float(kappas.min()), mode_str, delta)


def contraction_check(chain: Chain, mu: Distribution, nu: Distribution,
                      kappa_bound: float) -> Check:
    """The Check W1(mu*m, nu*m) <= (1 - kappa) W1(mu, nu) (the contraction
    characterization of a curvature lower bound).  Both W1 are certified
    costs of transport.w1_cost, flows on the metric's 1-skeleton."""
    space = chain.space
    lhs = w1_cost(
        Distribution(push_forward(chain, mu.weights)),
        Distribution(push_forward(chain, nu.weights)),
        space,
    )
    rhs = (1.0 - kappa_bound) * w1_cost(mu, nu, space)
    return Check.of(lhs, rhs)
