"""Quantitative consequences of a curvature lower bound: spectral gap and
Poincare inequalities, Bonnet-Myers bounds, variance and Gaussian
concentration, the lambda-range-gradient log-Sobolev inequalities, and
exponential concentration in non-negative curvature."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvals, null_space

# max_var_lipschitz is not called here (invariant_max_var computes maxVar of
# nu), but perfbench/tracing.py wraps it under this module's name.
from .chain import (  # noqa: F401
    Chain,
    averaging,
    invariant_distribution,
    invariant_max_var,
    lipschitz_constant,
    local_stats,
    max_var_lipschitz,
)
from .curvature import kappa_global
from .errors import (
    DegenerateSupport,
    HypothesisFails,
    InequalityFails,
    LambdaTooLarge,
    NegativeCurvatureSomewhere,
    NonPositiveCurvature,
    NonPositiveF,
    NonPositiveRho,
    NotLipschitz,
    NotRGeodesic,
)
from .metric import is_epsilon_geodesic
from .transport import Distribution, w1

CHECK_ATOL = 1e-9
SPECTRAL_ATOL = 1e-8
V_SERIES_TOL = 1e-12


def _require_positive_kappa(kappa: float):
    if kappa <= 0:
        raise NonPositiveCurvature(
            f"check requires a positive curvature lower bound, got {kappa!r}"
        )


def _all_local_stats(chain: Chain, mode="exact"):
    return [local_stats(chain, p, mode) for p in chain.space.points]


def _g_vector(stats) -> np.ndarray:
    """g(x) = sigma(x)^2 / n_x, with 0 at Dirac rows (sigma^2 = 0 there)."""
    return np.array([0.0 if s.n_x is None else s.sigma2 / s.n_x for s in stats])


@dataclass(frozen=True)
class SpectralReport:
    eigenvalue_moduli: np.ndarray  # sorted descending, mean-zero subspace
    spectral_radius: float
    kappa_used: float
    reversible: bool
    poincare_applicable: bool
    # max over the random test functions of lhs/rhs, <= 1 when the
    # inequality holds; None when not applicable
    poincare_local_ratio: float | None
    poincare_gradient_ratio: float | None


@dataclass(frozen=True)
class ConcentrationReport:
    D2: float
    C: float
    sigma_inf: float
    t_max: float
    grid: np.ndarray
    bounds: np.ndarray
    exact_tails: np.ndarray
    holds: bool


@dataclass(frozen=True)
class ExpConcentrationReport:
    o: object
    r: float
    s: float
    rho: float
    D: float
    m: float
    lhs: float
    rhs: float
    holds: bool
    lemma45_holds: bool


def spectral_report(chain: Chain, kappa: float, n_random: int = 20, seed: int = 0) -> SpectralReport:
    """Eigenvalues of the averaging operator on the nu-mean-zero subspace,
    with the Prop.-29 radius bound and the Cor.-30 Poincare inequalities."""
    nu, reversible, _unique = invariant_distribution(chain)
    P = chain.dense()
    n = chain.n
    # Basis of {f : E_nu f = 0}: Euclidean orthogonal complement of nu.
    V = null_space(nu.weights[None, :])
    B = V.T @ P @ V
    moduli = np.sort(np.abs(eigvals(B)))[::-1]
    radius = float(moduli[0]) if len(moduli) else 0.0
    if kappa > 0 and radius > 1.0 - kappa + SPECTRAL_ATOL:
        raise InequalityFails(
            f"Prop. 29: spectral radius {radius!r} exceeds 1 - kappa = {1 - kappa!r}"
        )

    local_ratio = gradient_ratio = None
    if reversible and kappa > 0:
        rng = np.random.default_rng(seed)
        local_ratio = gradient_ratio = 0.0
        for _ in range(n_random):
            f = rng.normal(size=n)
            var = nu.variance(f)
            mean_row = P @ f
            local_diss = float(nu.weights @ (P @ f ** 2 - mean_row ** 2))
            grad_diss = float(
                nu.weights @ ((f[None, :] - f[:, None]) ** 2 * P).sum(axis=1)
            )
            rhs1 = local_diss / (kappa * (2.0 - kappa))
            rhs2 = grad_diss / (2.0 * kappa)
            local_ratio = max(local_ratio, var / (rhs1 + 1e-300))
            gradient_ratio = max(gradient_ratio, var / (rhs2 + 1e-300))
    return SpectralReport(
        moduli, radius, kappa, reversible,
        reversible and kappa > 0, local_ratio, gradient_ratio,
    )


def bonnet_myers(chain: Chain, report=None):
    """L1 Bonnet-Myers: per-pair d(x,y) <= (J(x)+J(y))/kappa(x,y), the
    diameter bound 2 sup J / kappa, and Prop. 24's average-distance bounds
    int d(x,y) dnu(y) <= J(x)/kappa."""
    if report is None:
        report = kappa_global(chain)
    kappa = report.global_kappa
    _require_positive_kappa(kappa)
    space = chain.space
    stats = _all_local_stats(chain)
    J = np.array([s.J for s in stats])

    per_pair = []
    for p in report.pairs:
        if p.kappa <= 0:
            continue
        i, j = space.index(p.x), space.index(p.y)
        bound = (J[i] + J[j]) / p.kappa
        per_pair.append((p.x, p.y, float(space.dist[i, j]), bound))
    diam_bound = 2.0 * J.max() / kappa
    diam_actual = space.diameter

    nu, _rev, _unique = invariant_distribution(chain)
    avg_dist = space.dist @ nu.weights  # int d(x,y) dnu(y) per x
    avg_bounds = [
        (space.points[i], float(avg_dist[i]), float(J[i] / kappa))
        for i in range(space.n)
    ]
    return diam_bound, diam_actual, per_pair, avg_bounds


def variance_bound(chain: Chain, kappa: float, n_x_mode="exact"):
    """Prop. 31: 1-Lipschitz variance under nu is at most
    sigma^2 / (n kappa (2 - kappa)) with n = inf_x n_x."""
    _require_positive_kappa(kappa)
    nu, _rev, _unique = invariant_distribution(chain)
    stats = _all_local_stats(chain, n_x_mode)
    sigma2 = float(nu.weights @ np.array([s.sigma2 for s in stats]))
    finite_n = [s.n_x for s in stats if s.n_x is not None]
    if not finite_n:
        raise DegenerateSupport(
            "every kernel row is a Dirac mass, so n = inf n_x is undefined")
    n_inf = min(finite_n)
    bound = sigma2 / (n_inf * kappa * (2.0 - kappa))
    mode = "exact" if len(nu.support()) <= 12 else "heuristic"
    extremal_var = invariant_max_var(chain, mode)
    # StatDim(X, d, nu): the spread of nu over its maximal Lipschitz variance.
    w = nu.weights
    statdim = 0.5 * float(w @ chain.space.dist ** 2 @ w) / extremal_var
    if extremal_var > bound + CHECK_ATOL:
        raise InequalityFails(
            f"Prop. 31: extremal Lipschitz variance {extremal_var!r} exceeds "
            f"sigma^2 / (n kappa (2 - kappa)) = {bound!r}"
        )
    return bound, extremal_var, statdim


def gaussian_concentration(chain: Chain, f, kappa: float, n_grid: int = 50) -> ConcentrationReport:
    """Thm. 32: Gaussian-then-exponential tail bounds for a 1-Lipschitz f,
    checked against the exact nu-tails on a grid of t values."""
    _require_positive_kappa(kappa)
    f = np.asarray(f, dtype=np.float64)
    lip = lipschitz_constant(chain.space, f)
    if lip > 1.0 + CHECK_ATOL:
        raise NotLipschitz(f"f has Lipschitz constant {lip!r} > 1")
    nu, _rev, _unique = invariant_distribution(chain)
    stats = _all_local_stats(chain)
    D2_x = _g_vector(stats) / kappa
    D2 = float(nu.weights @ D2_x)
    C = lipschitz_constant(chain.space, D2_x)
    sigma_inf = max(s.sigma_inf for s in stats)
    denom = max(2.0 * C, 3.0 * sigma_inf)
    t_max = 2.0 * D2 / denom

    grid = np.concatenate([
        np.linspace(0.0, 1.5 * t_max, n_grid),
        t_max + denom * np.arange(1, 6),
    ])
    bounds = np.where(
        grid <= t_max,
        np.exp(-grid ** 2 / (6.0 * D2)),
        np.exp(-t_max ** 2 / (6.0 * D2) - (grid - t_max) / denom),
    )
    mean = nu.mean(f)
    exact = np.array([
        float(nu.weights[f >= t + mean - 1e-12].sum()) for t in grid
    ])
    holds = bool(np.all(exact <= bounds + CHECK_ATOL))
    return ConcentrationReport(D2, C, sigma_inf, t_max, grid, bounds, exact, holds)


def finite_time_variance(chain: Chain, x, k: int, kappa: float) -> float:
    """Remark 34: D^2_{x,k} = sum_{i=1..k} (1-kappa/2)^{2(i-1)} (M^{k-i} g)(x)
    with g(y) = sigma(y)^2 / n_y."""
    _require_positive_kappa(kappa)
    if k < 1:
        raise ValueError("k must be >= 1")
    g = _g_vector(_all_local_stats(chain))
    i_x = chain.space.index(x)
    total = 0.0
    # Iterate powers once: M^0 g, M^1 g, ..., M^{k-1} g.
    powers = [g]
    for _ in range(k - 1):
        powers.append(averaging(chain, powers[-1]))
    for i in range(1, k + 1):
        total += (1.0 - kappa / 2.0) ** (2 * (i - 1)) * powers[k - i][i_x]
    return float(total)


def range_gradient(space, f, lam: float) -> np.ndarray:
    """Def. 37: (Df)(x) = sup over pairs y != y' of
    |f(y)-f(y')|/d(y,y') * e^{-lam(d(x,y)+d(x,y'))}; Df is 2 lam-log-Lipschitz
    (checked post hoc)."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    f = np.asarray(f, dtype=np.float64)
    d = space.dist
    n = space.n
    slope = np.abs(f[:, None] - f[None, :]) / np.where(d > 0, d, np.inf)
    damp = np.exp(-lam * d)  # damp[x, y] = e^{-lam d(x,y)}
    Df = np.empty(n)
    for x in range(n):
        Df[x] = float((slope * np.outer(damp[x], damp[x])).max())
    positive = Df > 0
    if positive.sum() > 1:
        logs = np.log(Df[positive])
        dd = d[np.ix_(positive, positive)]
        gap = np.abs(logs[:, None] - logs[None, :]) - 2.0 * lam * dd
        if gap.max() > 1e-9:
            raise InequalityFails(
                f"Def. 37: Df is not 2 lambda-log-Lipschitz "
                f"(|log Df(x) - log Df(y)| exceeds 2 lambda d(x, y) by {float(gap.max())!r})"
            )
    return Df


def admissible_lambda(chain: Chain, U: float) -> float:
    """The Prop.-43 / Thm.-40 threshold 1/(24 sigma_inf (1 + U))."""
    sigma_inf = max(s.sigma_inf for s in _all_local_stats(chain))
    return 1.0 / (24.0 * sigma_inf * (1.0 + U))


def commutation_check(chain: Chain, f, lam: float, kappa: float, U: float):
    """Prop. 43: D(Mf)(x) <= (1 - kappa/2) M(Df)(x) pointwise."""
    _require_positive_kappa(kappa)
    if lam > admissible_lambda(chain, U) + 1e-12:
        raise LambdaTooLarge(
            f"lambda {lam!r} exceeds 1/(24 sigma_inf (1+U)) = "
            f"{admissible_lambda(chain, U)!r}"
        )
    space = chain.space
    lhs = range_gradient(space, averaging(chain, f), lam)
    rhs = (1.0 - kappa / 2.0) * averaging(chain, range_gradient(space, f, lam))
    bad = np.nonzero(lhs > rhs + CHECK_ATOL)[0]
    return [space.points[i] for i in bad]


def log_sobolev_check(chain: Chain, f, lam: float, kappa: float, U: float):
    """Thm. 40: the variance and entropy inequalities with the sup constant,
    the reversible V(x)-weighted forms, and Remark 41's bound on V."""
    _require_positive_kappa(kappa)
    if lam > admissible_lambda(chain, U) + 1e-12:
        raise LambdaTooLarge(
            f"lambda {lam!r} exceeds the admissible threshold"
        )
    f = np.asarray(f, dtype=np.float64)
    if np.any(f <= 0):
        raise NonPositiveF("the entropy form needs f > 0 everywhere")
    nu, reversible, _unique = invariant_distribution(chain)
    stats = _all_local_stats(chain)
    g = _g_vector(stats)
    sup_const = 4.0 * g.max() / kappa

    Df = range_gradient(chain.space, f, lam)
    var_lhs = nu.variance(f)
    var_rhs = sup_const * float(nu.weights @ Df ** 2)
    mean = nu.mean(f)
    ent_lhs = float(nu.weights @ (f * np.log(f))) - mean * np.log(mean)
    ent_rhs = sup_const * float(nu.weights @ (Df ** 2 / f))
    holds = var_lhs <= var_rhs + CHECK_ATOL and ent_lhs <= ent_rhs + CHECK_ATOL

    v_profile = None
    if reversible:
        # V(x) = 2 sum_t (1 - kappa/2)^{2t} M^{t+1} g, truncated when the
        # geometric envelope falls below V_SERIES_TOL.
        factor = (1.0 - kappa / 2.0) ** 2
        term = averaging(chain, g)
        V = 2.0 * term.copy()
        weight = 1.0
        sup_g = g.max() if g.max() > 0 else 1.0
        while weight * factor * sup_g > V_SERIES_TOL:
            weight *= factor
            term = averaging(chain, term)
            V += 2.0 * weight * term
        v_profile = V
        v_var_rhs = float(nu.weights @ (V * Df ** 2))
        v_ent_rhs = float(nu.weights @ (V * Df ** 2 / f))
        holds = (
            holds
            and var_lhs <= v_var_rhs + CHECK_ATOL
            and ent_lhs <= v_ent_rhs + CHECK_ATOL
        )
        # Remark 41: V(x) <= (4/kappa) int g dnu + 2 C J(x)/kappa with C the
        # Lipschitz constant of g/kappa.
        C = lipschitz_constant(chain.space, g / kappa)
        J = np.array([s.J for s in stats])
        v_bound = 4.0 / kappa * float(nu.weights @ g) + 2.0 * C * J / kappa
        holds = holds and bool(np.all(V <= v_bound + CHECK_ATOL))
    return var_lhs, var_rhs, ent_lhs, ent_rhs, v_profile, holds


def exponential_concentration(chain: Chain, o, r: float, s: float | None = None) -> ExpConcentrationReport:
    """Thm. 44: exponential concentration around an attracting point o,
    plus Lemma 45's pointwise pull inequality."""
    space = chain.space
    report = kappa_global(chain)
    if report.global_kappa < -CHECK_ATOL:
        raise NegativeCurvatureSomewhere(
            f"minimum curvature is {report.global_kappa!r} < 0"
        )
    ok, witness = is_epsilon_geodesic(space, r)
    if not ok:
        raise NotRGeodesic(f"space is not {r}-geodesic; witness pair {witness}")
    stats = _all_local_stats(chain)
    if s is None:
        s = 2.0 * max(st.sigma_inf for st in stats)
    i_o = space.index(o)
    d_o = space.dist[:, i_o]
    dense = chain.dense()
    delta_o = Distribution.dirac(space, o)
    pull = np.array([
        d_o[i] - w1(Distribution(dense[i]), delta_o, space).cost
        for i in range(space.n)
    ])
    annulus = (d_o >= r) & (d_o < 2.0 * r)
    if not annulus.any():
        raise NonPositiveRho(f"no points in the annulus [{r}, {2*r}) around {o!r}")
    rho = float(pull[annulus].min())
    if rho <= 0:
        raise NonPositiveRho(
            f"annulus pull rho = {rho!r} <= 0: no attracting point at {o!r}"
        )
    J_o = stats[i_o].J
    D = s ** 2 / rho
    m = r + 2.0 * s ** 2 / rho + rho * (1.0 + J_o ** 2 / (4.0 * s ** 2))
    nu, _rev, _unique = invariant_distribution(chain)
    lhs = float(nu.weights @ np.exp(d_o / D))
    rhs = (4.0 + J_o ** 2 / s ** 2) * np.exp(m / D)
    lemma45 = bool(np.all(pull[d_o >= r] >= rho - CHECK_ATOL))
    return ExpConcentrationReport(
        o, r, s, rho, D, m, lhs, rhs, lhs <= rhs + CHECK_ATOL, lemma45
    )


def average_l2_bonnet_myers(chain: Chain, o, r: float, kappa: float):
    """Prop. 50: int d(o,x) dnu <= sqrt((1/kappa) int sigma^2/n dnu) + 5r,
    under the attracting-annulus hypothesis int d(o,y) dm_x <= d(o,x)."""
    _require_positive_kappa(kappa)
    space = chain.space
    ok, witness = is_epsilon_geodesic(space, r)
    if not ok:
        raise NotRGeodesic(f"space is not {r}-geodesic; witness pair {witness}")
    i_o = space.index(o)
    d_o = space.dist[:, i_o]
    mean_dist = chain.dense() @ d_o  # int d(o,y) dm_x(y) per x
    annulus = (d_o >= r) & (d_o < 2.0 * r)
    bad = np.nonzero(annulus & (mean_dist > d_o + CHECK_ATOL))[0]
    if bad.size:
        raise HypothesisFails(
            f"int d(o,y) dm_x > d(o,x) at x = {space.points[bad[0]]!r}"
        )
    nu, _rev, _unique = invariant_distribution(chain)
    g = _g_vector(_all_local_stats(chain))
    lhs = float(nu.weights @ d_o)
    rhs = float(np.sqrt(nu.weights @ g / kappa) + 5.0 * r)
    return lhs, rhs, lhs <= rhs + CHECK_ATOL
