"""Quantitative consequences of a curvature lower bound: spectral gap and
Poincare inequalities, Bonnet-Myers bounds, variance and Gaussian
concentration, the lambda-range-gradient log-Sobolev inequalities, and
exponential concentration in non-negative curvature."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# max_var_lipschitz is not called here (invariant_max_var computes maxVar of
# nu), but perfbench/tracing.py wraps it under this module's name.
from .chain import (  # noqa: F401
    EXACT_SUPPORT_CAP,
    Chain,
    averaging,
    invariant_distribution,
    invariant_max_var,
    invariant_max_var_upper,
    lipschitz_constant,
    local_stats,
    max_var_lipschitz,
    row_moments,
)
from .curvature import CHECK_ATOL, Check, kappa_global
from .errors import (
    DegenerateSupport,
    HypothesisFails,
    InequalityFails,
    LambdaTooLarge,
    MomentOverflow,
    NegativeCurvatureSomewhere,
    NonPositiveCurvature,
    NonPositiveF,
    NonPositiveRho,
    NotLipschitz,
    NotRGeodesic,
)
from .metric import is_epsilon_geodesic
from .transport import Distribution, w1

SPECTRAL_ATOL = 1e-8
TAIL_ATOL = 1e-12
V_SERIES_TOL = 1e-12


def _require_positive_kappa(kappa: float):
    if kappa <= 0:
        raise NonPositiveCurvature(
            f"check requires a positive curvature lower bound, got {kappa!r}"
        )


def _all_local_stats(chain: Chain):
    return [local_stats(chain, p) for p in chain.space.points]


def _g_vector(stats) -> np.ndarray:
    """g(x) = sigma(x)^2 / n_x, with 0 at Dirac rows (sigma^2 = 0 there)."""
    return np.array([0.0 if s.n_x is None else s.sigma2 / s.n_x for s in stats])


@dataclass(frozen=True)
class SpectralReport:
    eigenvalue_moduli: np.ndarray  # sorted descending, mean-zero subspace
    spectral_radius: float
    kappa_used: float
    reversible: bool
    # Cor. 30's suprema over f of Var / rhs; None unless reversible, kappa > 0
    poincare_local_ratio: float | None
    poincare_gradient_ratio: float | None


@dataclass(frozen=True)
class ConcentrationReport:
    D2: float
    C: float
    sigma_inf: float
    t_max: float
    t: np.ndarray  # 0, then each jump point of the tail, ascending
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


def spectral_report(chain: Chain, kappa: float) -> SpectralReport:
    """Eigenvalues of the averaging operator on the nu-mean-zero subspace,
    with the Prop.-29 radius bound and the Cor.-30 Poincare ratios: for a
    reversible chain, the suprema over f of Var / rhs are kappa (2 - kappa)
    / (1 - rho^2) and kappa / (1 - lambda_2), with rho the radius and
    lambda_2 the largest eigenvalue (Levin, Peres and Wilmer, ch. 13).  Both
    are at most 1 when rho <= 1 - kappa, so Prop. 29 decides Cor. 30.  Where
    nu vanishes, the spectrum also holds the eigenvalues of the states off
    its support, and the ratios are upper bounds on the suprema."""
    from scipy.linalg import eigvals, null_space

    nu, reversible, _unique = invariant_distribution(chain)
    # Basis of {f : E_nu f = 0}: Euclidean orthogonal complement of nu.
    V = null_space(nu.weights[None, :])
    eig = eigvals(V.T @ chain.dense() @ V)
    moduli = np.sort(np.abs(eig))[::-1]
    radius = float(moduli[0]) if len(moduli) else 0.0
    if kappa > 0 and radius > 1.0 - kappa + SPECTRAL_ATOL:
        raise InequalityFails(
            f"Prop. 29: spectral radius {radius!r} exceeds 1 - kappa = {1 - kappa!r}"
        )

    local_ratio = gradient_ratio = None
    if reversible and kappa > 0:
        local_ratio = gradient_ratio = 0.0  # one point: no non-constant f
        if len(eig):
            local_ratio = kappa * (2.0 - kappa) / (1.0 - radius ** 2)
            gradient_ratio = kappa / (1.0 - float(eig.real.max()))
    return SpectralReport(moduli, radius, kappa, reversible, local_ratio, gradient_ratio)


def bonnet_myers(chain: Chain, report=None):
    """L1 Bonnet-Myers: the Check diam <= 2 sup J / kappa, the per-pair
    bounds as columns (I, J, d, bound) over the scanned pairs with
    kappa(x,y) > 0, where I and J index the points, d is d(x,y) and bound is
    (J(x)+J(y))/kappa(x,y), and Prop. 24's average-distance bounds as
    (x, Check int d(x,y) dnu(y) <= J(x)/kappa)."""
    if report is None:
        report = kappa_global(chain)
    kappa = report.global_kappa
    _require_positive_kappa(kappa)
    space = chain.space
    J, _sigma2, _sigma_inf = row_moments(chain)

    positive = report.kappa > 0
    x, y = report.I[positive], report.J[positive]
    per_pair = (x, y, space.dist[x, y], (J[x] + J[y]) / report.kappa[positive])
    points = space.points
    diameter = Check.of(space.diameter, 2.0 * J.max() / kappa)

    nu, _rev, _unique = invariant_distribution(chain)
    avg_dist = space.dist @ nu.weights  # int d(x,y) dnu(y) per x
    avg_bounds = [(p, Check.of(lhs, rhs)) for p, lhs, rhs
                  in zip(points, avg_dist.tolist(), (J / kappa).tolist())]
    return diameter, per_pair, avg_bounds


def _require_spread(sigma_inf: float):
    """Raises DegenerateSupport when sigma_inf, the largest diameter of a
    kernel row's support, is 0: every row is then a Dirac mass."""
    if sigma_inf == 0:
        raise DegenerateSupport(
            "every kernel row is a Dirac mass, so n = inf n_x is undefined")


def _variance_rhs(chain: Chain, kappa: float) -> float:
    """The right-hand side sigma^2 / (n kappa (2 - kappa)) of Prop. 31, with
    sigma^2 the nu-average of sigma(x)^2 and n = inf_x n_x."""
    _require_positive_kappa(kappa)
    nu, _rev, _unique = invariant_distribution(chain)
    stats = _all_local_stats(chain)
    sigma2 = float(nu.weights @ np.array([s.sigma2 for s in stats]))
    _require_spread(max(s.sigma_inf for s in stats))
    n_inf = min(s.n_x for s in stats if s.n_x is not None)
    return sigma2 / (n_inf * kappa * (2.0 - kappa))


def variance_bound(chain: Chain, kappa: float):
    """Prop. 31: 1-Lipschitz variance under nu is at most
    sigma^2 / (n kappa (2 - kappa)) with n = inf_x n_x.

    Returns (the Check maxVar(nu) <= bound, StatDim).  maxVar(nu) is exact
    up to EXACT_SUPPORT_CAP support points and a heuristic lower bound
    beyond; InequalityFails is raised when it exceeds the bound."""
    bound = _variance_rhs(chain, kappa)
    nu, _rev, _unique = invariant_distribution(chain)
    mode = "exact" if len(nu.support()) <= EXACT_SUPPORT_CAP else "heuristic"
    extremal_var = invariant_max_var(chain, mode)
    # StatDim(X, d, nu): the spread of nu over its maximal Lipschitz variance.
    w = nu.weights
    statdim = 0.5 * float(w @ chain.space.dist ** 2 @ w) / extremal_var
    check = Check.of(extremal_var, bound)
    if not check.holds:
        raise InequalityFails(
            f"Prop. 31: extremal Lipschitz variance {extremal_var!r} exceeds "
            f"sigma^2 / (n kappa (2 - kappa)) = {bound!r}"
        )
    return check, statdim


def variance_holds(chain: Chain, kappa: float) -> bool:
    """Prop. 31 decided as verify reports it: True when the certified upper
    bound on maxVar(nu) (chain.invariant_max_var_upper) satisfies the bound,
    which needs no search over Lipschitz functions.  Otherwise the check
    falls back to variance_bound, which computes maxVar(nu) and raises
    InequalityFails when it exceeds the bound, so True is the only value
    returned."""
    if not Check.of(invariant_max_var_upper(chain), _variance_rhs(chain, kappa)).holds:
        variance_bound(chain, kappa)
    return True


def gaussian_concentration(chain: Chain, f, kappa: float) -> ConcentrationReport:
    """Thm. 32: Gaussian-then-exponential tail bounds for a 1-Lipschitz f,
    against the exact nu-tails for every t >= 0.  The tail nu(f - E f >= t)
    is a step function and the bound decreases, so the worst t of each step
    is a jump point f(x) - E f: the check runs at t = 0 and at each distinct
    jump point above TAIL_ATOL, ascending."""
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
    _require_spread(sigma_inf)
    denom = max(2.0 * C, 3.0 * sigma_inf)
    t_max = 2.0 * D2 / denom

    jumps = f - nu.mean(f)
    t = np.concatenate([[0.0], np.unique(jumps[jumps > TAIL_ATOL])])
    # exp(-t^2 / (6 D2)) up to t_max, then decaying as exp(-t / denom).
    bounds = np.exp(-np.minimum(t, t_max) ** 2 / (6.0 * D2)
                    - np.maximum(t - t_max, 0.0) / denom)
    exact = np.array([float(nu.weights[jumps >= u - TAIL_ATOL].sum()) for u in t])
    holds = bool(np.all(exact <= bounds + CHECK_ATOL))
    return ConcentrationReport(D2, C, sigma_inf, t_max, t, bounds, exact, holds)


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
    sigma_inf = float(row_moments(chain)[2].max())
    _require_spread(sigma_inf)
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
    the reversible V(x)-weighted forms, and Remark 41's bound on V.

    Returns (variance Check, entropy Check, V, holds): the two Checks with
    the sup constant, the profile V (None unless the chain is reversible),
    and whether every one of these inequalities holds."""
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
    mean = nu.mean(f)
    variance = Check.of(nu.variance(f), sup_const * float(nu.weights @ Df ** 2))
    entropy = Check.of(float(nu.weights @ (f * np.log(f))) - mean * np.log(mean),
                       sup_const * float(nu.weights @ (Df ** 2 / f)))
    holds = variance.holds and entropy.holds

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
        holds = (
            holds
            and Check.of(variance.lhs, float(nu.weights @ (V * Df ** 2))).holds
            and Check.of(entropy.lhs, float(nu.weights @ (V * Df ** 2 / f))).holds
        )
        # Remark 41: V(x) <= (4/kappa) int g dnu + 2 C J(x)/kappa with C the
        # Lipschitz constant of g/kappa.
        C = lipschitz_constant(chain.space, g / kappa)
        J = np.array([s.J for s in stats])
        v_bound = 4.0 / kappa * float(nu.weights @ g) + 2.0 * C * J / kappa
        holds = holds and bool(np.all(V <= v_bound + CHECK_ATOL))
    return variance, entropy, v_profile, holds


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
    J, _sigma2, sigma_inf = row_moments(chain)
    if s is None:
        s = 2.0 * float(sigma_inf.max())
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
    J_o = float(J[i_o])
    D = s ** 2 / rho
    m = r + 2.0 * s ** 2 / rho + rho * (1.0 + J_o ** 2 / (4.0 * s ** 2))
    nu, _rev, _unique = invariant_distribution(chain)
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = float(nu.weights @ np.exp(d_o / D))
        rhs = (4.0 + J_o ** 2 / s ** 2) * np.exp(m / D)
    if not (np.isfinite(lhs) and np.isfinite(rhs)):
        raise MomentOverflow(
            f"Thm. 44: exp(d(x, o)/D) or exp(m/D) overflows at s = {s!r}, "
            f"D = s^2/rho = {D!r}; take a larger s"
        )
    lemma45 = bool(np.all(pull[d_o >= r] >= rho - CHECK_ATOL))
    return ExpConcentrationReport(
        o, r, s, rho, D, m, lhs, rhs, Check.of(lhs, rhs).holds, lemma45
    )


def average_l2_bonnet_myers(chain: Chain, o, r: float, kappa: float):
    """Prop. 50, the Check int d(o,x) dnu <= sqrt((1/kappa) int sigma^2/n dnu)
    + 5r, under the attracting-annulus hypothesis int d(o,y) dm_x <= d(o,x)."""
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
    return Check.of(float(nu.weights @ d_o),
                    float(np.sqrt(nu.weights @ g / kappa) + 5.0 * r))
