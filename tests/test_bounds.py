import dataclasses
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import coricci as c
from coricci import bounds, gallery
from coricci.bounds import admissible_lambda
from coricci.chain import Chain, build_chain, invariant_distribution, local_stats
from coricci.errors import (
    CoricciError,
    HypothesisFails,
    InequalityFails,
    LambdaTooLarge,
    NonPositiveCurvature,
    NonPositiveF,
    NonPositiveRho,
    NotLipschitz,
    NotRGeodesic,
)
from coricci.metric import space_from_matrix
from coricci.transport import Distribution, w1

TWO_POINT = space_from_matrix([0, 1], [[0.0, 1.0], [1.0, 0.0]])


def max_unstability(report):
    return max((p.U for p in report.pairs if p.U is not None), default=0.0)


# ---------------------------------------------------------------- spectral


def test_spectral_cube5_sharp(cube5):
    rep = bounds.spectral_report(cube5, 1 / 5)
    assert rep.spectral_radius == pytest.approx(1 - 1 / 5, abs=1e-9)
    assert len(rep.eigenvalue_moduli) == 31
    assert rep.reversible and rep.poincare.holds


def test_spectral_two_point_symmetric():
    p = 0.3
    chain = build_chain(TWO_POINT, np.array([[1 - p, p], [p, 1 - p]]))
    rep = bounds.spectral_report(chain, 2 * p)
    # the only mean-zero eigenvalue is 1 - 2p, and kappa = 2p is sharp
    assert rep.spectral_radius == pytest.approx(1 - 2 * p, abs=1e-12)


def test_spectral_one_step_mixing(two_point_mixing):
    rep = bounds.spectral_report(two_point_mixing, 1.0)
    assert rep.spectral_radius == pytest.approx(0.0, abs=1e-12)


def test_poincare_ratios_hold(cube4, binom20, kappa_cache):
    for chain in (cube4, binom20):
        k = kappa_cache(chain).global_kappa
        rep = bounds.spectral_report(chain, k)
        assert rep.poincare.holds
        assert rep.poincare_local_ratio <= 1 + 1e-9
        assert rep.poincare_gradient_ratio <= 1 + 1e-9


def test_poincare_not_applicable_nonreversible(reset_chain):
    rep = bounds.spectral_report(reset_chain, 0.5)
    assert not rep.reversible and rep.poincare is None
    assert rep.poincare_local_ratio is None
    assert rep.poincare_gradient_ratio is None


# ------------------------------------------------------------ Bonnet-Myers


def test_bonnet_myers_cube6_sharp(cube6, kappa_cache):
    (diam_actual, diam_bound, holds), per_pair, avg_bounds = c.bonnet_myers(
        cube6, kappa_cache(cube6)
    )
    assert diam_actual == 6.0 and holds
    assert diam_bound == pytest.approx(6.0, abs=1e-9)
    _I, _J, d, b = per_pair
    assert np.all(d <= b + 1e-9)
    assert all(avg <= b + 1e-9 and ok for _x, (avg, b, ok) in avg_bounds)


def test_bonnet_myers_ou8_sharp(ou8, kappa_cache):
    (diam_actual, diam_bound, holds), _pp, avg_bounds = c.bonnet_myers(ou8, kappa_cache(ou8))
    assert diam_actual == 16.0 and holds
    assert diam_bound == pytest.approx(16.0, abs=1e-9)
    assert all(avg <= b + 1e-9 and ok for _x, (avg, b, ok) in avg_bounds)


def test_bonnet_myers_needs_positive_kappa():
    chain = gallery.geometric_reflect(K=30)
    with pytest.raises(NonPositiveCurvature):
        c.bonnet_myers(chain)


# ------------------------------------------------- variance / concentration


def test_variance_bound_binomial40(binom40):
    (extremal, bound, holds), statdim = c.variance_bound(binom40, 1 / 40)
    assert holds
    # Binomial(40, 1/20) has variance 2 * (1 - 1/20) = 1.9, achieved by the
    # identity (1-Lipschitz on the line), so the bound must be nearly sharp.
    nu, _r, _u = invariant_distribution(binom40)
    exact_var = nu.variance(np.arange(41, dtype=float))
    assert exact_var == pytest.approx(1.9, abs=1e-10)
    assert extremal >= exact_var - 1e-9
    assert bound >= extremal - 1e-9
    assert bound == pytest.approx(2.0, rel=0.1)
    assert statdim == pytest.approx(1.0, rel=1e-6)


def test_variance_bound_two_point(two_point_mixing):
    (extremal, bound, _holds), _sd = c.variance_bound(two_point_mixing, 1.0)
    assert extremal == pytest.approx(0.25, abs=1e-12)
    assert bound == pytest.approx(0.25, abs=1e-9)


def test_gaussian_concentration_binomial40(binom40):
    f = np.arange(41, dtype=float)
    rep = c.gaussian_concentration(binom40, f, 1 / 40)
    assert rep.holds
    assert 3.5 <= rep.D2 <= 4.5  # ~2 * lambda with lambda = Np = 2
    assert rep.t_max == pytest.approx(8 / 3, rel=0.15)
    # the bound curve is nonincreasing and continuous across t_max
    assert np.all(np.diff(rep.bounds) <= 1e-12)


def test_gaussian_concentration_mm60(mm60):
    rep = c.gaussian_concentration(mm60, np.arange(61, dtype=float), mm60.dt)
    assert rep.holds
    assert rep.D2 == pytest.approx(6.0, rel=0.05)  # 2 lam / mu


def test_gaussian_concentration_two_point(two_point_mixing):
    rep = c.gaussian_concentration(two_point_mixing, np.array([0.0, 1.0]), 1.0)
    assert rep.holds


def test_gaussian_concentration_rejects_non_lipschitz(two_point_mixing):
    with pytest.raises(NotLipschitz):
        c.gaussian_concentration(two_point_mixing, np.array([0.0, 2.0]), 1.0)


def test_finite_time_variance_cube():
    chain = gallery.cube(3)
    x = (0, 0, 0)
    stats = local_stats(chain, x)
    g = stats.sigma2 / stats.n_x
    assert c.finite_time_variance(chain, x, 1, 1 / 3) == pytest.approx(g, abs=1e-12)
    # g is constant on the cube, so the sum is a plain geometric series
    limit = g / (1 - (1 - 1 / 6) ** 2)
    assert c.finite_time_variance(chain, x, 60, 1 / 3) == pytest.approx(
        limit, rel=1e-6
    )


def test_finite_time_variance_matches_matrix_oracle(binom20):
    P = binom20.dense()
    g = np.array(
        [
            0.0 if (s := local_stats(binom20, p)).n_x is None else s.sigma2 / s.n_x
            for p in binom20.space.points
        ]
    )
    kappa = 1 / 20
    x = 5
    i = binom20.space.index(x)
    k = 3
    oracle = sum(
        (1 - kappa / 2) ** (2 * (step - 1))
        * (np.linalg.matrix_power(P, k - step) @ g)[i]
        for step in range(1, k + 1)
    )
    assert c.finite_time_variance(binom20, x, k, kappa) == pytest.approx(
        oracle, abs=1e-12
    )


# --------------------------------------------- range gradient / log-Sobolev


def test_range_gradient_constant_is_zero(cube4):
    assert np.allclose(c.range_gradient(cube4.space, np.ones(16), 0.1), 0.0)


def test_range_gradient_two_point():
    Df = c.range_gradient(TWO_POINT, np.array([0.0, 1.0]), 0.1)
    assert np.allclose(Df, np.exp(-0.1))


def test_range_gradient_matches_pair_scan():
    chain = gallery.cube(3)
    d = chain.space.dist
    rng = np.random.default_rng(7)
    f = rng.normal(size=8)
    lam = 0.2
    Df = c.range_gradient(chain.space, f, lam)
    for x in range(8):
        best = max(
            abs(f[y] - f[z]) / d[y, z] * np.exp(-lam * (d[x, y] + d[x, z]))
            for y in range(8)
            for z in range(8)
            if y != z
        )
        assert Df[x] == pytest.approx(best, abs=1e-12)


def test_commutation_cube_and_binomial(cube4, binom20, kappa_cache):
    rng = np.random.default_rng(8)
    for chain in (cube4, binom20):
        rep = kappa_cache(chain)
        U = max_unstability(rep)
        lam = 0.9 * admissible_lambda(chain, U)
        for _ in range(20):
            f = rng.normal(size=chain.n)
            assert c.commutation_check(chain, f, lam, rep.global_kappa, U) == []


def test_commutation_lambda_guard(cube4):
    lam = admissible_lambda(cube4, 0.0)
    with pytest.raises(LambdaTooLarge):
        c.commutation_check(cube4, np.zeros(16), 2 * lam, 1 / 4, 0.0)


def test_log_sobolev_two_point():
    p = 0.3
    chain = build_chain(TWO_POINT, np.array([[1 - p, p], [1 - p, p]]))
    lam = 0.9 * admissible_lambda(chain, 0.0)
    f = np.array([1.0, 2.0])
    (var_lhs, var_rhs, var_holds), (ent_lhs, ent_rhs, ent_holds), v_profile, holds = (
        c.log_sobolev_check(chain, f, lam, 1.0, 0.0))
    assert holds and var_holds and ent_holds
    # sup constant 4 sigma^2 / (n kappa) = 4 p (1-p) here
    Df = c.range_gradient(TWO_POINT, f, lam)
    assert var_rhs == pytest.approx(
        4 * p * (1 - p) * float(np.array([1 - p, p]) @ Df ** 2), abs=1e-12
    )
    assert var_lhs == pytest.approx(p * (1 - p), abs=1e-12)
    assert ent_lhs <= ent_rhs + 1e-9


def test_log_sobolev_mm_infty_remark41(mm60, kappa_cache):
    rep = kappa_cache(mm60)
    U = max_unstability(rep)
    lam = 0.9 * admissible_lambda(mm60, U)
    f = np.exp(-0.05 * np.arange(61)) + 0.5
    *_rest, v_profile, holds = c.log_sobolev_check(
        mm60, f, lam, rep.global_kappa, U
    )
    assert holds
    # Remark-41 shape for the M/M/infinity queue (lam = 3, mu = 1):
    # V(x) <= 8 lam / mu + 2 (lam + x mu) / mu.
    k = np.arange(61)
    assert np.all(v_profile <= 8 * 3.0 + 2 * (3.0 + k) + 1e-9)


def test_log_sobolev_rejects_nonpositive_f(two_point_mixing):
    lam = 0.9 * admissible_lambda(two_point_mixing, 0.0)
    with pytest.raises(NonPositiveF):
        c.log_sobolev_check(two_point_mixing, np.array([1.0, 0.0]), lam, 1.0, 0.0)


# --------------------------------------------- exponential concentration


def test_exp_concentration_drifting_walks(section5_walk):
    for p in (0.55, 0.6, 0.7, 0.9):
        chain = section5_walk(p)
        rep = c.exponential_concentration(chain, 0, 2.0)
        # interior pull toward 0 is exactly the mean drift 2p - 1
        assert rep.rho == pytest.approx(2 * p - 1, abs=1e-9)
        assert rep.holds and rep.lemma45_holds
        assert rep.lhs <= rep.rhs


def test_exp_concentration_no_drift_raises(section5_walk):
    with pytest.raises(NonPositiveRho):
        c.exponential_concentration(section5_walk(0.4), 0, 2.0)


def test_exp_concentration_reset_walk(reset_chain):
    rep = c.exponential_concentration(reset_chain, 0, 2.0)
    # pull from n is n - (1 - alpha)(n + 1) = alpha(n + 1) - 1; the annulus
    # minimum is at n = 2 with alpha = 1/2, giving rho = 1/2
    assert rep.rho == pytest.approx(0.5, abs=1e-9)
    assert rep.holds and rep.lemma45_holds


def test_exp_concentration_not_r_geodesic():
    space = space_from_matrix([0, 1], [[0.0, 3.0], [3.0, 0.0]])
    chain = build_chain(space, np.full((2, 2), 0.5))
    with pytest.raises(NotRGeodesic):
        c.exponential_concentration(chain, 0, 1.0)


def test_average_l2_bonnet_myers_ou():
    for N in (10, 20):
        chain = gallery.discrete_ou(N)
        lhs, rhs, holds = c.average_l2_bonnet_myers(chain, 0, 1.0, 1 / (2 * N))
        assert holds and lhs <= rhs


def test_average_l2_bonnet_myers_hypothesis_fails(cube4):
    with pytest.raises(HypothesisFails):
        c.average_l2_bonnet_myers(cube4, (0, 0, 0, 0), 1.0, 1 / 4)


def test_cor21_w1_decay_to_equilibrium():
    chain = gallery.cube(3)
    nu, _r, _u = invariant_distribution(chain)
    mu = Distribution.dirac(chain.space, (0, 0, 0)).weights
    w0 = w1(Distribution(mu), nu, chain.space).cost
    for k in range(1, 11):
        mu = c.push_forward(chain, mu)
        wk = w1(Distribution(mu), nu, chain.space).cost
        assert wk <= (1 - 1 / 3) ** k * w0 + 1e-9


# ------------------------------------------------- inequalities that fail

# Inputs on which each post-hoc check in bounds.py must fail: a curvature
# bound above the true kappa = 1/3 of the 3-cube, and a distance table that
# breaks the triangle inequality (d = 1.6 > 1.0 + 0.2), on which the range
# gradient is no longer 2 lambda-log-Lipschitz.
NON_METRIC = SimpleNamespace(
    n=3, dist=np.array([[0.0, 1.0, 0.2], [1.0, 0.0, 1.6], [0.2, 1.6, 0.0]])
)
FORCED_FAILURES = {
    "Prop. 29": lambda: bounds.spectral_report(gallery.cube(3), 0.9),
    "Prop. 31": lambda: bounds.variance_bound(gallery.cube(3), 0.5),
    "Def. 37": lambda: bounds.range_gradient(
        NON_METRIC, np.array([0.0, -1.0, -0.8]), 1.0),
}


@pytest.mark.parametrize("name", sorted(FORCED_FAILURES))
def test_failed_inequality_is_named(name):
    with pytest.raises(InequalityFails, match=name):
        FORCED_FAILURES[name]()


def test_failed_inequalities_raise_under_python_O():
    """The checks are raised errors, not asserts that -O strips."""
    tests_dir = Path(__file__).resolve().parent
    script = (
        "import sys\n"
        "import test_bounds as t\n"
        "if not sys.flags.optimize:\n"
        "    sys.exit('not optimized')\n"
        "for name, force in t.FORCED_FAILURES.items():\n"
        "    try:\n"
        "        force()\n"
        "    except t.InequalityFails:\n"
        "        print(name)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(tests_dir.parent / "src"), str(tests_dir)]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == list(FORCED_FAILURES)


# ------------------------------------------------- per-chain memo


def _same(a, b):
    """Exact equality of bound results: floats bit for bit, arrays
    elementwise, dataclasses and sequences field by field."""
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a))
    if isinstance(a, (list, tuple)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(_same(x, y) for x, y in zip(a, b)))
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b)
    return type(a) is type(b) and a == b


def _every_bound(get_chain, origin, r):
    """Each bound of coricci.bounds, or the class of the error it raises,
    with the local statistics and the invariant distribution; every
    quantity is computed on the chain that get_chain() returns for it."""
    chain = get_chain()
    points = chain.space.points
    kappa = c.kappa_global(chain, mode="geodesic", eps=1).global_kappa
    f = chain.space.dist[:, 0]
    g = np.exp(np.random.default_rng(0).normal(size=chain.n))
    calls = {
        "invariant": lambda ch: invariant_distribution(ch),
        "stats_exact": lambda ch: [local_stats(ch, p) for p in points],
        "spectral": lambda ch: bounds.spectral_report(ch, kappa),
        "bonnet_myers": lambda ch: bounds.bonnet_myers(ch),
        "variance": lambda ch: bounds.variance_bound(ch, kappa),
        "gaussian": lambda ch: bounds.gaussian_concentration(ch, f, kappa),
        "finite_time": lambda ch: bounds.finite_time_variance(ch, points[0], 5, kappa),
        "lambda": lambda ch: admissible_lambda(ch, 0.5),
        "commutation": lambda ch: bounds.commutation_check(
            ch, g, admissible_lambda(ch, 0.5), kappa, 0.5),
        "log_sobolev": lambda ch: bounds.log_sobolev_check(
            ch, g, admissible_lambda(ch, 0.5), kappa, 0.5),
        "average_l2": lambda ch: bounds.average_l2_bonnet_myers(ch, origin, r, kappa),
        "expconc": lambda ch: bounds.exponential_concentration(ch, origin, r),
    }
    out = {}
    for name, call in calls.items():
        try:
            out[name] = call(get_chain())
        except CoricciError as exc:
            out[name] = type(exc)
    return out


@pytest.mark.parametrize("make, origin, r", [
    (lambda: gallery.discrete_ou(3), 0, 1.0),
    (lambda: gallery.cube(3), (0, 0, 0), 1.0),
    (lambda: gallery.geometric_reset(0.5, K=20), 0, 2.0),
], ids=["ou3", "cube3", "reset20"])
def test_memoised_bounds_equal_fresh_chain(make, origin, r):
    chain = make()
    first = _every_bound(lambda: chain, origin, r)
    again = _every_bound(lambda: chain, origin, r)  # all read from the memo
    # A new chain with the same data for every quantity: nothing memoised.
    fresh = _every_bound(lambda: Chain(chain.space, chain.kernel, chain.dt), origin, r)
    assert chain._memo
    for name in first:
        assert _same(first[name], again[name]), name
        assert _same(first[name], fresh[name]), name
