"""Acceptance gate: the ten headline checks, one test per criterion.

Each test prints a single PASS/FAIL line (visible with -s or on failure)
and asserts the stated tolerances.
"""

import math

import numpy as np
import pytest

import coricci as c
from coricci import bounds, gallery
from coricci.chain import (
    invariant_distribution,
    lipschitz_constant,
    local_stats,
)
from coricci.errors import TruncationTooAggressive
from coricci.transport import Distribution, w1


def _line(name, ok):
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_1_exact_curvature_values(cube6, kappa_cache, binom20):
    """cube kappa = 1/N, discrete_ou neighbor kappa = 1/2N,
    multinomial(4,2) = 1/4, geometric_reset = alpha, binomial(20,.1) = 1/20."""
    ok = True
    for N in (3, 4, 5, 6):
        chain = cube6 if N == 6 else gallery.cube(N)
        rep = kappa_cache(chain)
        ok &= abs(rep.global_kappa - 1 / N) < 1e-9
    for N in (4, 8, 10):
        chain = gallery.discrete_ou(N)
        ok &= abs(c.kappa(chain, 0, 1) - 1 / (2 * N)) < 1e-9
    rep = c.kappa_global(gallery.multinomial(4, 2), mode="geodesic", eps=1)
    ok &= abs(rep.global_kappa - 1 / 4) < 1e-9
    for alpha in (0.3, 0.5):
        rep = c.kappa_global(gallery.geometric_reset(alpha, K=60))
        ok &= abs(rep.global_kappa - alpha) < 1e-9
    ok &= abs(kappa_cache(binom20).global_kappa - 1 / 20) < 1e-9
    _line("1 exact curvature values", ok)


def test_criterion_2_spectral_sharpness(
    cube5, cube4, ou8, binom20, glauber5, mm60, reset_chain, kappa_cache
):
    """Lazy cube(5) radius = 1 - 1/5 exactly; every positively curved
    gallery chain has radius <= 1 - kappa + 1e-8 (asserted inside
    spectral_report)."""
    rep5 = bounds.spectral_report(cube5, 1 / 5)
    ok = abs(rep5.spectral_radius - (1 - 1 / 5)) < 1e-9
    chains = [cube4, ou8, binom20, glauber5, mm60, reset_chain,
              gallery.pow2_jump(j=6)]
    for chain in chains:
        kappa = kappa_cache(chain).global_kappa
        assert kappa > 0
        sp = bounds.spectral_report(chain, kappa)
        ok &= sp.spectral_radius <= 1 - kappa + 1e-8
    _line("2 spectral sharpness", ok)


def test_criterion_3_bonnet_myers_sharpness(cube6, ou8, kappa_cache):
    """cube(6) diameter bound 2 sup J / kappa = 6 = diameter;
    discrete_ou(8) bound 16 = diameter."""
    (da6, db6, _h6), _pp, _avg = c.bonnet_myers(cube6, kappa_cache(cube6))
    (da8, db8, _h8), _pp8, _avg8 = c.bonnet_myers(ou8, kappa_cache(ou8))
    ok = (
        abs(db6 - 6.0) < 1e-9 and da6 == 6.0
        and abs(db8 - 16.0) < 1e-9 and da8 == 16.0
    )
    _line("3 Bonnet-Myers sharpness", ok)


def test_criterion_4_variance(binom40):
    """binomial(40, lambda=2): exact Var = lambda(1 - lambda/N) = 1.9 and
    the extremal Lipschitz variance are both <= the Prop. 31 bound, which
    is within 10% of lambda = 2."""
    lam = 2.0
    N = 40
    (extremal, bound, _holds), _sd = c.variance_bound(binom40, 1 / N)
    nu, _r, _u = invariant_distribution(binom40)
    exact = nu.variance(np.arange(N + 1, dtype=float))
    ok = (
        abs(exact - lam * (1 - lam / N)) < 1e-9
        and exact <= bound + 1e-9
        and extremal <= bound + 1e-9
        and abs(bound - lam) / lam < 0.10
    )
    _line("4 variance", ok)


def test_criterion_5_gaussian_concentration(binom40):
    """binomial(40, lambda=2): D^2 in [2 lambda +- 0.5], t_max within 15%
    of 4 lambda / 3, exact tails below the Thm. 32 curve everywhere."""
    lam = 2.0
    rep = c.gaussian_concentration(binom40, np.arange(41, dtype=float), 1 / 40)
    ok = (
        2 * lam - 0.5 <= rep.D2 <= 2 * lam + 0.5
        and abs(rep.t_max - 4 * lam / 3) <= 0.15 * (4 * lam / 3)
        and rep.holds
    )
    _line("5 Gaussian concentration", ok)


def test_criterion_6_continuous_time_recovery(mm60, kappa_cache):
    """mm_infty(3, 1, 1e-3, K=60): kappa/dt = 1 within 1% and nu within
    total variation 1e-4 of Poisson(3)."""
    rep = kappa_cache(mm60)
    nu, _r, _u = invariant_distribution(mm60)
    pois = np.array(
        [math.exp(-3.0) * 3.0 ** k / math.factorial(k) for k in range(61)]
    )
    tv = 0.5 * float(np.abs(nu.weights - pois).sum())
    ok = abs(rep.global_kappa / mm60.dt - 1.0) < 0.01 and tv < 1e-4
    _line("6 continuous-time recovery", ok)


def test_criterion_7_exponential_concentration(section5_walk):
    """Drifting walk p = 0.7: rho = 0.4 exactly, D = s^2/rho = 10 =
    4/(2p-1), and the Thm. 44 moment bound holds on exact nu."""
    rep = c.exponential_concentration(section5_walk(0.7), 0, 2.0)
    ok = (
        abs(rep.rho - 0.4) < 1e-9
        and abs(rep.D - 10.0) < 1e-6
        and abs(rep.D - 4.0 / (2 * 0.7 - 1)) < 1e-6
        and rep.holds
        and rep.lemma45_holds
    )
    _line("7 exponential concentration", ok)


def test_criterion_8_heavy_tails():
    """quadratic_rates(1, 1): stationary log-log slope over k in [40, 120]
    equals -(2 + b/a) = -3 within 10%.  The default truncation policy
    rejects K = 150 (tail ~5e-5 > 1e-6); the run overrides tail_tol."""
    with pytest.raises(TruncationTooAggressive):
        gallery.quadratic_rates(1.0, 1.0, 1e-6, K=150)
    chain = gallery.quadratic_rates(1.0, 1.0, 1e-6, K=150, tail_tol=1e-4)
    nu, _r, _u = invariant_distribution(chain)
    ks = np.arange(40, 121)
    slope = np.polyfit(np.log(ks), np.log(nu.weights[ks]), 1)[0]
    ok = abs(slope - (-3.0)) < 0.3
    _line("8 heavy tails", ok)


def test_criterion_9_property_suites(
    cube4, binom20, glauber5, two_point_mixing, kappa_cache
):
    """W1 duality gap (asserted on every call), triangle inequality,
    Prop. 20 / Prop. 28 contraction, Prop. 43 commutation, Cor. 21 decay,
    and tensorize(2-point mixing, N) = cube(N)."""
    rng = np.random.default_rng(11)
    ok = True

    # triangle inequality on 100 random triples of the binomial chain
    space = binom20.space
    for _ in range(100):
        trip = [Distribution(w / w.sum())
                for w in (rng.random(space.n) ** 2 for _ in range(3))]
        ab = w1(trip[0], trip[1], space).cost
        bc = w1(trip[1], trip[2], space).cost
        ac = w1(trip[0], trip[2], space).cost
        ok &= ac <= ab + bc + 1e-9

    # Prop. 20 contraction (50 random pairs) and Prop. 28 Lipschitz
    # contraction (20 random f) per gallery chain
    for chain in (cube4, binom20, glauber5):
        kappa = kappa_cache(chain).global_kappa
        n = chain.n
        for _ in range(50):
            a, b = rng.random(n) ** 3, rng.random(n) ** 3
            _l, _r, holds = c.contraction_check(
                chain, Distribution(a / a.sum()), Distribution(b / b.sum()), kappa
            )
            ok &= holds
        for _ in range(20):
            f = rng.normal(size=n)
            ok &= (
                lipschitz_constant(chain.space, c.averaging(chain, f))
                <= (1 - kappa) * lipschitz_constant(chain.space, f) + 1e-9
            )

    # Prop. 43 commutation: 20 random f per chain at admissible lambda
    for chain in (cube4, binom20):
        rep = kappa_cache(chain)
        U = max((p.U for p in rep.pairs if p.U is not None), default=0.0)
        lam = bounds.admissible_lambda(chain, U)
        for _ in range(20):
            f = rng.normal(size=chain.n)
            ok &= c.commutation_check(chain, f, lam, rep.global_kappa, U) == []

    # Cor. 21: T1(m*^n_x, nu) <= (1 - kappa)^n J(x) / kappa on the cube
    nu, _r, _u = invariant_distribution(cube4)
    x = (0, 0, 0, 0)
    J = local_stats(cube4, x).J
    mu = Distribution.dirac(cube4.space, x).weights
    for n in range(1, 11):
        mu = c.push_forward(cube4, mu)
        dist = w1(Distribution(mu), nu, cube4.space).cost
        ok &= dist <= (1 - 1 / 4) ** n * J / (1 / 4) + 1e-9

    # tensorize(2-point mixing, N) = cube(N) row-for-row
    product = c.tensorize([two_point_mixing] * 4, [1 / 4] * 4)
    ok &= product.space.points == cube4.space.points
    ok &= bool(np.allclose(product.dense(), cube4.dense(), atol=1e-15))

    _line("9 property suites", ok)


def test_criterion_10_log_sobolev(cube4, binom20, glauber5, ou8, mm60, kappa_cache):
    """2-point chain reproduces the 4p(1-p) constant exactly; Thm. 40
    holds for 20 random positive f per reversible gallery chain at the
    admissible lambda."""
    from coricci.metric import space_from_matrix

    ok = True
    p = 0.3
    sp = space_from_matrix([0, 1], [[0.0, 1.0], [1.0, 0.0]])
    chain2 = c.build_chain(sp, np.array([[1 - p, p], [1 - p, p]]))
    stats = local_stats(chain2, 0)
    sup_const = 4 * (stats.sigma2 / stats.n_x) / 1.0  # kappa = 1
    ok &= abs(sup_const - 4 * p * (1 - p)) < 1e-12

    rng = np.random.default_rng(12)
    for chain in (cube4, binom20, glauber5, ou8, mm60):
        rep = kappa_cache(chain)
        _nu, reversible, _u = invariant_distribution(chain)
        assert reversible
        U = max((q.U for q in rep.pairs if q.U is not None), default=0.0)
        lam = bounds.admissible_lambda(chain, U)
        for _ in range(20):
            f = np.exp(rng.normal(size=chain.n))
            *_rest, holds = c.log_sobolev_check(
                chain, f, lam, rep.global_kappa, U
            )
            ok &= holds
    _line("10 log-Sobolev", ok)
