import numpy as np
import pytest
from scipy.optimize import linprog

import coricci as c
from coricci.chain import averaging, build_chain, lipschitz_constant, local_stats
from coricci.curvature import (
    contraction_check,
    kappa,
    kappa_decomposition,
    kappa_global,
)
from coricci.errors import NoPairs, NotGeodesic, SamePoint
from coricci.gallery import cube, geometric_reflect, glauber
from coricci.metric import space_from_matrix
from coricci.transport import Distribution


def cycle_chain(n):
    """Translation-invariant nearest-neighbor walk on an n-cycle."""
    dist = np.minimum(
        np.abs(np.arange(n)[:, None] - np.arange(n)[None, :]),
        n - np.abs(np.arange(n)[:, None] - np.arange(n)[None, :]),
    ).astype(float)
    space = space_from_matrix(range(n), dist)
    P = np.zeros((n, n))
    for i in range(n):
        P[i, (i + 1) % n] = 0.5
        P[i, (i - 1) % n] = 0.5
    return build_chain(space, P)


def test_cube_adjacent_kappa(cube5):
    assert kappa(cube5, (0,) * 5, (1,) + (0,) * 4) == pytest.approx(1 / 5, abs=1e-9)


def test_cycle_zero_curvature():
    chain = cycle_chain(12)
    assert kappa(chain, 0, 1) == pytest.approx(0.0, abs=1e-9)


def test_discrete_ou_neighbors():
    chain = c.generate(c.PresetSpec("discrete_ou", {"N": 6}))
    assert kappa(chain, 0, 1) == pytest.approx(1 / 12, abs=1e-9)


def test_same_point_rejected(cube4):
    with pytest.raises(SamePoint):
        kappa(cube4, (0, 0, 0, 0), (0, 0, 0, 0))


def test_kappa_symmetric(cube4, binom20):
    rng = np.random.default_rng(0)
    for chain in (cube4, binom20):
        pts = chain.space.points
        for _ in range(5):
            i, j = rng.choice(len(pts), size=2, replace=False)
            assert kappa(chain, pts[i], pts[j]) == pytest.approx(
                kappa(chain, pts[j], pts[i]), abs=1e-9
            )


def test_kappa_delta_monotone(binom20):
    x, y = 3, 7
    base = kappa(binom20, x, y, delta=0.0)
    assert base == pytest.approx(kappa(binom20, x, y), abs=1e-15)
    prev = base
    for delta in (0.1, 0.5, 1.0, 5.0):
        cur = kappa(binom20, x, y, delta=delta)
        assert cur >= prev - 1e-12
        prev = cur
    assert kappa(binom20, x, y, delta=100.0) == pytest.approx(1.0)


def test_cube_decomposition_no_negative_part(cube4):
    k_plus, k_minus, U = kappa_decomposition(cube4, (0, 0, 0, 0), (1, 0, 0, 0))
    assert k_minus == pytest.approx(0.0, abs=1e-9)
    assert U == pytest.approx(0.0, abs=1e-9)
    assert k_plus == pytest.approx(1 / 4, abs=1e-9)


def test_flip_chain_decomposition():
    space = space_from_matrix([0, 1], [[0.0, 1.0], [1.0, 0.0]])
    chain = build_chain(space, np.array([[0.0, 1.0], [1.0, 0.0]]))
    k_plus, k_minus, U = kappa_decomposition(chain, 0, 1)
    assert k_plus == pytest.approx(0.0, abs=1e-12)
    assert k_minus == pytest.approx(0.0, abs=1e-12)
    assert U is None  # kappa = 0, unstability undefined


def test_glauber_decomposition_matches_coupling_lp():
    """kappa+/kappa- on a 3-path Glauber chain, against an LP that finds an
    optimal coupling by brute force over the full coupling polytope."""
    chain = glauber("path:3", beta=0.5)
    space = chain.space
    x = (1, -1, 1)
    y = (1, 1, 1)  # differ at the middle vertex
    i, j = space.index(x), space.index(y)
    mu = chain.dense()[i]
    nu = chain.dense()[j]
    n = space.n
    cost = space.dist.reshape(-1)
    A_eq, b_eq = [], []
    for a in range(n):
        row = np.zeros((n, n))
        row[a, :] = 1
        A_eq.append(row.reshape(-1))
        b_eq.append(mu[a])
    for b in range(n):
        col = np.zeros((n, n))
        col[:, b] = 1
        A_eq.append(col.reshape(-1))
        b_eq.append(nu[b])
    res = linprog(cost, A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.status == 0
    plan = res.x.reshape(n, n)
    dxy = space.dist[i, j]
    delta = dxy - space.dist
    lp_plus = float((plan * np.maximum(delta, 0)).sum()) / dxy
    lp_minus = float((plan * np.maximum(-delta, 0)).sum()) / dxy

    k_plus, k_minus, _U = kappa_decomposition(chain, x, y)
    # both plans are optimal, so the net curvature agrees exactly
    assert k_plus - k_minus == pytest.approx(lp_plus - lp_minus, abs=1e-9)
    # and for this chain the canonical plan is never distance-increasing
    assert k_minus == pytest.approx(lp_minus, abs=1e-9)


def test_kappa_global_geodesic_cube(cube4, kappa_cache):
    rep = kappa_cache(cube4)
    assert rep.global_kappa == pytest.approx(1 / 4, abs=1e-9)
    assert rep.mode == "geodesic(1)"
    for p in rep.pairs:
        assert p.kappa == pytest.approx(p.kappa_plus - p.kappa_minus, abs=1e-9)
        assert p.kappa <= 1 + 1e-12


def test_kappa_global_all_pairs_cube_at_least_quarter(cube4, kappa_cache):
    rep = kappa_global(cube4)
    assert all(p.kappa >= 1 / 4 - 1e-9 for p in rep.pairs)
    # Prop. 19 direction: all-pairs minimum >= geodesic-pairs minimum
    assert rep.global_kappa >= kappa_cache(cube4).global_kappa - 1e-9


def test_geometric_reflect_interior_zero():
    chain = geometric_reflect(K=100)
    for n in (1, 17, 50, 98):
        assert kappa(chain, n, n + 1) == pytest.approx(0.0, abs=1e-9)


def test_not_geodesic_raises():
    space = space_from_matrix([0, 1], [[0.0, 3.0], [3.0, 0.0]])
    chain = build_chain(space, np.full((2, 2), 0.5))
    with pytest.raises(NotGeodesic):
        kappa_global(chain, mode="geodesic", eps=1.0)


def test_contraction_trivial(cube4):
    nu = Distribution(np.full(16, 1 / 16))
    lhs, rhs, holds = contraction_check(cube4, nu, nu, 1 / 4)
    assert lhs == pytest.approx(0.0, abs=1e-12)
    assert holds


def test_contraction_dirac_pair(cube4):
    mu = Distribution.dirac(cube4.space, (0, 0, 0, 0))
    nu = Distribution.dirac(cube4.space, (1, 0, 0, 0))
    lhs, rhs, holds = contraction_check(cube4, mu, nu, 1 / 4)
    assert lhs == pytest.approx(3 / 4, abs=1e-9)
    assert rhs == pytest.approx(3 / 4, abs=1e-9)
    assert holds


def test_contraction_random_pairs(cube4, binom20, glauber5, kappa_cache):
    rng = np.random.default_rng(2)
    for chain in (cube4, binom20, glauber5):
        k = kappa_cache(chain).global_kappa
        n = chain.n
        for _ in range(50):
            a = rng.random(n) ** 3
            b = rng.random(n) ** 3
            mu = Distribution(a / a.sum())
            nu = Distribution(b / b.sum())
            _lhs, _rhs, holds = contraction_check(chain, mu, nu, k)
            assert holds


def test_lipschitz_contraction_prop28(cube4, binom20, kappa_cache):
    rng = np.random.default_rng(3)
    for chain in (cube4, binom20):
        k = kappa_cache(chain).global_kappa
        for _ in range(20):
            f = rng.normal(size=chain.n)
            lip_f = lipschitz_constant(chain.space, f)
            lip_Mf = lipschitz_constant(chain.space, averaging(chain, f))
            assert lip_Mf <= (1 - k) * lip_f + 1e-9


def test_cor22_mean_estimate(cube4, binom20, kappa_cache):
    """|f(x) - E_nu f| <= J(x)/kappa for 1-Lipschitz f."""
    rng = np.random.default_rng(4)
    for chain in (cube4, binom20):
        k = kappa_cache(chain).global_kappa
        nu, _r, _u = c.invariant_distribution(chain)
        J = np.array([local_stats(chain, p).J for p in chain.space.points])
        for _ in range(5):
            f = rng.normal(size=chain.n)
            lip = lipschitz_constant(chain.space, f)
            f = f / lip
            gap = np.abs(f - nu.mean(f))
            assert np.all(gap <= J / k + 1e-9)


def test_one_point_space_has_no_pairs():
    chain = build_chain(space_from_matrix(["a"], [[0.0]]), np.array([[1.0]]))
    with pytest.raises(NoPairs):
        kappa_global(chain)
