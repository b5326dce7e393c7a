import math
import tracemalloc
from itertools import product

import numpy as np
import pytest

import coricci as c
from coricci import gallery
from coricci.chain import build_chain, invariant_distribution
from coricci.curvature import kappa, kappa_global
from coricci.errors import (
    BadWeights,
    DtTooLarge,
    InvalidParams,
    ProductTooLarge,
    RatesNegative,
    SpaceMismatch,
    TruncationTooAggressive,
)
from coricci.metric import space_from_matrix


def test_cube_states_and_kappa(cube4, kappa_cache):
    assert cube4.n == 16
    assert kappa_cache(cube4).global_kappa == pytest.approx(1 / 4, abs=1e-9)


def test_multinomial_states_and_kappa():
    chain = gallery.multinomial(4, 2)
    assert chain.n == math.comb(6, 2)
    rep = kappa_global(chain, mode="geodesic", eps=1)
    assert rep.global_kappa == pytest.approx(1 / 4, abs=1e-9)


def test_glauber_kappa_lower_bound(glauber5, kappa_cache):
    beta = 0.2
    bound = (1 / 5) * (1 - 2 * math.tanh(beta))
    assert kappa_cache(glauber5).global_kappa >= bound - 1e-9


def test_glauber_gibbs_invariant(glauber5):
    nu, reversible, _u = invariant_distribution(glauber5)
    pts = glauber5.space.points

    def energy(S):
        return -sum(S[i] * S[(i + 1) % 5] for i in range(5))

    w = np.array([math.exp(-0.2 * energy(S)) for S in pts])
    w /= w.sum()
    assert np.abs(nu.weights - w).max() < 1e-12
    assert reversible


def test_binomial_kappa_and_invariant(binom20):
    rep = kappa_global(binom20, mode="geodesic", eps=1)
    assert rep.global_kappa == pytest.approx(1 / 20, abs=1e-9)


def test_geometric_reset_kappa():
    for alpha in (0.3, 0.5):
        chain = gallery.geometric_reset(alpha, K=60)
        rep = kappa_global(chain)
        assert rep.global_kappa == pytest.approx(alpha, abs=1e-9)


def test_geometric_reset_invariant_geometric(reset_chain):
    nu, _rev, _u = invariant_distribution(reset_chain)
    expected = 0.5 * 0.5 ** np.arange(61)
    expected[-1] *= 2  # boundary self-loop absorbs the truncated tail
    assert np.abs(nu.weights - expected / expected.sum()).max() < 1e-9


def test_pow2_jump_interior_kappa_at_least_half():
    chain = gallery.pow2_jump(j=6)
    for k in (1, 2, 3, 5, 9, 16):
        assert kappa(chain, k, k + 1) >= 0.5 - 1e-9


def test_pow2_jump_stationary_lower_bound():
    """Only 2^{i-1} feeds 2^i, so nu(2^i) = nu(2^{i-1}) / (4 * 4^{i-1}),
    i.e. nu(2^i) = nu(1) * 2^{-i(i+1)}: super-exponential but heavier than
    the naive doubling-probability product."""
    chain = gallery.pow2_jump(j=6)
    nu, _rev, _u = invariant_distribution(chain)
    nu1 = nu.weights[chain.space.index(1)]
    for i_exp in range(1, 6):
        k = 2 ** i_exp
        lower = nu1 * 2.0 ** (-i_exp * (i_exp + 1))
        assert nu.weights[chain.space.index(k)] >= lower - 1e-12


def test_mm_infty_poisson_invariant(mm60):
    nu, _rev, _u = invariant_distribution(mm60)
    lam = 3.0
    pois = np.array([math.exp(-lam) * lam ** k / math.factorial(k) for k in range(61)])
    assert 0.5 * np.abs(nu.weights - pois).sum() < 1e-4  # total variation


def test_mm_infty_kappa_rate(mm60):
    rep = kappa_global(mm60, mode="geodesic", eps=1)
    assert rep.global_kappa / mm60.dt == pytest.approx(1.0, rel=1e-2)


def test_linear_rates_kappa_rate():
    chain = gallery.linear_rates(1.0, 1.5, 1e-3, K=120)
    rep = kappa_global(chain, mode="geodesic", eps=1)
    assert rep.global_kappa / chain.dt == pytest.approx(0.5, rel=1e-2)


def test_quadratic_rates_truncation_policy():
    with pytest.raises(TruncationTooAggressive):
        gallery.quadratic_rates(1.0, 1.0, 1e-6, K=150)
    chain = gallery.quadratic_rates(1.0, 1.0, 1e-6, K=150, tail_tol=1e-4)
    assert chain.n == 151


def test_discretize_rates_guards():
    states = [0, 1]
    metric = space_from_matrix(states, [[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(RatesNegative):
        gallery.discretize_rates(states, metric, [[0, -1.0], [1.0, 0]], 0.1)
    with pytest.raises(DtTooLarge):
        gallery.discretize_rates(states, metric, [[0, 10.0], [1.0, 0]], 0.1)
    chain = gallery.discretize_rates(states, metric, [[0, 2.0], [1.0, 0]], 0.1)
    assert chain.dt == 0.1
    assert np.allclose(chain.dense(), [[0.8, 0.2], [0.1, 0.9]])


def test_invalid_params():
    with pytest.raises(InvalidParams):
        gallery.binomial(10, 1.5)
    with pytest.raises(InvalidParams):
        c.generate(c.PresetSpec("cube", {"N": 4, "bogus": 1}))
    with pytest.raises(InvalidParams):
        c.PresetSpec("unknown_preset")


def test_superpose_single_identity(cube4):
    assert np.allclose(gallery.superpose([cube4], [1.0]).dense(), cube4.dense())


def test_superpose_identity_and_mixing(two_point_mixing):
    space = two_point_mixing.space
    identity = build_chain(space, np.eye(2))
    mixed = gallery.superpose([identity, two_point_mixing], [0.5, 0.5])
    rep = kappa_global(mixed)
    assert rep.global_kappa >= 0.5 - 1e-9


def test_superpose_same_kernel_unchanged():
    chain = gallery.cube(3)
    mixed = gallery.superpose([chain, chain], [0.3, 0.7])
    rep = kappa_global(mixed, mode="geodesic", eps=1)
    assert rep.global_kappa == pytest.approx(1 / 3, abs=1e-9)


def test_superpose_guards(cube4, two_point_mixing):
    with pytest.raises(BadWeights):
        gallery.superpose([cube4], [0.5])
    with pytest.raises(SpaceMismatch):
        gallery.superpose([cube4, two_point_mixing], [0.5, 0.5])


def test_tensorize_single_is_input(two_point_mixing):
    assert gallery.tensorize([two_point_mixing], [1.0]) is two_point_mixing


def test_tensorize_mixing_equals_cube(two_point_mixing, cube4):
    N = 4
    product = gallery.tensorize([two_point_mixing] * N, [1 / N] * N)
    assert product.space.points == cube4.space.points
    assert np.array_equal(product.space.dist, cube4.space.dist)
    assert np.allclose(product.dense(), cube4.dense(), atol=1e-15)


def test_tensorize_zero_weight_component_kills_curvature(two_point_mixing):
    space = two_point_mixing.space
    identity = build_chain(space, np.eye(2))
    product = gallery.tensorize([two_point_mixing, identity], [1.0, 0.0])
    rep = kappa_global(product)
    assert rep.global_kappa <= 0.0 + 1e-9


def test_tensorize_guards(two_point_mixing):
    with pytest.raises(BadWeights):
        gallery.tensorize([two_point_mixing] * 2, [0.7, 0.7])
    big = gallery.cube(5)
    with pytest.raises(ProductTooLarge):
        gallery.tensorize([big] * 4, [0.25] * 4)


def _tensorize_by_loops(chains, alphas):
    """The product metric and kernel, entry by entry: the reference that
    gallery.tensorize must match bit for bit."""
    points = list(product(*(ch.space.points for ch in chains)))
    index = {p: i for i, p in enumerate(points)}
    total = len(points)
    dist = np.zeros((total, total))
    for s, t in ((s, t) for s in range(total) for t in range(total)):
        dist[s, t] = sum(
            ch.space.dist[ch.space.index(points[s][i]), ch.space.index(points[t][i])]
            for i, ch in enumerate(chains)
        )
    P = np.zeros((total, total))
    for s, p in enumerate(points):
        for i, ch in enumerate(chains):
            row = ch.dense()[ch.space.index(p[i])]
            for j, mass in zip(np.nonzero(row > 0)[0], row[row > 0]):
                q = list(p)
                q[i] = ch.space.points[j]
                P[s, index[tuple(q)]] += alphas[i] * mass
    return points, dist, P


@pytest.mark.parametrize("factors", ["cube4", "mixed"])
def test_tensorize_is_bit_equal_to_the_loops(two_point_mixing, factors):
    if factors == "cube4":
        chains, alphas = [two_point_mixing] * 4, np.full(4, 0.25)
    else:
        # Decimal distances, so that the order of the factor sums shows.
        space = space_from_matrix("abc", [[0, 0.1, 0.7], [0.1, 0, 0.65], [0.7, 0.65, 0]])
        walk = build_chain(space, [[0.5, 0.3, 0.2], [0.1, 0.9, 0.0], [0.0, 0.4, 0.6]])
        chains = [gallery.binomial(3, 0.3), walk, gallery.glauber("path:2", 0.4)]
        alphas = np.array([0.5, 0.2, 0.3])
    points, dist, P = _tensorize_by_loops(chains, alphas)
    product_chain = gallery.tensorize(chains, alphas)
    assert product_chain.space.points == tuple(points)
    assert product_chain.space.dist.tobytes() == dist.tobytes()
    assert product_chain.dense().tobytes() == P.tobytes()


def test_tensorize_cap_is_checked_before_allocating():
    """One state over PRODUCT_CAP raises ProductTooLarge before the product
    metric or kernel is allocated."""
    assert gallery.PRODUCT_CAP == 4096
    small, large = gallery.binomial(16, 0.5), gallery.binomial(240, 0.5)
    assert small.n * large.n == gallery.PRODUCT_CAP + 1
    tracemalloc.start()
    try:
        with pytest.raises(ProductTooLarge, match="4097 exceeds cap 4096"):
            gallery.tensorize([small, large], [0.5, 0.5])
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_superposition_curvature_additive(two_point_mixing):
    """Prop. 25: kappa(sum alpha_i m_i) >= sum alpha_i kappa_i on a mix of
    chains with known curvature."""
    space = two_point_mixing.space
    identity = build_chain(space, np.eye(2))  # kappa = 0
    for a in (0.2, 0.5, 0.8):
        mixed = gallery.superpose([two_point_mixing, identity], [a, 1 - a])
        rep = kappa_global(mixed)
        assert rep.global_kappa >= a * 1.0 + (1 - a) * 0.0 - 1e-9


def test_tensorize_curvature_inf_bound(two_point_mixing):
    """Prop. 26: kappa >= inf alpha_i kappa_i."""
    product = gallery.tensorize([two_point_mixing] * 3, [0.5, 0.25, 0.25])
    rep = kappa_global(product)
    assert rep.global_kappa >= 0.25 - 1e-9
