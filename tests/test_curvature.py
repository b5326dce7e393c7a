from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import coricci as c
from coricci import transport
from coricci.chain import (
    Chain,
    averaging,
    build_chain,
    lipschitz_constant,
    local_stats,
    push_forward,
)
from coricci.curvature import (
    CHECK_ATOL,
    Check,
    _coupling_parts,
    contraction_check,
    kappa,
    kappa_decomposition,
    kappa_global,
)
from coricci.errors import Infeasible, NoPairs, NotGeodesic, SamePoint
from coricci.gallery import cube, geometric_reflect, glauber
from coricci.metric import is_epsilon_geodesic, is_hop, space_from_matrix
from coricci.transport import MASS_ATOL, Distribution, w1


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


def test_check_decides_within_one_tolerance():
    """A Check holds when lhs exceeds rhs by at most CHECK_ATOL, unpacks as
    (lhs, rhs, holds), and its fields are the columns of a report row."""
    assert Check.of(1.0 + CHECK_ATOL / 2, 1.0) == (1.0 + CHECK_ATOL / 2, 1.0, True)
    assert not Check.of(1.0 + 2 * CHECK_ATOL, 1.0).holds
    assert not Check.of(float("nan"), 1.0).holds
    lhs, rhs, holds = Check.of(0.5, 1.0)
    assert (lhs, rhs, holds) == (0.5, 1.0, True) and type(holds) is bool
    assert list(Check.of(0.5, 1.0)._asdict()) == ["lhs", "rhs", "holds"]


def test_contraction_trivial(cube4):
    nu = Distribution(np.full(16, 1 / 16))
    lhs, rhs, holds = contraction_check(cube4, nu, nu, 1 / 4)
    assert lhs == pytest.approx(0.0, abs=1e-12)
    assert holds


def test_contraction_dirac_pair(cube4):
    mu = Distribution.dirac(cube4.space, (0, 0, 0, 0))
    nu = Distribution.dirac(cube4.space, (1, 0, 0, 0))
    lhs, rhs, holds = check = contraction_check(cube4, mu, nu, 1 / 4)
    assert isinstance(check, Check)
    assert lhs == pytest.approx(3 / 4, abs=1e-9)
    assert rhs == pytest.approx(3 / 4, abs=1e-9)
    assert holds


def test_contraction_random_pairs(cube4, binom20, glauber5, kappa_cache):
    """The check holds, and its two sides, flows on the metric's skeleton,
    are the dense w1 costs within 1e-12 relative."""
    rng = np.random.default_rng(2)
    for chain in (cube4, binom20, glauber5):
        k = kappa_cache(chain).global_kappa
        n = chain.n
        for _ in range(50):
            a = rng.random(n) ** 3
            b = rng.random(n) ** 3
            mu = Distribution(a / a.sum())
            nu = Distribution(b / b.sum())
            lhs, rhs, holds = contraction_check(chain, mu, nu, k)
            assert holds
            dense_lhs = w1(Distribution(push_forward(chain, mu.weights)),
                           Distribution(push_forward(chain, nu.weights)), chain.space).cost
            dense_rhs = (1.0 - k) * w1(mu, nu, chain.space).cost
            assert abs(lhs - dense_lhs) <= 1e-12 * dense_lhs
            assert abs(rhs - dense_rhs) <= 1e-12 * dense_rhs


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


def _per_pair_scan(chain, eps=None, delta=0.0):
    """kappa_global's pairs as one w1 and _coupling_parts call per pair."""
    space, dense = chain.space, chain.dense()
    d = space.dist
    out = []
    for i, j in combinations(range(space.n), 2):
        if eps is not None and not is_hop(d[i, j], eps):
            continue
        res = w1(Distribution(dense[i]), Distribution(dense[j]), space)
        k = 1.0 - max(res.cost - delta, 0.0) / d[i, j]
        out.append((space.points[i], space.points[j], k)
                   + _coupling_parts(res.plan, d, i, j))
    return out


def _bits(values):
    """The bits of each float, None as NaN: equal bits mean the same double
    with the same sign."""
    return np.array([np.nan if v is None else v for v in values], dtype=np.float64).view(np.int64)


def _assert_scan_matches_w1(chain, eps=None, delta=0.0):
    """The report's columns and its pairs are the per-pair w1 loop bit for
    bit, with NaN in the U column and None in the pairs where U is undefined."""
    mode = "all-pairs" if eps is None else "geodesic"
    rep = kappa_global(chain, mode=mode, eps=eps, delta=delta)
    ref = _per_pair_scan(chain, eps, delta)
    index = chain.space.index
    assert rep.I.tolist() == [index(r[0]) for r in ref]
    assert rep.J.tolist() == [index(r[1]) for r in ref]
    columns = (rep.kappa, rep.kappa_plus, rep.kappa_minus, rep.U)
    assert len(rep.pairs) == len(ref)
    got = [(p.x, p.y, p.kappa, p.kappa_plus, p.kappa_minus, p.U) for p in rep.pairs]
    assert [r[:2] for r in got] == [r[:2] for r in ref]
    for k, column in enumerate(columns, start=2):
        expected = _bits([r[k] for r in ref])
        assert np.array_equal(column.view(np.int64), expected)
        assert np.array_equal(_bits([r[k] for r in got]), expected)
    assert [p.U is None for p in rep.pairs] == [r[5] is None for r in ref]
    assert rep.global_kappa == min(r[2] for r in ref)


def test_kappa_global_matches_per_pair_w1(cube4, binom20, glauber5):
    reflect = geometric_reflect(K=20)  # has pairs with kappa <= 0: U undefined
    assert np.isnan(kappa_global(reflect).U).any()
    for chain in (cube4, binom20, glauber5, reflect):
        _assert_scan_matches_w1(chain)
        _assert_scan_matches_w1(chain, eps=1)
    for delta in (0.1, 0.5):
        _assert_scan_matches_w1(binom20, delta=delta)
        _assert_scan_matches_w1(glauber5, eps=1, delta=delta)
        _assert_scan_matches_w1(reflect, eps=1, delta=delta)


_OVER = 0.25 + MASS_ATOL  # a row 0.25, 0.25, 0.25, _OVER sums to 1 + MASS_ATOL, rounded


@pytest.mark.parametrize("row, message", [
    ([0.2, np.nan, 0.3, 0.3, 0.2], "non-finite weight nan at index 1"),
    ([0.2, np.inf, 0.3, 0.3, 0.2], "non-finite weight inf at index 1"),
    ([0.2, -np.inf, 0.3, 0.3, 0.2], "non-finite weight -inf at index 1"),
    ([0.6, -0.1, 0.3, 0.1, 0.1], "negative weight in distribution"),
    ([0.2, 0.2, 0.2, 0.2, 0.2 + 2e-12], "weights sum to np.float64(1.0000000000020002), not 1"),
    ([0.25, 0.25, 0.25, _OVER, 0.0], "weights sum to np.float64(1.000000000001), not 1"),
    ([0.25, 0.25, 0.25, np.nextafter(_OVER, 0), 0.0], None),
    ([0.25, 0.25, 0.25, 0.25 - MASS_ATOL, 0.0], None),
    ([0.25, 0.25, 0.25, np.nextafter(0.25 - MASS_ATOL, 0), 0.0],
     "weights sum to np.float64(0.9999999999989999), not 1"),
])
def test_kappa_global_rejects_the_first_row_that_is_no_distribution(row, message):
    """A chain built around build_chain, with one kernel row in the middle
    that is no probability vector, or is one within MASS_ATOL: the scan
    raises what Distribution raises on that row, also when a later row is
    bad too, and scans a row within tolerance."""
    n = 5
    x = np.arange(n, dtype=float)
    space = space_from_matrix(range(n), np.abs(x[:, None] - x[None, :]))
    P = np.full((n, n), 1 / n)
    P[2] = row
    if message is None:
        assert kappa_global(Chain(space, P.copy())).pairs
        return
    for later in (None, [np.nan, 0.5, 0.5, 0.0, 0.0]):
        if later is not None:
            P[4] = later
        with pytest.raises(ValueError) as exc:
            kappa_global(Chain(space, P.copy()))
        assert str(exc.value) == message


@st.composite
def random_chains(draw):
    n = draw(st.integers(2, 7))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):  # integer grid metric: costs full of ties
        cells = rng.choice(25, size=n, replace=False)
        pts = np.stack([cells // 5, cells % 5], axis=1).astype(float)
        dist = np.abs(pts[:, None] - pts[None, :]).sum(axis=2)
    else:
        pts = rng.random((n, 2))
        dist = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(axis=2))
    P = rng.integers(0, 3, size=(n, n)).astype(float)
    P[np.arange(n), rng.integers(0, n, size=n)] += 1.0
    return build_chain(space_from_matrix(range(n), dist), P / P.sum(axis=1, keepdims=True))


@settings(max_examples=60, deadline=None)
@given(chain=random_chains())
def test_kappa_global_matches_per_pair_w1_random(chain):
    _assert_scan_matches_w1(chain)


@pytest.mark.parametrize("name", ["GAP_RTOL", "LIPSCHITZ_ATOL"])
def test_kappa_global_checks_every_certificate(cube4, monkeypatch, name):
    monkeypatch.setattr(transport, name, -1.0)
    with pytest.raises(Infeasible, match=r"of pair \(\(0, 0, 0, 0\), \(0, 0, 0, 1\)\)"):
        kappa_global(cube4)


@pytest.mark.parametrize("n", [2, 3])
def test_geodesic_scan_keeps_every_hop(n):
    """Hops just above eps but within METRIC_ATOL count for the geodesic test,
    so the scan must keep them too."""
    step = 0.1 + 5e-13
    x = np.arange(n) * step
    space = space_from_matrix(range(n), np.abs(x[:, None] - x[None, :]))
    chain = build_chain(space, np.full((n, n), 1 / n))
    assert is_epsilon_geodesic(space, 0.1) == (True, None)
    rep = kappa_global(chain, mode="geodesic", eps=0.1)
    assert [(p.x, p.y) for p in rep.pairs] == [(i, i + 1) for i in range(n - 1)]
    assert rep.global_kappa == 1.0
