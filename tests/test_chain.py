import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coricci as c
from coricci.chain import (
    averaging,
    build_chain,
    invariant_distribution,
    invariant_max_var,
    invariant_max_var_upper,
    lipschitz_constant,
    local_stats,
    max_var_lipschitz,
    n_step,
    row_moments,
)
from coricci.errors import DegenerateSupport, RowNotStochastic, UnknownPoint
from coricci.gallery import binomial, cube
from coricci.metric import space_from_edges, space_from_matrix
from coricci.transport import Distribution

TWO_POINT = space_from_matrix([0, 1], [[0.0, 1.0], [1.0, 0.0]])


def test_identity_chain_valid():
    chain = build_chain(TWO_POINT, np.eye(2))
    assert np.array_equal(chain.dense(), np.eye(2))


def test_row_not_stochastic():
    with pytest.raises(RowNotStochastic):
        build_chain(TWO_POINT, np.array([[0.5, 0.49], [0.0, 1.0]]))


def test_non_finite_probability_rejected():
    for bad in (np.nan, np.inf):
        with pytest.raises(RowNotStochastic, match="non-finite"):
            build_chain(TWO_POINT, np.array([[bad, 0.5], [0.5, 0.5]]))


def test_rows_rescaled_only_beyond_mass_tolerance():
    rows = np.array([[0.5 + 5e-11, 0.5], [0.3 + 4e-13, 0.7]])
    P = build_chain(TWO_POINT, rows).dense()
    assert np.array_equal(P[0], rows[0] / rows[0].sum())
    assert abs(P[0].sum() - 1.0) <= 1e-15
    assert np.array_equal(P[1], rows[1])  # within 1e-12: kept bit for bit
    assert rows[0, 0] == 0.5 + 5e-11  # the caller's array is not modified


def test_unknown_point():
    with pytest.raises(UnknownPoint):
        build_chain(TWO_POINT, {0: {0: 1.0}, 1: {2: 1.0}})


THREE_POINT = space_from_matrix(["a", "b", "c"], [[0, 1, 2], [1, 0, 1], [2, 1, 0]])


@pytest.mark.parametrize("rows, error, message", [
    ({"a": {"a": 1.0}, "x": {"a": 1.0}, "b": {"y": 1.0}}, UnknownPoint,
     "row key 'x' is not a point of the space"),
    ({"a": {"a": 0.5, "y": 0.5}, "b": {"z": 1.0}}, UnknownPoint,
     "target 'y' in row of 'a' is not a point"),
    ({"a": {"a": "half", "y": 0.5}}, ValueError, "could not convert string to float: 'half'"),
    ({"a": {"y": "half"}}, UnknownPoint, "target 'y' in row of 'a' is not a point"),
    ({"a": {"a": 1.0}, "b": {"b": 0.5, "c": None}, "x": {}}, TypeError, "float"),
    ({"a": {"a": 1.0}, "b": [("b", 1.0)]}, AttributeError, "items"),
    ({"c": {"c": 1.0}, "a": {"a": 1.0}}, RowNotStochastic, "no row supplied for point 'b'"),
])
def test_sparse_rows_name_their_first_bad_entry(rows, error, message):
    """The rows are filled in with one scatter, and a bad row names the
    first offender in the order the rows and their entries are listed, as
    an entry-by-entry fill does: an unknown row key or target, a probability
    that is not a number, a row that is not a dict, or a missing row."""
    with pytest.raises(error, match=message):
        build_chain(THREE_POINT, rows)


def test_sparse_rows_fill_the_dense_kernel():
    rows = {"c": {"b": 0.25, "c": 0.75}, "a": {"c": 0.5, "a": 0.5}, "b": {"b": np.float32(1)}}
    expected = np.array([[0.5, 0, 0.5], [0, 1, 0], [0, 0.25, 0.75]])
    assert np.array_equal(build_chain(THREE_POINT, rows).dense(), expected)


def test_lazy_cube_rows(cube4):
    row = cube4.row((0, 0, 0, 0))
    i = cube4.space.index((0, 0, 0, 0))
    assert row[i] == 0.5
    neighbors = np.nonzero((cube4.space.dist[i] == 1) & (row > 0))[0]
    assert len(neighbors) == 4
    assert np.allclose(row[neighbors], 1 / 8)


def test_n_step_identity_on_one():
    chain = build_chain(TWO_POINT, np.array([[0.3, 0.7], [0.6, 0.4]]))
    assert n_step(chain, 1) is chain


def test_flip_chain_period_two():
    chain = build_chain(TWO_POINT, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(n_step(chain, 2).dense(), np.eye(2))


def test_two_step_cube_matches_path_enumeration():
    chain = cube(3)
    P = chain.dense()
    direct = n_step(chain, 2).dense()
    # exhaustive 2-step path enumeration
    n = chain.n
    manual = np.zeros((n, n))
    for i in range(n):
        for k in range(n):
            if P[i, k] > 0:
                for j in range(n):
                    manual[i, j] += P[i, k] * P[k, j]
    assert np.allclose(direct, manual, atol=1e-15)


def test_invariant_uniform_reversible(cube4):
    nu, reversible, unique = invariant_distribution(cube4)
    assert np.allclose(nu.weights, 1 / 16, atol=1e-12)
    assert reversible and unique


def test_invariant_binomial(binom20):
    from math import comb

    nu, reversible, unique = invariant_distribution(binom20)
    expected = np.array(
        [comb(20, k) * 0.1 ** k * 0.9 ** (20 - k) for k in range(21)]
    )
    assert np.abs(nu.weights - expected).max() < 1e-10
    assert reversible and unique


def test_two_disjoint_copies_not_unique():
    space = space_from_edges(
        ["a0", "a1", "b0", "b1"],
        [("a0", "a1", 1.0), ("b0", "b1", 1.0), ("a0", "b0", 10.0)],
    )
    P = np.array(
        [
            [0.5, 0.5, 0, 0],
            [0.5, 0.5, 0, 0],
            [0, 0, 0.5, 0.5],
            [0, 0, 0.5, 0.5],
        ],
        dtype=float,
    )
    _nu, _rev, unique = invariant_distribution(build_chain(space, P))
    assert not unique


def test_averaging_constant_fixed(cube4):
    assert np.allclose(averaging(cube4, np.ones(16)), 1.0)


def test_averaging_two_point():
    p = 0.25
    chain = build_chain(TWO_POINT, np.array([[1 - p, p], [1 - p, p]]))
    assert np.allclose(averaging(chain, np.array([0.0, 1.0])), p)


def test_averaging_first_coordinate_cube():
    chain = cube(3)
    f = np.array([p[0] for p in chain.space.points], dtype=float)
    Mf = averaging(chain, f)
    expected = f * (1 - 1 / 6) + (1 - f) / 6
    assert np.allclose(Mf, expected, atol=1e-15)


def test_variance_decomposition_one_step(cube4, binom20):
    """Var_nu f = Var_nu Mf + int Var_{m_x} f dnu (Prop. 31 proof)."""
    rng = np.random.default_rng(0)
    for chain in (cube4, binom20):
        nu, _r, _u = invariant_distribution(chain)
        P = chain.dense()
        for _ in range(5):
            f = rng.normal(size=chain.n)
            local_var = P @ f ** 2 - (P @ f) ** 2
            lhs = nu.variance(f)
            rhs = nu.variance(averaging(chain, f)) + float(nu.weights @ local_var)
            assert lhs == pytest.approx(rhs, abs=1e-9)


def test_averaging_contractive(cube4):
    rng = np.random.default_rng(1)
    nu, _r, _u = invariant_distribution(cube4)
    for _ in range(10):
        f = rng.normal(size=cube4.n)
        Mf = averaging(cube4, f)
        assert np.abs(Mf).max() <= np.abs(f).max() + 1e-12
        assert nu.variance(Mf) <= nu.variance(f) + 1e-12


def test_local_stats_dirac():
    chain = build_chain(TWO_POINT, np.eye(2))
    stats = local_stats(chain, 0)
    assert stats.J == 0 and stats.sigma2 == 0 and stats.sigma_inf == 0
    assert stats.n_x is None and stats.certificate == "undefined"


def test_local_stats_two_point():
    p = 0.3
    chain = build_chain(TWO_POINT, np.array([[1 - p, p], [1 - p, p]]))
    stats = local_stats(chain, 0)
    assert stats.sigma2 == pytest.approx(p * (1 - p), abs=1e-12)
    assert stats.n_x == pytest.approx(1.0, abs=1e-9)


def test_star_center_maxvar_half():
    """Lazy SRW at the center of a 4-leaf star achieves maxVar = 1/2."""
    edges = [(0, i, 1.0) for i in range(1, 5)]
    space = space_from_edges(range(5), edges)
    row = np.array([0.5, 0.125, 0.125, 0.125, 0.125])
    value, f, cert = max_var_lipschitz(space, Distribution(row), "exact")
    assert cert == "exact"
    assert value == pytest.approx(0.5, abs=1e-12)
    stats_n = (0.5 * float(row @ space.dist ** 2 @ row)) / value
    assert stats_n >= 1.0 - 1e-12


def test_maxvar_two_points():
    value, f, _cert = max_var_lipschitz(
        TWO_POINT, Distribution(np.array([0.5, 0.5])), "exact"
    )
    assert value == pytest.approx(0.25, abs=1e-12)
    assert abs(f[1] - f[0]) == pytest.approx(1.0, abs=1e-12)


def test_maxvar_three_equidistant_matches_bruteforce():
    space = space_from_matrix([0, 1, 2], 1.0 - np.eye(3))
    mu = Distribution(np.full(3, 1 / 3))
    value, _f, _cert = max_var_lipschitz(space, mu, "exact")
    # brute force: vertices have f-values in {0, +-1} patterns; scan a grid
    # of tight-constraint sign assignments
    best = 0.0
    for a in (-1.0, 0.0, 1.0):
        for b in (-1.0, 0.0, 1.0):
            f = np.array([0.0, a, b])
            if np.abs(f[:, None] - f[None, :]).max() <= 1.0:
                w = mu.weights
                best = max(best, float(w @ (f - w @ f) ** 2))
    assert value == pytest.approx(best, abs=1e-12)


def test_heuristic_mode_lower_bound(cube4):
    row = Distribution(cube4.row((0, 0, 0, 0)))
    exact, _f, _c = max_var_lipschitz(cube4.space, row, "exact")
    heur, _f2, cert = max_var_lipschitz(cube4.space, row, "heuristic")
    assert cert == "lower-bound"
    assert heur <= exact + 1e-9
    assert heur >= 0.9 * exact  # the heuristic should be near-sharp here


def test_heuristic_keeps_its_best_seed():
    """Every distance function d(., y) is 1-Lipschitz and seeds the
    heuristic, so its maxVar is at least their variances.  On binomial 20
    (p = 1/2) the ascent from d(., 0) used to end at 3.07, below the seed's
    own 5.0, and that lower value was returned."""
    chain = binomial(20, 0.5)
    nu, _rev, _unique = invariant_distribution(chain)
    value, f, cert = max_var_lipschitz(chain.space, nu, "heuristic")
    assert cert == "lower-bound"
    assert lipschitz_constant(chain.space, f) <= 1.0 + 1e-12
    assert value == pytest.approx(nu.variance(f), abs=1e-12)
    seeds = max(nu.variance(chain.space.dist[:, y]) for y in range(chain.n))
    assert value >= seeds
    assert value == pytest.approx(5.0, abs=1e-12)


def test_row_max_var_shared_by_equal_rows_only(monkeypatch):
    """local_stats solves each distinct row problem once per chain,
    and its n_x is the bit-exact n_x of a direct solve of the row."""
    calls = []
    solve = c.chain.max_var_lipschitz

    def counted(space, measure, mode="exact"):
        calls.append(mode)
        return solve(space, measure, mode)

    monkeypatch.setattr(c.chain, "max_var_lipschitz", counted)
    chain = cube(5)
    stats = [local_stats(chain, p) for p in chain.space.points]
    assert len(calls) == 6  # 32 rows, 6 distinct (weights, distances) byte strings
    J, sigma2, sigma_inf = row_moments(chain)
    for i, (p, s) in enumerate(zip(chain.space.points, stats)):
        row = chain.row(p)
        direct = 0.5 * float(row @ chain.space.dist ** 2 @ row) / solve(
            chain.space, Distribution(row), "exact")[0]
        assert s.n_x == direct
        assert (s.J, s.sigma2, s.sigma_inf) == (J[i], sigma2[i], sigma_inf[i])
    assert [local_stats(chain, p) for p in chain.space.points] == stats
    assert len(calls) == 6


def _small_space(draw, rng, n):
    if draw(st.booleans(), label="euclidean"):
        pts = rng.normal(size=(n, int(draw(st.integers(1, 3), label="dim"))))
        dist = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(axis=2))
        return space_from_matrix(range(n), dist)
    # A connected graph with integer weights: a random spanning tree plus
    # random chords.
    edges = [(i, int(rng.integers(0, i)), int(rng.integers(1, 4))) for i in range(1, n)]
    edges += [(i, j, int(rng.integers(1, 4))) for i in range(n) for j in range(i)
              if rng.random() < 0.3]
    return space_from_edges(range(n), edges)


@st.composite
def small_chains(draw):
    n = draw(st.integers(2, 8), label="states")
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    space = _small_space(draw, rng, n)
    weights = rng.random((n, n)) * (rng.random((n, n)) < 0.7)
    if draw(st.booleans(), label="reversible"):
        # Symmetric conductances: reversible for nu proportional to the row sums.
        weights = weights + weights.T
    weights += np.diag(rng.random(n) * draw(st.sampled_from([0.0, 1.0]), label="lazy"))
    weights[weights.sum(axis=1) == 0, 0] = 1.0
    return build_chain(space, weights / weights.sum(axis=1, keepdims=True))


@settings(max_examples=60, deadline=None)
@given(chain=small_chains())
def test_max_var_upper_bound_is_certified(chain):
    """The upper bound on maxVar(nu) that decides Prop. 31 is never below the
    exact maxVar(nu), reversible chain or not."""
    nu, _rev, _unique = invariant_distribution(chain)
    upper = invariant_max_var_upper(chain)
    w = nu.weights
    assert upper <= 0.5 * float(w @ chain.space.dist ** 2 @ w) * (1 + 1e-12)
    if len(nu.support()) < 2:
        assert upper == 0.0
        return
    assert upper >= invariant_max_var(chain, "exact")


def test_max_var_upper_bound_is_sharp_on_the_cube():
    """On the lazy walk on the N-cube the Poincare bound gives N/4, the
    variance of the sum of the coordinates, below 1/2 E d(X, Y)^2."""
    for N in (3, 4):
        chain = cube(N)
        w = invariant_distribution(chain)[0].weights
        assert invariant_max_var_upper(chain) == pytest.approx(N / 4, rel=1e-12)
        assert N / 4 < 0.5 * float(w @ chain.space.dist ** 2 @ w)


def test_lazy_srw_maxvar_at_most_half(cube4):
    """Prop. 36: sigma^2/n_x <= 1/2 for lazy simple random walks."""
    for p in cube4.space.points:
        stats = local_stats(cube4, p)
        assert stats.sigma2 / stats.n_x <= 0.5 + 1e-9


def test_n_x_at_least_one(cube4, binom20, ou8):
    for chain in (cube4, binom20, ou8):
        for p in chain.space.points:
            stats = local_stats(chain, p)
            if stats.certificate == "exact":
                assert stats.n_x >= 1.0 - 1e-9


def test_degenerate_support_raises():
    with pytest.raises(DegenerateSupport):
        max_var_lipschitz(TWO_POINT, Distribution(np.array([1.0, 0.0])), "exact")


def test_max_var_rejects_an_unknown_mode():
    """A mode other than "exact" or "heuristic" raises, and nothing is
    memoised under it."""
    chain = cube(3)
    message = "mode must be 'exact' or 'heuristic', not 'exakt'"
    with pytest.raises(ValueError, match=message):
        max_var_lipschitz(chain.space, Distribution(chain.row((0, 0, 0))), "exakt")
    with pytest.raises(ValueError, match=message):
        invariant_max_var(chain, "exakt")
    assert not any("exakt" in key for key in chain._memo if isinstance(key, tuple))


def test_lipschitz_constant_basics():
    space = space_from_matrix([0, 1, 2], [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    assert lipschitz_constant(space, np.zeros(3)) == 0.0
    assert lipschitz_constant(space, space.dist[:, 0]) == pytest.approx(1.0)


def test_lipschitz_constant_matches_bruteforce():
    rng = np.random.default_rng(5)
    pts = rng.random((6, 2))
    dist = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(axis=2))
    space = space_from_matrix(range(6), dist)
    f = rng.normal(size=6)
    expected = max(
        abs(f[i] - f[j]) / dist[i, j]
        for i in range(6)
        for j in range(6)
        if i != j
    )
    assert lipschitz_constant(space, f) == pytest.approx(expected, abs=1e-12)
