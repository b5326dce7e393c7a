import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from coricci import transport
from coricci.chain import local_stats
from coricci.metric import space_from_matrix
from coricci.transport import Distribution, _mcf_py, w1


def lp_oracle(mu, nu, space):
    """Independent exact-LP solution of the transportation problem over the
    full coupling polytope (HiGHS), used as the cost oracle."""
    n = space.n
    cost = space.dist.reshape(-1)
    A_eq = []
    b_eq = []
    for i in range(n):  # row marginals
        row = np.zeros((n, n))
        row[i, :] = 1.0
        A_eq.append(row.reshape(-1))
        b_eq.append(mu.weights[i])
    for j in range(n):  # column marginals
        col = np.zeros((n, n))
        col[:, j] = 1.0
        A_eq.append(col.reshape(-1))
        b_eq.append(nu.weights[j])
    res = linprog(cost, A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.status == 0
    return res.fun


def random_metric_space(rng, n):
    pts = rng.random((n, 2))
    dist = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(axis=2))
    return space_from_matrix(range(n), dist)


def random_distribution(rng, n, support=None):
    w = np.zeros(n)
    idx = rng.choice(n, size=support or n, replace=False)
    w[idx] = rng.random(len(idx)) + 0.05
    return Distribution(w / w.sum())


def test_dirac_pair_single_entry():
    space = space_from_matrix([0, 1, 2], [[0, 2, 3], [2, 0, 4], [3, 4, 0]])
    res = w1(Distribution.dirac(space, 0), Distribution.dirac(space, 2), space)
    assert res.cost == 3.0
    assert res.plan.entries == ((0, 2, 1.0),)


def test_identical_distributions_zero_cost():
    space = space_from_matrix([0, 1], [[0, 1], [1, 0]])
    mu = Distribution(np.array([0.3, 0.7]))
    res = w1(mu, mu, space)
    assert res.cost == 0.0


def test_cube_adjacent_rows_value(cube4):
    """W1 between lazy-walk rows at adjacent cube vertices is 1 - 1/N."""
    x = (0, 0, 0, 0)
    y = (1, 0, 0, 0)
    res = w1(
        Distribution(cube4.row(x)), Distribution(cube4.row(y)), cube4.space
    )
    assert res.cost == pytest.approx(1 - 1 / 4, abs=1e-12)


def test_against_lp_oracle_random_instances():
    rng = np.random.default_rng(0)
    for _ in range(25):
        space = random_metric_space(rng, 6)
        mu = random_distribution(rng, 6, support=4)
        nu = random_distribution(rng, 6, support=4)
        res = w1(mu, nu, space)
        assert res.cost == pytest.approx(lp_oracle(mu, nu, space), abs=1e-9)


def test_plan_and_dual_invariants_random():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = int(rng.integers(3, 9))
        space = random_metric_space(rng, n)
        mu = random_distribution(rng, n)
        nu = random_distribution(rng, n)
        res = w1(mu, nu, space)
        res.plan.validate(mu, nu, space)
        res.dual.validate(space)
        assert res.plan.cost(space) == pytest.approx(res.cost, abs=1e-12)
        # strong duality re-checked here (it is also asserted inside w1)
        gap = abs(res.dual.objective(mu, nu) - res.cost)
        assert gap <= 1e-9 * max(1.0, res.cost)


def test_symmetry_and_triangle_inequality():
    rng = np.random.default_rng(2)
    space = random_metric_space(rng, 7)
    for _ in range(100):
        mu = random_distribution(rng, 7)
        nu = random_distribution(rng, 7)
        rho = random_distribution(rng, 7)
        d_mn = w1(mu, nu, space).cost
        assert d_mn == pytest.approx(w1(nu, mu, space).cost, abs=1e-9)
        assert d_mn <= w1(mu, rho, space).cost + w1(rho, nu, space).cost + 1e-9


def test_w1_dirac_to_row_equals_jump(cube4, binom20, glauber5):
    for chain in (cube4, binom20, glauber5):
        for p in chain.space.points[:6]:
            res = w1(
                Distribution.dirac(chain.space, p),
                Distribution(chain.row(p)),
                chain.space,
            )
            assert res.cost == pytest.approx(local_stats(chain, p).J, abs=1e-10)


def _grid_problem(rng, n):
    """n distinct points of a 4 x 4 grid under the L1 metric (integer costs,
    full of ties) and n rows, half with integer masses."""
    cells = rng.choice(16, size=n, replace=False)
    pts = np.stack([cells // 4, cells % 4], axis=1).astype(float)
    dist = np.abs(pts[:, None] - pts[None, :]).sum(axis=2)
    support = rng.random((n, n)) < 0.6
    support[np.arange(n), rng.integers(0, n, size=n)] = True
    if rng.random() < 0.5:
        P = rng.integers(1, 4, size=(n, n)) * support.astype(float)
    else:
        P = rng.random((n, n)) * support
    return P / P.sum(axis=1, keepdims=True), dist


def test_backends_agree(monkeypatch):
    """Both kernels do the same arithmetic in the same order, so plans and
    duals agree bit for bit, also on the tied shortest paths that integer
    costs (as on the cube and Hamming metrics) produce.  The same holds for
    the batched solve_pairs, also where cycle cancelling changes the kernel's
    plan, which never happens on the gallery scans."""
    _mcf_cy = pytest.importorskip("coricci.transport._mcf_cy")
    rng = np.random.default_rng(3)
    for k in range(60):
        ns, nt = rng.integers(1, 9, size=2)
        if k % 2:
            cost = rng.integers(1, 5, size=(ns, nt)).astype(float)
        else:
            cost = rng.random((ns, nt)) + 0.1
        a = rng.random(ns) + 0.1
        b = rng.random(nt) + 0.1
        b *= a.sum() / b.sum()
        out_py = _mcf_py.solve_transport(cost, a, b)
        out_c = _mcf_cy.solve_transport(cost, a, b)
        for x_py, x_c in zip(out_py, out_c):
            assert x_py.dtype == x_c.dtype
            assert np.array_equal(x_py, x_c)

    cancel = _mcf_py._cancel_cycles
    changed = []

    def counting(entries):
        entries = list(entries)
        out = cancel(entries)
        changed.append(out != sorted(((i, j), m) for i, j, m in entries))
        return out

    monkeypatch.setattr(_mcf_py, "_cancel_cycles", counting)
    for _ in range(150):
        P, dist = _grid_problem(rng, int(rng.integers(2, 11)))
        I, J = np.triu_indices(len(P), 1)
        out_py = _mcf_py.solve_pairs(P, dist, I, J)
        out_c = _mcf_cy.solve_pairs(P, dist, I, J)
        assert len(out_py) == len(out_c) == 5
        for x_py, x_c in zip(out_py, out_c):
            assert x_py.dtype == x_c.dtype == np.float64
            assert np.array_equal(x_py, x_c)
    assert sum(changed) >= 10, (sum(changed), len(changed))


def test_kernels_reject_mismatched_sizes():
    cost = np.ones((3, 3))
    for kernel in (_mcf_py, transport._kernel):  # the C kernel when built
        with pytest.raises(ValueError, match="entries for a 3 x 3 cost"):
            kernel.solve_transport(cost, np.full(2, 0.5), np.full(3, 1 / 3))
        with pytest.raises(ValueError, match="entries for a 3 x 3 cost"):
            kernel.solve_transport(cost, np.full(3, 1 / 3), np.full(4, 0.25))


@settings(max_examples=40, deadline=None)
@given(
    weights=st.lists(
        st.tuples(
            st.floats(0.01, 1.0, allow_nan=False),
            st.floats(0.01, 1.0, allow_nan=False),
        ),
        min_size=2,
        max_size=6,
    ),
    seed=st.integers(0, 10_000),
)
def test_w1_property_nonnegative_and_certified(weights, seed):
    n = len(weights)
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    dist = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(axis=2))
    space = space_from_matrix(range(n), dist)
    a = np.array([wa for wa, _ in weights])
    b = np.array([wb for _, wb in weights])
    mu = Distribution(a / a.sum())
    nu = Distribution(b / b.sum())
    res = w1(mu, nu, space)
    assert res.cost >= 0
    res.plan.validate(mu, nu, space)
    res.dual.validate(space)
    # cost bounded by the diameter of the space
    assert res.cost <= space.diameter + 1e-12


def test_solve_pairs_rejects_bad_indices():
    P = np.full((3, 3), 1 / 3)
    dist = np.ones((3, 3)) - np.eye(3)
    for kernel in (_mcf_py, transport._kernel):  # the C kernel when built
        with pytest.raises(ValueError, match="I and J have 2 and 1 entries"):
            kernel.solve_pairs(P, dist, [0, 1], [2])
        with pytest.raises(ValueError, match="out of range for 3 rows"):
            kernel.solve_pairs(P, dist, [0, 1], [2, 3])
        with pytest.raises(ValueError, match="out of range for 3 rows"):
            kernel.solve_pairs(P, dist, [-1], [2])
        with pytest.raises(ValueError, match="rows of 2 points"):
            kernel.solve_pairs(P[:, :2], dist, [0], [1])
        empty = kernel.solve_pairs(P, dist, np.zeros(0, dtype=np.intp),
                                   np.zeros(0, dtype=np.intp))
        assert [x.shape for x in empty] == [(0,)] * 5
