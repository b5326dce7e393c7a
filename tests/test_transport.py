import importlib.util
import itertools
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import shortest_path

from coricci import transport
from coricci.chain import invariant_distribution, local_stats, max_var_lipschitz, push_forward
from coricci.curvature import contraction_check, kappa
from coricci.errors import Infeasible
from coricci.gallery import binomial, cube, glauber
from coricci.metric import build_space, space_from_matrix
from coricci.transport import Distribution, DualPotential, _mcf_py, w1, w1_cost


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


def _tight_lp_checks(chain, seed):
    """The Dirichlet draws of a contraction benchmark run (rng seeded seed,
    mu then nu in each pass) at passes 0 and 1536, and their images under
    one step of chain: each pair's W1 through w1 and through w1_cost, with
    W1 from HiGHS solved at feasibility tolerances of 1e-10."""
    space, n = chain.space, chain.n
    rng = np.random.default_rng(seed)
    draws = [(rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))) for _ in range(1537)]
    rows = np.concatenate([np.repeat(np.arange(n), n), n + np.tile(np.arange(n), n)])
    a_eq = coo_matrix((np.ones(2 * n * n), (rows, np.tile(np.arange(n * n), 2))),
                      shape=(2 * n, n * n))
    tight = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    for mu, nu in (draws[0], draws[1536]):
        for a, b in ((mu, nu), (push_forward(chain, mu), push_forward(chain, nu))):
            res = linprog(space.dist.ravel(), A_eq=a_eq, b_eq=np.concatenate([a, b]),
                          bounds=(0, None), method="highs", options=tight)
            assert res.status == 0
            yield (w1(Distribution(a), Distribution(b), space).cost,
                   w1_cost(Distribution(a), Distribution(b), space), res.fun)


def test_against_tight_lp_on_full_support_cube7_measures():
    """W1 between full-support measures on cube 7, and between their images
    under one step of the chain, agrees with HiGHS solved at feasibility
    tolerances of 1e-10 within 1e-12 relative, through w1 and through the
    skeleton flow of w1_cost.  The measures are the Dirichlet draws of a
    contraction benchmark run (rng seeded [920, 0]) at passes 0 and 1536.
    On them HiGHS at its default tolerances (about 1e-7) is off by up to
    about 1e-7 relative, more than a 1e-9 check allows, so an LP oracle of
    W1 needs the tighter tolerances."""
    for dense, flow, lp in _tight_lp_checks(cube(7), [920, 0]):
        assert abs(dense - lp) <= 1e-12 * dense
        assert abs(flow - lp) <= 1e-12 * flow


def test_against_tight_lp_on_full_support_glauber7_measures():
    """The same on glauber 7 (cycle:7, beta 0.2), with the draws of the
    benchmark's second contraction case (rng seeded [920, 1])."""
    for dense, flow, lp in _tight_lp_checks(glauber("cycle:7", 0.2), [920, 1]):
        assert abs(dense - lp) <= 1e-12 * dense
        assert abs(flow - lp) <= 1e-12 * flow


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


def _full_support_problem(rng, n):
    """Two full-support measures on n points, of the plane or of a 4 x 4 x 4
    grid under the L1 metric (integer costs, full of ties)."""
    if rng.random() < 0.5:
        pts = rng.random((n, 2))
        dist = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(axis=2))
    else:
        cells = rng.choice(64, size=n, replace=False)
        pts = np.stack([cells // 16, cells // 4 % 4, cells % 4], axis=1)
        dist = np.abs(pts[:, None] - pts[None, :]).sum(axis=2).astype(float)
    mu, nu = rng.dirichlet(np.ones(n), size=2)
    return mu, nu, dist


def test_backends_agree(monkeypatch):
    """Both kernels do the same arithmetic in the same order, so plans and
    duals agree bit for bit, also on the tied shortest paths that integer
    costs (as on the cube and Hamming metrics) produce, and on problems of
    20 to 70 points a side, where the C kernel's Dijkstra heap grows deep.
    The same holds for solve_pair and the batched solve_pairs, also where cycle
    cancelling changes the kernel's plan, which never happens on the gallery
    scans."""
    _mcf_cy = pytest.importorskip("coricci.transport._mcf_cy")
    rng = np.random.default_rng(3)
    sizes = [rng.integers(1, 9, size=2) for _ in range(60)]
    sizes += [rng.integers(20, 71, size=2) for _ in range(8)]
    for k, (ns, nt) in enumerate(sizes):
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

    problems = []
    for _ in range(40):
        P, dist = _grid_problem(rng, int(rng.integers(2, 11)))
        x, y = rng.integers(0, len(P), size=2)
        problems.append((P[x], P[y], dist))
    problems += [_full_support_problem(rng, int(rng.integers(13, 41)))
                 for _ in range(10)]
    for mu, nu, dist in problems:
        out_py = _mcf_py.solve_pair(mu, nu, dist)
        out_c = _mcf_cy.solve_pair(mu, nu, dist)
        assert len(out_py) == len(out_c) == 8
        for x_py, x_c in zip(out_py, out_c):
            assert np.asarray(x_py).dtype == np.asarray(x_c).dtype
            assert np.array_equal(x_py, x_c)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 24), seed=st.integers(0, 2**32 - 1), grid=st.booleans())
def test_solve_pairs_backends_agree_on_rows_with_interleaved_zeros(n, seed, grid):
    """The compiled scan visits only the points in the support of either
    row, merged from each row's support; every sum keeps its order, so it
    gives the pure-Python kernel's bits on rows whose zeros (some -0.0)
    fall between their masses, on pairs of distinct and of equal rows,
    and solve_pair does too."""
    _mcf_cy = pytest.importorskip("coricci.transport._mcf_cy")
    rng = np.random.default_rng(seed)
    if grid:
        pts = rng.integers(0, 4, size=(n, 2))
        dist = np.abs(pts[:, None] - pts[None, :]).sum(axis=2).astype(float)
        dist += 3 * (1 - np.eye(n)) * (dist == 0)  # repeated cells kept apart
    else:
        pts = rng.random((n, 2))
        dist = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(axis=2))
    P = rng.dirichlet(np.ones(n), size=n) * (rng.random((n, n)) < rng.uniform(0.1, 0.9))
    P[np.arange(n), rng.integers(0, n, size=n)] += 0.5
    P /= P.sum(axis=1, keepdims=True)
    P[(P == 0) & (rng.random((n, n)) < 0.5)] = -0.0
    I = rng.integers(0, n, size=2 * n)
    J = np.where(rng.random(2 * n) < 0.1, I, rng.integers(0, n, size=2 * n))
    out_py = _mcf_py.solve_pairs(P, dist, I, J)
    out_c = _mcf_cy.solve_pairs(P, dist, I, J)
    for x_py, x_c in zip(out_py, out_c):
        assert np.array_equal(x_py, x_c)
    for x, y in zip(I[:5], J[:5]):
        for x_py, x_c in zip(_mcf_py.solve_pair(P[x], P[y], dist),
                             _mcf_cy.solve_pair(P[x], P[y], dist)):
            assert np.array_equal(x_py, x_c)


def test_kernels_agree_where_the_supply_total_rounds():
    """Both kernels stop when the supply total minus every augmentation falls
    below 1e-15 of the total, so they must take the total in the same order.
    On these two problems a sequential total left more than that after every
    sink was served, and the C kernel called them infeasible: a 61 x 40
    transportation problem, and a pair of Dirichlet measures on cube 7 that
    the contraction benchmark draws."""
    _mcf_cy = pytest.importorskip("coricci.transport._mcf_cy")
    rng = np.random.default_rng(12345)
    for _ in range(983):
        ns, nt = rng.integers(20, 71, size=2)
        a = rng.random(ns)
        a *= 20 / a.sum()
        b = rng.random(nt)
        b *= a.sum() / b.sum()
        cost = rng.random((ns, nt))
    assert (ns, nt) == (61, 40)
    out_py = _mcf_py.solve_transport(cost, a, b)
    out_c = _mcf_cy.solve_transport(cost, a, b)
    for x_py, x_c in zip(out_py, out_c):
        assert x_py.dtype == x_c.dtype
        assert np.array_equal(x_py, x_c)

    dist = cube(7).space.dist
    rng = np.random.default_rng([916, 0])
    for _ in range(128):
        mu, nu = rng.dirichlet(np.ones(128)), rng.dirichlet(np.ones(128))
    out_py = _mcf_py.solve_pair(mu, nu, dist)
    out_c = _mcf_cy.solve_pair(mu, nu, dist)
    for x_py, x_c in zip(out_py, out_c):
        assert np.asarray(x_py).dtype == np.asarray(x_c).dtype
        assert np.array_equal(x_py, x_c)


def test_backends_export_the_same_functions():
    """The compiled kernel exports exactly the functions of _mcf_py's kernel
    interface, so a function added to one backend alone fails here, not
    only under CORICCI_PURE_PYTHON=1 or without a compiler."""
    _mcf_cy = pytest.importorskip("coricci.transport._mcf_cy")
    compiled = {name for name in dir(_mcf_cy) if not name.startswith("_")}
    assert compiled == set(_mcf_py.__all__)
    for name in _mcf_py.__all__:
        assert callable(getattr(_mcf_cy, name)) and callable(getattr(_mcf_py, name))


def _unit_mass_problems(numbers):
    """Problems of a seeded set of 3,000 unit-mass transportation problems,
    20 to 128 points a side, with uniform costs, supplies and demands."""
    rng = np.random.default_rng(2024)
    problems = {}
    for k in range(max(numbers) + 1):
        ns, nt = rng.integers(20, 129, size=2)
        cost, a, b = rng.random((ns, nt)), rng.random(ns), rng.random(nt)
        a /= a.sum()
        b *= a.sum() / b.sum()
        if k in numbers:
            problems[k] = cost, a, b
    return problems


def test_kernels_finish_when_every_sink_is_served():
    """Both kernels stop when the supply left falls to 1e-15 of the total,
    but it collects one rounding per augmentation.  On these four problems
    every sink was served while more than that was left, and both kernels
    called them infeasible; now they return the plan, the same on both."""
    _mcf_cy = pytest.importorskip("coricci.transport._mcf_cy")
    for cost, a, b in _unit_mass_problems({1794, 1977, 2177, 2747}).values():
        out_py = _mcf_py.solve_transport(cost, a, b)
        out_c = _mcf_cy.solve_transport(cost, a, b)
        for x_py, x_c in zip(out_py, out_c):
            assert x_py.dtype == x_c.dtype
            assert np.array_equal(x_py, x_c)
        src, tgt, mass, u, v = out_c
        assert np.abs(np.bincount(src, mass, len(a)) - a).max() <= 1e-15
        assert np.abs(np.bincount(tgt, mass, len(b)) - b).max() <= 1e-15
        assert (u[:, None] + v[None, :] - cost).max() <= 1e-12
        assert np.abs(u[src] + v[tgt] - cost[src, tgt]).max() <= 1e-12
    # Supply left over sources that each hold at most 1e-15, with a sink not
    # served, is still infeasible.
    for kernel in (_mcf_py, _mcf_cy):
        with pytest.raises(RuntimeError, match="infeasible"):
            kernel.solve_transport(np.ones((2, 1)), [1e-15, 1e-15], [2e-15])


def test_kernels_reject_mismatched_sizes():
    cost = np.ones((3, 3))
    for kernel in (_mcf_py, transport._kernel):  # the C kernel when built
        with pytest.raises(ValueError, match="distance table is 2 x 3, not square"):
            kernel.triangle_violation(cost[:2], 1e-12)
        with pytest.raises(ValueError, match="distance table is 2 x 3, not square"):
            kernel.lipschitz_vertices(cost[:2])
        with pytest.raises(ValueError, match="entries for a 3 x 3 cost"):
            kernel.solve_transport(cost, np.full(2, 0.5), np.full(3, 1 / 3))
        with pytest.raises(ValueError, match="entries for a 3 x 3 cost"):
            kernel.solve_transport(cost, np.full(3, 1 / 3), np.full(4, 0.25))
        third, half = np.full(3, 1 / 3), np.full(2, 0.5)
        with pytest.raises(ValueError, match="2 and 3 entries for a 3 x 3 dist"):
            kernel.solve_pair(half, third, cost)
        with pytest.raises(ValueError, match="3 and 2 entries for a 3 x 3 dist"):
            kernel.solve_pair(third, half, cost)
        with pytest.raises(ValueError, match="3 and 3 entries for a 3 x 2 dist"):
            kernel.solve_pair(third, third, cost[:, :2])
        with pytest.raises(ValueError, match="3 and 3 entries for a 2 x 3 dist"):
            kernel.solve_pair(third, third, cost[:2])
        with pytest.raises(ValueError, match="distance table is 2 x 3, not square"):
            kernel.skeleton(cost[:2])
        with pytest.raises(ValueError, match="distance table is 2 x 3, not square"):
            kernel.geodesic_certificate(cost[:2], 1.0)
        indptr, indices = np.array([0, 2, 3, 3]), np.array([1, 2, 2])
        with pytest.raises(ValueError, match="2 and 3 entries for a 3 x 3 dist"):
            kernel.solve_flow(half, third, cost, indptr, indices)
        for bad in ([0, 2, 3], [0, 2, 3, 4], [1, 2, 3, 3], [0, 2, 1, 3]):
            with pytest.raises(ValueError, match="indptr does not list 3 edges on 3 points"):
                kernel.solve_flow(third, third, cost, bad, indices)
        for bad, k in (([0, 1, 2], 0), ([2, 1, 2], 1), ([1, 1, 2], 1), ([1, 2, 1], 2),
                       ([1, 2, 3], 2)):
            with pytest.raises(ValueError, match=f"edge {k} .* out of order or not above"):
                kernel.solve_flow(third, third, cost, indptr, bad)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
@pytest.mark.parametrize("pure_python", [False, True])
def test_solve_pair_reports_failed_allocation(pure_python):
    """With too little address space left for its work arrays, solve_pair
    raises MemoryError, not "transportation problem infeasible"."""
    code = textwrap.dedent("""
        import resource
        import numpy as np
        from coricci import transport

        n = 2000
        mu, dist = np.full(n, 1 / n), np.ones((n, n))
        with open("/proc/self/status") as fh:
            vm = next(int(l.split()[1]) for l in fh if l.startswith("VmSize"))
        # 16 MiB to spare; the work arrays need about 3 n^2 doubles (96 MB).
        limit = vm * 1024 + 2 ** 24
        resource.setrlimit(resource.RLIMIT_AS,
                           (limit, resource.getrlimit(resource.RLIMIT_AS)[1]))
        try:
            transport._kernel.solve_pair(mu, mu, dist)
        except MemoryError:
            print(transport.BACKEND, "MemoryError")
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    env.pop("CORICCI_PURE_PYTHON", None)
    if pure_python:
        env["CORICCI_PURE_PYTHON"] = "1"
    built = importlib.util.find_spec("coricci.transport._mcf_cy") is not None
    backend = "c" if built and not pure_python else "python"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.stdout.strip() == f"{backend} MemoryError", proc.stderr


@pytest.mark.parametrize("name", ["LIPSCHITZ_ATOL", "GAP_RTOL"])
def test_w1_failure_messages(cube4, monkeypatch, name):
    """A failed certificate names the dual's witness pair, or the gap with
    its primal and dual values, on either kernel."""
    space = cube4.space
    mu = Distribution(cube4.row((0, 0, 0, 0)))
    nu = Distribution(cube4.row((1, 1, 0, 0)))
    _entries, cost, union, f, obj = _mcf_py.pair_plan(mu.weights, nu.weights, space.dist)
    if name == "LIPSCHITZ_ATOL":
        slack = np.abs(f[:, None] - f[None, :]) - space.dist[np.ix_(union, union)]
        a, b = np.unravel_index(np.argmax(slack), slack.shape)
        expected = f"dual potential not 1-Lipschitz at pair ({union[a]}, {union[b]})"
    else:
        expected = (f"primal-dual gap {abs(obj - cost)!r} exceeds tolerance "
                    f"(primal {cost!r}, dual {obj!r})")
    monkeypatch.setattr(transport, name, -1.0)
    for kernel in (_mcf_py, transport._kernel):  # the C kernel when built
        monkeypatch.setattr(transport, "_kernel", kernel)
        with pytest.raises(Infeasible) as err:
            w1(mu, nu, space)
        assert str(err.value) == expected


def _flow_problems():
    """(mu, nu, dist) problems for the skeleton flow: the Dirichlet draws of
    the contraction benchmark on cube 7 and glauber 7 (seeds [920, 0] and
    [920, 1], the first three passes), the cube 7 pair on which the dense
    kernel once stopped short (seed [916, 0], pass 127), a line (binomial
    20), an 8 x 16 grid under the L1 metric, random points of the plane
    (every pair an edge), equal measures and a pair of Dirac masses."""
    rng = np.random.default_rng(19)
    problems = []
    for chain, seed, passes in ((cube(7), [920, 0], 3), (glauber("cycle:7", 0.2), [920, 1], 3),
                                (cube(7), [916, 0], 128)):
        draws = np.random.default_rng(seed)
        pairs = [draws.dirichlet(np.ones(chain.n), size=2) for _ in range(passes)]
        problems += [(mu, nu, chain.space.dist) for mu, nu in pairs[-3:]]
    line = binomial(20, 0.5)
    problems += [(line.row(x), line.row(y), line.space.dist) for x, y in ((0, 20), (3, 4))]
    cells = np.stack(np.divmod(np.arange(128), 16), axis=1)
    grid = np.abs(cells[:, None] - cells[None, :]).sum(axis=2).astype(float)
    problems += [(*rng.dirichlet(np.ones(128), size=2), grid)]
    pts = rng.random((40, 2))
    plane = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(axis=2))
    mu = rng.dirichlet(np.ones(40))
    problems += [(mu, rng.dirichlet(np.ones(40)), plane), (mu, mu, plane)]
    problems.append((np.eye(40)[3], np.eye(40)[17], plane))
    return problems


def test_flow_backends_agree():
    """Both kernels give the same skeleton, and on it the same cost, flow,
    potential and certificate numbers, bit for bit; every cost is w1's
    within 1e-14 relative, with a conservation error below 1e-15 and a gap
    below 1e-13."""
    _mcf_cy = pytest.importorskip("coricci.transport._mcf_cy")
    for mu, nu, dist in _flow_problems():
        graph = _mcf_py.skeleton(dist)
        for x_py, x_c in zip(graph, _mcf_cy.skeleton(dist)):
            assert x_py.dtype == x_c.dtype == np.intp and np.array_equal(x_py, x_c)
        out_py = _mcf_py.solve_flow(mu, nu, dist, *graph)
        out_c = _mcf_cy.solve_flow(mu, nu, dist, *graph)
        assert len(out_py) == len(out_c) == 6
        for x_py, x_c in zip(out_py, out_c):
            assert type(x_py) is type(x_c) or np.asarray(x_py).dtype == x_c.dtype
            assert np.array_equal(x_py, x_c)
        cost, flow, f, conservation, slack, gap = out_c
        assert flow.shape == graph[1].shape and f.shape == mu.shape
        dense = _mcf_cy.solve_pair(mu, nu, dist)[3]
        assert abs(cost - dense) <= 1e-14 * max(dense, 1e-300) or cost == dense == 0.0
        assert conservation < 1e-15 and slack <= 1e-15 and gap < 1e-13


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 24), seed=st.integers(0, 2 ** 32 - 1), form=st.integers(0, 2))
def test_w1_cost_property_equals_w1(n, seed, form):
    """On random metrics built by build_space (Euclidean and integer
    shortest-path matrices, and weighted edge lists), w1_cost equals w1's
    cost within 1e-12 relative, on full and partial supports."""
    rng = np.random.default_rng(seed)
    if form == 0:
        pts = rng.random((n, 2))
        space = build_space(np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(axis=2)))
    elif form == 1:
        space = build_space(_shortest_path_metric(rng, n, 0))
    else:
        edges = [(f"p{i}", f"p{i + 1}", float(rng.integers(1, 4))) for i in range(n - 1)]
        edges += [(f"p{i}", f"p{j}", float(rng.random() + 0.1))
                  for i in range(n) for j in range(i + 2, n) if rng.random() < 0.3]
        space = build_space(edges)
    mu = random_distribution(rng, n, support=int(rng.integers(1, n + 1)))
    nu = random_distribution(rng, n, support=int(rng.integers(1, n + 1)))
    ref = w1(mu, nu, space).cost
    assert abs(w1_cost(mu, nu, space) - ref) <= 1e-12 * max(1.0, ref)


@pytest.mark.parametrize("name", ["MARGINAL_ATOL", "LIPSCHITZ_ATOL", "GAP_RTOL"])
def test_w1_cost_failure_messages(cube4, monkeypatch, name):
    """A failed flow certificate names the conservation error, the dual's
    witness pair, or the gap with its primal and dual values, on either
    kernel."""
    space = cube4.space
    mu = Distribution(cube4.row((0, 0, 0, 0)))
    nu = Distribution(cube4.row((1, 1, 0, 0)))
    cost, _flow, f, conservation, _slack, gap = _mcf_py.solve_flow(
        mu.weights, nu.weights, space.dist, *space.skeleton)
    union = np.flatnonzero((mu.weights > 0) | (nu.weights > 0))
    if name == "MARGINAL_ATOL":
        expected = f"flow conservation error {conservation!r} exceeds tolerance"
    elif name == "LIPSCHITZ_ATOL":
        slack = np.abs(f[union, None] - f[None, union]) - space.dist[np.ix_(union, union)]
        a, b = np.unravel_index(np.argmax(slack), slack.shape)
        expected = f"dual potential not 1-Lipschitz at pair ({union[a]}, {union[b]})"
    else:
        obj = DualPotential(tuple(union.tolist()), f[union]).objective(mu, nu)
        expected = (f"primal-dual gap {gap!r} exceeds tolerance "
                    f"(primal {cost!r}, dual {obj!r})")
    monkeypatch.setattr(transport, name, -1.0)
    for kernel in (_mcf_py, transport._kernel):  # the C kernel when built
        monkeypatch.setattr(transport, "_kernel", kernel)
        with pytest.raises(Infeasible) as err:
            w1_cost(mu, nu, space)
        assert str(err.value) == expected
    with pytest.raises(Infeasible, match="distribution size does not match space"):
        w1_cost(Distribution([0.5, 0.5]), nu, space)


def test_distribution_leaves_the_callers_array_writeable():
    """A Distribution keeps read-only weights of its own: the caller's
    array stays writeable, and writing to it changes neither."""
    a = np.array([0.5, 0.5])
    mu = Distribution(a)
    a[0] = 0.1
    assert a.flags.writeable and a[0] == 0.1
    assert np.array_equal(mu.weights, [0.5, 0.5])
    assert not mu.weights.flags.writeable
    with pytest.raises(ValueError):
        mu.weights[0] = 0.1


def test_kappa_rejects_bad_delta(cube4):
    x, y = cube4.space.points[:2]
    for delta in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="delta must be finite and >= 0"):
            kappa(cube4, x, y, delta)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_weights_are_rejected(two_point_mixing, bad):
    space = two_point_mixing.space
    with pytest.raises(ValueError, match=f"non-finite weight {bad!r} at index 0"):
        w1(Distribution([bad, bad]), Distribution([1.0, 0.0]), space)
    with pytest.raises(ValueError, match="non-finite weight"):
        contraction_check(two_point_mixing, Distribution([0.5, 0.5]),
                          Distribution([bad, 0.0]), 1.0)


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


def _shortest_path_metric(rng, n, kind, tree=False):
    """Shortest-path distances of a connected graph on n points: a path
    through the points, and unless tree, every other edge with probability
    1/2.  Edge weights are integers 1..3 (kind 0), sevenths (kind 1) or
    uniform reals (kind 2)."""
    if kind == 0:
        w = rng.integers(1, 4, size=(n, n)).astype(float)
    elif kind == 1:
        w = rng.integers(1, 15, size=(n, n)) / 7
    else:
        w = rng.random((n, n)) + 0.1
    edges = np.eye(n, k=1, dtype=bool)
    if not tree:
        edges |= np.triu(rng.random((n, n)) < 0.5, 1)
    w = np.where(edges, w, 0.0)
    return shortest_path(w + w.T, directed=False)


def _same_vertices(a, b):
    """The same rows in the same order, with the same values and signs."""
    return (a.dtype == b.dtype == np.float64 and a.shape == b.shape
            and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b)))


def _row_problems(chain):
    """The distance table on the support of every distinct row of chain."""
    tables = {}
    for row in chain.dense():
        supp = np.flatnonzero(row > 0)
        dist = chain.space.dist[np.ix_(supp, supp)]
        tables.setdefault(dist.tobytes(), dist)
    return list(tables.values())


def test_lipschitz_vertices_backends_agree():
    """Both kernels list the same vertices, with the same values and signs,
    in the same order: on 300 random shortest-path metrics of 2 to 9 points,
    with integer and non-dyadic weights, on every distinct row of cube 4,
    glauber 4 and binomial 7, and on the support of the invariant
    distribution of binomial 10 (p = 0.2), 11 points of a line."""
    _mcf_cy = pytest.importorskip("coricci.transport._mcf_cy")
    rng = np.random.default_rng(12)
    # The pure-Python enumeration takes seconds on most metrics of 8 or 9
    # points, so those are trees with integer weights.
    sizes = [int(rng.integers(2, 7)) for _ in range(280)] + [7] * 12 + [8, 9] * 4
    problems = [_shortest_path_metric(rng, n, 0, tree=True) if n >= 8
                else _shortest_path_metric(rng, n, k % 3) for k, n in enumerate(sizes)]
    for chain in (cube(4), glauber("cycle:4", 0.2), binomial(7, 0.5)):
        problems += _row_problems(chain)
    nu = invariant_distribution(binomial(10, 0.2))[0].weights
    supp = np.flatnonzero(nu > 0)
    problems.append(binomial(10, 0.2).space.dist[np.ix_(supp, supp)])
    for dist in problems:
        vertices = _mcf_cy.lipschitz_vertices(dist)
        assert _same_vertices(_mcf_py.lipschitz_vertices(dist), vertices)
        assert vertices.shape[1] == len(dist) and np.all(vertices[:, 0] == 0)
    assert len(problems) >= 300 + 3 and len(supp) == 11


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 6), kind=st.integers(0, 2), tree=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_lipschitz_vertices_property_backends_agree(n, kind, tree, seed):
    _mcf_cy = pytest.importorskip("coricci.transport._mcf_cy")
    dist = _shortest_path_metric(np.random.default_rng(seed), n, kind, tree)
    assert _same_vertices(_mcf_py.lipschitz_vertices(dist),
                          _mcf_cy.lipschitz_vertices(dist))


def test_exact_max_var_same_under_both_kernels(monkeypatch):
    """max_var_lipschitz scores the vertices in Python, so with the same
    vertices in the same order it returns the same float and function."""
    _mcf_cy = pytest.importorskip("coricci.transport._mcf_cy")
    rng = np.random.default_rng(13)
    measures = []
    for chain in (cube(4), glauber("cycle:4", 0.2), binomial(7, 0.5)):
        measures += [(chain.space, Distribution(row)) for row in chain.dense()]
    for n in range(2, 8):
        dist = _shortest_path_metric(rng, n, n % 3)
        measures.append((space_from_matrix(range(n), dist),
                         Distribution(rng.dirichlet(np.ones(n)))))
    for space, mu in measures:
        out = []
        for kernel in (_mcf_py, _mcf_cy):
            monkeypatch.setattr(transport, "_kernel", kernel)
            out.append(max_var_lipschitz(space, mu, "exact"))
        (v_py, f_py, cert_py), (v_c, f_c, cert_c) = out
        assert type(v_py) is type(v_c) is float and v_py == v_c
        assert _same_vertices(f_py[None], f_c[None])
        assert cert_py == cert_c == "exact"


def test_lipschitz_vertices_sizes():
    """At most 63 points, since the C kernel keeps the assigned points in a
    64-bit mask; no points give no vertex and one point the zero function."""
    for kernel in (_mcf_py, transport._kernel):  # the C kernel when built
        with pytest.raises(ValueError, match="at most 63 points, not 64"):
            kernel.lipschitz_vertices(1 - np.eye(64))
        assert kernel.lipschitz_vertices(np.zeros((0, 0))).shape == (0, 0)
        assert _same_vertices(kernel.lipschitz_vertices(np.zeros((1, 1))),
                              np.zeros((1, 1)))
        assert _same_vertices(kernel.lipschitz_vertices([[0, 2], [2, 0]]),
                              np.array([[0.0, -2.0], [0.0, 2.0]]))


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
@pytest.mark.parametrize("pure_python", [False, True])
def test_lipschitz_vertices_reports_failed_allocation(pure_python):
    """Enumerating the vertices of a 14-point uniform metric (millions of
    partial assignments) with 4 MiB of address space to spare raises
    MemoryError, and the process goes on."""
    code = textwrap.dedent("""
        import resource
        import numpy as np
        from coricci import transport

        dist = 1 - np.eye(14)
        with open("/proc/self/status") as fh:
            vm = next(int(l.split()[1]) for l in fh if l.startswith("VmSize"))
        limit = vm * 1024 + 2 ** 22
        resource.setrlimit(resource.RLIMIT_AS,
                           (limit, resource.getrlimit(resource.RLIMIT_AS)[1]))
        try:
            transport._kernel.lipschitz_vertices(dist)
        except MemoryError:
            print(transport.BACKEND, "MemoryError")
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    env.pop("CORICCI_PURE_PYTHON", None)
    if pure_python:
        env["CORICCI_PURE_PYTHON"] = "1"
    built = importlib.util.find_spec("coricci.transport._mcf_cy") is not None
    backend = "c" if built and not pure_python else "python"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.stdout.strip() == f"{backend} MemoryError", proc.stderr


# ------------------------------------------------ decimal tables of chain files

KERNELS = (_mcf_py, transport._kernel)  # the C kernel when built
EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
            1.7976931348623157e308, -1.7976931348623157e308, math.inf, -math.inf, math.nan]


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def _float_table(rows):
    return np.array([[float(s) for s in row] for row in rows], dtype=np.float64)


def test_decimal_table_equals_float_on_random_bit_patterns():
    """On the reprs of 40,000 random bit patterns (NaNs, subnormals and
    infinities among them) and of the extremes, both kernels give float()'s
    bits, and a table of the float64 shape."""
    rng = np.random.default_rng(2401)
    values = np.concatenate([rng.integers(0, 2 ** 64, size=40_000 - len(EXTREMES),
                                          dtype=np.uint64).view(np.float64), EXTREMES])
    rows = [list(map(repr, row)) for row in values.reshape(200, 200).tolist()]
    for kernel in KERNELS:
        table = kernel.decimal_table(rows)
        assert table.dtype == np.float64 and table.shape == (200, 200)
        assert np.array_equal(_bits(table), _bits(_float_table(rows)))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 6), data=st.data())
def test_decimal_table_property_equals_float(n, data):
    """Any n x n table of reprs (of bit patterns, of floats hypothesis picks
    and of the extremes) reads as float() reads each entry, bit for bit, in
    both kernels."""
    bits = st.integers(0, 2 ** 64 - 1).map(lambda b: float(np.uint64(b).view(np.float64)))
    entries = st.one_of(bits, st.floats(), st.sampled_from(EXTREMES))
    values = data.draw(st.lists(entries, min_size=n * n, max_size=n * n))
    rows = [list(map(repr, values[i * n:(i + 1) * n])) for i in range(n)]
    expected = _bits(_float_table(rows))
    for kernel in KERNELS:
        assert np.array_equal(_bits(kernel.decimal_table(rows)), expected)


class _Text(str):
    """A str subclass; float() would call its __float__."""

    def __float__(self):
        return 2.0


@pytest.mark.parametrize("rows", [
    [],
    [[1.0]],
    [[1]],
    [[True]],
    [[None]],
    [[" 1.0"]],
    [["1.0 "]],
    [["1.0\n"]],
    [["1_0"]],
    [["１.0"]],
    [["١"]],
    [[""]],
    [["1.0x"]],
    [["1.0.0"]],
    [["1e"]],
    [["0x1p3"]],
    [["1\x000"]],
    [["nan(1)"]],
    [[_Text("1.0")]],
    [["0.0", "1.0"], ["1.0"]],
    [["0.0"], ["1.0"]],
    [["0.0", "1.0", "2.0"], ["1.0", "0.0", "2.0"]],
    [["0.0", "1.0"], "10"],
    [["0.0", "1.0"], {"0": 1, "1": 0}],
    [["0.0", "1.0"], ("1.0", "0.0")],
    [["0.0", "1.0"], ["1.0", 0.0]],
], ids=repr)
def test_decimal_table_is_none_where_float_would_read_more(rows):
    """Both kernels return None on the same inputs: no rows, a row that is
    not a list or has the wrong length, a number, whitespace, '_', a
    non-ASCII digit, an empty string, a string parsed only in part and a
    str subclass."""
    for kernel in KERNELS:
        assert kernel.decimal_table(rows) is None


@pytest.mark.parametrize("rows", ["0.0", ("0.0",), None, {"a": ["0.0"]}, np.zeros((1, 1))],
                         ids=repr)
def test_decimal_table_rejects_a_non_list(rows):
    for kernel in KERNELS:
        with pytest.raises(TypeError, match="decimal_table takes a list"):
            kernel.decimal_table(rows)
