"""Markov kernels on finite metric spaces and the local statistics of the
jump, spread and local dimension."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import transport
from .errors import (
    DegenerateSupport,
    NegativeProbability,
    RowNotStochastic,
    SupportTooLarge,
    UnknownPoint,
)
from .metric import FiniteMetricSpace
from .transport import MASS_ATOL, Distribution

ROW_ATOL = 1e-10
DETAILED_BALANCE_ATOL = 1e-10
UNIQUE_RANK_TOL = 1e-9
EXACT_SUPPORT_CAP = 12
EPS = np.finfo(np.float64).eps


@dataclass(frozen=True)
class Chain:
    """A Markov kernel: a dense, read-only n x n float64 matrix whose row x
    is the probability vector m_x.

    dt is set when the chain discretizes a continuous-time process, so that
    reports can present kappa/dt and sigma^2/dt as rate quantities.

    The kernel never changes after construction.  Quantities derived from
    it (the invariant distribution, the row moments, the maxVar of each
    distinct row problem, local statistics, and the maximal Lipschitz
    variance of nu and its upper bound) are filled in lazily, once per
    chain, and live as long as the chain does.  The chain is safe to share
    across threads: two threads that fill the same entry at once only
    repeat the work and store equal values.
    """

    space: FiniteMetricSpace
    kernel: np.ndarray
    dt: float | None = None
    _memo: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        self.kernel.setflags(write=False)

    @property
    def n(self) -> int:
        return self.space.n

    def dense(self) -> np.ndarray:
        return self.kernel

    def row(self, x) -> np.ndarray:
        return self.dense()[self.space.index(x)]

    def _cached(self, key, compute):
        """compute(), evaluated on the first request for key only."""
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = compute()
            return value


@dataclass(frozen=True)
class LocalStats:
    """Def.-18 statistics of a single kernel row."""

    J: float
    sigma2: float
    sigma_inf: float
    n_x: float | None  # None when the row is a Dirac mass
    certificate: str  # n_x is "exact" | "undefined"


def _dense_rows(space: FiniteMetricSpace, rows: dict) -> np.ndarray:
    """The n x n matrix of sparse rows {point: {target: prob}}, filled in with
    one scatter.  Raises UnknownPoint naming the first row key or target that
    is not a point, in the order the rows list them, and RowNotStochastic
    naming the first point without a row."""
    n = space.n
    mat = np.zeros((n, n))
    try:
        I = np.repeat(np.array(space.indices(rows), dtype=np.intp),
                      list(map(len, rows.values())))
        J = space.indices(itertools.chain.from_iterable(rows.values()))
        p = list(map(float, itertools.chain.from_iterable(map(dict.values, rows.values()))))
    except Exception:
        # Whatever failed, the entry-by-entry fill raises it again, for the
        # first bad row key, target or probability in the order listed.
        for point, row in rows.items():
            try:
                i = space.index(point)
            except KeyError:
                raise UnknownPoint(f"row key {point!r} is not a point of the space")
            for target, prob in row.items():
                try:
                    j = space.index(target)
                except KeyError:
                    raise UnknownPoint(
                        f"target {target!r} in row of {point!r} is not a point"
                    )
                mat[i, j] = float(prob)
    else:
        # Row keys are distinct, and so are the targets of a row: no cell
        # is listed twice.
        mat[I, J] = p
    if len(rows) < n:
        missing = set(range(n)) - {space.index(point) for point in rows}
        raise RowNotStochastic(
            f"no row supplied for point {space.points[min(missing)]!r}"
        )
    return mat


def build_chain(space: FiniteMetricSpace, rows, dt=None) -> Chain:
    """Validate sparse rows {point: {target: prob}} or a dense matrix."""
    n = space.n
    if isinstance(rows, dict):
        mat = _dense_rows(space, rows)
    else:
        mat = np.array(rows, dtype=np.float64)
        if mat.shape != (n, n):
            raise RowNotStochastic("kernel matrix shape does not match the space")
    if not np.all(np.isfinite(mat)):
        i = np.argwhere(~np.isfinite(mat))[0][0]
        raise RowNotStochastic(
            f"row of {space.points[i]!r} has a non-finite probability"
        )
    if np.any(mat < 0):
        i, j = np.argwhere(mat < 0)[0]
        raise NegativeProbability(
            f"negative probability at row {space.points[i]!r}, "
            f"target {space.points[j]!r}"
        )
    sums = mat.sum(axis=1)
    bad = np.nonzero(np.abs(sums - 1.0) > ROW_ATOL)[0]
    if bad.size:
        i = bad[0]
        raise RowNotStochastic(
            f"row of {space.points[i]!r} sums to {sums[i]!r}, not 1"
        )
    # One tolerance for every row: a row accepted above but off by more than
    # a Distribution allows is rescaled to sum to 1; rows already within
    # MASS_ATOL are kept bit for bit.
    off = np.abs(sums - 1.0) > MASS_ATOL
    if off.any():
        mat = np.where(off[:, None], mat / sums[:, None], mat)
    if dt is not None and dt <= 0:
        raise ValueError("dt must be positive")
    return Chain(space, mat, None if dt is None else float(dt))


def n_step(chain: Chain, n: int) -> Chain:
    """The n-step kernel m^{*n}; n=1 returns the input unchanged."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return chain
    power = chain.kernel
    result = None
    k = n
    while k:
        if k & 1:
            result = power if result is None else result @ power
        k >>= 1
        if k:
            power = power @ power
    return Chain(chain.space, result, chain.dt)


def push_forward(chain: Chain, weights: np.ndarray) -> np.ndarray:
    """One step of the dual action: mu * m = integral of m_x d mu(x)."""
    return np.asarray(weights) @ chain.dense()


def invariant_distribution(chain: Chain):
    """Invariant nu with reversibility and uniqueness flags, computed once
    per chain."""
    return chain._cached("invariant", lambda: _solve_invariant(chain))


def _solve_invariant(chain: Chain):
    """The kernel's recurrent classes are the sink components of the strongly
    connected component DAG; for a unique invariant distribution there must
    be exactly one, and nu is the left eigenvector of the kernel restricted
    to it.  Uniqueness is double-checked by the rank of (M - I) on the
    mean-zero subspace.
    """
    from scipy.linalg import null_space
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    P = chain.dense()
    n = chain.n
    n_comp, labels = connected_components(
        csr_matrix(P > 0), directed=True, connection="strong"
    )
    # A component is recurrent iff no mass leaks out of it.
    is_sink = np.ones(n_comp, dtype=bool)
    for c in range(n_comp):
        members = labels == c
        if P[np.ix_(members, ~members)].sum() > 0:
            is_sink[c] = False
    sinks = np.nonzero(is_sink)[0]
    unique = len(sinks) == 1

    members = np.nonzero(labels == sinks[0])[0]
    sub = P[np.ix_(members, members)]
    vec = null_space(sub.T - np.eye(len(members)), rcond=UNIQUE_RANK_TOL)
    if vec.shape[1] == 0:
        vec = null_space(sub.T - np.eye(len(members)))
    v = np.abs(vec[:, 0])
    nu = np.zeros(n)
    nu[members] = v / v.sum()

    if unique:
        # Cross-check: eigenvalue 1 simple iff (P^T - I) has nullity 1.
        unique = null_space(P.T - np.eye(n), rcond=UNIQUE_RANK_TOL).shape[1] == 1

    flux = nu[:, None] * P
    reversible = bool(np.max(np.abs(flux - flux.T)) <= DETAILED_BALANCE_ATOL)

    return Distribution(nu), reversible, unique


def averaging(chain: Chain, f) -> np.ndarray:
    """(Mf)(x) = sum_y m_x(y) f(y)."""
    return chain.dense() @ np.asarray(f, dtype=np.float64)


def lipschitz_constant(space: FiniteMetricSpace, f) -> float:
    """max over pairs x != y of |f(x) - f(y)| / d(x, y); 0 for constants."""
    f = np.asarray(f, dtype=np.float64)
    d = space.dist.copy()
    np.fill_diagonal(d, np.inf)
    ratio = np.abs(f[:, None] - f[None, :]) / d
    return float(ratio.max()) if space.n > 1 else 0.0


def _tighten_lipschitz(dist: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Project f onto the 1-Lipschitz cone by iterating the McShane map
    f(x) <- min_y (f(y) + d(x, y)); a fixed point is reached in <= n steps."""
    for _ in range(len(f)):
        g = np.min(f[None, :] + dist, axis=1)
        if np.array_equal(g, f):
            break
        f = g
    return f


def max_var_lipschitz(space: FiniteMetricSpace, measure, mode="exact"):
    """sup of Var_mu f over 1-Lipschitz f.

    Exact mode scores every vertex of the Lipschitz polytope restricted to
    the support (the maximum of a convex function over a polytope is
    attained at a vertex).  The selected transport kernel, transport._kernel,
    enumerates the vertices, the same ones in the same order in either
    kernel; the pure-Python kernel takes about 20 to 90 times as long on 5
    to 10 support points.  Capped at EXACT_SUPPORT_CAP support points.
    Heuristic mode runs projected gradient ascent from the distance
    functions d(., y), their negatives and random starts, scores each
    tightened start and its polished end point, and certifies only a lower
    bound.  The value depends on the measure's weights and distances on its
    support alone.  Returns (value, f over all points of the space,
    certificate).  Raises ValueError for any other mode.
    """
    if mode not in ("exact", "heuristic"):
        raise ValueError(f"mode must be 'exact' or 'heuristic', not {mode!r}")
    w = measure.weights
    supp = np.nonzero(w > 0)[0]
    if len(supp) < 2:
        raise DegenerateSupport("measure is a Dirac mass; maxVar = 0")
    dist = space.dist[np.ix_(supp, supp)]
    p = w[supp]

    def var(f):
        m = p @ f
        return float(p @ (f - m) ** 2)

    if mode == "exact":
        if len(supp) > EXACT_SUPPORT_CAP:
            raise SupportTooLarge(
                f"support size {len(supp)} exceeds exact-mode cap {EXACT_SUPPORT_CAP}"
            )
        best_val, best_f = -1.0, None
        for f in transport._kernel.lipschitz_vertices(dist):
            v = var(f)
            if v > best_val:
                best_val, best_f = v, f
        certificate = "exact"
    else:
        rng = np.random.default_rng(0)
        ns = len(supp)
        seeds = []
        for j in range(ns):
            seeds.append(dist[:, j].copy())
            seeds.append(-dist[:, j])
        scale = max(dist.max(), 1.0)
        for _ in range(16):
            seeds.append(rng.normal(size=ns) * scale)
        for _ in range(16):
            seeds.append(rng.choice((-1.0, 1.0), size=ns) * scale)

        def polish(f):
            # Coordinate ascent to a polytope vertex: Var is convex in each
            # f(x), so the per-coordinate optimum sits at a Lipschitz bound.
            for _ in range(2 * ns):
                changed = False
                for k in range(ns):
                    others = np.delete(np.arange(ns), k)
                    lo = float(np.max(f[others] - dist[k, others]))
                    hi = float(np.min(f[others] + dist[k, others]))
                    start = f[k]
                    best_v, best_c = -1.0, start
                    for cand in (start, lo, hi):
                        f[k] = cand
                        v = var(f)
                        if v > best_v + 1e-15:
                            best_v, best_c = v, cand
                    f[k] = best_c
                    changed = changed or best_c != start
                if not changed:
                    break
            return f

        best_val, best_f = -1.0, None
        for f0 in seeds:
            f = _tighten_lipschitz(dist, np.asarray(f0, dtype=np.float64))
            # The ascent can end below its start, so the seed is a candidate too.
            candidates = [f]
            for _ in range(60):
                m = p @ f
                grad = 2.0 * p * (f - m)
                f = _tighten_lipschitz(dist, f + 0.5 * scale * grad)
            candidates.append(polish(f))
            for f in candidates:
                v = var(f)
                if v > best_val:
                    best_val, best_f = v, f
        certificate = "lower-bound"

    full = np.zeros(space.n)
    full[supp] = best_f - best_f[0]
    return best_val, full, certificate


def row_moments(chain: Chain):
    """Jump J(x), spread sigma(x)^2 and granularity sigma_inf(x) of every
    row (Def. 18), as three arrays indexed by point, computed once per chain.
    None of them needs the local dimension n_x."""
    return chain._cached("row_moments", lambda: _row_moments(chain))


def _row_moments(chain: Chain):
    d = chain.space.dist
    d2 = d ** 2
    J, sigma2, sigma_inf = np.zeros((3, chain.n))
    for i, row in enumerate(chain.dense()):
        J[i] = float(row @ d[i])
        sigma2[i] = 0.5 * float(row @ d2 @ row)
        supp = np.nonzero(row > 0)[0]
        if len(supp) > 1:
            sigma_inf[i] = 0.5 * float(d[np.ix_(supp, supp)].max())
    return J, sigma2, sigma_inf


def local_stats(chain: Chain, x) -> LocalStats:
    """Jump, spread, granularity and local dimension at x (Def. 18),
    computed once per chain and point.  n_x comes from the exact maxVar of
    the row, which is computed once per chain for each distinct row
    problem: rows whose weights and distances on their supports are equal
    bytes, in support order, share it.  Rows equal only up to an isometry do
    not, because solving a permuted copy can change the last digits of n_x.
    A row of more than EXACT_SUPPORT_CAP support points raises
    SupportTooLarge."""
    i = chain.space.index(x)
    return chain._cached(("local_stats", i), lambda: _local_stats(chain, i))


def _local_stats(chain: Chain, i: int) -> LocalStats:
    J, sigma2, sigma_inf = (float(v[i]) for v in row_moments(chain))
    row = chain.dense()[i]
    supp = np.nonzero(row > 0)[0]
    if len(supp) < 2:
        return LocalStats(J, sigma2, sigma_inf, None, "undefined")
    dist = chain.space.dist[np.ix_(supp, supp)]
    key = ("row_max_var", row[supp].tobytes(), dist.tobytes())
    max_var = chain._cached(
        key, lambda: max_var_lipschitz(chain.space, Distribution(row))[0])
    return LocalStats(J, sigma2, sigma_inf, sigma2 / max_var, "exact")


def invariant_max_var(chain: Chain, mode="exact") -> float:
    """sup of Var_nu f over 1-Lipschitz f for the invariant distribution nu,
    computed once per chain and mode."""
    nu, _rev, _unique = invariant_distribution(chain)
    return chain._cached(("max_var_nu", mode),
                         lambda: max_var_lipschitz(chain.space, nu, mode)[0])


def invariant_max_var_upper(chain: Chain) -> float:
    """A certified upper bound on maxVar(nu), the sup of Var_nu f over
    1-Lipschitz f for the invariant distribution nu, found without searching
    over f and computed once per chain.  It is min(A, B).

    A = 1/2 sum_{x,y} nu(x) nu(y) d(x,y)^2 holds for any nu, because
    Var_nu f = 1/2 sum_{x,y} nu(x) nu(y) (f(x) - f(y))^2.

    B = (E_max + r diam^2) / gap is the Poincare inequality
    Var_nu f <= E(f,f) / gap, which holds for any kernel P that leaves nu
    invariant, reversible or not.  Here E(f,f) = 1/2 sum_x nu(x) sum_y
    P(x,y) (f(x) - f(y))^2 is at most E_max = 1/2 sum_x nu(x) sum_y P(x,y)
    d(x,y)^2, and gap = 1 - lambda_2, with lambda_2 the largest eigenvalue of
    the symmetrised kernel 1/2 (S + S^T), S = D^1/2 P D^-1/2 and D = diag nu,
    on the orthogonal complement of sqrt(nu).  Two margins keep B on the
    safe side:
    - the computed nu is invariant only up to its residual
      r = ||nu P - nu||_1 (plus 2 n eps for the rounding of nu P), which
      moves E(f,f) by at most r diam^2 for a nu-centred 1-Lipschitz f;
    - lambda_2 is raised by 16 n eps ||1/2 (S + S^T)||_inf, which covers
      the rounding of the projected matrix and the eigensolver's error.
    B is used only when nu > 0 everywhere and the gap stays positive after
    the margins.  The result is raised by 64 n eps relative, for the
    rounding of the sums behind A and E_max.
    """
    return chain._cached("max_var_nu_upper", lambda: _max_var_upper(chain))


def _max_var_upper(chain: Chain) -> float:
    nu, _rev, _unique = invariant_distribution(chain)
    w = nu.weights
    d2 = chain.space.dist ** 2
    upper = min(0.5 * float(w @ d2 @ w), _poincare_max_var(chain, w, d2))
    return float(upper * (1.0 + 64 * chain.n * EPS))


def _poincare_max_var(chain: Chain, w: np.ndarray, d2: np.ndarray) -> float:
    """B of invariant_max_var_upper, or inf where it does not apply."""
    from scipy.linalg import eigvalsh, null_space

    n = chain.n
    if n < 2 or not np.all(w > 0):
        return np.inf
    P = chain.dense()
    e_max = 0.5 * float(w @ (P * d2).sum(axis=1))
    resid = float(np.abs(w @ P - w).sum()) + 2 * n * EPS
    root = np.sqrt(w)
    S = root[:, None] * P / root[None, :]
    sym = 0.5 * (S + S.T)
    if not np.all(np.isfinite(sym)):
        return np.inf
    V = null_space(root[None, :])
    lam2 = float(eigvalsh(V.T @ sym @ V)[-1])
    lam2 += 16 * n * EPS * float(np.abs(sym).sum(axis=1).max())
    gap = 1.0 - lam2
    return (e_max + resid * float(d2.max())) / gap if gap > 0 else np.inf
