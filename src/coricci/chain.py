"""Markov kernels on finite metric spaces and the local statistics of the
jump, spread and local dimension."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import null_space
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

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


@dataclass(frozen=True)
class Chain:
    """A Markov kernel, one sparse probability row per point.

    dt is set when the chain discretizes a continuous-time process, so that
    reports can present kappa/dt and sigma^2/dt as rate quantities.

    The kernel never changes after construction.  Quantities derived from
    it (the dense matrix, the invariant distribution, local statistics and
    the maximal Lipschitz variance of nu) are filled in lazily, once per
    chain, and live as long as the chain does.  The chain is safe to share
    across threads: two threads that fill the same entry at once only
    repeat the work and store equal values.
    """

    space: FiniteMetricSpace
    kernel: csr_matrix
    dt: float | None = None
    _dense: np.ndarray = field(repr=False, compare=False, default=None)
    _memo: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    @property
    def n(self) -> int:
        return self.space.n

    def dense(self) -> np.ndarray:
        if self._dense is None:
            object.__setattr__(self, "_dense", self.kernel.toarray())
        return self._dense

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
    certificate: str  # "exact" | "lower-bound" | "undefined"
    D2: float | None = None  # sigma2 / (n_x * kappa), filled by bounds


def build_chain(space: FiniteMetricSpace, rows, dt=None) -> Chain:
    """Validate sparse rows {point: {target: prob}} or a dense matrix."""
    n = space.n
    if isinstance(rows, dict):
        mat = np.zeros((n, n))
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
        missing = set(range(n)) - {space.index(p) for p in rows}
        if missing:
            raise RowNotStochastic(
                f"no row supplied for point {space.points[min(missing)]!r}"
            )
    else:
        mat = np.asarray(rows, dtype=np.float64)
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
    return Chain(space, csr_matrix(mat), None if dt is None else float(dt))


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
    return Chain(chain.space, csr_matrix(result), chain.dt)


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


def _lipschitz_vertices(dist: np.ndarray):
    """All vertex functions of {f : |f(a)-f(b)| <= d(a,b), f(0) = 0}.

    At a vertex, the graph of tight constraints f(b) - f(a) = +-d(a,b) spans
    the points.  Grow assignments one tight edge at a time from f(0) = 0,
    in every feasible order, memoizing on the set of assigned values.
    """
    n = dist.shape[0]
    start = ((0, 0.0),)
    seen = {start}
    stack = [dict(start)]
    vertices = []
    while stack:
        assign = stack.pop()
        if len(assign) == n:
            vertices.append(assign)
            continue
        for a, fa in assign.items():
            for b in range(n):
                if b in assign:
                    continue
                for fb in (fa + dist[a, b], fa - dist[a, b]):
                    ok = all(
                        abs(fb - fc) <= dist[b, c] + 1e-12
                        for c, fc in assign.items()
                    )
                    if not ok:
                        continue
                    new = dict(assign)
                    new[b] = fb
                    key = tuple(sorted(new.items()))
                    if key not in seen:
                        seen.add(key)
                        stack.append(new)
    out = []
    dedup = set()
    for assign in vertices:
        f = np.array([assign[i] for i in range(n)])
        key = tuple(np.round(f, 12))
        if key not in dedup:
            dedup.add(key)
            out.append(f)
    return out


def max_var_lipschitz(space: FiniteMetricSpace, measure, mode="exact"):
    """sup of Var_mu f over 1-Lipschitz f.

    Exact mode enumerates the vertices of the Lipschitz polytope restricted
    to the support (the maximum of a convex function over a polytope is
    attained at a vertex); capped at support size 12.  Heuristic mode runs
    multi-start projected gradient ascent and certifies only a lower bound.
    Returns (value, f over all points of the space, certificate).
    """
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
        for f in _lipschitz_vertices(dist):
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
            for _ in range(60):
                m = p @ f
                grad = 2.0 * p * (f - m)
                f = _tighten_lipschitz(dist, f + 0.5 * scale * grad)
            f = polish(f)
            v = var(f)
            if v > best_val:
                best_val, best_f = v, f
        certificate = "lower-bound"

    full = np.zeros(space.n)
    full[supp] = best_f - best_f[0]
    return best_val, full, certificate


def local_stats(chain: Chain, x, n_x_mode="exact") -> LocalStats:
    """Jump, spread, granularity and local dimension at x (Def. 18),
    computed once per chain, point and n_x mode."""
    i = chain.space.index(x)
    return chain._cached(("local_stats", i, n_x_mode),
                         lambda: _local_stats(chain, i, n_x_mode))


def _local_stats(chain: Chain, i: int, n_x_mode) -> LocalStats:
    row = chain.dense()[i]
    d = chain.space.dist
    J = float(row @ d[i])
    sigma2 = 0.5 * float(row @ d ** 2 @ row)
    supp = np.nonzero(row > 0)[0]
    sigma_inf = 0.5 * float(d[np.ix_(supp, supp)].max()) if len(supp) > 1 else 0.0
    if len(supp) < 2:
        return LocalStats(J, sigma2, sigma_inf, None, "undefined")
    max_var, _f, cert = max_var_lipschitz(chain.space, Distribution(row), n_x_mode)
    # In heuristic mode max_var is a lower bound, so n_x is an upper bound.
    n_x = sigma2 / max_var
    return LocalStats(J, sigma2, sigma_inf, n_x, cert)


def invariant_max_var(chain: Chain, mode="exact") -> float:
    """sup of Var_nu f over 1-Lipschitz f for the invariant distribution nu,
    computed once per chain and mode."""
    nu, _rev, _unique = invariant_distribution(chain)
    return chain._cached(("max_var_nu", mode),
                         lambda: max_var_lipschitz(chain.space, nu, mode)[0])
