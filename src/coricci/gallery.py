"""Generators for the example chains, the superposition and tensorization
constructions, and the rate-matrix discretizer for continuous-time chains."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .chain import Chain, build_chain
from .errors import (
    BadWeights,
    DtTooLarge,
    InvalidParams,
    ProductTooLarge,
    RatesNegative,
    SpaceMismatch,
    TruncationTooAggressive,
)
from .metric import FiniteMetricSpace, space_from_matrix

TAIL_TOL = 1e-6
PRODUCT_CAP = 1 << 12  # states; the dense metric and kernel take 128 MiB each
GLAUBER_SITE_CAP = 16

PRESETS = (
    "cube",
    "discrete_ou",
    "multinomial",
    "binomial",
    "glauber",
    "geometric_reflect",
    "geometric_reset",
    "mm_infty",
    "linear_rates",
    "quadratic_rates",
    "pow2_jump",
)


@dataclass(frozen=True)
class PresetSpec:
    name: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.name not in PRESETS:
            raise InvalidParams(f"unknown preset {self.name!r}")


def _line_space(points) -> FiniteMetricSpace:
    vals = np.array(points, dtype=np.float64)
    return space_from_matrix(list(points), np.abs(vals[:, None] - vals[None, :]))


def _check_birth_death_tail(up, down, K, tail_tol):
    """Estimate the stationary mass beyond the truncation point K of a
    birth-death chain given by up(k) and down(k) rate/probability callables,
    using detailed balance nu(k+1)/nu(k) = up(k)/down(k+1)."""
    mass = 1.0
    total = 1.0
    tail = 0.0
    k = 0
    horizon = max(50 * (K + 1), 10000)
    while k < horizon:
        u = up(k)
        if u <= 0:
            break
        mass *= u / down(k + 1)
        k += 1
        total += mass
        if k > K:
            tail += mass
            if mass < 1e-18 * total:
                break
    if tail / total > tail_tol:
        raise TruncationTooAggressive(
            f"estimated stationary tail mass beyond K={K} is "
            f"{tail / total:.3e} > {tail_tol:g}"
        )


def graph_edges(desc):
    """Small graph vocabulary: 'cycle:n', 'path:n', 'star:n', 'complete:n',
    or an explicit edge list [(u, v), ...]."""
    if not isinstance(desc, str):
        return [(int(u), int(v)) for u, v in desc]
    kind, _, arg = desc.partition(":")
    n = int(arg)
    if kind == "cycle":
        return [(i, (i + 1) % n) for i in range(n)]
    if kind == "path":
        return [(i, i + 1) for i in range(n - 1)]
    if kind == "star":
        # n leaves around center 0
        return [(0, i + 1) for i in range(n)]
    if kind == "complete":
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    raise InvalidParams(f"unknown graph description {desc!r}")


def cube(N: int) -> Chain:
    """Lazy random walk on the Hamming cube {0,1}^N: hold with probability
    1/2, flip a uniform coordinate otherwise."""
    if N < 1:
        raise InvalidParams("cube needs N >= 1")
    points = list(product((0, 1), repeat=N))
    arr = np.array(points, dtype=np.float64)
    dist = np.abs(arr[:, None, :] - arr[None, :, :]).sum(axis=2)
    space = space_from_matrix(points, dist)
    n = len(points)
    P = np.zeros((n, n))
    index = {p: i for i, p in enumerate(points)}
    for i, p in enumerate(points):
        P[i, i] = 0.5
        for c in range(N):
            q = list(p)
            q[c] ^= 1
            P[i, index[tuple(q)]] = 1.0 / (2 * N)
    return build_chain(space, P)


def discrete_ou(N: int) -> Chain:
    """Discrete Ornstein-Uhlenbeck walk on {-N, ..., N}:
    m_k(k) = 1/2, m_k(k+1) = 1/4 - k/4N, m_k(k-1) = 1/4 + k/4N."""
    if N < 1:
        raise InvalidParams("discrete_ou needs N >= 1")
    points = list(range(-N, N + 1))
    space = _line_space(points)
    n = len(points)
    P = np.zeros((n, n))
    for i, k in enumerate(points):
        P[i, i] = 0.5
        up = 0.25 - k / (4.0 * N)
        dn = 0.25 + k / (4.0 * N)
        if up > 0:
            P[i, i + 1] = up
        else:
            P[i, i] += up
        if dn > 0:
            P[i, i - 1] = dn
        else:
            P[i, i] += dn
    return build_chain(space, P)


def multinomial(N: int, d: int) -> Chain:
    """Ball-in-boxes chain on compositions of N into d+1 parts: move to
    x - e_i + e_j with probability x_i / (N(d+1)); metric half the L1."""
    if N < 1 or d < 1:
        raise InvalidParams("multinomial needs N >= 1 and d >= 1")

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in compositions(total - head, parts - 1):
                yield (head,) + rest

    points = list(compositions(N, d + 1))
    arr = np.array(points, dtype=np.float64)
    dist = 0.5 * np.abs(arr[:, None, :] - arr[None, :, :]).sum(axis=2)
    space = space_from_matrix(points, dist)
    index = {p: i for i, p in enumerate(points)}
    n = len(points)
    P = np.zeros((n, n))
    for idx, p in enumerate(points):
        for i in range(d + 1):
            if p[i] == 0:
                continue
            for j in range(d + 1):
                q = list(p)
                q[i] -= 1
                q[j] += 1
                P[idx, index[tuple(q)]] += p[i] / (N * (d + 1.0))
    return build_chain(space, P)


def binomial(N: int, p: float) -> Chain:
    """Level chain of the bit-refresh walk on the cube: from k ones, go up
    with probability p(1 - k/N), down with probability (1-p)k/N."""
    if not 0 < p < 1:
        raise InvalidParams("binomial needs 0 < p < 1")
    points = list(range(N + 1))
    space = _line_space(points)
    P = np.zeros((N + 1, N + 1))
    for k in range(N + 1):
        up = p * (1.0 - k / N)
        dn = (1.0 - p) * k / N
        if k < N:
            P[k, k + 1] = up
        if k > 0:
            P[k, k - 1] = dn
        P[k, k] = 1.0 - up - dn if 0 < k < N else (1.0 - up if k == 0 else 1.0 - dn)
    return build_chain(space, P)


def glauber(graph, beta: float, h: float = 0.0) -> Chain:
    """Glauber dynamics for the Ising model on a finite graph: pick a site
    uniformly and resample its spin from the local equilibrium.  Energy
    U(S) = -sum_{x~y} S(x)S(y) - h sum_x S(x); the + probability at a site
    with neighbor field f is 1/(1 + e^{-2 beta (f + h)})."""
    if beta < 0:
        raise InvalidParams("glauber needs beta >= 0")
    edges = graph_edges(graph)
    sites = sorted({u for u, _ in edges} | {v for _, v in edges})
    if len(sites) > GLAUBER_SITE_CAP:
        raise InvalidParams(f"glauber capped at {GLAUBER_SITE_CAP} sites")
    site_pos = {s: i for i, s in enumerate(sites)}
    nbrs = [[] for _ in sites]
    for u, v in edges:
        nbrs[site_pos[u]].append(site_pos[v])
        nbrs[site_pos[v]].append(site_pos[u])
    g = len(sites)
    points = list(product((-1, 1), repeat=g))
    arr = np.array(points, dtype=np.float64)
    dist = (np.abs(arr[:, None, :] - arr[None, :, :]) > 0).sum(axis=2).astype(np.float64)
    space = space_from_matrix(points, dist)
    index = {p: i for i, p in enumerate(points)}
    n = len(points)
    P = np.zeros((n, n))
    for idx, S in enumerate(points):
        for site in range(g):
            f = sum(S[z] for z in nbrs[site])
            p_plus = 1.0 / (1.0 + math.exp(-2.0 * beta * (f + h)))
            for spin, prob in ((1, p_plus), (-1, 1.0 - p_plus)):
                T = list(S)
                T[site] = spin
                P[idx, index[tuple(T)]] += prob / g
    return build_chain(space, P)


def geometric_reflect(K: int = 100) -> Chain:
    """Reflected geometric walk: p_{n,n+1} = 1/3, p_{n+1,n} = 2/3,
    p_{0,0} = 2/3; truncated at K with the up-step folded into a self-loop."""
    if K < 2:
        raise InvalidParams("geometric_reflect needs K >= 2")
    _check_birth_death_tail(lambda k: 1 / 3, lambda k: 2 / 3, K, TAIL_TOL)
    points = list(range(K + 1))
    space = _line_space(points)
    P = np.zeros((K + 1, K + 1))
    P[0, 0] = 2 / 3
    P[0, 1] = 1 / 3
    for k in range(1, K):
        P[k, k + 1] = 1 / 3
        P[k, k - 1] = 2 / 3
    P[K, K - 1] = 2 / 3
    P[K, K] = 1 / 3
    return build_chain(space, P)


def geometric_reset(alpha: float, K: int = 100) -> Chain:
    """Reset walk: p_{n,0} = alpha, p_{n,n+1} = 1 - alpha; truncated at K
    with the up-step folded into a self-loop.  Invariant distribution is
    geometric alpha (1-alpha)^n; curvature is alpha."""
    if not 0 < alpha < 1:
        raise InvalidParams("geometric_reset needs 0 < alpha < 1")
    tail = (1.0 - alpha) ** (K + 1)
    if tail > TAIL_TOL:
        raise TruncationTooAggressive(
            f"geometric tail beyond K={K} is {tail:.3e} > {TAIL_TOL:g}"
        )
    points = list(range(K + 1))
    space = _line_space(points)
    P = np.zeros((K + 1, K + 1))
    for k in range(K):
        P[k, 0] += alpha
        P[k, k + 1] += 1.0 - alpha
    P[K, 0] += alpha
    P[K, K] += 1.0 - alpha
    return build_chain(space, P)


def pow2_jump(j: int = 7) -> Chain:
    """Heavy-tail walk on {1, ..., 2^j}: k goes to 1 with probability
    1 - 1/4k^2 and to 2k with probability 1/4k^2; boundary doubling folded
    into a self-loop.  The stationary tail decays super-exponentially, so no
    truncation check is needed."""
    if j < 2:
        raise InvalidParams("pow2_jump needs j >= 2")
    points = list(range(1, (1 << j) + 1))
    space = _line_space(points)
    n = len(points)
    index = {p: i for i, p in enumerate(points)}
    P = np.zeros((n, n))
    for i, k in enumerate(points):
        pj = 1.0 / (4.0 * k * k)
        P[i, index[1]] += 1.0 - pj
        if 2 * k <= points[-1]:
            P[i, index[2 * k]] += pj
        else:
            P[i, i] += pj
    return build_chain(space, P)


def discretize_rates(states, metric, rate_rows, dt: float) -> Chain:
    """Euler discretization of a rate matrix: m_x = delta_x + dt * Q-row.

    Requires dt * max exit rate <= 1/2 so the diagonal stays well above 0;
    the resulting Chain is tagged with dt so reports can present kappa/dt
    and sigma^2/dt as rate quantities."""
    Q = np.asarray(rate_rows, dtype=np.float64)
    off = Q - np.diag(np.diag(Q))
    if np.any(off < 0):
        raise RatesNegative("negative off-diagonal rate")
    exit_rates = off.sum(axis=1)
    if dt <= 0:
        raise InvalidParams("dt must be positive")
    if dt * exit_rates.max() > 0.5 + 1e-12:
        raise DtTooLarge(
            f"dt * max exit rate = {dt * exit_rates.max():.3g} > 1/2"
        )
    P = np.eye(len(states)) + dt * (off - np.diag(exit_rates))
    space = metric if isinstance(metric, FiniteMetricSpace) else space_from_matrix(states, metric)
    return build_chain(space, P, dt=dt)


def _birth_death_rates(K, up, down):
    Q = np.zeros((K + 1, K + 1))
    for k in range(K + 1):
        if k < K:
            Q[k, k + 1] = up(k)
        if k > 0:
            Q[k, k - 1] = down(k)
    return Q


def mm_infty(lam: float, mu: float, dt: float, K: int = 60) -> Chain:
    """M/M/infinity queue occupancy: rate up lam, rate down k mu; Poisson
    invariant distribution, curvature mu per unit time."""
    if lam <= 0 or mu <= 0:
        raise InvalidParams("mm_infty needs lam, mu > 0")
    _check_birth_death_tail(lambda k: lam, lambda k: k * mu, K, TAIL_TOL)
    points = list(range(K + 1))
    Q = _birth_death_rates(K, lambda k: lam, lambda k: k * mu)
    return discretize_rates(points, _line_space(points), Q, dt)


def linear_rates(alpha: float, beta: float, dt: float, K: int = 120) -> Chain:
    """Rate up (k+1) alpha, rate down k beta (alpha < beta); geometric
    invariant distribution with decay alpha/beta, curvature beta - alpha."""
    if not 0 < alpha < beta:
        raise InvalidParams("linear_rates needs 0 < alpha < beta")
    _check_birth_death_tail(lambda k: (k + 1) * alpha, lambda k: k * beta, K, TAIL_TOL)
    points = list(range(K + 1))
    Q = _birth_death_rates(K, lambda k: (k + 1) * alpha, lambda k: k * beta)
    return discretize_rates(points, _line_space(points), Q, dt)


def quadratic_rates(a: float, b: float, dt: float, K: int = 150, tail_tol=None) -> Chain:
    """Heavy-tail chain: rate up a(k+1)^2, rate down a(k+1)^2 + bk for
    k >= 1; stationary distribution decays like k^{-(2+b/a)}."""
    if a <= 0 or b <= 0:
        raise InvalidParams("quadratic_rates needs a, b > 0")
    up = lambda k: a * (k + 1) ** 2
    down = lambda k: a * (k + 1) ** 2 + b * k
    _check_birth_death_tail(up, down, K, TAIL_TOL if tail_tol is None else tail_tol)
    points = list(range(K + 1))
    Q = _birth_death_rates(K, up, down)
    return discretize_rates(points, _line_space(points), Q, dt)


_GENERATORS = {
    "cube": cube,
    "discrete_ou": discrete_ou,
    "multinomial": multinomial,
    "binomial": binomial,
    "glauber": glauber,
    "geometric_reflect": geometric_reflect,
    "geometric_reset": geometric_reset,
    "mm_infty": mm_infty,
    "linear_rates": linear_rates,
    "quadratic_rates": quadratic_rates,
    "pow2_jump": pow2_jump,
}


def generate(spec: PresetSpec) -> Chain:
    """Build the chain described by a PresetSpec."""
    try:
        return _GENERATORS[spec.name](**spec.params)
    except TypeError as exc:
        raise InvalidParams(str(exc)) from None


def superpose(chains, alphas) -> Chain:
    """Mixture kernel m_x = sum alpha_i m^(i)_x on a shared space; the
    curvature of the mixture is at least sum alpha_i kappa_i."""
    alphas = np.asarray(alphas, dtype=np.float64)
    if len(chains) != len(alphas) or np.any(alphas < 0) or abs(alphas.sum() - 1) > 1e-12:
        raise BadWeights("weights must be nonnegative and sum to 1")
    space = chains[0].space
    for c in chains[1:]:
        if c.space.points != space.points or not np.array_equal(c.space.dist, space.dist):
            raise SpaceMismatch("superpose requires a single shared space")
    P = sum(a * c.dense() for a, c in zip(alphas, chains))
    return build_chain(space, P)


def tensorize(chains, alphas) -> Chain:
    """Product chain: at each step pick factor i with probability alpha_i
    and move that coordinate only; product space carries the L1 metric.

    States are listed as itertools.product lists them, the last factor
    fastest.  An L1 sum of metrics is a metric, so it is not validated
    again.  Raises ProductTooLarge, before allocating anything, above
    PRODUCT_CAP states."""
    alphas = np.asarray(alphas, dtype=np.float64)
    if len(chains) != len(alphas) or np.any(alphas < 0) or abs(alphas.sum() - 1) > 1e-12:
        raise BadWeights("weights must be nonnegative and sum to 1")
    if len(chains) == 1:
        return chains[0]
    sizes = [c.n for c in chains]
    total = math.prod(sizes)
    if total > PRODUCT_CAP:
        raise ProductTooLarge(f"product state count {total} exceeds cap {PRODUCT_CAP}")
    points = tuple(product(*(c.space.points for c in chains)))
    dist = np.zeros((total, total))
    P = np.zeros((total, total))
    stride = total
    # coords[i][s]: the index, in factor i, of state s's i-th coordinate.
    coords = np.unravel_index(np.arange(total), sizes)
    for c, x, alpha in zip(chains, coords, alphas):
        stride //= c.n
        # Factor by factor from 0.0, as a sum over the factors adds them.
        dist += c.space.dist[np.ix_(x, x)]
        # Moving coordinate i from x[s] to j takes state s to s + (j - x[s])
        # * stride; the targets of one factor are distinct.
        rows = c.dense()[x]
        s, j = np.nonzero(rows > 0)
        P[s, s + (j - x[s]) * stride] += alpha * rows[s, j]
    return build_chain(FiniteMetricSpace(points, dist), P)
