"""The benchmark's workloads: their cases, the timed operation of each case
and the checks on every operation's output.

Checks run outside the timed region.  They compare against computations
that do not go through coricci (chain files parsed here, transport LPs
solved by HiGHS, closed-form curvatures and invariant distributions) or
against properties the method must have, never against saved output.
"""

import ast
import contextlib
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

import coricci
from coricci import chainfile, cli, curvature
from coricci.transport import Distribution, _mcf_py

# Captured before the traced run wraps it, for the cross-kernel check.
COMPILED_SOLVE = coricci.transport._kernel.solve_transport

EXACT_TOL = 1e-12  # closed-form curvatures and invariant distributions
LP_TOL = 1e-9  # agreement with the LP oracle, as in the transport tests
CONTRACTION_ATOL = 1e-9  # slack allowed in W1(mu m, nu m) <= (1 - kappa) W1(mu, nu)
LP_EVERY = 128  # contraction passes between LP-checked samples
LP_PAIRS = 3  # glauber pairs per scan operation recomputed by LP


@dataclass
class Case:
    name: str
    root: str  # span name of the whole operation in the traced run
    prepare: Callable  # pass index -> input (untimed)
    run: Callable  # input -> output (the timed operation)
    check: Callable  # (input, output) -> list of error messages
    output_bytes: Callable = None  # output -> bytes a user receives, if any


def read_chain_file(path):
    """Points, distance matrix and kernel matrix of a chain file, parsed
    with json alone so that checks do not depend on coricci's loader."""
    with open(path) as fh:
        doc = json.load(fh)
    points = doc["points"]
    index = {p: i for i, p in enumerate(points)}
    dist = np.array([[float(v) for v in row] for row in doc["metric"]["payload"]])
    kernel = np.zeros((len(points), len(points)))
    for p, entries in doc["kernel"].items():
        for target, prob in entries:
            kernel[index[p], index[target]] = float(prob)
    return points, dist, kernel


def lp_w1(mu, nu, dist):
    """W1(mu, nu) as the transport LP over the two supports, solved by HiGHS."""
    a, b = np.nonzero(mu > 0)[0], np.nonzero(nu > 0)[0]
    na, nb = len(a), len(b)
    rows = np.concatenate([np.repeat(np.arange(na), nb), na + np.tile(np.arange(nb), na)])
    cols = np.concatenate([np.arange(na * nb)] * 2)
    a_eq = coo_matrix((np.ones(2 * na * nb), (rows, cols)), shape=(na + nb, na * nb))
    res = linprog(dist[np.ix_(a, b)].ravel(), A_eq=a_eq, b_eq=np.concatenate([mu[a], nu[b]]),
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"LP oracle failed: {res.message}")
    return float(res.fun)


def _close(value, reference, rtol):
    return abs(value - reference) <= rtol * max(1.0, abs(reference))


def run_cli(argv):
    """Run the coricci command line in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main.main(args=argv, prog_name="coricci")
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
    return code, out.getvalue(), err.getvalue()


def _cli_case(name, argv, check_doc):
    def check(_pass_index, result):
        code, out, err = result
        if code != 0:
            return [f"exit code {code}: {err.strip()[-300:]}"]
        return check_doc(json.loads(out), _pass_index)

    return Case(name, "cli", lambda pass_index: pass_index, lambda _: run_cli(argv), check,
                lambda result: len(result[1].encode()))


# --- scan: `coricci curvature` on chain files --------------------------------

# (chain, geodesic scan, what is checked beyond the common checks)
SCAN = (
    ("cube6", False, {"every_pair": 1 / 6}),
    ("cube8", True, {"every_pair": 1 / 8}),
    ("glauber8", True, {"lp_pairs": LP_PAIRS}),
    ("binomial40", False, {"every_pair": 1 / 40}),
    ("reset60", False, {"global": 0.5}),
)


def _scan_case(chain_dir, seed, case_index, name, geodesic, expect):
    path = chain_dir / f"{name}.json"
    points, dist, kernel = read_chain_file(path)
    index = {p: i for i, p in enumerate(points)}
    upper = dist[np.triu_indices(len(points), 1)]
    n_pairs = int(np.count_nonzero(upper <= 1 + EXACT_TOL)) if geodesic else len(upper)
    argv = ["curvature", str(path)] + (["--geodesic", "1"] if geodesic else [])

    def check_doc(doc, pass_index):
        pairs = doc["pairs"]
        kappas = [p["kappa"] for p in pairs]
        errors = []
        if len(pairs) != n_pairs:
            errors.append(f"{len(pairs)} pairs scanned, expected {n_pairs}")
        if not kappas or doc["global_kappa"] != min(kappas):
            errors.append("global_kappa is not the minimum over the pairs")
        if "every_pair" in expect:
            worst = max(abs(k - expect["every_pair"]) for k in kappas)
            if worst > EXACT_TOL:
                errors.append(f"pair kappa off 1/N by {worst:.3g}")
        if "global" in expect and abs(doc["global_kappa"] - expect["global"]) > EXACT_TOL:
            errors.append(f"global_kappa {doc['global_kappa']!r}, expected {expect['global']}")
        rng = np.random.default_rng([seed, case_index, pass_index])
        for k in rng.choice(len(pairs), size=expect.get("lp_pairs", 0), replace=False):
            p = pairs[k]
            i, j = index[p["x"]], index[p["y"]]
            oracle = 1.0 - lp_w1(kernel[i], kernel[j], dist) / dist[i, j]
            if abs(p["kappa"] - oracle) > LP_TOL:
                errors.append(f"kappa{(p['x'], p['y'])} = {p['kappa']!r}, LP gives {oracle!r}")
        return errors

    return _cli_case(name, argv, check_doc)


# --- contraction: curvature.contraction_check through the library ------------

CONTRACTION = (
    ("cube7", 1 / 7),
    ("glauber7", None),
)


def _contraction_case(chain_dir, seed, case_index, name, kappa_expected, errors):
    path = chain_dir / f"{name}.json"
    chain = chainfile.load_chain(str(path))
    # kappa from the chain's own geodesic scan, outside every metric.
    kappa = coricci.kappa_global(chain, mode="geodesic", eps=1).global_kappa
    if kappa_expected is not None and abs(kappa - kappa_expected) > EXACT_TOL:
        errors.append(f"{name}: geodesic kappa {kappa!r}, expected {kappa_expected!r}")
    _points, dist, kernel = read_chain_file(path)
    rng = np.random.default_rng([seed, case_index])
    ones = np.ones(chain.n)

    def prepare(pass_index):
        return pass_index, Distribution(rng.dirichlet(ones)), Distribution(rng.dirichlet(ones))

    def run(inp):
        _pass_index, mu, nu = inp
        return curvature.contraction_check(chain, mu, nu, kappa)

    def check(inp, result):
        pass_index, mu, nu = inp
        lhs, rhs, holds = result
        out = []
        if not (holds and lhs <= rhs + CONTRACTION_ATOL):
            out.append(f"W1(mu m, nu m) = {lhs!r} > (1 - kappa) W1(mu, nu) = {rhs!r}")
        if pass_index % LP_EVERY:
            return out
        w_in = lp_w1(mu.weights, nu.weights, dist)
        w_out = lp_w1(mu.weights @ kernel, nu.weights @ kernel, dist)
        if not _close(lhs, w_out, LP_TOL):
            out.append(f"W1(mu m, nu m) = {lhs!r}, LP gives {w_out!r}")
        if not _close(rhs, (1.0 - kappa) * w_in, LP_TOL):
            out.append(f"(1 - kappa) W1(mu, nu) = {rhs!r}, LP gives {(1.0 - kappa) * w_in!r}")
        if pass_index == 0:
            out += _cross_kernel(mu.weights, nu.weights, dist, w_in)
        return out

    return Case(name, "curvature.contraction", prepare, run, check)


def _cross_kernel(mu, nu, dist, reference):
    """The compiled kernel and _mcf_py on the problem w1 sends to the kernel
    once common mass is removed: both costs equal the LP's W1."""
    diff = mu - nu
    pos, neg = np.nonzero(diff > 1e-12)[0], np.nonzero(diff < -1e-12)[0]
    supply, demand = diff[pos], -diff[neg]
    demand = demand * (supply.sum() / demand.sum())
    cost = dist[np.ix_(pos, neg)]
    out = []
    for label, solve in (("compiled", COMPILED_SOLVE), ("_mcf_py", _mcf_py.solve_transport)):
        src, tgt, mass, _u, _v = solve(cost, supply, demand)
        total = float((mass * cost[src, tgt]).sum())
        if not _close(total, reference, LP_TOL):
            out.append(f"{label} kernel cost {total!r}, LP gives {reference!r}")
    return out


# --- verify: `coricci verify` and `coricci report` on chain files ------------


def _binomial_pmf(points, n):
    return {p: math.comb(n, int(p)) / 2.0 ** n for p in points}


def _ising_gibbs(points, beta):
    """Gibbs measure proportional to exp(beta sum_{x~y} S_x S_y) on a cycle."""
    weights = {}
    for p in points:
        s = ast.literal_eval(p)
        weights[p] = math.exp(beta * sum(s[i] * s[(i + 1) % len(s)] for i in range(len(s))))
    total = sum(weights.values())
    return {p: w / total for p, w in weights.items()}


# (chain, command, global kappa expected, invariant distribution expected)
VERIFY = (
    ("cube4", "verify", 1 / 4, None),
    ("binomial7", "verify", 1 / 7, None),
    ("binomial20", "report", 1 / 20, lambda points: _binomial_pmf(points, 20)),
    ("glauber4", "report", None, lambda points: _ising_gibbs(points, 0.2)),
)


def _verify_case(chain_dir, name, command, kappa_expected, nu_expected):
    path = chain_dir / f"{name}.json"
    points, _dist, _kernel = read_chain_file(path)
    nu = nu_expected(points) if nu_expected else None
    argv = [command, str(path), "--geodesic", "1"] + (["--all"] if command == "verify" else [])

    def check_doc(doc, _pass_index):
        errors = []
        checks = doc["checks"]
        if not checks or not all(c["holds"] for c in checks):
            errors.append(f"checks failing: {[c['check'] for c in checks if not c['holds']]}")
        if command == "verify" and doc["all_pass"] is not True:
            errors.append("all_pass is not true")
        if kappa_expected is not None and abs(doc["global_kappa"] - kappa_expected) > EXACT_TOL:
            errors.append(f"global_kappa {doc['global_kappa']!r}, expected {kappa_expected!r}")
        if nu is not None:
            got = doc["invariant_distribution"]
            worst = max(abs(got.get(p, 0.0) - w) for p, w in nu.items())
            if worst > EXACT_TOL or set(got) - set(nu):
                errors.append(f"invariant distribution off by {worst:.3g}")
        return errors

    return _cli_case(name, argv, check_doc)


def build(workload, chain_dir, seed):
    """The workload's cases, in pass order, and any set-up check that failed."""
    errors = []
    if workload == "scan":
        cases = [_scan_case(chain_dir, seed, k, *spec) for k, spec in enumerate(SCAN)]
    elif workload == "contraction":
        cases = [_contraction_case(chain_dir, seed, k, *spec, errors)
                 for k, spec in enumerate(CONTRACTION)]
    else:
        cases = [_verify_case(chain_dir, *spec) for spec in VERIFY]
    return cases, errors
