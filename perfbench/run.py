"""Benchmark coricci end to end.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

Workloads: ``scan`` (``coricci curvature`` on chain files), ``contraction``
(``curvature.contraction_check`` on random measures) and ``verify``
(``coricci verify`` and ``coricci report``).  Each is a closed loop run by
one client, in one process and one thread: the next operation starts when
the previous one has returned.  One untimed, checked warm-up pass precedes
whole timed passes through the workload's cases, which go on until the
operations' measured time reaches ``--seconds``.  Every output is checked
outside the timed region.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics,
from spans that ``tracing.py`` records around each layer.  The line before
it records the run: backend, versions, git SHA, seed and per-case figures.
See README.md in this directory for the metrics and what moves them.
"""

import argparse
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import sysconfig
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "runs"
KERNEL_C = ROOT / "src" / "coricci" / "transport" / "_mcf_cy.c"
KERNEL_SO = KERNEL_C.with_name("_mcf_cy" + sysconfig.get_config_var("EXT_SUFFIX"))
COLD_STARTS = 7  # set-up samples per run; setup_s is their median


def build_kernel():
    """Compile the transport kernel in place when it is missing or older than
    its C source, as tests/conftest.py does.  Returns None on success, else
    the build's last line of output."""

    def fresh():
        return KERNEL_SO.exists() and KERNEL_SO.stat().st_mtime >= KERNEL_C.stat().st_mtime

    if fresh():
        return None
    proc = subprocess.run([sys.executable, "setup.py", "build_ext", "--inplace"],
                          cwd=ROOT, capture_output=True, text=True)
    if fresh():
        return None
    lines = (proc.stderr or proc.stdout).strip().splitlines()
    return lines[-1] if lines else f"setup.py exited with code {proc.returncode}"


def git_sha():
    # A checkout without .git has no SHA; the ceiling keeps git from finding
    # an enclosing repository instead.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cold_starts(workload, chain_dir):
    """Wall seconds of each cold start, and the seconds each spent in
    gallery.generate.  The last one leaves the chain files for the run."""
    walls, generate = [], []
    for _ in range(COLD_STARTS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "coldstart.py"), "--workload", workload,
             "--out", str(chain_dir)],
            capture_output=True, text=True)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up failed:\n{proc.stderr.strip()}")
        generate.append(json.loads(proc.stdout.strip().splitlines()[-1])["generate_s"])
    return walls, generate


def cpu_ticks():
    """Machine-wide CPU steal and total ticks so far, or None where
    /proc/stat cannot be read."""
    try:
        with open("/proc/stat") as fh:
            ticks = [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return ticks[7], sum(ticks)


def measure(cases, seconds, tracer):
    """Run the closed loop.  Returns the operation times of each timed pass
    (one per case, in case order), the operations attempted and failed, and
    the first few failure messages."""
    passes = []
    attempted = failed = 0
    failures = []
    op_seconds = 0.0
    # Pass 0 is the warm-up: checked, never timed or traced.
    for pass_index in itertools.count():
        if pass_index > 0 and op_seconds >= seconds:
            break
        timed = pass_index > 0
        row = []
        for case in cases:
            inp = case.prepare(pass_index)
            if tracer is not None and timed:
                tracer.begin_op(attempted)
            t0 = time.perf_counter()
            try:
                if tracer is not None:
                    out = tracer.span(case.root, case.run, inp)
                else:
                    out = case.run(inp)
                errors = None
            except Exception as exc:  # an operation that raises has failed
                errors = [f"{type(exc).__name__}: {exc}"]
            row.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.end_op()
                if timed and errors is None and case.output_bytes:
                    tracer.counts["cli.output_bytes"] += case.output_bytes(out)
            if errors is None:
                try:
                    errors = case.check(inp, out)
                except Exception as exc:  # output the checks cannot read
                    errors = [f"check raised {type(exc).__name__}: {exc}"]
            attempted += 1
            if errors:
                failed += 1
                if len(failures) < 5:
                    failures.append(f"{case.name} pass {pass_index}: {'; '.join(errors)}")
        if timed:
            passes.append(row)
            op_seconds += sum(row)
    return passes, attempted, failed, failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("scan", "contraction", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not KERNEL_C.exists():
        sys.exit(f"perfbench: no coricci source under {ROOT / 'src'}")
    build_error = build_kernel()

    chain_dir = RUNS / args.workload
    setup_walls, generate_s = cold_starts(args.workload, chain_dir)

    sys.path.insert(0, str(ROOT / "src"))
    import coricci
    import numpy
    import scipy

    if coricci.BACKEND == "python":
        sys.exit(f"perfbench: coricci runs its pure-Python kernel "
                 f"(kernel build: {build_error or 'no error reported'})")

    import workloads  # imports coricci's kernel, so only after the build

    cases, setup_errors = workloads.build(args.workload, chain_dir, args.seed)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    ticks_before = cpu_ticks()
    passes, attempted, failed, failures = measure(cases, args.seconds, tracer)
    ticks_after = cpu_ticks()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    timed_ops = len(cases) * len(passes)
    case_p50 = {case.name: statistics.median(row[k] for row in passes)
                for k, case in enumerate(cases)}
    # Throughput of a pass in which every case takes its median time: a burst
    # of machine noise then moves it as little as it moves the medians.
    ops_per_s = len(cases) / sum(case_p50.values())
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_walls), "s"),
            "ops_per_s": (ops_per_s, "1/s"),
            "case_p50_ms": (1e3 * math.exp(statistics.fmean(
                math.log(t) for t in case_p50.values())), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = tracer.metrics(timed_ops, sum(map(sum, passes)))
        metrics["trace.ops_per_s"] = (ops_per_s, "1/s")
        metrics["gallery.generate_s"] = (statistics.median(generate_s), "s")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "backend": coricci.BACKEND,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_sha": git_sha(),
        "attempted": attempted, "failed": failed, "failures": failures,
        "setup_errors": setup_errors, "setup_s_samples": setup_walls,
        "timed_ops": timed_ops,
        "case_p50_ms": {name: 1e3 * t for name, t in case_p50.items()},
        "passes": len(passes),
        # CPU time the hypervisor gave to other machines while the loop ran:
        # the main cause of run-to-run spread on a shared host.
        "cpu_steal_share": None if None in (ticks_before, ticks_after) else
        (ticks_after[0] - ticks_before[0]) / max(1, ticks_after[1] - ticks_before[1]),
    }
    RUNS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(RUNS / f"{stem}.json", "w") as fh:
        json.dump({"run": record, "metrics": metrics}, fh, indent=1)
    if tracer is not None:
        tracer.write(RUNS / f"trace-{args.workload}.tsv")

    result = {
        "correct": failed == 0 and not setup_errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps({"run": record}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
