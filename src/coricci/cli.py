"""Command-line front end: preset generation, chain file I/O, and
curvature / verification reports in JSON or CSV."""

from __future__ import annotations

import csv
import io
import json
import sys

import click
import numpy as np

from . import bounds as bounds_mod
from . import chainfile, gallery
from .chain import invariant_distribution, local_stats
from .curvature import kappa_global
from .errors import InequalityFails

EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


def _fmt(x):
    if isinstance(x, (float, np.floating)):
        return float(f"{float(x):.17g}")
    if isinstance(x, np.bool_):
        return bool(x)
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.ndarray):
        return x.tolist()
    raise TypeError(f"not JSON-serializable: {type(x)}")


def _fmt_str(x):
    return f"{float(x):.17g}"


def _emit(doc, rows, fmt):
    """Print a report: nested JSON or flat CSV rows with a fixed schema."""
    if fmt == "json":
        click.echo(json.dumps(doc, indent=1, default=_fmt))
    else:
        if not rows:
            return
        out = io.StringIO()
        writer = csv.DictWriter(out, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt_str(v) if isinstance(v, (float, np.floating)) else v
                             for k, v in row.items()})
        click.echo(out.getvalue().rstrip("\n"))


def _report(chain, geodesic, delta=0.0):
    if geodesic is not None:
        return kappa_global(chain, mode="geodesic", eps=geodesic, delta=delta)
    return kappa_global(chain, delta=delta)


SCHEMAS = {
    "curvature": "x,y,kappa,kappa_plus,kappa_minus,U (one row per pair; "
    "final row mode=global carries global_kappa)",
    "spectral": "check,value (spectral_radius, one_minus_kappa, "
    "poincare_local_ratio, poincare_gradient_ratio)",
    "bounds": "check,lhs,rhs,holds (diameter + variance rows, then one row "
    "per point for the Prop. 24 average-distance bound)",
    "concentration": "t,exact_tail,bound (one row per grid point)",
    "logsobolev": "check,lhs,rhs,holds (variance and entropy forms)",
    "expconc": "field,value (rho, D, m, lhs, rhs, holds, lemma45_holds)",
    "verify": "check,holds",
    "report": "section,check,value",
}


def _schema_option(cmd_name):
    def callback(ctx, _param, value):
        if value:
            click.echo(f"{cmd_name} CSV columns: {SCHEMAS[cmd_name]}")
            ctx.exit(0)

    return click.option("--schema", is_flag=True, expose_value=False,
                        is_eager=True, callback=callback,
                        help="Print the CSV column schema and exit.")


fmt_option = click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
                          default="json", show_default=True)
geodesic_option = click.option("--geodesic", type=float, default=None,
                               help="Scan only pairs within EPS (geodesic mode).")


class _Commands(click.Group):
    """Maps every failure of a command to an exit code: 1 when an inequality
    of the paper fails, 2 for anything else (bad input, or an error the
    input provoked), with one line on stderr and no traceback."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (click.exceptions.ClickException, click.exceptions.Exit,
                click.exceptions.Abort):
            raise
        except InequalityFails as exc:
            click.echo(f"check failed: {exc}", err=True)
            sys.exit(EXIT_CHECK_FAILED)
        except Exception as exc:
            click.echo(f"error: {' '.join(str(exc).split()) or type(exc).__name__}",
                       err=True)
            sys.exit(EXIT_INPUT_ERROR)


@click.group(cls=_Commands)
def main():
    """Coarse Ricci curvature of Markov chains on finite metric spaces."""


@main.command()
@click.argument("preset")
@click.option("-o", "--output", required=True, type=click.Path())
@click.option("--n", type=int, default=None)
@click.option("--d", type=int, default=None)
@click.option("--p", type=float, default=None)
@click.option("--alpha", type=float, default=None)
@click.option("--beta", type=float, default=None)
@click.option("--a", type=float, default=None)
@click.option("--b", type=float, default=None)
@click.option("--lam", type=float, default=None)
@click.option("--mu", type=float, default=None)
@click.option("--h", type=float, default=None)
@click.option("--j", type=int, default=None)
@click.option("--k", "big_k", type=int, default=None, help="Truncation point.")
@click.option("--dt", type=float, default=None)
@click.option("--graph", type=str, default=None,
              help="Graph for glauber: cycle:n, path:n, star:n, complete:n.")
def gen(preset, output, big_k, graph, **params):
    """Generate a preset chain and write it to a chain file."""
    kwargs = {k: v for k, v in params.items() if v is not None}
    if big_k is not None:
        kwargs["K"] = big_k
    if graph is not None:
        kwargs["graph"] = graph
    if "n" in kwargs:
        kwargs["N"] = kwargs.pop("n")
    chain = gallery.generate(gallery.PresetSpec(preset, kwargs))
    chainfile.save_chain(chain, output)
    click.echo(f"wrote {preset} chain ({chain.n} states) to {output}")


@main.command()
@click.argument("chain_file", type=click.Path())
@geodesic_option
@click.option("--delta", type=float, default=0.0, show_default=True,
              help="Curvature up to delta (Def. 48).")
@fmt_option
@_schema_option("curvature")
def curvature(chain_file, geodesic, delta, fmt):
    """Pointwise and global coarse Ricci curvature."""
    chain = chainfile.load_chain(chain_file)
    rep = _report(chain, geodesic, delta)
    rows = [
        {"x": str(p.x), "y": str(p.y), "kappa": p.kappa,
         "kappa_plus": p.kappa_plus, "kappa_minus": p.kappa_minus,
         "U": "" if p.U is None else p.U}
        for p in rep.pairs
    ]
    doc = {"mode": rep.mode, "delta": rep.delta,
           "global_kappa": rep.global_kappa, "pairs": rows}
    if chain.dt is not None:
        doc["dt"] = chain.dt
        doc["kappa_per_time"] = rep.global_kappa / chain.dt
    _emit(doc, rows + [{"x": "global", "y": "", "kappa": rep.global_kappa,
                        "kappa_plus": "", "kappa_minus": "", "U": ""}], fmt)


@main.command()
@click.argument("chain_file", type=click.Path())
@geodesic_option
@fmt_option
@_schema_option("spectral")
def spectral(chain_file, geodesic, fmt):
    """Spectral radius on mean-zero functions and Poincare inequalities."""
    chain = chainfile.load_chain(chain_file)
    rep = _report(chain, geodesic)
    sp = bounds_mod.spectral_report(chain, rep.global_kappa)
    rows = [
        {"check": "spectral_radius", "value": sp.spectral_radius},
        {"check": "one_minus_kappa", "value": 1.0 - sp.kappa_used},
        {"check": "poincare_local_ratio",
         "value": "" if sp.poincare_local_ratio is None else sp.poincare_local_ratio},
        {"check": "poincare_gradient_ratio",
         "value": "" if sp.poincare_gradient_ratio is None else sp.poincare_gradient_ratio},
    ]
    doc = {
        "spectral_radius": sp.spectral_radius,
        "kappa_used": sp.kappa_used,
        "reversible": sp.reversible,
        "poincare_applicable": sp.poincare_applicable,
        "poincare_local_ratio": sp.poincare_local_ratio,
        "poincare_gradient_ratio": sp.poincare_gradient_ratio,
        "eigenvalue_moduli": [float(v) for v in sp.eigenvalue_moduli],
    }
    _emit(doc, rows, fmt)
    ok = sp.kappa_used <= 0 or sp.spectral_radius <= 1 - sp.kappa_used + 1e-8
    if sp.poincare_applicable:
        ok = ok and max(sp.poincare_local_ratio, sp.poincare_gradient_ratio) <= 1 + 1e-9
    if not ok:
        click.echo("check failed: spectral radius / Poincare", err=True)
        sys.exit(EXIT_CHECK_FAILED)


@main.command(name="bounds")
@click.argument("chain_file", type=click.Path())
@geodesic_option
@fmt_option
@_schema_option("bounds")
def bounds_cmd(chain_file, geodesic, fmt):
    """Bonnet-Myers diameter bounds and the Prop. 31 variance bound."""
    chain = chainfile.load_chain(chain_file)
    rep = _report(chain, geodesic)
    diam_bound, diam_actual, per_pair, avg = bounds_mod.bonnet_myers(chain, rep)
    var_bound, extremal, statdim = bounds_mod.variance_bound(
        chain, rep.global_kappa)
    rows = [
        {"check": "diameter", "lhs": diam_actual, "rhs": diam_bound,
         "holds": diam_actual <= diam_bound + 1e-9},
        {"check": "variance", "lhs": extremal, "rhs": var_bound,
         "holds": extremal <= var_bound + 1e-9},
    ]
    for point, lhs, rhs in avg:
        rows.append({"check": f"avg_dist[{point}]", "lhs": lhs, "rhs": rhs,
                     "holds": lhs <= rhs + 1e-9})
    doc = {
        "global_kappa": rep.global_kappa,
        "diameter_bound": diam_bound,
        "diameter_actual": diam_actual,
        "variance_bound": var_bound,
        "extremal_lipschitz_variance": extremal,
        "statdim": statdim,
        "average_distance_bounds": [
            {"point": str(p), "lhs": l, "rhs": r} for p, l, r in avg],
    }
    _emit(doc, rows, fmt)
    if not all(r["holds"] for r in rows):
        failing = next(r["check"] for r in rows if not r["holds"])
        click.echo(f"check failed: {failing}", err=True)
        sys.exit(EXIT_CHECK_FAILED)


@main.command()
@click.argument("chain_file", type=click.Path())
@geodesic_option
@click.option("--origin", type=str, default=None,
              help="f = distance to this point (default: first point).")
@fmt_option
@_schema_option("concentration")
def concentration(chain_file, geodesic, origin, fmt):
    """Thm. 32 Gaussian concentration for f = distance to an origin."""
    chain = chainfile.load_chain(chain_file)
    rep = _report(chain, geodesic)
    o = origin if origin is not None else chain.space.points[0]
    f = chain.space.dist[:, chain.space.index(o)]
    conc = bounds_mod.gaussian_concentration(chain, f, rep.global_kappa)
    rows = [
        {"t": t, "exact_tail": e, "bound": b}
        for t, e, b in zip(conc.grid, conc.exact_tails, conc.bounds)
    ]
    doc = {"D2": conc.D2, "C": conc.C, "sigma_inf": conc.sigma_inf,
           "t_max": conc.t_max, "holds": conc.holds, "table": rows}
    if chain.dt is not None:
        doc["dt"] = chain.dt
        doc["note"] = ("continuous-time chain: sigma^2 enters as the "
                       "discretized sigma^2_disc/dt convention")
    _emit(doc, rows, fmt)
    if not conc.holds:
        click.echo("check failed: exact tail exceeds Thm. 32 bound", err=True)
        sys.exit(EXIT_CHECK_FAILED)


@main.command()
@click.argument("chain_file", type=click.Path())
@geodesic_option
@click.option("--lambda", "lam", type=float, default=None,
              help="Range-gradient lambda (default: the admissible maximum).")
@click.option("--seed", type=int, default=0, show_default=True)
@fmt_option
@_schema_option("logsobolev")
def logsobolev(chain_file, geodesic, lam, seed, fmt):
    """Thm. 40 log-Sobolev inequalities for a random positive function."""
    chain = chainfile.load_chain(chain_file)
    rep = _report(chain, geodesic)
    U = max((p.U for p in rep.pairs if p.U is not None), default=0.0)
    if lam is None:
        lam = bounds_mod.admissible_lambda(chain, U)
    rng = np.random.default_rng(seed)
    f = np.exp(rng.normal(size=chain.n))
    var_lhs, var_rhs, ent_lhs, ent_rhs, _v, holds = bounds_mod.log_sobolev_check(
        chain, f, lam, rep.global_kappa, U)
    violations = bounds_mod.commutation_check(chain, f, lam, rep.global_kappa, U)
    rows = [
        {"check": "variance", "lhs": var_lhs, "rhs": var_rhs,
         "holds": var_lhs <= var_rhs + 1e-9},
        {"check": "entropy", "lhs": ent_lhs, "rhs": ent_rhs,
         "holds": ent_lhs <= ent_rhs + 1e-9},
        {"check": "commutation", "lhs": len(violations), "rhs": 0,
         "holds": not violations},
    ]
    doc = {"lambda": lam, "U": U, "global_kappa": rep.global_kappa,
           "holds": holds and not violations, "checks": rows}
    _emit(doc, rows, fmt)
    if not (holds and not violations):
        click.echo("check failed: log-Sobolev / commutation", err=True)
        sys.exit(EXIT_CHECK_FAILED)


@main.command()
@click.argument("chain_file", type=click.Path())
@click.option("--origin", type=str, required=True)
@click.option("--radius", type=float, required=True)
@click.option("--s", type=float, default=None,
              help="Laplace-transform scale (default 2 sigma_inf).")
@fmt_option
@_schema_option("expconc")
def expconc(chain_file, origin, radius, s, fmt):
    """Thm. 44 exponential concentration around an attracting point."""
    chain = chainfile.load_chain(chain_file)
    rep = bounds_mod.exponential_concentration(chain, origin, radius, s)
    doc = {"origin": str(rep.o), "r": rep.r, "s": rep.s, "rho": rep.rho,
           "D": rep.D, "m": rep.m, "lhs": rep.lhs, "rhs": rep.rhs,
           "holds": rep.holds, "lemma45_holds": rep.lemma45_holds}
    rows = [{"field": k, "value": v} for k, v in doc.items()]
    _emit(doc, rows, fmt)
    if not (rep.holds and rep.lemma45_holds):
        click.echo("check failed: Thm. 44 moment bound / Lemma 45 pull", err=True)
        sys.exit(EXIT_CHECK_FAILED)


def _verify_checks(chain, geodesic):
    rep = _report(chain, geodesic)
    checks = []
    kappa = rep.global_kappa
    checks.append(("global_kappa_positive", kappa > 0))
    sp = bounds_mod.spectral_report(chain, kappa)
    ok = kappa <= 0 or sp.spectral_radius <= 1 - kappa + 1e-8
    checks.append(("spectral_radius_le_1_minus_kappa", ok))
    if sp.poincare_applicable:
        checks.append(("poincare", max(sp.poincare_local_ratio,
                                       sp.poincare_gradient_ratio) <= 1 + 1e-9))
    if kappa > 0:
        diam_bound, diam_actual, _pp, avg = bounds_mod.bonnet_myers(chain, rep)
        checks.append(("bonnet_myers_diameter", diam_actual <= diam_bound + 1e-9))
        checks.append(("bonnet_myers_average",
                       all(l <= r + 1e-9 for _p, l, r in avg)))
        var_bound, extremal, _sd = bounds_mod.variance_bound(chain, kappa)
        checks.append(("variance_bound", extremal <= var_bound + 1e-9))
        f = chain.space.dist[:, 0]
        conc = bounds_mod.gaussian_concentration(chain, f, kappa)
        checks.append(("gaussian_concentration", conc.holds))
        U = max((p.U for p in rep.pairs if p.U is not None), default=0.0)
        lam = bounds_mod.admissible_lambda(chain, U)
        rng = np.random.default_rng(0)
        g = np.exp(rng.normal(size=chain.n))
        *_rest, holds = bounds_mod.log_sobolev_check(chain, g, lam, kappa, U)
        checks.append(("log_sobolev", holds))
        checks.append(("commutation",
                       not bounds_mod.commutation_check(chain, g, lam, kappa, U)))
    return rep, checks


@main.command()
@click.argument("chain_file", type=click.Path())
@click.option("--all", "run_all", is_flag=True, help="Run every check.")
@geodesic_option
@fmt_option
@_schema_option("verify")
def verify(chain_file, run_all, geodesic, fmt):
    """Run the full battery of mathematical checks; exit 1 on any failure."""
    chain = chainfile.load_chain(chain_file)
    rep, checks = _verify_checks(chain, geodesic)
    rows = [{"check": name, "holds": holds} for name, holds in checks]
    doc = {"global_kappa": rep.global_kappa, "checks": rows,
           "all_pass": all(h for _n, h in checks)}
    _emit(doc, rows, fmt)
    if not doc["all_pass"]:
        failing = next(n for n, h in checks if not h)
        click.echo(f"check failed: {failing}", err=True)
        sys.exit(EXIT_CHECK_FAILED)


@main.command()
@click.argument("chain_file", type=click.Path())
@geodesic_option
@fmt_option
@_schema_option("report")
def report(chain_file, geodesic, fmt):
    """Everything in a single document: curvature, spectrum, bounds."""
    chain = chainfile.load_chain(chain_file)
    rep, checks = _verify_checks(chain, geodesic)
    nu, reversible, unique = invariant_distribution(chain)
    stats = [local_stats(chain, p) for p in chain.space.points]
    doc = {
        "states": chain.n,
        "global_kappa": rep.global_kappa,
        "mode": rep.mode,
        "reversible": reversible,
        "unique_invariant": unique,
        "invariant_distribution": {
            str(p): float(w) for p, w in zip(chain.space.points, nu.weights)
            if w > 0
        },
        "local_stats": [
            {"point": str(p), "J": s.J, "sigma2": s.sigma2,
             "sigma_inf": s.sigma_inf,
             "n_x": "" if s.n_x is None else s.n_x}
            for p, s in zip(chain.space.points, stats)
        ],
        "checks": [{"check": n, "holds": h} for n, h in checks],
    }
    if chain.dt is not None:
        doc["dt"] = chain.dt
        doc["kappa_per_time"] = rep.global_kappa / chain.dt
    rows = [{"section": "check", "check": n, "value": h} for n, h in checks]
    _emit(doc, rows, fmt)
    if not all(h for _n, h in checks):
        sys.exit(EXIT_CHECK_FAILED)


if __name__ == "__main__":
    main()
