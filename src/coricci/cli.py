"""Command-line front end: preset generation, chain file I/O, and
curvature / verification reports in JSON or CSV."""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import NamedTuple

import click
import numpy as np

from . import bounds as bounds_mod
from . import chainfile, gallery
from .chain import invariant_distribution, local_stats
from .curvature import kappa_global
from .errors import InequalityFails

EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


def _echo(message, err=False):
    """click.echo to the current sys.stdout (or sys.stderr).  Naming the
    stream keeps click from caching it: click's cache keeps every default
    stream it has written to alive, with its contents, for the rest of the
    process, so each in-process run with redirected output would leak it."""
    click.echo(message, file=sys.stderr if err else sys.stdout)


def _fmt(x):
    """The JSON value of a numpy scalar or array.  Floats keep every bit:
    json writes a float as its repr, which reads back to the same double."""
    if isinstance(x, (float, np.floating)):
        return float(x)
    if isinstance(x, np.bool_):
        return bool(x)
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.ndarray):
        return x.tolist()
    raise TypeError(f"not JSON-serializable: {type(x)}")


def _fmt_str(x):
    return f"{float(x):.17g}"


# A scalar as json.dumps(..., default=_fmt) spells it, with or without an
# indent, and the types of the scalars.
_json_value = json.JSONEncoder(default=_fmt).encode
_SCALAR_TYPES = (str, int, float, type(None), np.floating, np.integer, np.bool_)
# Below this many rows, finding the distinct floats of a column (np.unique,
# about 20 us) costs more than spelling every value.
_DISTINCT_MIN_ROWS = 64


class _Coded(NamedTuple):
    """A column of strings held as labels[c] for each c in codes, so that
    each label is spelled once."""

    labels: list
    codes: np.ndarray


class _Columns(dict):
    """Flat rows that share their keys, held by column: {key: list of the
    rows' values or _Coded}.  A report writes it as its list of rows."""

    def plus_row(self, row):
        """These rows and then row, a dict with the same keys."""
        return _Columns((k, _values(column) + [row[k]]) for k, column in self.items())


def _values(column):
    """The values of a column of a _Columns, as a list."""
    if isinstance(column, _Coded):
        return list(map(column.labels.__getitem__, column.codes.tolist()))
    return column


def _json_column(values):
    """The JSON spellings of one column of row values.  A column of floats
    is spelled with float.__repr__ when all are finite; a long one spells
    each distinct double once, keyed on its bits (so 0.0 and -0.0 stay
    apart).  A column of strings goes through the json string escape in one
    pass, and a _Coded column spells its labels once.  Any other column is
    spelled value by value."""
    if isinstance(values, _Coded):
        spelled = list(_json_column(values.labels))
        return map(spelled.__getitem__, values.codes.tolist())
    types = set(map(type, values))
    if all(issubclass(t, float) for t in types):
        distinct, inverse = values, None
        if len(values) >= _DISTINCT_MIN_ROWS:
            bits, inverse = np.unique(np.array(values, dtype=np.float64).view(np.int64),
                                      return_inverse=True)
            distinct = bits.view(np.float64).tolist()
        spell = float.__repr__ if all(map(math.isfinite, distinct)) else _json_value
        if inverse is None:
            return map(spell, distinct)
        return map(list(map(spell, distinct)).__getitem__, inverse.tolist())
    if all(issubclass(t, str) for t in types):
        return map(encode_basestring_ascii, values)
    return map(_json_value, values)


def _json_table(columns, level):
    """A _Columns of at least one row as json.dumps(indent=1, default=_fmt)
    writes its list of row dicts at nesting depth level: the rows are spelled
    column by column and filled into one row template."""
    pad = "\n" + " " * (level + 1)
    # Braces in a key are doubled so that str.format keeps them.
    fields = ",".join(pad + " " + encode_basestring_ascii(k).replace("{", "{{")
                      .replace("}", "}}") + ": {}" for k in columns)
    template = pad + "{{" + fields + pad + "}}"
    values = map(_json_column, columns.values())
    return f"[{','.join(map(template.format, *values))}\n{' ' * level}]"


def _json_rows(rows, level):
    """A list of flat rows that share their keys, written by _json_table.
    None for any other value."""
    if not isinstance(rows, (list, tuple)) or not rows or set(map(type, rows)) != {dict}:
        return None
    key_lists = set(map(tuple, rows))
    keys = key_lists.pop()
    if key_lists or not keys or not all(type(k) is str for k in keys):
        return None
    columns = _Columns((k, list(map(itemgetter(k), rows))) for k in keys)
    if not all(issubclass(t, _SCALAR_TYPES) for column in columns.values()
               for t in set(map(type, column))):
        return None
    return _json_table(columns, level)


def _json(obj, level=0):
    """json.dumps(obj, indent=1, default=_fmt) for obj at nesting depth
    level, with every list of flat rows and every _Columns written by
    _json_table."""
    if isinstance(obj, _Columns):
        return _json_table(obj, level)
    if type(obj) is dict and obj and all(type(k) is str for k in obj):
        pad = "\n" + " " * (level + 1)
        items = (f"{pad}{encode_basestring_ascii(k)}: {_json(v, level + 1)}"
                 for k, v in obj.items())
        return f"{{{','.join(items)}\n{' ' * level}}}"
    if isinstance(obj, _SCALAR_TYPES):
        return _json_value(obj)
    text = _json_rows(obj, level)
    if text is None:
        text = json.dumps(obj, indent=1, default=_fmt).replace("\n", "\n" + " " * level)
    return text


def _emit(doc, rows, fmt):
    """Print a report: nested JSON, or flat CSV rows with a fixed schema
    from rows, a list of dicts that share their keys or a _Columns."""
    if fmt == "json":
        _echo(_json(doc))
    elif rows:
        if not isinstance(rows, _Columns):
            rows = _Columns((k, [row[k] for row in rows]) for k in rows[0])
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(rows)
        writer.writerows(zip(*(
            [_fmt_str(v) if isinstance(v, (float, np.floating)) else v for v in _values(column)]
            for column in rows.values())))
        _echo(out.getvalue().rstrip("\n"))


def _max_unstability(rep):
    """The largest U over the scanned pairs where it is defined, the first
    in pair order among equal ones (as max() picks it), or 0.0 when none is."""
    defined = rep.U[~np.isnan(rep.U)]
    return float(defined[np.argmax(defined)]) if defined.size else 0.0


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
    "concentration": "t,exact_tail,bound (one row at t = 0, then one per jump point)",
    "logsobolev": "check,lhs,rhs,holds (variance and entropy forms)",
    "expconc": "field,value (rho, D, m, lhs, rhs, holds, lemma45_holds)",
    "verify": "check,holds",
    "report": "section,check,value",
}


def _schema_option(cmd_name):
    def callback(ctx, _param, value):
        if value:
            _echo(f"{cmd_name} CSV columns: {SCHEMAS[cmd_name]}")
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
            _echo(f"check failed: {exc}", err=True)
            sys.exit(EXIT_CHECK_FAILED)
        except Exception as exc:
            _echo(f"error: {' '.join(str(exc).split()) or type(exc).__name__}",
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
    _echo(f"wrote {preset} chain ({chain.n} states) to {output}")


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
    labels = [str(p) for p in chain.space.points]
    pairs = _Columns(x=_Coded(labels, rep.I), y=_Coded(labels, rep.J),
                     kappa=rep.kappa.tolist(), kappa_plus=rep.kappa_plus.tolist(),
                     kappa_minus=rep.kappa_minus.tolist(),
                     U=["" if math.isnan(u) else u for u in rep.U.tolist()])
    doc = {"mode": rep.mode, "delta": rep.delta,
           "global_kappa": rep.global_kappa, "pairs": pairs}
    if chain.dt is not None:
        doc["dt"] = chain.dt
        doc["kappa_per_time"] = rep.global_kappa / chain.dt
    if fmt == "csv":
        pairs = pairs.plus_row({"x": "global", "y": "", "kappa": rep.global_kappa,
                                "kappa_plus": "", "kappa_minus": "", "U": ""})
    _emit(doc, pairs, fmt)


@main.command()
@click.argument("chain_file", type=click.Path())
@geodesic_option
@fmt_option
@_schema_option("spectral")
def spectral(chain_file, geodesic, fmt):
    """Spectral radius on mean-zero functions and the Cor. 30 Poincare ratios."""
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
        "poincare_applicable": sp.poincare_local_ratio is not None,
        "poincare_local_ratio": sp.poincare_local_ratio,
        "poincare_gradient_ratio": sp.poincare_gradient_ratio,
        "eigenvalue_moduli": [float(v) for v in sp.eigenvalue_moduli],
    }
    _emit(doc, rows, fmt)


@main.command(name="bounds")
@click.argument("chain_file", type=click.Path())
@geodesic_option
@fmt_option
@_schema_option("bounds")
def bounds_cmd(chain_file, geodesic, fmt):
    """Bonnet-Myers diameter bounds and the Prop. 31 variance bound."""
    chain = chainfile.load_chain(chain_file)
    rep = _report(chain, geodesic)
    diameter, _per_pair, avg = bounds_mod.bonnet_myers(chain, rep)
    variance, statdim = bounds_mod.variance_bound(chain, rep.global_kappa)
    rows = [{"check": "diameter", **diameter._asdict()},
            {"check": "variance", **variance._asdict()}]
    rows += [{"check": f"avg_dist[{p}]", **c._asdict()} for p, c in avg]
    doc = {
        "global_kappa": rep.global_kappa,
        "diameter_bound": diameter.rhs,
        "diameter_actual": diameter.lhs,
        "variance_bound": variance.rhs,
        "extremal_lipschitz_variance": variance.lhs,
        "statdim": statdim,
        "average_distance_bounds": [
            {"point": str(p), "lhs": c.lhs, "rhs": c.rhs} for p, c in avg],
    }
    _emit(doc, rows, fmt)
    failing = next((r["check"] for r in rows if not r["holds"]), None)
    if failing is not None:
        raise InequalityFails(failing)


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
        for t, e, b in zip(conc.t, conc.exact_tails, conc.bounds)
    ]
    doc = {"D2": conc.D2, "C": conc.C, "sigma_inf": conc.sigma_inf,
           "t_max": conc.t_max, "holds": conc.holds, "table": rows}
    if chain.dt is not None:
        doc["dt"] = chain.dt
        doc["note"] = ("continuous-time chain: sigma^2 enters as the "
                       "discretized sigma^2_disc/dt convention")
    _emit(doc, rows, fmt)
    if not conc.holds:
        raise InequalityFails("exact tail exceeds Thm. 32 bound")


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
    U = _max_unstability(rep)
    if lam is None:
        lam = bounds_mod.admissible_lambda(chain, U)
    rng = np.random.default_rng(seed)
    f = np.exp(rng.normal(size=chain.n))
    variance, entropy, _v, holds = bounds_mod.log_sobolev_check(
        chain, f, lam, rep.global_kappa, U)
    violations = bounds_mod.commutation_check(chain, f, lam, rep.global_kappa, U)
    rows = [
        {"check": "variance", **variance._asdict()},
        {"check": "entropy", **entropy._asdict()},
        {"check": "commutation", "lhs": len(violations), "rhs": 0,
         "holds": not violations},
    ]
    holds = holds and not violations
    doc = {"lambda": lam, "U": U, "global_kappa": rep.global_kappa,
           "holds": holds, "checks": rows}
    _emit(doc, rows, fmt)
    if not holds:
        raise InequalityFails("log-Sobolev / commutation")


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
        raise InequalityFails("Thm. 44 moment bound / Lemma 45 pull")


def _verify_checks(chain, geodesic):
    rep = _report(chain, geodesic)
    checks = []
    kappa = rep.global_kappa
    checks.append(("global_kappa_positive", kappa > 0))
    sp = bounds_mod.spectral_report(chain, kappa)
    # spectral_report has raised InequalityFails if the radius exceeds
    # 1 - kappa; the radius bound decides Cor. 30 too, where it applies.
    checks.append(("spectral_radius_le_1_minus_kappa", True))
    if sp.poincare_local_ratio is not None:
        checks.append(("poincare", True))
    if kappa > 0:
        diameter, _pp, avg = bounds_mod.bonnet_myers(chain, rep)
        checks.append(("bonnet_myers_diameter", diameter.holds))
        checks.append(("bonnet_myers_average", all(c.holds for _p, c in avg)))
        checks.append(("variance_bound", bounds_mod.variance_holds(chain, kappa)))
        f = chain.space.dist[:, 0]
        conc = bounds_mod.gaussian_concentration(chain, f, kappa)
        checks.append(("gaussian_concentration", conc.holds))
        U = _max_unstability(rep)
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
        raise InequalityFails(next(n for n, h in checks if not h))


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
