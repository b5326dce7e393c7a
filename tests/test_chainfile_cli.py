import ast
import contextlib
import csv
import dataclasses
import gc
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import warnings
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

import coricci.bounds
import coricci.chain
import coricci.cli
import coricci.metric
from coricci import chainfile, gallery
from coricci.chainfile import dump_chain, load_chain, parse_chain, save_chain
from coricci.cli import main
from coricci.curvature import contraction_check, kappa_global
from coricci.errors import ChainFileError, DegenerateSupport, InequalityFails
from coricci.transport import MASS_ATOL, Distribution


@pytest.fixture()
def runner():
    return CliRunner()


# ------------------------------------------------------------- chain files


def test_round_trip_bit_exact(tmp_path):
    chain = gallery.binomial(10, 0.3)
    path1 = tmp_path / "a.json"
    path2 = tmp_path / "b.json"
    save_chain(chain, str(path1))
    loaded = load_chain(str(path1))
    save_chain(loaded, str(path2))
    assert path1.read_bytes() == path2.read_bytes()
    assert np.array_equal(loaded.space.dist, chain.space.dist)
    assert np.array_equal(loaded.dense(), chain.dense())
    assert loaded.space.points == tuple(str(p) for p in chain.space.points)


def test_round_trip_preserves_dt(tmp_path):
    chain = gallery.mm_infty(2.0, 1.0, 1e-3, K=20)
    path = tmp_path / "q.json"
    save_chain(chain, str(path))
    assert load_chain(str(path)).dt == chain.dt


def test_parse_rejects_bad_version():
    doc = dump_chain(gallery.cube(2))
    doc["format_version"] = 99
    with pytest.raises(ChainFileError, match="format_version"):
        parse_chain(doc)


def test_parse_rejects_bad_points():
    doc = dump_chain(gallery.cube(2))
    doc["points"] = "not-a-list"
    with pytest.raises(ChainFileError, match="points"):
        parse_chain(doc)


def test_parse_rejects_bad_metric():
    doc = dump_chain(gallery.cube(2))
    doc["metric"] = {"type": "voronoi", "payload": []}
    with pytest.raises(ChainFileError, match="metric"):
        parse_chain(doc)


def test_parse_rejects_metric_violation():
    doc = dump_chain(gallery.cube(1))
    doc["metric"]["payload"] = [["0.0", "1.0"], ["2.0", "0.0"]]
    with pytest.raises(ChainFileError, match="metric.payload"):
        parse_chain(doc)


def test_parse_rejects_bad_kernel_row():
    doc = dump_chain(gallery.cube(1))
    first = next(iter(doc["kernel"]))
    doc["kernel"][first][0][1] = "0.9"  # row no longer sums to 1
    with pytest.raises(ChainFileError, match="kernel"):
        parse_chain(doc)


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ChainFileError, match="invalid JSON"):
        load_chain(str(path))


def test_graph_metric_round_trip(tmp_path):
    doc = {
        "format_version": 1,
        "points": ["a", "b", "c"],
        "metric": {"type": "graph",
                   "payload": [["a", "b", "1.0"], ["b", "c", "2.0"]]},
        "kernel": {"a": [["a", "0.5"], ["b", "0.5"]],
                   "b": [["a", "0.25"], ["b", "0.5"], ["c", "0.25"]],
                   "c": [["b", "0.5"], ["c", "0.5"]]},
    }
    chain = parse_chain(doc)
    i, j = chain.space.index("a"), chain.space.index("c")
    assert chain.space.dist[i, j] == 3.0


def test_parse_rejects_repeated_kernel_target(runner, tmp_path):
    """A row that lists a target twice is an error naming the row and the
    target, not a row whose last entry wins: row b holds 1.5 of mass."""
    doc = {"format_version": 1, "points": ["a", "b"],
           "metric": {"type": "matrix", "payload": [["0.0", "1.0"], ["1.0", "0.0"]]},
           "kernel": {"a": [["a", "0.5"], ["b", "0.5"]],
                      "b": [["a", "0.5"], ["b", "0.5"], ["b", "0.5"]]}}
    with pytest.raises(ChainFileError) as exc:
        parse_chain(doc)
    assert str(exc.value) == "field 'kernel.b': target 'b' listed more than once"
    path = tmp_path / "repeat.json"
    path.write_text(json.dumps(doc))
    res = runner.invoke(main, ["curvature", str(path)])
    assert res.exit_code == 2
    assert "target 'b' listed more than once" in res.output


@pytest.mark.parametrize("kernel, row", [
    ({"a": ["a1"], "b": {"b1": "x"}}, "a"),
    ({"a": [["a", "1.0"]], "b": {"b1": "x"}}, "b"),
    ({"a": [["a", "1.0"]], "b": [["b", "1.0", "x"]]}, "b"),
    ({"a": [["a", "1.0"]], "b": "b1"}, "b"),
])
def test_parse_rejects_kernel_entries_that_are_not_pairs(runner, tmp_path, kernel, row):
    """A kernel row is a list of [target, prob] lists.  A two-character
    string or an object's keys is not: the first document used to load as
    the identity kernel, row a read as [["a", "1"]] from the string "a1"."""
    doc = {"format_version": 1, "points": ["a", "b"],
           "metric": {"type": "matrix", "payload": [["0.0", "1.0"], ["1.0", "0.0"]]},
           "kernel": kernel}
    message = f"field 'kernel.{row}': expected a list of [target, prob] pairs"
    with pytest.raises(ChainFileError) as exc:
        parse_chain(doc)
    assert str(exc.value) == message
    path = tmp_path / "entries.json"
    path.write_text(json.dumps(doc))
    res = runner.invoke(main, ["curvature", str(path)])
    assert (res.exit_code, res.output) == (2, f"error: {message}\n")


@pytest.mark.parametrize("kernel, message", [
    ({"a": [["a", "x"]], "b": [["b", "1.0", "x"]]},
     "field 'kernel.a': malformed (could not convert string to float: 'x')"),
    ({"a": [["a", "0.5"], ["a", "0.5"]], "b": "b1"},
     "field 'kernel.a': target 'a' listed more than once"),
    ({"a": [["a", "1.0"]], "b": [["b", "1.0"]], "c": [["c", "1.0"], ["c", "1.0"]]},
     "field 'kernel.c': target 'c' listed more than once"),
    ({"a": [["a", "0.5"], ["c", "0.5"]], "b": [["d", "1.0"]]},
     "field 'kernel': target 'c' in row of 'a' is not a point"),
    ({"a": [["a", "1.0"]], "c": [["a", "1.0"]], "b": [["d", "1.0"]]},
     "field 'kernel': row key 'c' is not a point of the space"),
    ({"b": [["b", "1.0"]]}, "field 'kernel': no row supplied for point 'a'"),
])
def test_parse_names_the_first_bad_kernel_row(kernel, message):
    """Each row is checked in turn, so the first bad row is named, whichever
    way a later row is bad; then the first unknown point, then the first
    point without a row."""
    doc = {"format_version": 1, "points": ["a", "b"],
           "metric": {"type": "matrix", "payload": [["0.0", "1.0"], ["1.0", "0.0"]]},
           "kernel": kernel}
    with pytest.raises(ChainFileError) as exc:
        parse_chain(doc)
    assert str(exc.value) == message


def test_save_names_the_points_whose_names_collide(tmp_path):
    """A chain file names points by their strings, so the points 1 and "1"
    cannot both be written; the error names them and writes no file."""
    space = coricci.metric.space_from_matrix([1, "1"], [[0.0, 1.0], [1.0, 0.0]])
    chain = coricci.chain.build_chain(space, np.full((2, 2), 0.5))
    path = tmp_path / "collide.json"
    with pytest.raises(ChainFileError) as exc:
        save_chain(chain, str(path))
    assert str(exc.value) == (
        "point string identifiers collide: 1 and '1' are both written '1'")
    assert not path.exists()


@pytest.mark.parametrize("metric", [
    {"type": "matrix", "payload": [["0.0", "1.0", "2.0"], ["1.0", "0.0", "1.0"],
                                   ["2.0", "1.0", "0.0"]]},
    {"type": "graph", "payload": [["a", "b", "1.0"]]},
])
def test_parse_rejects_repeated_points(metric):
    doc = {"format_version": 1, "points": ["a", "a", "b"], "metric": metric,
           "kernel": {"a": [["a", "1.0"]], "b": [["b", "1.0"]]}}
    with pytest.raises(ChainFileError) as exc:
        parse_chain(doc)
    assert str(exc.value) == "field 'points': point 'a' appears more than once"


def _reference_chain_text(chain):
    """The chain file as json.dump(indent=1) writes its document, built
    point by point: the writer format_chain replaced."""
    chain = chainfile.stringify_chain(chain)
    dense = chain.dense()
    kernel = {}
    for i, p in enumerate(chain.space.points):
        supp = np.nonzero(dense[i] > 0)[0]
        kernel[p] = [[chain.space.points[j], repr(float(dense[i, j]))] for j in supp]
    doc = {
        "format_version": chainfile.FORMAT_VERSION,
        "points": list(chain.space.points),
        "metric": {
            "type": "matrix",
            "payload": [[repr(float(v)) for v in row] for row in chain.space.dist],
        },
        "kernel": kernel,
    }
    if chain.dt is not None:
        doc["dt"] = repr(float(chain.dt))
    return json.dumps(doc, indent=1) + "\n"


def _odd_names_chain():
    """Three points named with a quote, a backslash, a control character,
    a non-ASCII letter and a character outside the BMP."""
    x = np.array([0.0, 1.0, 3.0])
    space = coricci.metric.space_from_matrix(['say "hi"', "back\\slash\x01", "\xe9t\xe9\U0001f600"],
                                             np.abs(x[:, None] - x[None, :]))
    return coricci.chain.build_chain(space, [[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.1, 0.9]])


@pytest.mark.parametrize("preset, params", [
    ("cube", {"N": 3}),
    ("discrete_ou", {"N": 4}),
    ("multinomial", {"N": 3, "d": 2}),
    ("binomial", {"N": 10, "p": 0.3}),
    ("glauber", {"graph": "star:5", "beta": 0.3, "h": 0.1}),
    ("geometric_reflect", {"K": 20}),
    ("geometric_reset", {"alpha": 0.5, "K": 20}),
    ("mm_infty", {"lam": 2.0, "mu": 1.0, "dt": 0.01, "K": 20}),
    ("linear_rates", {"alpha": 1.0, "beta": 1.5, "dt": 1e-3, "K": 40}),
    ("quadratic_rates", {"a": 1.0, "b": 1.0, "dt": 1e-4, "K": 30, "tail_tol": 1.0}),
    ("pow2_jump", {"j": 4}),
    ("odd_names", None),
])
def test_chain_file_bytes_match_json_dump(tmp_path, preset, params):
    """save_chain writes the bytes of json.dump(indent=1) of the file's
    document, for every gallery preset (with and without dt) and for point
    names that JSON escapes; dump_chain reads that document back."""
    if params is None:
        chain = _odd_names_chain()
    else:
        chain = gallery.generate(gallery.PresetSpec(preset, params))
    path = tmp_path / "chain.json"
    save_chain(chain, str(path))
    expected = _reference_chain_text(chain)
    assert path.read_bytes() == expected.encode()
    assert dump_chain(chain) == json.loads(expected)


def test_commands_without_geodesic_load_no_scipy(tmp_path):
    """import coricci, `coricci gen` and `coricci curvature` without
    --geodesic run in a fresh interpreter without importing scipy, and a
    chain's kernel is a read-only dense array."""
    path = str(tmp_path / "cube3.json")
    script = (
        "import sys, json, coricci, coricci.cli\n"
        "for argv in (['gen', 'cube', '--n', '3', '-o', sys.argv[1]], ['curvature', sys.argv[1]]):\n"
        "    try:\n"
        "        coricci.cli.main.main(args=argv, prog_name='coricci')\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code == 0, (argv, exc.code)\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(coricci.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-c", script, path], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert json.loads(lines[-1]) == []
    assert json.loads("\n".join(lines[1:-1]))["pairs"]
    kernel = load_chain(path).kernel
    assert type(kernel) is np.ndarray and kernel.dtype == np.float64
    assert not kernel.flags.writeable
    with pytest.raises(ValueError):
        kernel[0, 0] = 0.0


def test_geodesic_scan_loads_no_scipy(tmp_path):
    """`coricci curvature --geodesic 1` on cube 4 runs in a fresh
    interpreter without importing scipy: the one-hop certificate decides
    the geodesic test."""
    path = str(tmp_path / "cube4.json")
    save_chain(gallery.cube(4), path)
    script = (
        "import sys, json, coricci.cli\n"
        "try:\n"
        "    coricci.cli.main.main(args=['curvature', sys.argv[1], '--geodesic', '1'],\n"
        "                          prog_name='coricci')\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(coricci.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-c", script, path], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert json.loads(lines[-1]) == []
    doc = json.loads("\n".join(lines[:-1]))
    assert doc["mode"] == "geodesic(1)" and len(doc["pairs"]) == 32


@pytest.mark.parametrize("preset, params, pairs", [
    ("cube", {"N": 4}, 32),
    ("cube", {"N": 8}, 1024),
    ("glauber", {"graph": "cycle:4", "beta": 0.2}, 32),
    ("glauber", {"graph": "cycle:8", "beta": 0.2}, 1024),
    ("binomial", {"N": 20, "p": 0.5}, 20),
])
def test_geodesic_scan_needs_no_shortest_path_search(runner, tmp_path, monkeypatch,
                                                     preset, params, pairs):
    """On the cube, Glauber and birth-death presets the one-hop certificate
    decides the geodesic test: with scipy's shortest_path made to raise,
    `curvature --geodesic 1` still scans every hop."""
    import scipy.sparse.csgraph

    def no_search(*_args, **_kwargs):
        raise AssertionError("shortest_path called")

    monkeypatch.setattr(scipy.sparse.csgraph, "shortest_path", no_search)
    path = str(tmp_path / "chain.json")
    save_chain(gallery.generate(gallery.PresetSpec(preset, params)), path)
    res = runner.invoke(main, ["curvature", path, "--geodesic", "1"])
    assert res.exit_code == 0, res.output
    assert len(json.loads(res.output)["pairs"]) == pairs


@pytest.mark.parametrize("args, options, message", [
    (["--delta", "-1"], {"delta": -1.0}, "delta must be finite and >= 0, not -1.0"),
    (["--delta", "nan"], {"delta": math.nan}, "delta must be finite and >= 0, not nan"),
    (["--delta", "inf"], {"delta": math.inf}, "delta must be finite and >= 0, not inf"),
    (["--delta", "-inf", "--geodesic", "1"], {"delta": -math.inf, "mode": "geodesic", "eps": 1},
     "delta must be finite and >= 0, not -inf"),
    (["--geodesic", "nan"], {"mode": "geodesic", "eps": math.nan}, "geodesic mode requires eps > 0"),
    (["--geodesic", "-1"], {"mode": "geodesic", "eps": -1.0}, "geodesic mode requires eps > 0"),
    (["--geodesic", "0"], {"mode": "geodesic", "eps": 0.0}, "geodesic mode requires eps > 0"),
])
def test_curvature_rejects_bad_delta_and_eps(runner, tmp_path, args, options, message):
    """A negative or non-finite delta and an eps that is not > 0 are input
    errors, in kappa_global and on the command line: exit 2 and one line,
    where a negative delta used to print curvatures above the true ones and
    a NaN delta a report that is not JSON."""
    path = str(tmp_path / "cube4.json")
    save_chain(gallery.cube(4), path)
    res = runner.invoke(main, ["curvature", path, *args])
    assert (res.exit_code, res.output) == (2, f"error: {message}\n")
    with pytest.raises(ValueError) as exc:
        kappa_global(load_chain(path), **options)
    assert str(exc.value) == message


# ------------------------------------------------------------------- CLI


def _gen(runner, tmp_path, preset, *args):
    path = str(tmp_path / f"{preset}.json")
    res = runner.invoke(main, ["gen", preset, "-o", path, *args])
    assert res.exit_code == 0, res.output
    return path


def test_gen_and_curvature_json(runner, tmp_path):
    path = _gen(runner, tmp_path, "cube", "--n", "3")
    res = runner.invoke(main, ["curvature", path, "--geodesic", "1"])
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    assert doc["global_kappa"] == pytest.approx(1 / 3, abs=1e-9)
    assert doc["mode"].startswith("geodesic(")
    assert all(abs(p["kappa"] - 1 / 3) < 1e-9 for p in doc["pairs"])


def test_curvature_csv(runner, tmp_path):
    path = _gen(runner, tmp_path, "cube", "--n", "2")
    res = runner.invoke(main, ["curvature", path, "--format", "csv"])
    assert res.exit_code == 0, res.output
    rows = list(csv.reader(io.StringIO(res.output)))
    assert rows[0] == ["x", "y", "kappa", "kappa_plus", "kappa_minus", "U"]
    assert rows[-1][0] == "global"
    # 17-significant-digit floats round-trip exactly
    assert float(rows[1][2]) == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("preset, args", [
    ("geometric_reflect", ["--k", "30"]),  # pairs with kappa <= 0: U is empty
    ("mm_infty", ["--lam", "2", "--mu", "1", "--dt", "0.01", "--k", "30"]),  # has dt
])
def test_curvature_writes_the_rows_of_its_pairs(runner, tmp_path, preset, args):
    """`coricci curvature` writes, from the scan's columns, the bytes of its
    report built as one dict per pair: json.dumps(indent=1, default=_fmt) of
    the document, and the CSV rows of a csv.DictWriter with 17-digit floats."""
    path = _gen(runner, tmp_path, preset, *args)
    chain = load_chain(path)
    for argv, kwargs in (([], {}), (["--geodesic", "1"], {"mode": "geodesic", "eps": 1.0}),
                         (["--delta", "0.1"], {"delta": 0.1})):
        rep = kappa_global(chain, **kwargs)
        rows = [{"x": str(p.x), "y": str(p.y), "kappa": p.kappa, "kappa_plus": p.kappa_plus,
                 "kappa_minus": p.kappa_minus, "U": "" if p.U is None else p.U}
                for p in rep.pairs]
        assert any(r["U"] == "" for r in rows) == (preset == "geometric_reflect")
        doc = {"mode": rep.mode, "delta": rep.delta, "global_kappa": rep.global_kappa,
               "pairs": rows}
        if chain.dt is not None:
            doc["dt"] = chain.dt
            doc["kappa_per_time"] = rep.global_kappa / chain.dt
        res = runner.invoke(main, ["curvature", path, *argv])
        assert res.exit_code == 0, res.output
        expected = json.dumps(doc, indent=1, default=coricci.cli._fmt) + "\n"
        assert res.stdout_bytes == expected.encode()

        out = io.StringIO()
        writer = csv.DictWriter(out, fieldnames=list(rows[0]))
        writer.writeheader()
        for row in rows + [{"x": "global", "y": "", "kappa": rep.global_kappa,
                            "kappa_plus": "", "kappa_minus": "", "U": ""}]:
            writer.writerow({k: f"{v:.17g}" if isinstance(v, float) else v
                             for k, v in row.items()})
        res = runner.invoke(main, ["curvature", path, "--format", "csv", *argv])
        assert res.exit_code == 0, res.output
        assert res.stdout_bytes == (out.getvalue().rstrip("\n") + "\n").encode()


def test_gen_bad_params_exit_2(runner, tmp_path):
    res = runner.invoke(main, ["gen", "binomial", "-o",
                               str(tmp_path / "x.json"), "--n", "10", "--p", "1.5"])
    assert res.exit_code == 2
    assert "error:" in res.output


def test_gen_unknown_preset_exit_2(runner, tmp_path):
    res = runner.invoke(main, ["gen", "banana", "-o", str(tmp_path / "x.json")])
    assert res.exit_code == 2


def test_missing_file_exit_2(runner, tmp_path):
    res = runner.invoke(main, ["curvature", str(tmp_path / "nope.json")])
    assert res.exit_code == 2
    assert "error:" in res.output


def test_malformed_file_exit_2(runner, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format_version": 7}')
    res = runner.invoke(main, ["spectral", str(path)])
    assert res.exit_code == 2


def test_verify_all_green(runner, tmp_path):
    path = _gen(runner, tmp_path, "cube", "--n", "3")
    res = runner.invoke(main, ["verify", path, "--all", "--geodesic", "1"])
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    assert doc["all_pass"]
    names = {c["check"] for c in doc["checks"]}
    assert {"global_kappa_positive", "spectral_radius_le_1_minus_kappa",
            "bonnet_myers_diameter", "variance_bound",
            "gaussian_concentration", "log_sobolev"} <= names


def test_verify_zero_curvature_exit_1(runner, tmp_path):
    path = _gen(runner, tmp_path, "geometric_reflect", "--k", "30")
    res = runner.invoke(main, ["verify", path])
    assert res.exit_code == 1
    assert "check failed: global_kappa_positive" in res.output


def test_spectral_csv(runner, tmp_path):
    path = _gen(runner, tmp_path, "cube", "--n", "3")
    res = runner.invoke(main, ["spectral", path, "--geodesic", "1",
                               "--format", "csv"])
    assert res.exit_code == 0, res.output
    lines = res.output.strip().splitlines()
    assert lines[0] == "check,value"
    values = dict(line.split(",") for line in lines[1:])
    assert float(values["spectral_radius"]) == pytest.approx(2 / 3, abs=1e-9)
    assert float(values["one_minus_kappa"]) == pytest.approx(2 / 3, abs=1e-9)


def test_bounds_command(runner, tmp_path):
    path = _gen(runner, tmp_path, "binomial", "--n", "10", "--p", "0.2")
    res = runner.invoke(main, ["bounds", path, "--geodesic", "1"])
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    assert doc["diameter_actual"] <= doc["diameter_bound"] + 1e-9
    assert doc["extremal_lipschitz_variance"] <= doc["variance_bound"] + 1e-9


def test_concentration_command(runner, tmp_path):
    path = _gen(runner, tmp_path, "binomial", "--n", "20", "--p", "0.1")
    res = runner.invoke(main, ["concentration", path, "--geodesic", "1",
                               "--origin", "0"])
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    assert doc["holds"]
    assert doc["D2"] > 0


def test_logsobolev_command(runner, tmp_path):
    path = _gen(runner, tmp_path, "cube", "--n", "3")
    res = runner.invoke(main, ["logsobolev", path, "--geodesic", "1"])
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    assert doc["holds"]


def test_expconc_command_and_error_path(runner, tmp_path):
    path = _gen(runner, tmp_path, "geometric_reset", "--alpha", "0.5",
                "--k", "40")
    res = runner.invoke(main, ["expconc", path, "--origin", "0",
                               "--radius", "2"])
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    assert doc["holds"] and doc["lemma45_holds"]
    assert doc["rho"] == pytest.approx(0.5, abs=1e-9)
    # unknown origin point is an input error
    res = runner.invoke(main, ["expconc", path, "--origin", "zzz",
                               "--radius", "2"])
    assert res.exit_code == 2


def test_report_command(runner, tmp_path):
    path = _gen(runner, tmp_path, "mm_infty", "--lam", "2", "--mu", "1",
                "--dt", "0.001", "--k", "25")
    res = runner.invoke(main, ["report", path, "--geodesic", "1"])
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    assert doc["states"] == 26
    assert doc["reversible"] and doc["unique_invariant"]
    assert doc["kappa_per_time"] == pytest.approx(1.0, rel=0.02)
    assert abs(sum(doc["invariant_distribution"].values()) - 1) < 1e-9


def test_schema_flag(runner):
    for cmd in ("curvature", "spectral", "bounds", "concentration",
                "logsobolev", "expconc", "verify", "report"):
        res = runner.invoke(main, [cmd, "--schema"])
        assert res.exit_code == 0
        assert "CSV columns" in res.output


def test_row_within_tolerance_is_renormalised(runner, tmp_path):
    path = tmp_path / "cube4.json"
    doc = json.loads(Path(_gen(runner, tmp_path, "cube", "--n", "4")).read_text())
    entries = doc["kernel"]["(0, 0, 0, 0)"]
    hold = next(e for e in entries if e[0] == "(0, 0, 0, 0)")
    hold[1] = "0.50000000005"  # the row now sums to 1 + 5e-11
    path.write_text(json.dumps(doc))
    row = load_chain(str(path)).row("(0, 0, 0, 0)")
    assert abs(row.sum() - 1.0) <= MASS_ATOL
    res = runner.invoke(main, ["curvature", str(path), "--geodesic", "1"])
    assert res.exit_code == 0, res.output


def test_unexpected_error_is_input_error(runner, tmp_path, monkeypatch):
    path = _gen(runner, tmp_path, "cube", "--n", "2")

    def broken(*_args, **_kwargs):
        raise ValueError("weights sum to 1.1, not 1")

    monkeypatch.setattr(coricci.cli, "kappa_global", broken)
    res = runner.invoke(main, ["curvature", path])
    assert res.exit_code == 2
    assert res.output == "error: weights sum to 1.1, not 1\n"


def test_all_dirac_rows_are_degenerate_support(runner, tmp_path):
    """Every point jumps to one point: kappa = 1, but n = inf n_x has no
    finite n_x to take the infimum over."""
    cube = gallery.cube(3)
    kernel = np.zeros((cube.n, cube.n))
    kernel[:, 0] = 1.0
    path = str(tmp_path / "dirac.json")
    save_chain(coricci.chain.build_chain(cube.space, kernel), path)
    with pytest.raises(DegenerateSupport):
        coricci.bounds.variance_bound(load_chain(path), 1.0)
    for cmd in ("bounds", "verify"):
        res = runner.invoke(main, [cmd, path])
        assert res.exit_code == 2
        assert res.output.endswith(
            "error: every kernel row is a Dirac mass, so n = inf n_x is undefined\n")


def test_failed_inequality_is_exit_1(runner, tmp_path, monkeypatch):
    path = _gen(runner, tmp_path, "cube", "--n", "2")

    def failing(*_args, **_kwargs):
        raise InequalityFails("Prop. 29: spectral radius exceeds 1 - kappa")

    monkeypatch.setattr(coricci.bounds, "spectral_report", failing)
    res = runner.invoke(main, ["spectral", path])
    assert res.exit_code == 1
    assert "check failed: Prop. 29" in res.output


def _jumps(scale_first, scale_rest):
    """A patch of the jumps J(x) that bounds reads: J at the first point
    times scale_first, every other J times scale_rest."""
    def patch(monkeypatch):
        moments = coricci.bounds.row_moments

        def scaled(chain):
            J, sigma2, sigma_inf = moments(chain)
            scale = np.full(len(J), scale_rest)
            scale[0] = scale_first
            return J * scale, sigma2, sigma_inf

        monkeypatch.setattr(coricci.bounds, "row_moments", scaled)
    return patch


def _shrink_g(monkeypatch):
    """g = sigma^2 / n_x a thousand times too small in bounds, which shrinks
    the right-hand sides of Thm. 40."""
    g_vector = coricci.bounds._g_vector
    monkeypatch.setattr(coricci.bounds, "_g_vector", lambda stats: 1e-3 * g_vector(stats))


def _report_fails(name, **fields):
    """A patch of the bound name that sets fields of the report it returns."""
    def patch(monkeypatch):
        report = getattr(coricci.bounds, name)
        monkeypatch.setattr(coricci.bounds, name,
                            lambda *args: dataclasses.replace(report(*args), **fields))
    return patch


# (chain preset and options, command, patch, the stderr line of the failure,
# what the JSON report shows of it)
RESET = ("geometric_reset", "--alpha", "0.5", "--k", "20")
CUBE3 = ("cube", "--n", "3")
EXPCONC = ["expconc", "--origin", "0", "--radius", "2"]
FORCED_EXIT_1 = {
    "bounds-diameter": (
        CUBE3, ["bounds", "--geodesic", "1"], _jumps(0.5, 0.5), "diameter",
        lambda doc: doc["diameter_actual"] > doc["diameter_bound"]),
    "bounds-avg-dist": (
        CUBE3, ["bounds", "--geodesic", "1"], _jumps(0.0, 1.0), "avg_dist[(0, 0, 0)]",
        lambda doc: doc["average_distance_bounds"][0]["lhs"]
        > doc["average_distance_bounds"][0]["rhs"]),
    "logsobolev": (
        CUBE3, ["logsobolev", "--geodesic", "1"], _shrink_g, "log-Sobolev / commutation",
        lambda doc: not (doc["holds"] or doc["checks"][0]["holds"])),
    "concentration": (
        CUBE3, ["concentration", "--geodesic", "1"],
        _report_fails("gaussian_concentration", holds=False),
        "exact tail exceeds Thm. 32 bound", lambda doc: not doc["holds"]),
    "expconc-moment": (
        RESET, EXPCONC, _report_fails("exponential_concentration", holds=False),
        "Thm. 44 moment bound / Lemma 45 pull", lambda doc: not doc["holds"]),
    "expconc-lemma45": (
        RESET, EXPCONC, _report_fails("exponential_concentration", lemma45_holds=False),
        "Thm. 44 moment bound / Lemma 45 pull", lambda doc: not doc["lemma45_holds"]),
}


def test_expconc_overflow_is_an_input_error(runner, tmp_path):
    """On geometric_reset (alpha 1/2, K 20) at --s 0.05, D = s^2/rho = 0.005
    and exp(d(x, o)/D) overflows: an input error naming s and D, with no
    report and no numpy warning.  Larger s still decide Thm. 44."""
    path = _gen(runner, tmp_path, *RESET)
    argv = [EXPCONC[0], path, *EXPCONC[1:], "--s"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = runner.invoke(main, [*argv, "0.05"])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr == ("error: Thm. 44: exp(d(x, o)/D) or exp(m/D) overflows at "
                          "s = 0.05, D = s^2/rho = 0.005000000000000001; take a larger s\n")
    for s, code in (("0.2", 1), ("0.5", 1), ("1", 0)):
        assert runner.invoke(main, [*argv, s]).exit_code == code


@pytest.mark.parametrize("case", sorted(FORCED_EXIT_1))
def test_failed_check_prints_the_report_then_exits_1(runner, tmp_path, monkeypatch, case):
    """A command whose inequality fails prints its whole report to stdout,
    then one `check failed:` line to stderr, and exits 1."""
    (preset, *options), command, patch, message, shows_failure = FORCED_EXIT_1[case]
    path = _gen(runner, tmp_path, preset, *options)
    patch(monkeypatch)
    argv = [command[0], path, *command[1:]]
    for fmt in ("json", "csv"):
        res = runner.invoke(main, [*argv, "--format", fmt])
        assert res.exit_code == 1, res.output
        assert res.stderr == f"check failed: {message}\n"
        assert res.output == res.stdout + res.stderr
        if fmt == "json":
            assert shows_failure(json.loads(res.stdout))
        else:
            header = coricci.cli.SCHEMAS[command[0]].split()[0]
            assert res.stdout.splitlines()[0] == header


def test_skeleton_is_computed_only_for_contraction(runner, tmp_path, monkeypatch):
    """Writing and loading chain files, curvature scans and every command
    leave the metric's 1-skeleton uncomputed; contraction_check computes it
    once per space."""
    calls = []
    skeleton = coricci.transport._kernel.skeleton
    monkeypatch.setattr(coricci.transport._kernel, "skeleton",
                        lambda dist: calls.append(len(dist)) or skeleton(dist))
    cube = _gen(runner, tmp_path, *CUBE3)
    reset = _gen(runner, tmp_path, *RESET)
    chain = load_chain(cube)
    kappa_global(chain)
    kappa_global(chain, mode="geodesic", eps=1)
    geodesic = ["--geodesic", "1"]
    for argv in (["curvature", cube], ["curvature", cube, *geodesic],
                 ["spectral", cube, *geodesic], ["bounds", cube, *geodesic],
                 ["concentration", cube, *geodesic, "--origin", "(0, 0, 0)"],
                 ["logsobolev", cube, *geodesic], ["verify", cube, "--all", *geodesic],
                 ["report", cube, *geodesic], [EXPCONC[0], reset, *EXPCONC[1:]]):
        res = runner.invoke(main, argv)
        assert res.exit_code == 0, (argv, res.output)
    assert calls == []
    mu = Distribution.dirac(chain.space, "(0, 0, 0)")
    nu = Distribution(chain.dense()[7])
    for _ in range(2):
        assert contraction_check(chain, mu, nu, 1 / 3).holds
    assert calls == [8]


def test_cli_spells_no_tolerance():
    """Every inequality is decided in bounds or curvature, within
    CHECK_ATOL: cli.py holds no small float literal that would be a second
    tolerance."""
    tree = ast.parse(Path(coricci.cli.__file__).read_text())
    small = [(node.lineno, node.value) for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and type(node.value) is float
             and 0 < abs(node.value) < 1e-6]
    assert small == []


def _count_max_var(monkeypatch):
    """Count max_var_lipschitz calls per (measure, mode) wherever coricci
    looks the function up."""
    calls = Counter()
    max_var = coricci.chain.max_var_lipschitz

    def counted_max_var(space, measure, mode="exact"):
        calls[measure.weights.tobytes(), mode] += 1
        return max_var(space, measure, mode)

    for module in (coricci.chain, coricci.bounds):
        monkeypatch.setattr(module, "max_var_lipschitz", counted_max_var)
    return calls


def test_verify_and_report_compute_each_quantity_once(runner, tmp_path, monkeypatch):
    """One maxVar per distinct row problem and one invariant distribution
    per chain, however many checks read them; on cube 4 the certified upper
    bound decides Prop. 31, so maxVar(nu) is not computed at all."""
    path = _gen(runner, tmp_path, "cube", "--n", "4")
    nu_bytes = coricci.chain.invariant_distribution(
        load_chain(path))[0].weights.tobytes()
    max_var_calls = _count_max_var(monkeypatch)
    nu_solves = []
    solve_invariant = coricci.chain._solve_invariant

    def counted_solve(chain):
        nu_solves.append(chain)
        return solve_invariant(chain)

    monkeypatch.setattr(coricci.chain, "_solve_invariant", counted_solve)
    for argv in (["verify", path, "--all", "--geodesic", "1"],
                 ["report", path, "--geodesic", "1"]):
        max_var_calls.clear()
        nu_solves.clear()
        res = runner.invoke(main, argv)
        assert res.exit_code == 0, res.output
        # 16 rows, 5 distinct (weights, distances) byte strings on their supports
        assert len(max_var_calls) == 5
        assert set(max_var_calls.values()) == {1}
        assert {mode for _w, mode in max_var_calls} == {"exact"}
        assert not any(w == nu_bytes for w, _mode in max_var_calls)
        assert len(nu_solves) == 1


@pytest.mark.parametrize("preset", [("cube", "--n", "4"),
                                    ("binomial", "--n", "7", "--p", "0.5")],
                         ids=["cube4", "binomial7"])
def test_variance_check_without_the_upper_bound(runner, tmp_path, monkeypatch, preset):
    """When the upper bound on maxVar(nu) cannot decide Prop. 31, verify and
    report compute maxVar(nu) once, as variance_bound does, and print the
    same bytes."""
    path = _gen(runner, tmp_path, *preset)
    argvs = (["verify", path, "--all", "--geodesic", "1"],
             ["report", path, "--geodesic", "1"],
             ["report", path, "--geodesic", "1", "--format", "csv"])
    decided = [runner.invoke(main, argv) for argv in argvs]
    nu = coricci.chain.invariant_distribution(load_chain(path))[0]
    max_var_calls = _count_max_var(monkeypatch)
    monkeypatch.setattr(coricci.bounds, "invariant_max_var_upper",
                        lambda chain: float("inf"))
    for argv, first in zip(argvs, decided):
        max_var_calls.clear()
        res = runner.invoke(main, argv)
        assert (res.exit_code, res.output) == (first.exit_code, first.output)
        assert res.exit_code == 0, res.output
        assert sum(n for (w, _mode), n in max_var_calls.items()
                   if w == nu.weights.tobytes()) == 1


def test_row_moment_checks_beyond_the_exact_cap(runner, tmp_path):
    """The lazy walk on K_14 has rows of 14 points, more than exact maxVar
    takes, yet Bonnet-Myers, the admissible lambda and Thm. 44 need no n_x."""
    n = 14
    space = coricci.metric.space_from_matrix(range(n), 1.0 - np.eye(n))
    chain = coricci.chain.build_chain(
        space, 0.5 * np.eye(n) + 0.5 * (1.0 - np.eye(n)) / (n - 1))
    (diam_actual, diam_bound, _holds), _pairs, avg = coricci.bounds.bonnet_myers(chain)
    kappa = 0.5 + 0.5 / (n - 1)  # 1 - W1 between two rows
    assert diam_bound == pytest.approx(2 * 0.5 / kappa, rel=1e-12)
    assert diam_actual <= diam_bound
    assert all(lhs <= rhs + 1e-12 for _p, (lhs, rhs, _h) in avg)  # equal: 13/14
    assert coricci.bounds.admissible_lambda(chain, 0.0) == pytest.approx(1 / 12)
    path = str(tmp_path / "k14.json")
    save_chain(chain, path)
    res = runner.invoke(main, ["expconc", path, "--origin", "0", "--radius", "1"])
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    assert doc["holds"] and doc["lemma45_holds"]
    assert doc["rho"] == pytest.approx(1 / 26, rel=1e-12)


def test_pure_python_kernel_gives_the_same_bytes(runner, tmp_path):
    """`coricci curvature` prints the same bytes on the pure-Python fallback
    (CORICCI_PURE_PYTHON=1) as on the default kernel, the compiled one when
    it is built: the fallback stays exercised by the suite."""
    path = _gen(runner, tmp_path, "cube", "--n", "4")
    src = Path(__file__).resolve().parent.parent / "src"
    script = "import sys, coricci, coricci.cli; print(coricci.BACKEND, file=sys.stderr); coricci.cli.main()"

    def run(argv, pure):
        env = {k: v for k, v in os.environ.items() if k != "CORICCI_PURE_PYTHON"}
        env["PYTHONPATH"] = str(src)
        if pure:
            env["CORICCI_PURE_PYTHON"] = "1"
        proc = subprocess.run([sys.executable, "-c", script, "curvature", path] + argv,
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return proc.stderr.strip(), proc.stdout

    # The default is the compiled kernel when it is built, also when this
    # suite runs under CORICCI_PURE_PYTHON=1.
    built = importlib.util.find_spec("coricci.transport._mcf_cy") is not None
    for argv in ([], ["--geodesic", "1"]):
        backend, default_out = run(argv, pure=False)
        assert backend == ("c" if built else "python")
        backend, pure_out = run(argv, pure=True)
        assert backend == "python"
        assert pure_out == default_out
        assert json.loads(pure_out)["pairs"]


# Strings with characters that JSON escapes or str.format reads, and any.
_text = st.text(st.sampled_from('a{}"\\/\n\x00\xe9\u2603\U0001f600'), max_size=3) | st.text()
# One JSON value of a report row: Python and numpy scalars, with NaN,
# infinities, -0.0, and escaped and non-ASCII strings among them.
_row_value = st.one_of(
    st.floats(), _text, st.integers(), st.booleans(), st.none(),
    st.floats().map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.booleans().map(np.bool_),
)
_column_values = st.sampled_from([
    st.floats(allow_nan=False, allow_infinity=False), st.floats(),
    st.sampled_from([0.0, -0.0, 0.1, math.nan, math.inf, -math.inf]),
    st.floats().map(np.float64), _text, st.booleans(), st.integers(), _row_value,
])


@st.composite
def _row_lists(draw):
    """Flat rows that share their keys; each column is all finite floats,
    all floats, all strings, all of another type or of mixed types."""
    keys = draw(st.lists(_text, min_size=1, max_size=4, unique=True))
    count = draw(st.integers(0, 5))
    columns = [draw(st.lists(draw(_column_values), min_size=count, max_size=count))
               for _key in keys]
    return [dict(zip(keys, values)) for values in zip(*columns)]


_doc_value = st.one_of(
    _row_value, _row_lists(),
    st.lists(_row_value, max_size=3),
    st.lists(st.dictionaries(_text, _row_value, max_size=2), max_size=3),
    st.dictionaries(_text, _row_value, max_size=2),
    st.dictionaries(st.integers(), _row_value, max_size=2),
    st.fixed_dictionaries({"rows": _row_lists(), "x": _row_value}),
)


@settings(max_examples=300, deadline=None)
@given(doc=st.dictionaries(_text, _doc_value, max_size=4))
@example(doc={"pairs": [{"k": 0.0, "s": "{}"}, {"k": -0.0, "s": "\u00e9"},
                        {"k": math.nan, "s": "\n"}]})
def test_report_writer_matches_json_dumps(doc):
    """The row-template writer gives the bytes of json.dumps(indent=1,
    default=_fmt), on lists of flat rows and on everything it hands back to
    json.dumps, also when every float column is spelled through its distinct
    values, as long columns are."""
    expected = json.dumps(doc, indent=1, default=coricci.cli._fmt)
    assert coricci.cli._json(doc) == expected
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coricci.cli, "_DISTINCT_MIN_ROWS", 0)
        assert coricci.cli._json(doc) == expected


def test_in_process_run_does_not_keep_its_output_stream(runner, tmp_path):
    """A caller that runs a command with stdout redirected (as the benchmark
    and embedding code do) gets its stream back: nothing in the command
    line keeps it, or all that was written to it, alive."""
    path = _gen(runner, tmp_path, "cube", "--n", "3")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
        main.main(args=["curvature", path], prog_name="coricci")
    assert exc.value.code == 0
    assert json.loads(out.getvalue())["pairs"]
    stream = weakref.ref(out)
    del out
    gc.collect()
    assert stream() is None
