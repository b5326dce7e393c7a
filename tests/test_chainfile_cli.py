import csv
import io
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import coricci.bounds
import coricci.chain
import coricci.cli
from coricci import chainfile, gallery
from coricci.chainfile import dump_chain, load_chain, parse_chain, save_chain
from coricci.cli import main
from coricci.errors import ChainFileError, DegenerateSupport, InequalityFails
from coricci.transport import MASS_ATOL


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


def test_verify_and_report_compute_each_quantity_once(runner, tmp_path, monkeypatch):
    """One maxVar per distinct (measure, mode) and one invariant
    distribution per chain, however many checks read them."""
    path = _gen(runner, tmp_path, "cube", "--n", "4")
    max_var_calls = Counter()
    nu_solves = []
    max_var = coricci.chain.max_var_lipschitz
    solve_invariant = coricci.chain._solve_invariant

    def counted_max_var(space, measure, mode="exact"):
        max_var_calls[measure.weights.tobytes(), mode] += 1
        return max_var(space, measure, mode)

    def counted_solve(chain):
        nu_solves.append(chain)
        return solve_invariant(chain)

    for module in (coricci.chain, coricci.bounds):
        monkeypatch.setattr(module, "max_var_lipschitz", counted_max_var)
    monkeypatch.setattr(coricci.chain, "_solve_invariant", counted_solve)
    for argv in (["verify", path, "--all", "--geodesic", "1"],
                 ["report", path, "--geodesic", "1"]):
        max_var_calls.clear()
        nu_solves.clear()
        res = runner.invoke(main, argv)
        assert res.exit_code == 0, res.output
        # the 16 rows (exact) and nu (heuristic: 16 support points > 12)
        assert len(max_var_calls) == 17
        assert set(max_var_calls.values()) == {1}
        assert len(nu_solves) == 1
