"""End-to-end runner behavior: kinds, exit codes, artifacts, manifests."""

import hashlib
import json
import math
from datetime import datetime

import numpy as np
import pytest

from qfbsde import emit_config, linear_oracle, parse_config, run
from qfbsde.config import EXPERIMENT_KINDS
from qfbsde.runner import _HANDLERS, EXIT_ERROR, EXIT_PASS, EXIT_THRESHOLD
from qfbsde.storage import load_ensemble, load_fields, load_solution

SOLVE_CFG = """
[problem]
driver = "colehopf"
[numerics]
grid_n = 10
paths = 500
seed = 5
truncation = 8
[output]
directory = "out"
formats = ["json", "csv", "binary"]
"""


def run_text(text, base):
    cfg = parse_config(text)
    code = run(cfg, base_dir=str(base))
    out = base / cfg.output["directory"]
    report = None
    if (out / "report.json").exists():
        report = json.loads((out / "report.json").read_text())
    return code, out, report


def test_solve_kind_writes_all_artifacts(tmp_path):
    code, out, report = run_text(SOLVE_CFG, tmp_path)
    assert code == EXIT_PASS
    assert report["kind"] == "solve" and report["seed"] == 5
    assert report["passed"] is True
    assert 0.0 < report["y0"] < 1.0
    assert report["truncation"] == 8
    assert not (out / "plot.csv").exists()  # a single solve has no curve

    ens = load_ensemble(out / "ensemble.qfb")
    sol = load_solution(out / "solution.qfs")
    assert ens.paths.shape == (500, 11, 1)
    assert sol["y"].shape == (500, 11)
    assert sol["truncation_n"] == 8
    assert (out / "summary.csv").exists()


def test_manifest_contents(tmp_path):
    cfg = parse_config(SOLVE_CFG)
    assert run(cfg, base_dir=str(tmp_path)) == EXIT_PASS
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    digest = hashlib.sha256(emit_config(cfg).encode("utf-8")).hexdigest()
    assert manifest["config_sha256"] == digest
    assert manifest["kind"] == "solve"
    assert manifest["seed"] == 5
    assert manifest["passed"] is True
    assert manifest["outputs"] == sorted(
        ["report.json", "summary.csv", "ensemble.qfb", "solution.qfs"])
    for lib in ("python", "numpy", "scipy", "qfbsde"):
        assert manifest["versions"][lib]
    assert manifest["wall_time_s"] >= 0.0
    datetime.fromisoformat(manifest["timestamp"])  # parseable, tz-aware ISO


def test_reruns_are_byte_identical(tmp_path):
    _, out_a, _ = run_text(SOLVE_CFG, tmp_path / "a")
    _, out_b, _ = run_text(SOLVE_CFG, tmp_path / "b")
    for name in ("report.json", "summary.csv", "ensemble.qfb",
                 "solution.qfs"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    # the manifest is the one deliberately volatile artifact
    ma = json.loads((out_a / "manifest.json").read_text())
    mb = json.loads((out_b / "manifest.json").read_text())
    assert ma["config_sha256"] == mb["config_sha256"]
    assert ma["outputs"] == mb["outputs"]


def test_bounds_kind_flat_quadratic(tmp_path):
    # driverless problem with a unit-sup terminal: the value bound is
    # exactly the terminal's sup, and the audit must come in under it.
    # Hat functions keep the fit near the data's range; a global
    # polynomial oscillates past the sup in the thin-data tails.
    code, _, report = run_text("""
[problem]
terminal = "tanh"
driver = "zero"
[numerics]
grid_n = 20
paths = 4000
seed = 7
basis = "piecewise_linear"
basis.bins = 16
basis.support = [-4.5, 4.5]
[experiment]
kind = "bounds"
""", tmp_path)
    assert code == EXIT_PASS
    assert report["upsilon1"] == 1.0
    assert report["sup_y_node"] <= 1.0 * (1.0 + report["y_slack"])
    assert report["y_ok"] and report["bmo_ok"] and report["passed"] is True
    assert report["z_bmo"] <= report["upsilon2_sqrt"]


def test_oracle_kind_pass_and_threshold(tmp_path):
    text = """
[numerics]
grid_n = 20
paths = 5000
seed = 11
truncation = 8
[experiment]
kind = "oracle"
tolerance = %s
"""
    code, _, report = run_text(text % "0.02", tmp_path / "pass")
    assert code == EXIT_PASS
    assert report["oracle"] == "domination"
    assert report["oracle_stderr"] == 0.0  # quadrature route, no MC noise
    assert abs(report["y0_oracle"] - 0.1889260579834315) < 1e-12
    assert report["gap"] <= 0.02

    code, _, report = run_text(text % "1e-9", tmp_path / "tight")
    assert code == EXIT_THRESHOLD
    assert report["passed"] is False
    manifest = json.loads(
        (tmp_path / "tight" / "out" / "manifest.json").read_text())
    assert manifest["passed"] is False


def test_oracle_kind_without_closed_form(tmp_path, capsys):
    code, out, _ = run_text("""
[problem]
driver = "general_assumption2"
[numerics]
grid_n = 5
paths = 200
truncation = 2
[experiment]
kind = "oracle"
""", tmp_path)
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error [oracle]:")
    assert "no closed-form oracle" in err
    assert not (out / "manifest.json").exists()


def test_oracle_kind_relative_tolerance_on_zero_oracle_value(tmp_path,
                                                            capsys):
    code, out, _ = run_text("""
[problem]
terminal = "constant"
terminal.c = 0.0
driver = "zero"
[numerics]
grid_n = 5
paths = 200
[experiment]
kind = "oracle"
tolerance_mode = "relative"
""", tmp_path)
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error [oracle]:") and err.count("\n") == 1
    assert "oracle value y0 = 0" in err
    assert not (out / "manifest.json").exists()


def test_oracle_kind_linear_driver_takes_factory_defaults(tmp_path):
    text = """
[problem]
x0 = 1.0
terminal = "coordinate"
driver = "linear"
[numerics]
grid_n = 10
paths = 2000
seed = 3
[experiment]
kind = "oracle"
"""
    code, _, report = run_text(text, tmp_path)
    assert code == EXIT_PASS
    assert report["oracle"] == "linear"
    # Y_0 = exp(a T) E[X_T] with the factory's a = -1 and c = 0
    problem = parse_config(text).build_problem()
    assert report["y0_oracle"] == linear_oracle(problem, -1.0, 0.0).y0
    assert abs(report["y0_oracle"] - math.exp(-1.0)) < 0.01


def test_every_experiment_kind_has_a_handler():
    assert set(_HANDLERS) == set(EXPERIMENT_KINDS)


def test_io_failure_is_exit_error(tmp_path, capsys):
    (tmp_path / "out").write_text("in the way")
    code, _, _ = run_text(SOLVE_CFG, tmp_path)
    assert code == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error [i/o]:")


def test_convergence_kind(tmp_path):
    code, out, report = run_text("""
[problem]
driver = "linear"
terminal = "constant"
[numerics]
paths = 500
seed = 2
[experiment]
kind = "convergence"
grid_list = [4, 8, 16]
""", tmp_path)
    assert code == EXIT_PASS
    assert report["reference"] == "finest"
    assert len(report["y0"]) == 3
    assert len(report["errors"]) == 2  # finest grid is the reference
    assert report["errors"][0] > report["errors"][1] > 0
    rows = (out / "plot.csv").read_text().strip().splitlines()
    assert rows[0] == "x,y,yerr"
    assert len(rows) == 3


def test_convergence_kind_against_the_oracle(tmp_path):
    # with the closed form as reference every grid gets an error, the
    # finest included
    code, out, report = run_text("""
[numerics]
paths = 2000
seed = 2
truncation = 8
[experiment]
kind = "convergence"
grid_list = [4, 8, 16]
reference = "oracle"
max_error = 0.05
""", tmp_path)
    assert code == EXIT_PASS
    assert report["reference"] == "domination"
    assert abs(report["reference_y0"] - 0.1889260579834315) < 1e-12
    assert report["errors"] == [abs(y - report["reference_y0"])
                                for y in report["y0"]]
    assert len(report["stderrs"]) == 3
    assert max(report["errors"]) <= 0.05
    rows = (out / "plot.csv").read_text().strip().splitlines()
    assert [float(r.split(",")[0]) for r in rows[1:]] == [4.0, 8.0, 16.0]


def test_convergence_kind_stderrs_measure_path_spread(tmp_path):
    # Y_0 is one value on every path, so a spread taken there is round-off
    code, out, report = run_text("""
[problem]
terminal = "tanh"
[numerics]
paths = 2000
seed = 2
[experiment]
kind = "convergence"
grid_list = [4, 8, 16]
""", tmp_path)
    assert code == EXIT_PASS
    assert len(report["stderrs"]) == 2
    assert all(se > 1e-4 for se in report["stderrs"])
    rows = (out / "plot.csv").read_text().strip().splitlines()[1:]
    assert [float(r.split(",")[2]) for r in rows] == report["stderrs"]


def test_truncation_kind(tmp_path):
    code, _, report = run_text("""
[numerics]
grid_n = 10
paths = 1000
seed = 5
[experiment]
kind = "truncation"
n_list = [1, 2, 3, 4]
""", tmp_path)
    assert code == EXIT_PASS
    assert report["stabilization_level"] == 3
    assert report["errors"][2] == 0.0 and report["errors"][3] == 0.0
    assert report["decay_ratio"] == 0.0
    assert report["monotone_within_sigma"] is True
    assert len(report["z_errors"]) == 4


def test_regularity_kind(tmp_path):
    code, out, report = run_text("""
[numerics]
grid_n = 32
paths = 2000
seed = 11
truncation = 8
[experiment]
kind = "regularity"
fine_n = 32
meshes = [4, 8, 16]
slope_range = [0.2, 2.0]
r2_min = 0.0
""", tmp_path)
    assert code == EXIT_PASS
    assert report["projection_ok"] is True
    assert 0.2 <= report["slope"] <= 2.0
    assert report["r2"] > 0.9
    assert all(zb <= lf for zb, lf in
               zip(report["zbar"], report["left_endpoint"]))
    assert len((out / "plot.csv").read_text().strip().splitlines()) == 4


def test_derivatives_kind(tmp_path):
    code, out, report = run_text("""
[numerics]
grid_n = 10
paths = 1000
seed = 5
truncation = 8
[output]
formats = ["json", "csv", "binary"]
[experiment]
kind = "derivatives"
anchors = [0, 5]
max_deviation = 0.3
fd_rel_tol = 0.2
""", tmp_path)
    assert code == EXIT_PASS
    # smooth (here: absent) drift makes the flow the identity, so the
    # anchored and plain inductions run the same float ops — exact zeros
    assert report["identity_max"]["malliavin_value"] == 0.0
    assert report["identity_max"]["malliavin_control"] == 0.0
    assert 0.0 < report["identity_max"]["control_gradient"] <= 0.3
    assert report["fd_rel_gap"] <= 0.2
    fields = load_fields(out / "fields.qff")
    assert fields["nabla_y"].shape == (1000, 11, 1)
    assert fields["nabla_z"].shape == (1000, 10, 1, 1)
    for name in ("nabla_y", "nabla_z"):
        assert np.swapaxes(fields[name], 0, 1).flags.c_contiguous, name


def test_derivatives_kind_runs_one_linear_induction(monkeypatch, tmp_path):
    # the gradient is the Malliavin field anchored at 0, so one induction
    # over the anchors and 0 builds one regressor per step, N in all
    from qfbsde import derivatives
    built = []

    class Counting(derivatives._StepRegressor):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(derivatives, "_StepRegressor", Counting)
    code, _, report = run_text("""
[numerics]
grid_n = 10
paths = 1000
seed = 5
[output]
formats = ["json"]
[experiment]
kind = "derivatives"
anchors = [3, 7]
max_deviation = 0.3
fd_rel_tol = 0.2
""", tmp_path)
    assert code == EXIT_PASS and report["anchors"] == [3, 7]
    assert len(built) == 10


def test_stability_kind(tmp_path):
    code, out, report = run_text("""
[numerics]
grid_n = 8
paths = 500
seed = 4
truncation = 4
[experiment]
kind = "stability"
ladder = "terminal_scale"
levels = [2.0, 4.0]
""", tmp_path)
    assert code == EXIT_PASS
    assert len(report["errors"]) == 2
    assert report["errors"][0] > 0
    assert len(report["apriori_rhs"]) == 2
    assert (out / "plot.csv").exists()


def test_terminal_scale_ratio_reads_interior_nodes(tmp_path):
    # Y_N = xi_k holds by construction, so a worst node taken over the
    # terminal one would read error_to_rhs = 1 whatever the solver did
    code, _, report = run_text("""
[numerics]
grid_n = 8
paths = 500
seed = 4
truncation = 4
[experiment]
kind = "stability"
ladder = "terminal_scale"
levels = [2.0, 4.0, 8.0]
""", tmp_path)
    assert code == EXIT_PASS
    assert all(0.0 < r < 1.0 for r in report["error_to_rhs"])


def test_driver_cap_ladder_kind(tmp_path):
    code, _, report = run_text("""
[numerics]
grid_n = 8
paths = 500
seed = 4
truncation = 4
[experiment]
kind = "stability"
ladder = "driver_cap"
levels = [0.1, 1.0]
""", tmp_path)
    assert code == EXIT_PASS
    # loosening the cap tightens the gap to the uncapped solution
    assert report["errors"][0] > report["errors"][1]
