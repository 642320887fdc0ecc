"""Config grammar, schema validation, and the command-line front end."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfbsde import (
    RunConfig,
    UNTRUNCATED,
    ConfigError,
    ExperimentConfig,
    emit_config,
    parse_config,
)
from qfbsde.cli import main


def reasons(excinfo):
    return [d.reason for d in excinfo.value.diagnostics]


def keys(excinfo):
    return [d.key for d in excinfo.value.diagnostics]


# ---------------------------------------------------------------------------
# Parsing and round trips
# ---------------------------------------------------------------------------

def test_empty_file_is_fully_defaulted():
    cfg = parse_config("")
    assert cfg.problem["dim"] == 1
    assert cfg.problem["driver"] == "colehopf"
    assert cfg.numerics["grid_n"] == 50
    assert cfg.numerics["paths"] == 10000
    assert cfg.experiment["kind"] == "solve"
    assert cfg.output["formats"] == ("json", "csv")


def test_round_trip_is_exact_and_canonical():
    text = """
    # quadratic benchmark, mollified rough drift
    [problem]
    dim = 1
    x0 = 0.25
    horizon = 0.5
    drift = "sign"
    terminal = "constant"
    terminal.c = 2.0          # scaled flat terminal
    driver = "linear"
    driver.a = -0.5
    driver.c = 1.0

    [numerics]
    grid_n = 16
    paths = 500
    seed = 42
    basis = "piecewise_linear"
    basis.knots = [-1.0, 0.0, 1.0]
    eps = 0.1
    truncation = 4

    [experiment]
    kind = "oracle"
    tolerance = 0.05
    tolerance_mode = "relative"

    [output]
    directory = "runs/a"
    formats = ["json", "binary"]
    """
    cfg = parse_config(text)
    assert cfg.problem["terminal.c"] == 2.0
    assert cfg.problem["driver.a"] == -0.5
    assert cfg.numerics["truncation"] == 4
    assert cfg.experiment["tolerance_mode"] == "relative"

    emitted = emit_config(cfg)
    assert parse_config(emitted) == cfg
    assert emit_config(parse_config(emitted)) == emitted


def test_comments_strings_and_literals():
    cfg = parse_config(
        '[problem]\n'
        'terminal = "constant"   # trailing comment\n'
        'x0 = [0.5]\n'
        '[numerics]\n'
        'picard_tol = 1e-8\n'
        'seed = -3\n'
    )
    assert cfg.problem["terminal"] == "constant"
    assert cfg.problem["x0"] == (0.5,)
    assert cfg.numerics["picard_tol"] == 1e-8
    assert cfg.numerics["seed"] == -3


@settings(max_examples=60, deadline=None)
@given(
    x0=st.floats(-5, 5, allow_nan=False),
    horizon=st.floats(1e-3, 50, allow_nan=False),
    drift=st.sampled_from(["zero", "constant", "sign", "holder_sqrt",
                           "smooth_sin"]),
    terminal=st.sampled_from(["tanh", "clip", "constant", "coordinate"]),
    driver=st.sampled_from(["zero", "linear", "colehopf", "f_power",
                            "general_assumption2"]),
    kind=st.sampled_from(["solve", "oracle", "convergence", "regularity",
                          "truncation", "derivatives", "stability",
                          "bounds"]),
    seed=st.integers(-2**31, 2**31),
    paths=st.integers(2, 10**6),
    grid_n=st.integers(1, 512),
    degree=st.integers(0, 8),
    ridge=st.floats(0, 1, allow_nan=False),
    eps=st.floats(1e-3, 1, allow_nan=False),
    trunc=st.integers(0, 12),
)
def test_parse_emit_round_trip_property(x0, horizon, drift, terminal, driver,
                                        kind, seed, paths, grid_n, degree,
                                        ridge, eps, trunc):
    text = "\n".join([
        "[problem]",
        f"x0 = {x0!r}",
        f"horizon = {horizon!r}",
        f'drift = "{drift}"',
        f'terminal = "{terminal}"',
        f'driver = "{driver}"',
        "[numerics]",
        f"seed = {seed}",
        f"paths = {paths}",
        f"grid_n = {grid_n}",
        f"basis.degree = {degree}",
        f"basis.ridge = {ridge!r}",
        f"eps = {eps!r}",
        f"truncation = {trunc}",
        "[experiment]",
        f'kind = "{kind}"',
    ])
    cfg = parse_config(text)
    emitted = emit_config(cfg)
    assert parse_config(emitted) == cfg
    assert emit_config(parse_config(emitted)) == emitted


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------

def test_duplicate_key_reports_both_lines():
    with pytest.raises(ConfigError) as exc:
        parse_config("[numerics]\nseed = 1\nseed = 2\n")
    (diag,) = exc.value.diagnostics
    assert diag.line == 3
    assert diag.key == "numerics.seed"
    assert "first bound on line 2" in diag.reason
    assert str(diag) == "line 3: numerics.seed: " + diag.reason


def test_unknown_key_lists_known_ones():
    with pytest.raises(ConfigError) as exc:
        parse_config("[numerics]\ngrid = 10\n")
    (reason,) = reasons(exc)
    assert "unknown key in [numerics]" in reason
    assert "grid_n" in reason


def test_type_and_range_errors():
    with pytest.raises(ConfigError) as exc:
        parse_config(
            "[problem]\n"
            "horizon = -1.0\n"
            'drift = "brownian"\n'
            "[numerics]\n"
            'grid_n = "fifty"\n'
            "paths = true\n"
            "basis = polynomial\n"
        )
    rs = reasons(exc)
    assert len(rs) == 5
    assert any("must be positive" in r for r in rs)
    assert any("must be one of" in r and "zero" in r for r in rs)
    assert any("expected an integer" in r for r in rs)
    assert any("expected an integer, got True" in r for r in rs)
    assert any("strings must be quoted" in r for r in rs)


def test_syntax_diagnostics():
    with pytest.raises(ConfigError) as exc:
        parse_config(
            "seed = 1\n"          # before any section
            "[misc]\n"            # unknown section
            "[numerics\n"         # malformed header
            "[numerics]\n"
            "just a line\n"       # no '='
            "4bad = 1\n"          # malformed key
            'basis = "poly\n'     # unterminated string
            "basis.knots = [1.0\n"  # unterminated array
        )
    rs = reasons(exc)
    assert any("before any [section]" in r for r in rs)
    assert any("unknown section" in r for r in rs)
    assert any("malformed section header" in r for r in rs)
    assert any("expected `key = value`" in r for r in rs)
    assert any("malformed key" in r for r in rs)
    assert any("unterminated string" in r for r in rs)
    assert any("unterminated array" in r for r in rs)


@pytest.mark.parametrize("text, key", [
    ("[numerics]\npicard_tol = inf\n", "picard_tol"),
    ("[problem]\nhorizon = 1e999\n", "horizon"),
    ("[numerics]\nbasis.ridge = inf\n", "basis.ridge"),
    ("[problem]\nx0 = nan\n", "x0"),
    ('[experiment]\nkind = "oracle"\ntolerance = inf\n', "tolerance"),
], ids=["picard_tol", "horizon", "ridge", "x0", "tolerance"])
def test_nonfinite_numbers_are_refused(text, key):
    # an infinite picard_tol stops every Picard loop after one sweep, and
    # an infinite oracle tolerance passes whatever it measures
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    (diag,) = exc.value.diagnostics
    assert diag.key == key and diag.line == text.count("\n")
    assert "is not a finite number" in diag.reason


@pytest.mark.parametrize("value", ["[[8], 16]", "[8, [16, 32]]"])
def test_nested_arrays_have_their_own_diagnostic(value):
    with pytest.raises(ConfigError) as exc:
        parse_config(f'[experiment]\nkind = "convergence"\n'
                     f"grid_list = {value}\n")
    assert reasons(exc) == ["arrays cannot nest"]


def test_array_commas_inside_strings_do_not_split():
    # one string holding a comma is one entry, which the formats check
    # then refuses; splitting at every comma reported "unterminated string"
    with pytest.raises(ConfigError) as exc:
        parse_config('[output]\nformats = ["json,csv"]\n')
    assert keys(exc) == ["formats"]
    assert reasons(exc) == ["entries must be json, csv or binary"]
    cfg = parse_config('[output]\nformats = ["json" , "csv"]\n')
    assert cfg.output["formats"] == ("json", "csv")


def test_dotted_params_checked_against_factory_signature():
    cfg = parse_config('[problem]\ndriver = "linear"\ndriver.a = -2\n')
    assert cfg.problem["driver.a"] == -2.0  # scalars normalize to float
    with pytest.raises(ConfigError) as exc:
        parse_config('[problem]\ndriver = "linear"\ndriver.rate = -2.0\n')
    (reason,) = reasons(exc)
    assert "takes no parameter 'rate'" in reason
    assert "'a'" in reason and "'c'" in reason
    with pytest.raises(ConfigError) as exc:
        parse_config('[problem]\ndrift = "zero"\ndrift.a.b = 1.0\n')
    assert "one level only" in reasons(exc)[0]
    with pytest.raises(ConfigError) as exc:
        parse_config('[problem]\ndriver = "linear"\ndriver.a = [1.0]\n')
    assert "must be scalars" in reasons(exc)[0]


def test_experiment_block_requires_kind():
    with pytest.raises(ConfigError) as exc:
        parse_config("[experiment]\ntolerance = 0.1\n")
    ks = keys(exc)
    assert "experiment.kind" in ks          # missing kind
    assert "tolerance" in ks                # not a key of the default kind
    # kind-specific keys resolve once kind is present
    cfg = parse_config('[experiment]\nkind = "oracle"\ntolerance = 0.1\n')
    assert cfg.experiment["tolerance"] == 0.1
    with pytest.raises(ConfigError) as exc:
        parse_config('[experiment]\nkind = "warmup"\n')
    assert "must be one of" in reasons(exc)[0]


def test_cross_field_checks():
    with pytest.raises(ConfigError) as exc:
        parse_config('[problem]\ndim = 2\n'
                     '[numerics]\nbasis = "piecewise_linear"\n')
    assert "one-dimensional only" in reasons(exc)[0]
    with pytest.raises(ConfigError) as exc:
        parse_config("[numerics]\nbasis.knots = [-1.0, 0.0, 1.0]\n")
    assert exc.value.diagnostics[0].key == "numerics.basis.knots"
    assert "piecewise_linear basis only" in reasons(exc)[0]
    with pytest.raises(ConfigError) as exc:
        parse_config("[problem]\ndim = 2\nx0 = [0.0, 0.0, 0.0]\n")
    assert "3 entries but dim = 2" in reasons(exc)[0]
    with pytest.raises(ConfigError) as exc:
        parse_config('[numerics]\ngrid_n = 10\n'
                     '[experiment]\nkind = "derivatives"\nanchors = [0, 10]\n')
    assert "outside the grid" in reasons(exc)[0]
    with pytest.raises(ConfigError) as exc:
        parse_config('[problem]\ndrift = "sign"\n'
                     '[experiment]\nkind = "derivatives"\n')
    assert "eps > 0" in reasons(exc)[0]
    with pytest.raises(ConfigError) as exc:
        parse_config('[experiment]\nkind = "regularity"\n'
                     "fine_n = 10\nmeshes = [3, 5]\n")
    assert "does not divide" in reasons(exc)[0]


@pytest.mark.parametrize("text, key, line", [
    ('[problem]\ndim = 2\n[numerics]\nbasis = "piecewise_linear"\n',
     "numerics.basis", 4),
    ("[problem]\ndim = 2\nx0 = [0.0, 0.0, 0.0]\n", "problem.x0", 3),
    ('[numerics]\ngrid_n = 10\n[experiment]\nkind = "derivatives"\n'
     "anchors = [0, 10]\n", "experiment.anchors", 5),
    ('[problem]\ndrift = "sign"\n[numerics]\neps = 0.0\n'
     '[experiment]\nkind = "derivatives"\n', "numerics.eps", 4),
    ('[problem]\ndrift = "sign"\n[experiment]\nkind = "derivatives"\n',
     "numerics.eps", 0),  # eps left unset: no line to point at
    ('[experiment]\nkind = "regularity"\nfine_n = 10\nmeshes = [3, 5]\n',
     "experiment.meshes", 4),
])
def test_cross_field_diagnostic_points_at_its_key(text, key, line):
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    (diag,) = exc.value.diagnostics
    assert (diag.key, diag.line) == (key, line)


def test_diagnostics_sorted_by_line_then_key():
    with pytest.raises(ConfigError) as exc:
        parse_config("[numerics]\nzz = 1\naa = 2\n")
    assert [d.line for d in exc.value.diagnostics] == [2, 3]


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def test_config_builders():
    cfg = parse_config(
        '[problem]\nhorizon = 2.0\ndriver = "linear"\ndriver.a = -0.25\n'
        "[numerics]\ngrid_n = 8\npaths = 64\nseed = 9\n"
        'basis = "piecewise_linear"\nbasis.bins = 5\n'
        "truncation = 3\n")
    prob = cfg.build_problem()
    assert prob.horizon == 2.0
    assert prob.driver.name == "linear"
    g = prob.driver.g(0.0, np.zeros((2, 1)), np.array([1.0, 2.0]),
                      np.zeros((2, 1)))
    assert np.allclose(g, [-0.25, -0.5])
    grid = cfg.grid()
    assert grid.n_steps == 8 and grid.horizon == 2.0
    basis = cfg.basis()
    assert basis.kind == "piecewise_linear" and basis.bins == 5
    rc = cfg.run_config()
    assert rc == RunConfig(seed=9, n_paths=64)
    assert cfg.truncation() == 3
    assert parse_config("").truncation() is UNTRUNCATED
    assert cfg.kind == "solve"


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_validate_ok(tmp_path, capsys):
    p = tmp_path / "a.cfg"
    p.write_text("[numerics]\nseed = 7\n")
    assert main(["validate", str(p)]) == 0
    out = capsys.readouterr().out
    assert out == f"{p}: OK (solve experiment, seed 7)\n"


def test_cli_validate_reports_diagnostics(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text("[numerics]\nseed = 1\nseed = 2\nwhat = 3\n")
    assert main(["validate", str(p)]) == 1
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    assert len(lines) == 2
    assert lines[0] == (f"{p}:line 3: numerics.seed: duplicate key "
                        "(first bound on line 2)")
    assert lines[1].startswith(f"{p}:line 4: what: unknown key")


def test_cli_validate_reports_cross_field_line(tmp_path, capsys):
    p = tmp_path / "knots.cfg"
    p.write_text("[numerics]\nbasis.knots = [-1.0, 0.0, 1.0]\n")
    assert main(["validate", str(p)]) == 1
    assert capsys.readouterr().err == (
        f"{p}:line 2: numerics.basis.knots: knots apply to the "
        "piecewise_linear basis only\n")


def test_cli_missing_file(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.cfg")]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert main(["run", str(tmp_path / "nope.cfg")]) == 1


def test_cli_run_invalid_config(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text("[problem]\nhorizon = -2.0\n")
    assert main(["run", str(p)]) == 1
    assert f"{p}:line 2: horizon: must be positive" in capsys.readouterr().err


def test_cli_run_solve(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    p = tmp_path / "solve.cfg"
    p.write_text(
        '[problem]\ndriver = "zero"\n'
        "[numerics]\ngrid_n = 5\npaths = 200\n"
        '[output]\ndirectory = "artifacts"\n')
    assert main(["run", str(p)]) == 0
    out_dir = tmp_path / "artifacts"
    assert (out_dir / "report.json").exists()
    assert (out_dir / "summary.csv").exists()
    assert (out_dir / "manifest.json").exists()
    assert not (out_dir / "plot.csv").exists()  # solve emits no curve


def test_cli_list_registry(capsys):
    assert main(["list-registry"]) == 0
    out = capsys.readouterr().out
    for family in ("drifts:", "terminals:", "drivers:", "growth_profiles:"):
        assert family in out
    assert "colehopf" in out
    assert "(c=1.0)" in out  # parameter defaults are shown


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
