"""Container round trips, CSV/JSON conventions, corruption handling."""

import csv
import json

import numpy as np
import pytest

from qfbsde import (
    UNTRUNCATED,
    RegressionBasis,
    RunConfig,
    TimeGrid,
    build_problem,
    lsmc_solve,
    simulate,
    solve_gradient_bsde,
    variational_flow,
)
from qfbsde.storage import (
    StorageError,
    load_ensemble,
    load_fields,
    load_solution,
    save_ensemble,
    save_fields,
    save_solution,
    solution_summary_csv,
    write_csv,
    write_json,
)


def _step_major(a) -> bool:
    return np.swapaxes(a, 0, 1).flags.c_contiguous


def _field(name, a) -> bytes:
    """One stored field: ASCII name, rank and shape, then its body, steps
    first and row-major when it is a path field (rank 2 or more)."""
    a = np.asarray(a, dtype="<f8")
    raw = name.encode("ascii")
    body = np.swapaxes(a, 0, 1) if a.ndim >= 2 else a
    return (np.array([len(raw)], "<i8").tobytes() + raw
            + np.array([a.ndim, *a.shape], "<i8").tobytes() + body.tobytes())


def _container(magic, seed, times, fields) -> bytes:
    """The whole file: magic, ``seed, n_fields, n_times``, times, fields."""
    return (magic + np.array([seed, len(fields), times.size], "<i8").tobytes()
            + times.tobytes()
            + b"".join(_field(name, a) for name, a in fields))


def test_ensemble_round_trip(tmp_path, small_ensemble):
    path = tmp_path / "paths.qfb"
    save_ensemble(path, small_ensemble)
    loaded = load_ensemble(path)
    assert loaded.seed == small_ensemble.seed
    assert np.array_equal(loaded.grid.times, small_ensemble.grid.times)
    for got, want in ((loaded.increments, small_ensemble.increments),
                      (loaded.paths, small_ensemble.paths)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert _step_major(got)
    m, n, d = small_ensemble.increments.shape
    raw = path.read_bytes()
    assert raw[:28] == b"QFB3" + np.array(
        [small_ensemble.seed, 2, n + 1], "<i8").tobytes()
    # the first field's head: name length, name, rank, shape
    head = 28 + 8 * (n + 1)
    assert raw[head:head + 50] == (
        np.array([10], "<i8").tobytes() + b"increments"
        + np.array([3, m, n, d], "<i8").tobytes())
    assert raw == _container(b"QFB3", small_ensemble.seed,
                             small_ensemble.grid.times,
                             [("increments", small_ensemble.increments),
                              ("paths", small_ensemble.paths)])


def test_solution_round_trip(tmp_path, small_solution):
    path = tmp_path / "sol.qfs"
    save_solution(path, small_solution)
    loaded = load_solution(path)
    for key in ("y", "z"):
        got, want = loaded[key], getattr(small_solution, key)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert _step_major(got)
    assert np.array_equal(loaded["grid"].times, small_solution.grid.times)
    assert loaded["truncation_n"] == 6
    assert loaded["seed"] == small_solution.config.seed
    raw = path.read_bytes()
    # the level is a rank-0 field after the two path fields
    assert raw.endswith(np.array([12], "<i8").tobytes() + b"truncation_n"
                        + np.array([0], "<i8").tobytes()
                        + np.array([6.0], "<f8").tobytes())
    assert raw == _container(b"QFS3", small_solution.config.seed,
                             small_solution.grid.times,
                             [("y", small_solution.y),
                              ("z", small_solution.z),
                              ("truncation_n", 6.0)])


def test_path_major_containers_are_rejected(tmp_path, small_ensemble,
                                            small_solution):
    # a file of an earlier layout is refused by its magic, before any body
    # is read: path-major QFB1/QFS1/QFF1, and QFB2/QFS2, whose headers held
    # the shapes in place of named fields
    grid = small_ensemble.grid
    for save, load, obj, olds, new in (
            (save_ensemble, load_ensemble, small_ensemble,
             (b"QFB1", b"QFB2"), b"QFB3"),
            (save_solution, load_solution, small_solution,
             (b"QFS1", b"QFS2"), b"QFS3"),
            (lambda p, f: save_fields(p, grid, 1, f), load_fields,
             {"f": np.ones((3, 2))}, (b"QFF1",), b"QFF2")):
        path = tmp_path / "old.bin"
        save(path, obj)
        for old in olds:
            path.write_bytes(old + path.read_bytes()[4:])
            with pytest.raises(StorageError,
                               match=f"expected magic {new!r}, found {old!r}"):
                load(path)


def test_untruncated_maps_to_level_zero(tmp_path, small_ensemble,
                                        poly_basis, small_config):
    prob = build_problem(drift="zero", terminal="tanh", driver="zero")
    sol = lsmc_solve(prob, small_ensemble, poly_basis, UNTRUNCATED,
                     small_config)
    path = tmp_path / "sol.qfs"
    save_solution(path, sol)
    assert load_solution(path)["truncation_n"] is UNTRUNCATED


def test_truncated_files_fail_loudly(tmp_path, small_ensemble):
    path = tmp_path / "paths.qfb"
    save_ensemble(path, small_ensemble)
    whole = path.read_bytes()

    half = tmp_path / "half.qfb"
    half.write_bytes(whole[: len(whole) // 2])
    with pytest.raises(StorageError, match="truncated"):
        load_ensemble(half)

    stub = tmp_path / "stub.qfb"
    stub.write_bytes(whole[:12])  # magic plus a piece of the header
    with pytest.raises(StorageError, match="header"):
        load_ensemble(stub)


def test_wrong_magic_is_rejected(tmp_path, small_ensemble, small_solution):
    epath = tmp_path / "paths.qfb"
    save_ensemble(epath, small_ensemble)
    with pytest.raises(StorageError, match="magic"):
        load_solution(epath)
    spath = tmp_path / "sol.qfs"
    save_solution(spath, small_solution)
    with pytest.raises(StorageError, match="magic"):
        load_ensemble(spath)
    junk = tmp_path / "junk.qfb"
    junk.write_bytes(b"\x00" * 64)
    with pytest.raises(StorageError, match="magic"):
        load_ensemble(junk)


def test_fields_round_trip(tmp_path):
    grid = TimeGrid.uniform(1.0, 4)
    rng = np.random.default_rng(5)
    fields = {
        "nabla_y": rng.standard_normal((7, 5, 2)),
        "profile": rng.standard_normal(5),
        "scale": np.float64(3.5),  # rank-0 is a legitimate field
    }
    path = tmp_path / "f.qff"
    save_fields(path, grid, 31, fields)
    loaded = load_fields(path)
    assert loaded["seed"] == 31
    assert np.array_equal(loaded["grid"].times, grid.times)
    for name, arr in fields.items():
        assert loaded[name].shape == np.shape(arr)
        assert np.array_equal(loaded[name], arr)


def test_stored_times_that_are_no_grid_are_rejected(tmp_path):
    # a grid must start at 0; the reader says so as a storage error
    path = tmp_path / "f.qff"
    path.write_bytes(_container(b"QFF2", 3, np.array([0.5, 1.0]),
                                [("profile", np.zeros(2))]))
    with pytest.raises(StorageError, match="time grid must start at 0"):
        load_fields(path)


@pytest.mark.parametrize("times", [[0.0, np.nan, 1.0], [0.0, 0.5, np.inf]],
                         ids=["nan", "inf"])
def test_stored_times_must_be_finite(tmp_path, times):
    path = tmp_path / "f.qff"
    path.write_bytes(_container(b"QFF2", 3, np.array(times),
                                [("profile", np.zeros(3))]))
    with pytest.raises(StorageError, match="finite"):
        load_fields(path)


def test_derivative_fields_round_trip_step_major(tmp_path, traced_peak):
    # a step-major gradient field is saved without a transposing copy and
    # comes back step-major, bit for bit
    prob = build_problem(dim=1, x0=np.zeros(1), horizon=1.0, drift="sign",
                         terminal="tanh", driver="colehopf", mollify_eps=0.1)
    grid = TimeGrid.uniform(1.0, 64)
    rc = RunConfig(seed=2, n_paths=4000)
    basis = RegressionBasis(kind="polynomial", degree=2)
    ens = simulate(prob, grid, rc.n_paths, rc.seed)
    base = lsmc_solve(prob, ens, basis, 8, rc)
    ny, nz = solve_gradient_bsde(prob, ens, variational_flow(prob, ens),
                                 base, basis, rc)
    fields = {"nabla_y": ny, "nabla_z": nz}
    path = tmp_path / "fields.qff"
    _, peak = traced_peak(lambda: save_fields(path, grid, rc.seed, fields))
    assert peak < 0.1 * min(ny.nbytes, nz.nbytes)
    loaded = load_fields(path)
    for name, want in fields.items():
        got = loaded[name]
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert _step_major(got)


def _patch_int(path, offset, value):
    raw = bytearray(path.read_bytes())
    raw[offset:offset + 8] = np.array([value], "<i8").tobytes()
    path.write_bytes(bytes(raw))


@pytest.mark.parametrize("where, value, match", [
    ("n_fields", -1, "negative field count"),
    ("n_times", -3, "negative size -3 while reading grid times"),
    ("name_len", -10, "negative size -10 while reading field name"),
    ("rank", -3, "negative size -3 while reading shape of increments"),
    ("shape", -20, r"negative shape \[-20, 20, 1\] of increments"),
    ("d", -1, "negative shape"),
], ids=["n_fields", "n_times", "name_len", "rank", "shape", "d"])
def test_negative_header_values_are_rejected(tmp_path, small_ensemble,
                                             where, value, match):
    path = tmp_path / "paths.qfb"
    save_ensemble(path, small_ensemble)
    head = 28 + 8 * small_ensemble.grid.times.size  # first field's name length
    offset = {"n_fields": 12, "n_times": 20, "name_len": head,
              "rank": head + 18, "shape": head + 26, "d": head + 42}[where]
    _patch_int(path, offset, value)
    with pytest.raises(StorageError, match=match):
        load_ensemble(path)


def test_non_ascii_field_name_is_rejected(tmp_path, small_ensemble):
    path = tmp_path / "paths.qfb"
    save_ensemble(path, small_ensemble)
    path.write_bytes(path.read_bytes().replace(b"increments",
                                               b"incr\xe9\xe9ents", 1))
    with pytest.raises(StorageError, match="is not ASCII"):
        load_ensemble(path)


@pytest.mark.parametrize("declared", [10**6, 2**62])
def test_oversized_declarations_fail_before_allocating(tmp_path, traced_peak,
                                                       declared):
    # sizes are checked against the bytes left in the file, so a header
    # that claims a million floats (8 MB) allocates nothing of the kind
    ints = lambda *v: np.array(v, "<i8").tobytes()
    times = np.array([0.0, 1.0]).tobytes()
    for raw, what in (
            (b"QFF2" + ints(1, 0, declared), "grid times"),
            (b"QFF2" + ints(1, 1, 2) + times + ints(1) + b"f"
             + ints(1, declared), "f")):
        path = tmp_path / "big.qff"
        path.write_bytes(raw)

        def attempt():
            with pytest.raises(StorageError,
                               match=f"truncated file while reading {what}"):
                load_fields(path)

        _, peak = traced_peak(attempt)
        assert peak < 100_000


def test_fields_that_do_not_fit_are_rejected(tmp_path, small_ensemble,
                                             small_solution):
    # each field declares its own shape, so the kinds check that the
    # fields they need are there and fit each other and the grid
    grid, m = small_ensemble.grid, small_ensemble.n_paths
    n = grid.n_steps
    inc, paths = small_ensemble.increments, small_ensemble.paths
    y, z = small_solution.y, small_solution.z
    level = np.float64(6)
    for magic, load, fields, match in (
            (b"QFB3", load_ensemble, {"increments": inc},
             r"'paths' of shape \(None, 21, None\), found None"),
            (b"QFB3", load_ensemble, {"increments": inc, "paths": paths[:5]},
             rf"'increments' of shape \(5, {n}, 1\), found \({m}, {n}, 1\)"),
            (b"QFB3", load_ensemble, {"increments": inc,
                                      "paths": paths[:, :n]},
             r"'paths' of shape \(None, 21, None\), found"),
            (b"QFS3", load_solution, {"y": y, "z": z[:, :, :, None],
                                      "truncation_n": level},
             "'z' of shape"),
            (b"QFS3", load_solution, {"y": y, "z": z,
                                      "truncation_n": np.ones(1)},
             r"'truncation_n' of shape \(\), found \(1,\)")):
        path = tmp_path / "bad.bin"
        save_fields(path, grid, 1, fields)
        path.write_bytes(magic + path.read_bytes()[4:])
        with pytest.raises(StorageError, match=match):
            load(path)


def test_csv_is_rfc4180(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["x", "note"], [[1.5, 'says "hi", twice'], [2.5, "plain"]])
    raw = path.read_bytes()
    assert raw.count(b"\r\n") == 3  # header + 2 rows, CRLF endings
    assert b'"says ""hi"", twice"' in raw
    assert b"plain" in raw
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["x", "note"], ["1.5", 'says "hi", twice'],
                    ["2.5", "plain"]]


def test_json_is_canonical(tmp_path):
    path = tmp_path / "r.json"
    write_json(path, {
        "zeta": np.float64(0.5),
        "alpha": np.array([1.0, 2.0]),
        "count": np.int64(3),
        "flag": np.bool_(True),
        "level": UNTRUNCATED,
    })
    text = path.read_text()
    assert text.endswith("\n")
    assert text.index('"alpha"') < text.index('"count"') < text.index('"zeta"')
    back = json.loads(text)
    assert back == {"zeta": 0.5, "alpha": [1.0, 2.0], "count": 3,
                    "flag": True, "level": "untruncated"}
    with pytest.raises(TypeError):
        write_json(tmp_path / "bad.json", {"x": object()})


def test_json_reserializes_byte_identically(tmp_path):
    payload = {"b": [1, 2], "a": {"y": 0.25, "x": "s"}}
    p1, p2 = tmp_path / "1.json", tmp_path / "2.json"
    write_json(p1, payload)
    write_json(p2, json.loads(p1.read_text()))
    assert p1.read_bytes() == p2.read_bytes()


def test_solution_summary_csv(tmp_path, small_solution):
    path = tmp_path / "summary.csv"
    solution_summary_csv(path, small_solution)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t_i", "mean_Y", "sd_Y", "mean_abs_Z", "picard_iters"]
    n_nodes = small_solution.grid.times.size
    assert len(rows) == 1 + n_nodes
    first = rows[1]
    assert float(first[0]) == 0.0
    assert abs(float(first[1]) - small_solution.y0) < 1e-12
    assert float(first[3]) > 0.0
    assert int(first[4]) >= 1
    terminal = rows[-1]
    assert float(terminal[0]) == 1.0
    assert terminal[3] == "" and terminal[4] == ""  # control lives on steps
