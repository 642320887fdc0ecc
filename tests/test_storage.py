"""Container round trips, CSV/JSON conventions, corruption handling."""

import csv
import json

import numpy as np
import pytest

from qfbsde import UNTRUNCATED, TimeGrid, build_problem, lsmc_solve
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


def _body(a) -> bytes:
    """A path field as its container stores it: steps first, row-major."""
    return np.swapaxes(a, 0, 1).tobytes()


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
    assert raw[:4] == b"QFB2"
    header = np.array([small_ensemble.seed, m, n, d], "<i8")
    assert raw[4:36] == header.tobytes()
    assert raw[36:] == (small_ensemble.grid.times.tobytes()
                        + _body(small_ensemble.increments)
                        + _body(small_ensemble.paths))


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
    assert raw[:4] == b"QFS2"
    assert raw[44:] == (small_solution.grid.times.tobytes()
                        + _body(small_solution.y) + _body(small_solution.z))


def test_path_major_containers_are_rejected(tmp_path, small_ensemble,
                                            small_solution):
    # a path-major file is refused by its magic, before any body is read
    for save, load, obj, old, new in (
            (save_ensemble, load_ensemble, small_ensemble, b"QFB1", b"QFB2"),
            (save_solution, load_solution, small_solution, b"QFS1", b"QFS2")):
        path = tmp_path / "old.bin"
        save(path, obj)
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
