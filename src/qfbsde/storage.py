"""Persistence: flat binary containers, CSV summaries, JSON reports.

All binary files are little-endian regardless of host, with a 4-byte
magic tag, an ``int64`` header and ``float64`` bodies in row-major
order.  Path fields are stored step-major, as the library holds them in
memory: an ``(M, N, ...)`` field is written as ``np.swapaxes(a, 0, 1)``,
so saving and loading need no transposing copy.

``QFB2`` — path ensemble
    header ``seed, M, N, d``; body: grid times ``(N+1,)``, increments
    ``(N, M, d)``, paths ``(N+1, M, d)``.

``QFS2`` — backward solution
    header ``seed, M, N, d, truncation`` (0 = untruncated); body: grid
    times ``(N+1,)``, value field ``(N+1, M)``, control field
    ``(N, M, d)``.

``QFF1`` — named field set (derivative fields and the like)
    header ``seed, n_fields, n_grid_nodes``; body: grid times, then per
    field a length-prefixed ASCII name, an ``int64`` rank + shape, and
    the ``float64`` data in the field's own axis order.

Files with the path-major ``QFB1``/``QFS1`` layout are rejected by their
magic.

CSV output uses RFC-4180 quoting with CRLF line endings; JSON output is
UTF-8 with sorted keys, so identical inputs serialize byte-identically.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from .core import QfbsdeError, TimeGrid, UNTRUNCATED
from .forward import PathEnsemble

__all__ = [
    "StorageError",
    "save_ensemble",
    "load_ensemble",
    "save_solution",
    "load_solution",
    "save_fields",
    "load_fields",
    "solution_summary_csv",
    "write_csv",
    "write_json",
]

_MAGIC_ENSEMBLE = b"QFB2"
_MAGIC_SOLUTION = b"QFS2"
_MAGIC_FIELDS = b"QFF1"

_I8 = np.dtype("<i8")
_F8 = np.dtype("<f8")


class StorageError(QfbsdeError):
    """Malformed or truncated container file."""


def _write_i8(fh, *values):
    np.asarray(values, dtype=_I8).tofile(fh)


def _write_f8(fh, array):
    np.ascontiguousarray(array, dtype=_F8).tofile(fh)


def _read_i8(fh, count, what):
    out = np.fromfile(fh, dtype=_I8, count=count)
    if out.size != count:
        raise StorageError(f"truncated file while reading {what}")
    return [int(v) for v in out]


def _read_f8(fh, count, what):
    out = np.fromfile(fh, dtype=_F8, count=count)
    if out.size != count:
        raise StorageError(f"truncated file while reading {what}")
    return out


def _write_steps(fh, array):
    """A path field's body: the step axis first, in row-major order."""
    _write_f8(fh, np.swapaxes(array, 0, 1))


def _read_steps(fh, shape, what):
    """The ``(M, N, ...)`` view of a field stored by :func:`_write_steps`."""
    body = _read_f8(fh, math.prod(shape), what)
    return np.moveaxis(body.reshape(shape), 0, 1)


def _expect_magic(fh, magic, path):
    got = fh.read(4)
    if got != magic:
        raise StorageError(
            f"{path}: expected magic {magic!r}, found {got!r}")


# ---------------------------------------------------------------------------
# Ensembles
# ---------------------------------------------------------------------------

def save_ensemble(path, ensemble: PathEnsemble) -> None:
    m, n, d = ensemble.increments.shape
    with open(path, "wb") as fh:
        fh.write(_MAGIC_ENSEMBLE)
        _write_i8(fh, ensemble.seed, m, n, d)
        _write_f8(fh, ensemble.grid.times)
        _write_steps(fh, ensemble.increments)
        _write_steps(fh, ensemble.paths)


def load_ensemble(path) -> PathEnsemble:
    with open(path, "rb") as fh:
        _expect_magic(fh, _MAGIC_ENSEMBLE, path)
        seed, m, n, d = _read_i8(fh, 4, "header")
        times = _read_f8(fh, n + 1, "grid times")
        inc = _read_steps(fh, (n, m, d), "increments")
        paths = _read_steps(fh, (n + 1, m, d), "paths")
    return PathEnsemble(grid=TimeGrid(times=times), increments=inc,
                        paths=paths, seed=seed)


# ---------------------------------------------------------------------------
# Backward solutions
# ---------------------------------------------------------------------------

def save_solution(path, solution) -> None:
    m, n1 = solution.y.shape
    d = solution.z.shape[2]
    trunc = solution.truncation_n
    level = 0 if trunc is UNTRUNCATED else int(trunc)
    with open(path, "wb") as fh:
        fh.write(_MAGIC_SOLUTION)
        _write_i8(fh, solution.config.seed, m, n1 - 1, d, level)
        _write_f8(fh, solution.grid.times)
        _write_steps(fh, solution.y)
        _write_steps(fh, solution.z)


def load_solution(path) -> dict:
    """Arrays and metadata of a stored solution.

    Returns a dict with ``grid``, ``y``, ``z``, ``truncation_n`` and
    ``seed`` — the container does not carry the basis or solver knobs,
    so no :class:`BackwardSolution` is fabricated.  ``y`` and ``z`` are
    step-major, as :func:`~qfbsde.backward.lsmc_solve` returns them.
    """
    with open(path, "rb") as fh:
        _expect_magic(fh, _MAGIC_SOLUTION, path)
        seed, m, n, d, level = _read_i8(fh, 5, "header")
        times = _read_f8(fh, n + 1, "grid times")
        y = _read_steps(fh, (n + 1, m), "value field")
        z = _read_steps(fh, (n, m, d), "control field")
    return {
        "grid": TimeGrid(times=times), "y": y, "z": z,
        "truncation_n": UNTRUNCATED if level == 0 else level,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Named field sets
# ---------------------------------------------------------------------------

def save_fields(path, grid: TimeGrid, seed: int, fields: dict) -> None:
    """Store named float arrays (say, derivative fields) against a grid."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC_FIELDS)
        _write_i8(fh, int(seed), len(fields), grid.times.size)
        _write_f8(fh, grid.times)
        for name, array in fields.items():
            raw = name.encode("ascii")
            arr = np.asarray(array, dtype=float)
            _write_i8(fh, len(raw))
            fh.write(raw)
            _write_i8(fh, arr.ndim, *arr.shape)
            _write_f8(fh, arr)


def load_fields(path) -> dict:
    """Inverse of :func:`save_fields`; adds ``grid`` and ``seed`` entries."""
    with open(path, "rb") as fh:
        _expect_magic(fh, _MAGIC_FIELDS, path)
        seed, n_fields, n_times = _read_i8(fh, 3, "header")
        times = _read_f8(fh, n_times, "grid times")
        out = {"grid": TimeGrid(times=times), "seed": seed}
        for _ in range(n_fields):
            name_len = _read_i8(fh, 1, "field name length")[0]
            name = fh.read(name_len)
            if len(name) != name_len:
                raise StorageError("truncated file while reading a field name")
            rank = _read_i8(fh, 1, "field rank")[0]
            shape = _read_i8(fh, rank, "field shape")
            count = 1
            for s in shape:
                count *= s
            out[name.decode("ascii")] = _read_f8(
                fh, count, "field data").reshape(shape)
    return out


def solution_summary_csv(path, solution) -> None:
    """Per-node summary: ``t_i, mean_Y, sd_Y, mean_abs_Z, picard_iters``.

    The control and the Picard counters live on steps, so the terminal
    row leaves those cells empty.
    """
    times = solution.grid.times
    y = solution.y
    z = solution.z
    iters = solution.diagnostics.get("picard_iters")
    rows = []
    for i, t in enumerate(times):
        row = [repr(float(t)), repr(float(y[:, i].mean())),
               repr(float(y[:, i].std(ddof=1)))]
        if i < z.shape[1]:
            row.append(repr(float(np.abs(z[:, i, :]).sum(axis=1).mean())))
            row.append(str(int(iters[i])) if iters is not None else "")
        else:
            row.extend(["", ""])
        rows.append(row)
    write_csv(path, ["t_i", "mean_Y", "sd_Y", "mean_abs_Z", "picard_iters"],
              rows)


# ---------------------------------------------------------------------------
# CSV / JSON
# ---------------------------------------------------------------------------

def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)  # csv defaults to RFC-4180 CRLF endings
        writer.writerow(header)
        writer.writerows(rows)


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if obj is UNTRUNCATED:
        return "untruncated"
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


def write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, default=_jsonable)
        fh.write("\n")


def ensure_dir(path) -> str:
    os.makedirs(path, exist_ok=True)
    return path
