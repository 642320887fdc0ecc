"""Persistence: one flat binary container, CSV summaries, JSON reports.

Every binary file has one layout: a 4-byte magic tag naming its kind,
then ``seed, n_fields, n_times`` as ``int64``, the grid times as
``float64``, and ``n_fields`` named fields.  Each field is its name
(``int64`` length, then ASCII bytes), its ``int64`` rank and shape, and
its ``float64`` body in row-major order.  A field of rank 2 or more is a
path field and is stored steps first, as the library holds it in
memory: an ``(M, N, ...)`` field is written as ``np.swapaxes(a, 0, 1)``,
so saving and loading need no transposing copy.  All numbers are
little-endian regardless of host.

The kinds differ only in their magic and the fields they name:

``QFB3`` — path ensemble: ``increments`` ``(M, N, d)`` and ``paths``
    ``(M, N+1, d)``.
``QFS3`` — backward solution: ``y`` ``(M, N+1)``, ``z`` ``(M, N, d)`` and
    the rank-0 ``truncation_n`` (0 = untruncated).
``QFF2`` — named field set (derivative fields and the like): the caller's
    own names.

A file of another kind, or of an earlier layout (``QFB1``/``QFB2``,
``QFS1``/``QFS2``, ``QFF1``), is refused by its magic.  Every declared
count, rank and shape is checked against the bytes left in the file
before anything is read, the stored times must form a time grid, and the
ensemble and solution readers check that their fields fit the grid and
each other; a corrupt file raises
:class:`StorageError` instead of allocating what its header claims.

CSV output uses RFC-4180 quoting with CRLF line endings; JSON output is
UTF-8 with sorted keys, so identical inputs serialize byte-identically.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from .core import QfbsdeError, TimeGrid, UNTRUNCATED, ValidationError
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

_MAGIC_ENSEMBLE = b"QFB3"
_MAGIC_SOLUTION = b"QFS3"
_MAGIC_FIELDS = b"QFF2"

_U1 = np.dtype("u1")
_I8 = np.dtype("<i8")
_F8 = np.dtype("<f8")


class StorageError(QfbsdeError):
    """Malformed or truncated container file."""


# ---------------------------------------------------------------------------
# The container
# ---------------------------------------------------------------------------

def _ints(*values) -> bytes:
    return np.array(values, dtype=_I8).tobytes()


def _save(path, magic, grid: TimeGrid, seed, fields: dict) -> None:
    """Write the header, the grid times and each named field."""
    with open(path, "wb") as fh:
        fh.write(magic + _ints(seed, len(fields), grid.times.size))
        np.ascontiguousarray(grid.times, dtype=_F8).tofile(fh)
        for name, array in fields.items():
            raw = name.encode("ascii")
            arr = np.asarray(array, dtype=float)
            fh.write(_ints(len(raw)) + raw + _ints(arr.ndim, *arr.shape))
            body = np.swapaxes(arr, 0, 1) if arr.ndim >= 2 else arr
            np.ascontiguousarray(body, dtype=_F8).tofile(fh)


def _read(fh, dtype, count, what) -> np.ndarray:
    """``count`` items of ``dtype``, once the file is known to hold them."""
    if count < 0:
        raise StorageError(f"negative size {count} while reading {what}")
    if count * dtype.itemsize > os.fstat(fh.fileno()).st_size - fh.tell():
        raise StorageError(f"truncated file while reading {what}")
    return np.fromfile(fh, dtype=dtype, count=count)


def _load(path, magic) -> dict:
    """``grid``, ``seed`` and every field of a :func:`_save` file.

    Path fields come back as ``(M, N, ...)`` views of their step-major
    bodies.
    """
    with open(path, "rb") as fh:
        got = fh.read(4)
        if got != magic:
            raise StorageError(
                f"{path}: expected magic {magic!r}, found {got!r}")
        seed, n_fields, n_times = _read(fh, _I8, 3, "header").tolist()
        if n_fields < 0:
            raise StorageError(f"{path}: negative field count {n_fields}")
        times = _read(fh, _F8, n_times, "grid times")
        try:
            grid = TimeGrid(times=times)
        except ValidationError as exc:
            raise StorageError(f"{path}: stored grid: {exc}") from exc
        out = {"grid": grid, "seed": seed}
        for _ in range(n_fields):
            name_len = int(_read(fh, _I8, 1, "field name length")[0])
            raw = _read(fh, _U1, name_len, "field name").tobytes()
            if not raw.isascii():
                raise StorageError(f"{path}: field name {raw!r} is not ASCII")
            name = raw.decode("ascii")
            rank = int(_read(fh, _I8, 1, f"rank of {name}")[0])
            shape = _read(fh, _I8, rank, f"shape of {name}").tolist()
            if any(s < 0 for s in shape):
                raise StorageError(f"{path}: negative shape {shape} of {name}")
            if rank >= 2:
                shape[0], shape[1] = shape[1], shape[0]
            body = _read(fh, _F8, math.prod(shape), name).reshape(shape)
            out[name] = np.swapaxes(body, 0, 1) if rank >= 2 else body
    return out


def _field(path, out, name, *shape) -> np.ndarray:
    """The field ``name`` of a loaded file, which must have ``shape``
    (``None`` matches any length)."""
    a = out.get(name)
    if a is None or a.ndim != len(shape) or any(
            want not in (None, got) for want, got in zip(shape, a.shape)):
        raise StorageError(f"{path}: expected a field {name!r} of shape "
                           f"{shape}, found {None if a is None else a.shape}")
    return a


# ---------------------------------------------------------------------------
# Ensembles, solutions and field sets
# ---------------------------------------------------------------------------

def save_ensemble(path, ensemble: PathEnsemble) -> None:
    _save(path, _MAGIC_ENSEMBLE, ensemble.grid, ensemble.seed,
          {"increments": ensemble.increments, "paths": ensemble.paths})


def load_ensemble(path) -> PathEnsemble:
    out = _load(path, _MAGIC_ENSEMBLE)
    n = out["grid"].n_steps
    paths = _field(path, out, "paths", None, n + 1, None)
    m, _, d = paths.shape
    return PathEnsemble(grid=out["grid"], paths=paths, seed=out["seed"],
                        increments=_field(path, out, "increments", m, n, d))


def save_solution(path, solution) -> None:
    trunc = solution.truncation_n
    _save(path, _MAGIC_SOLUTION, solution.grid, solution.config.seed,
          {"y": solution.y, "z": solution.z,
           "truncation_n": 0 if trunc is UNTRUNCATED else int(trunc)})


def load_solution(path) -> dict:
    """Arrays and metadata of a stored solution.

    Returns a dict with ``grid``, ``y``, ``z``, ``truncation_n`` and
    ``seed`` — the container does not carry the basis or solver knobs,
    so no :class:`BackwardSolution` is fabricated.  ``y`` and ``z`` are
    step-major, as :func:`~qfbsde.backward.lsmc_solve` returns them.
    """
    out = _load(path, _MAGIC_SOLUTION)
    n = out["grid"].n_steps
    m = _field(path, out, "y", None, n + 1).shape[0]
    _field(path, out, "z", m, n, None)
    level = int(_field(path, out, "truncation_n"))
    out["truncation_n"] = UNTRUNCATED if level == 0 else level
    return out


def save_fields(path, grid: TimeGrid, seed: int, fields: dict) -> None:
    """Store named float arrays (say, derivative fields) against a grid."""
    _save(path, _MAGIC_FIELDS, grid, int(seed), fields)


def load_fields(path) -> dict:
    """Inverse of :func:`save_fields`; adds ``grid`` and ``seed`` entries."""
    return _load(path, _MAGIC_FIELDS)


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
