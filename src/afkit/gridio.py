"""File formats: signal CSV, grid CSV, mask CSV.

Signal CSV    header `# afkit-signal v1, n=<N>[, process=<name>]`,
              rows `t,re,im` at 17 significant digits.
Grid CSV      header `# afkit-grid v3, n=<N>, kind=<kind>, cells=<count>, mirror=<0|1>[, process=<name>]`,
              rows `tau,nu,re,im`, row-major, for the cells that are not +0+0j
              (absent cells load as +0+0j).  mirror=1 when the tau < 0 rows are,
              bit for bit, emaf._mirror_lags of the tau > 0 rows, as in every
              EMAF: the body then holds only tau >= 0 cells and the loader
              rebuilds the rest with that same function.  v2 (no mirror=, both
              halves) and v1 (no cells=, every cell) still load.
              Kinds are emaf.GRID_KINDS; db and mse are real maps, which no estimator reads.
Mask CSV      header `# afkit-mask v1, n=<N>`, rows `tau,nu,indicator`.

A header's version must match exactly and its fields be the version's, each once.
The optional process field carries provenance so downstream commands can enforce
estimator/process pairings; 17 significant digits make CSV round trips lossless.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .emaf import GRID_KINDS, AmbiguityGrid, _conjugate_symmetric, _mirror_lags, lattice
from .sigcore import PROCESSES

__all__ = [
    "FileFormatError",
    "load_grid",
    "load_signal",
    "write_grid",
    "write_mask",
    "write_real_grid",
    "write_signal",
]


class FileFormatError(Exception):
    """Input file does not match the declared format."""


def _check_finite(data: np.ndarray, what: str) -> None:
    # A NaN or inf would poison every median-based variance estimate.
    if not np.isfinite(data).all():
        raise FileFormatError(f"{what} holds non-finite values")


def _lattice_text(n: int, cell: str) -> tuple[list, list]:
    """Lattice row heads (the tau values) and one line template per nu column."""
    lat = lattice(n)
    return [str(tau) for tau in lat.taus.tolist()], [f",{nu:.17g},{cell}\n" for nu in lat.nus]


def _write_rows(path, header: str, heads: list, cells: list, rows, keep=None) -> None:
    """Header line, then one write per row: `head + cell` for every cell, or
    only for the cells keep[m] marks in row m (none marked: no line), filled
    by % from their values.  '%.17g' % x is the same conversion as f"{x:.17g}"."""
    counts = [len(cells)] * len(heads) if keep is None else np.count_nonzero(keep, axis=1).tolist()
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for m, (head, row, count) in enumerate(zip(heads, rows, counts)):
            if count == len(cells):  # a dense row: one fill of the whole row's template
                fh.write((head + head.join(cells)) % tuple(row.ravel().tolist()))
            elif count:
                kept = [cells[k] for k in np.flatnonzero(keep[m]).tolist()]
                fh.write((head + head.join(kept)) % tuple(row[keep[m]].ravel().tolist()))


# The header fields each (tag, version) defines; the loaders reject any other.
_FIELDS = {
    ("afkit-signal", "v1"): ("n", "process"),
    ("afkit-grid", "v1"): ("n", "kind", "process"),
    ("afkit-grid", "v2"): ("n", "kind", "cells", "process"),
    ("afkit-grid", "v3"): ("n", "kind", "cells", "mirror", "process"),
}
# The integer fields, with their least and greatest values; each is required
# wherever its version defines it.
_INTEGERS = {"n": (2, math.inf), "cells": (0, math.inf), "mirror": (0, 1)}


def _parse_header(line: str, tag: str) -> dict:
    """Header fields; those named in _INTEGERS are checked integers."""
    first, *parts = line.strip().split(",")
    junk, _, version = first.partition(f"# {tag} ")
    if junk or (tag, version) not in _FIELDS:
        raise FileFormatError(f"not an {tag} file of a known version")
    fields = {}
    for part in filter(None, map(str.strip, parts)):
        key, _, value = (s.strip() for s in part.partition("="))
        if key in fields or key not in _FIELDS[tag, version]:
            why = "twice" if key in fields else f"but {version} defines no such field"
            raise FileFormatError(f"the {tag} header gives {key!r} {why}")
        fields[key] = value
    if "process" in fields and fields["process"] not in PROCESSES:
        raise FileFormatError(f"unknown process={fields['process']!r} in the {tag} header")
    for key in (key for key in _FIELDS[tag, version] if key in _INTEGERS):
        if key not in fields:
            raise FileFormatError(f"the {tag} header has no {key}= field")
        try:
            fields[key] = int(fields[key])
        except ValueError:
            raise FileFormatError(f"the {tag} header has a non-integer {key}={fields[key]!r}") from None
        least, most = _INTEGERS[key]
        if not least <= fields[key] <= most:
            need = f"{key} >= {least}" if most == math.inf else f"{least} <= {key} <= {most}"
            raise FileFormatError(f"the {tag} header declares {key}={fields[key]}, need {need}")
    return fields


def _read_csv(path, tag: str) -> tuple[dict, np.ndarray]:
    """Header fields and body rows of a CSV file; a malformed body is a FileFormatError."""
    try:
        with open(path) as fh, warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # empty body: the row count check names it
            fields = _parse_header(fh.readline(), tag)
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    except ValueError as exc:  # a non-numeric cell, a ragged row or undecodable bytes
        raise FileFormatError(f"{tag} file: {exc}") from None
    return fields, data


def write_signal(path, x, process: str | None = None) -> None:
    x = np.ascontiguousarray(x, dtype=complex)
    header = f"# afkit-signal v1, n={x.size}"
    if process:
        header += f", process={process}"
    cells = [f"{t},%.17g,%.17g\n" for t in range(x.size)]
    _write_rows(path, header, [""], cells, [x.view(np.float64)])


def load_signal(path):
    """Returns (samples, process-or-None)."""
    fields, data = _read_csv(path, "afkit-signal")
    n = fields["n"]
    if data.shape != (n, 3):
        raise FileFormatError(f"expected {n} rows of t,re,im")
    _check_finite(data, "signal CSV")
    order = np.argsort(data[:, 0])
    data = data[order]
    if (data[:, 0] != np.arange(n)).any():
        raise FileFormatError(f"signal CSV t column does not hold each of 0..{n - 1} exactly once")
    return data[:, 1:].copy().view(complex)[:, 0], fields.get("process")  # keeps a -0.0 imag


def write_grid(path, grid: AmbiguityGrid, process: str | None = None) -> None:
    """Grid CSV v3: one row per cell unless both its parts are the bit pattern
    +0.0, of the tau >= 0 rows only when the grid's tau < 0 rows are, bit for
    bit, the finite _mirror_lags of its tau > 0 rows (mirror=1)."""
    values = np.ascontiguousarray(grid.values, dtype=complex)
    n = grid.n
    mirror = _conjugate_symmetric(values, exact=True)
    bits = values.view(np.uint64)
    keep = (bits[:, 0::2] | bits[:, 1::2]) != 0
    if mirror:  # written as its tau >= 0 rows
        keep[: n - 1] = False
    header = f"# afkit-grid v3, n={n}, kind={grid.kind}, cells={np.count_nonzero(keep)}, mirror={int(mirror)}"
    if process:
        header += f", process={process}"
    parts = values.view(np.float64).reshape(*values.shape, 2)
    _write_rows(path, header, *_lattice_text(n, "%.17g,%.17g"), parts, keep)


def load_grid(path):
    """Returns (AmbiguityGrid, process-or-None)."""
    fields, data = _read_csv(path, "afkit-grid")
    kind = fields.get("kind", "raw")
    if kind not in GRID_KINDS:
        raise FileFormatError(f"cannot load a grid of kind {kind!r}")
    lat = lattice(fields["n"])
    rows, cols = lat.shape
    count = fields.get("cells", rows * cols)  # v1 lists every cell
    if data.shape != (count, 4) and data.size + count:  # an empty body loads as shape (0, 1)
        raise FileFormatError("grid CSV has the wrong number of rows")
    data = data.reshape(count, 4)
    _check_finite(data, "grid CSV")
    m, k = lat.cell(data[:, 0], data[:, 1])
    if ((m < 0) | (m >= rows) | (k < 0) | (k >= cols)).any():
        raise FileFormatError("grid CSV indices out of range")
    # tau must be an integer and nu the lattice value (k - n) / (2n) exactly, as written
    if (data[:, 0] != lat.taus[m]).any() or (data[:, 1] != lat.nus[k]).any():
        raise FileFormatError("grid CSV holds a (tau, nu) pair off the lattice")
    # with no cell twice, the rows * cols rows of a v1 file cover every cell once
    if (np.bincount(m * cols + k, minlength=rows * cols) > 1).any():
        raise FileFormatError("grid CSV holds a (tau, nu) cell more than once")
    mirror = fields.get("mirror", 0)
    if mirror and (m < lat.n - 1).any():
        raise FileFormatError("grid CSV with mirror=1 holds a tau < 0 cell")
    values = np.zeros(lat.shape, dtype=complex)
    values.view(np.float64).reshape(rows, cols, 2)[m, k] = data[:, 2:]  # bit for bit, -0.0 too
    if mirror:
        with np.errstate(all="ignore"):  # a product that overflows is rejected below
            lower = _mirror_lags(values, values[: lat.n - 1])
        if not np.isfinite(lower).all():
            raise FileFormatError("grid CSV with mirror=1 rebuilds a non-finite tau < 0 cell")
    return AmbiguityGrid(values, lat.n, kind), fields.get("process")


def write_real_grid(path, values: np.ndarray, n: int, kind: str) -> None:
    """Real-valued export, a dB map (kind db) or an MSE map (kind mse): grid CSV with im = 0."""
    write_grid(path, AmbiguityGrid(np.asarray(values, dtype=float) + 0j, n, kind))


def write_mask(path, mask: np.ndarray, n: int) -> None:
    _write_rows(path, f"# afkit-mask v1, n={n}", *_lattice_text(n, "%d"), np.asarray(mask))
