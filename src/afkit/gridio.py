"""File formats: signal CSV, grid CSV, mask CSV.

Signal CSV    header `# afkit-signal v1, n=<N>[, process=<name>]`,
              rows `t,re,im` at 17 significant digits.
Grid CSV      header `# afkit-grid v1, n=<N>, kind=<kind>[, process=<name>]`,
              rows `tau,nu,re,im`, row-major over the lattice.
Mask CSV      header `# afkit-mask v1, n=<N>`, rows `tau,nu,indicator`.

The optional process field carries provenance so downstream commands can
enforce estimator/process pairings; 17 significant digits make CSV round
trips lossless for doubles.
"""

from __future__ import annotations

import warnings

import numpy as np

from .emaf import GRID_KINDS, AmbiguityGrid, lattice
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


def _write_rows(path, header: str, heads: list, cells: list, rows) -> None:
    """Header line, then one write per row: `head + cell` for every cell, filled by
    % from the row's values.  '%.17g' % x is the same conversion as f"{x:.17g}"."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for head, row in zip(heads, rows):
            fh.write((head + head.join(cells)) % tuple(row.tolist()))


def _parse_header(line: str, tag: str) -> dict:
    """Header fields; fields["n"] is the checked integer sample count."""
    line = line.strip()
    prefix = f"# {tag} v1"
    if not line.startswith(prefix):
        raise FileFormatError(f"not a {tag} v1 file")
    fields = {}
    for part in line[len(prefix) :].split(","):
        part = part.strip()
        if not part:
            continue
        key, _, value = part.partition("=")
        fields[key.strip()] = value.strip()
    if "process" in fields and fields["process"] not in PROCESSES:
        raise FileFormatError(f"unknown process={fields['process']!r} in the {tag} header")
    if "n" not in fields:
        raise FileFormatError(f"the {tag} header has no n= field")
    try:
        fields["n"] = int(fields["n"])
    except ValueError:
        raise FileFormatError(f"the {tag} header has a non-integer n={fields['n']!r}") from None
    if fields["n"] < 2:
        raise FileFormatError(f"the {tag} header declares n={fields['n']}, need n >= 2")
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
    return data[:, 1] + 1j * data[:, 2], fields.get("process")


def write_grid(path, grid: AmbiguityGrid, process: str | None = None) -> None:
    header = f"# afkit-grid v1, n={grid.n}, kind={grid.kind}"
    if process:
        header += f", process={process}"
    values = np.ascontiguousarray(grid.values, dtype=complex).view(np.float64)
    _write_rows(path, header, *_lattice_text(grid.n, "%.17g,%.17g"), values)


def load_grid(path):
    """Returns (AmbiguityGrid, process-or-None)."""
    fields, data = _read_csv(path, "afkit-grid")
    n = fields["n"]
    kind = fields.get("kind", "raw")
    if kind not in GRID_KINDS:
        raise FileFormatError(f"cannot load a grid of kind {kind!r}")
    lat = lattice(n)
    rows, cols = lat.shape
    if data.shape != (rows * cols, 4):
        raise FileFormatError("grid CSV has the wrong number of rows")
    _check_finite(data, "grid CSV")
    m, k = lat.cell(data[:, 0], data[:, 1])
    if m.min() < 0 or m.max() >= rows or k.min() < 0 or k.max() >= cols:
        raise FileFormatError("grid CSV indices out of range")
    # tau must be an integer and nu the lattice value (k - n) / (2n) exactly, as written
    if (data[:, 0] != lat.taus[m]).any() or (data[:, 1] != lat.nus[k]).any():
        raise FileFormatError("grid CSV holds a (tau, nu) pair off the lattice")
    if (np.bincount(m * cols + k, minlength=rows * cols) != 1).any():
        raise FileFormatError("grid CSV does not cover every (tau, nu) cell exactly once")
    values = np.zeros(lat.shape, dtype=complex)
    values[m, k] = data[:, 2] + 1j * data[:, 3]
    return AmbiguityGrid(values, n, kind), fields.get("process")


def write_real_grid(path, values: np.ndarray, n: int, kind: str = "reference") -> None:
    """Real-valued export (dB maps, MSE maps): grid CSV with im = 0."""
    grid = AmbiguityGrid(np.asarray(values, dtype=float) + 0j, n, kind)
    write_grid(path, grid)


def write_mask(path, mask: np.ndarray, n: int) -> None:
    _write_rows(path, f"# afkit-mask v1, n={n}", *_lattice_text(n, "%d"), np.asarray(mask))
