"""File formats: signal CSV, grid CSV, optional grid binary, mask CSV.

Signal CSV    header `# afkit-signal v1, n=<N>[, process=<name>]`,
              rows `t,re,im` at 17 significant digits.
Grid CSV      header `# afkit-grid v1, n=<N>, kind=<kind>[, process=<name>]`,
              rows `tau,nu,re,im`, row-major over the lattice.
Grid binary   32-byte header (magic "AFKITGRD", u32 version, u32 n,
              u32 kind code, zero padding) then row-major little-endian
              complex doubles.
Mask CSV      header `# afkit-mask v1, n=<N>`, rows `tau,nu,indicator`.

The optional process field carries provenance so downstream commands can
enforce estimator/process pairings; 17 significant digits make CSV round
trips lossless for doubles.
"""

from __future__ import annotations

import struct

import numpy as np

from .emaf import GRID_KINDS, AmbiguityGrid

__all__ = [
    "PROCESS_NAMES",
    "FileFormatError",
    "load_grid",
    "load_grid_binary",
    "load_signal",
    "write_grid",
    "write_grid_binary",
    "write_mask",
    "write_real_grid",
    "write_signal",
]

# Values the process= provenance field may take.
PROCESS_NAMES = ("chirp", "ma", "um", "tvma", "noise")

_MAGIC = b"AFKITGRD"
_BINARY_VERSION = 1


class FileFormatError(Exception):
    """Input file does not match the declared format."""


def _check_finite(data: np.ndarray, what: str) -> None:
    # A NaN or inf would poison every median-based variance estimate.
    if not np.isfinite(data).all():
        raise FileFormatError(f"{what} holds non-finite values")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _parse_header(line: str, tag: str) -> dict:
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
    if "process" in fields and fields["process"] not in PROCESS_NAMES:
        raise FileFormatError(f"unknown process={fields['process']!r} in the {tag} header")
    return fields


def write_signal(path, x, process: str | None = None) -> None:
    x = np.asarray(x, dtype=complex)
    header = f"# afkit-signal v1, n={x.size}"
    if process:
        header += f", process={process}"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for t, v in enumerate(x):
            fh.write(f"{t},{_fmt(v.real)},{_fmt(v.imag)}\n")


def load_signal(path):
    """Returns (samples, process-or-None)."""
    with open(path) as fh:
        fields = _parse_header(fh.readline(), "afkit-signal")
        n = int(fields["n"])
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape != (n, 3):
        raise FileFormatError(f"expected {n} rows of t,re,im")
    _check_finite(data, "signal CSV")
    order = np.argsort(data[:, 0])
    data = data[order]
    return data[:, 1] + 1j * data[:, 2], fields.get("process")


def write_grid(path, grid: AmbiguityGrid, process: str | None = None) -> None:
    header = f"# afkit-grid v1, n={grid.n}, kind={grid.kind}"
    if process:
        header += f", process={process}"
    taus = grid.tau_values()
    nus = grid.nu_values()
    values = grid.values
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for m, tau in enumerate(taus):
            row = values[m]
            for k, nu in enumerate(nus):
                fh.write(f"{tau},{_fmt(nu)},{_fmt(row[k].real)},{_fmt(row[k].imag)}\n")


def load_grid(path):
    """Returns (AmbiguityGrid, process-or-None)."""
    with open(path) as fh:
        fields = _parse_header(fh.readline(), "afkit-grid")
        n = int(fields["n"])
        kind = fields.get("kind", "raw")
        if kind not in GRID_KINDS:
            raise FileFormatError(f"cannot load a grid of kind {kind!r}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    rows, cols = 2 * n - 1, 2 * n
    if data.shape != (rows * cols, 4):
        raise FileFormatError("grid CSV has the wrong number of rows")
    _check_finite(data, "grid CSV")
    m = np.rint(data[:, 0]).astype(int) + (n - 1)
    k = np.rint(data[:, 1] * 2 * n).astype(int) + n
    if m.min() < 0 or m.max() >= rows or k.min() < 0 or k.max() >= cols:
        raise FileFormatError("grid CSV indices out of range")
    if (np.bincount(m * cols + k, minlength=rows * cols) != 1).any():
        raise FileFormatError("grid CSV does not cover every (tau, nu) cell exactly once")
    values = np.zeros((rows, cols), dtype=complex)
    values[m, k] = data[:, 2] + 1j * data[:, 3]
    return AmbiguityGrid(values, n, kind), fields.get("process")


def write_real_grid(path, values: np.ndarray, n: int, kind: str = "reference") -> None:
    """Real-valued export (dB maps, MSE maps): grid CSV with im = 0."""
    grid = AmbiguityGrid(np.asarray(values, dtype=float) + 0j, n, kind)
    write_grid(path, grid)


def write_mask(path, mask: np.ndarray, n: int) -> None:
    taus = np.arange(-(n - 1), n)
    nus = (np.arange(2 * n) - n) / (2.0 * n)
    with open(path, "w") as fh:
        fh.write(f"# afkit-mask v1, n={n}\n")
        for m, tau in enumerate(taus):
            for k, nu in enumerate(nus):
                fh.write(f"{tau},{_fmt(nu)},{int(mask[m, k])}\n")


def write_grid_binary(path, grid: AmbiguityGrid) -> None:
    kind_code = GRID_KINDS.index(grid.kind)
    header = _MAGIC + struct.pack("<III", _BINARY_VERSION, grid.n, kind_code)
    header = header.ljust(32, b"\x00")
    data = np.ascontiguousarray(grid.values, dtype="<c16")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data.tobytes())


def load_grid_binary(path) -> AmbiguityGrid:
    with open(path, "rb") as fh:
        header = fh.read(32)
        if len(header) != 32 or header[:8] != _MAGIC:
            raise FileFormatError("not an afkit grid binary")
        version, n, kind_code = struct.unpack("<III", header[8:20])
        if version != _BINARY_VERSION:
            raise FileFormatError(f"unsupported grid binary version {version}")
        if kind_code >= len(GRID_KINDS):
            raise FileFormatError("unknown grid kind code")
        if n < 2:
            raise FileFormatError(f"grid binary declares n={n}, need n >= 2")
        raw = fh.read()
    expected = 16 * (2 * n - 1) * 2 * n
    if len(raw) != expected:
        raise FileFormatError(f"grid binary holds {len(raw)} data bytes, expected {expected}")
    values = np.frombuffer(raw, dtype="<c16").reshape(2 * n - 1, 2 * n).copy()
    _check_finite(values, "grid binary")
    return AmbiguityGrid(values, n, GRID_KINDS[kind_code])
