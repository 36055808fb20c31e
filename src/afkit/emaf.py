"""Empirical ambiguity function on the standard lattice.

The empirical ambiguity function (EMAF) of a length-N complex sample x is

    A(nu, tau] = sum_{t=max(0,tau)}^{N-1+min(0,tau)} x[t] x*[t-tau] e^{-j 2 pi nu t}

evaluated on a fixed (nu, tau) lattice: rows index the time lag
tau = m - (N-1) for m = 0..2N-2, columns index the local frequency
nu = (k - N) / (2N) for k = 0..2N-1, i.e. nu covers [-1/2, 1/2) and the grid
has shape (2N-1, 2N) -- 511 x 512 for N = 256.  Lag products are zero-padded
(no circular extension) and each row with tau >= 0 is evaluated with one
length-2N FFT.  The tau < 0 rows follow from the conjugation symmetry

    A(nu, -tau] = e^{j 2 pi nu tau} conj(A(-nu, tau])

(Hlawatsch & Boudreaux-Bartels, IEEE SP Magazine 1992), which _mirror_lags
applies for compute_emaf, the grid loader and the reference builder alike.
A grid whose tau < 0 rows are that mirror (_conjugate_symmetric) holds no
information outside its N rows with tau >= 0, so the estimators and the
scoring take every plane-wide statistic from those rows, each tau > 0 cell
standing for itself and its mirror.
Given a buffer, compute_emaf and standardize fill those rows alone, which is
how a Monte Carlo trial runs: it never computes a tau < 0 row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .sigcore import _check_integer, white_noise_mean

__all__ = [
    "GRID_KINDS",
    "MIN_REGION_CELLS",
    "AmbiguityGrid",
    "Lattice",
    "RegionPartition",
    "compute_emaf",
    "lattice",
    "standardize",
    "to_db",
]

GRID_KINDS = ("raw", "standardized", "thresholded", "bias_corrected", "reference", "db", "mse")

DB_CLAMP_FLOOR = 1e-15  # inputs below this clamp to -300 dB
DB_FLOOR = -300.0

# Medians over fewer cells than this are too unstable to act as a local
# variance estimate; such regions are merged outward.
MIN_REGION_CELLS = 16

_BOUNDARY_EPS = 1e-9

_TILE_ROWS = 32  # compute_emaf's tile height in lag rows: 32 beat 16 and 64 at N = 256 and 512


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class RegionPartition:
    """Assignment of every grid cell to one of region_count annuli; half
    gives each merged region as the row-band rectangles of _tiles."""

    region_count: int
    region_index: np.ndarray

    @cached_property
    def merged(self) -> tuple:
        """(labels, cell_region, bounds) of the merged regions, built once per
        partition.  Regions with < MIN_REGION_CELLS cells are folded outward
        into their neighbour (inward for the outermost); labels lists the
        survivors ascending, cell_region gives each cell's position in labels
        (narrowest unsigned dtype) and bounds[i + 1] - bounds[i] is the cell
        count of region i."""
        k, idx = self.region_count, self.region_index
        if idx.size and (idx.min() < 0 or idx.max() >= k):
            raise ValueError(f"partition labels must lie in [0, {k})")
        counts = np.bincount(idx.ravel(), minlength=k)
        target = np.arange(k)
        remaining = [r for r in range(k) if counts[r]]
        while len(remaining) > 1:
            small = [pos for pos, r in enumerate(remaining) if counts[r] < MIN_REGION_CELLS]
            if not small:
                break
            r = remaining.pop(small[0])
            dest = remaining[min(small[0], len(remaining) - 1)]
            counts[dest] += counts[r]
            target[target == r] = dest
        position = np.zeros(k, dtype=np.min_scalar_type(max(len(remaining) - 1, 0)))
        position[remaining] = np.arange(len(remaining))
        cell_region = _frozen(position[target][idx])
        bounds = tuple(int(b) for b in np.cumsum([0, *counts[remaining]]))
        return tuple(remaining), cell_region, bounds

    @cached_property
    def folded(self) -> dict:
        """Merged label -> the other annuli whose cells merged folded into it
        (an empty list where none was)."""
        labels, cell_region = self.merged[:2]
        label_of = np.full(self.region_count, -1)
        label_of[self.region_index.ravel()] = np.asarray(labels)[cell_region.ravel()]
        return {r: [a for a in np.flatnonzero(label_of == r).tolist() if a != r] for r in labels}

    @cached_property
    def half(self) -> list | None:
        """The _tiles of the merged regions on the rows with tau >= 0 of a
        (2N-1, 2N) grid, or None when the labels are not mirror-symmetric
        (cell (-tau, -nu) labelled as (tau, nu))."""
        idx, n = self.region_index, (self.region_index.shape[0] + 1) // 2
        if idx.shape != (2 * n - 1, 2 * n) or not np.array_equal(
            _flip_lags(idx, np.empty_like(idx[: n - 1])), idx[: n - 1]
        ):
            return None
        return _tiles(self.merged[1][n - 1 :], len(self.merged[0]), half=True)


def _tiles(labels: np.ndarray, count: int, half: bool) -> list:
    """Per label 0..count-1, (once, pairs): the (rows, columns) slices of the
    row-band rectangles that tile its cells of the 2-D array labels.  Each row
    is run-length encoded, and consecutive rows with the same runs form one
    band.  With half, labels are the rows with tau >= 0, row 0 (tau = 0) is
    counted once and the rows below it twice (pairs); else pairs is empty."""
    tiles = [([], []) for _ in range(count)]
    for first, stop in ((0, 1), (1, len(labels))) if half else ((0, len(labels)),):  # slot first: once, pairs
        rows = labels[first:stop]
        starts = [0, *(np.flatnonzero((rows[1:] != rows[:-1]).any(axis=1)) + 1).tolist(), len(rows)]
        for r0, r1 in zip(starts, starts[1:]):
            row = rows[r0]
            cuts = [0, *(np.flatnonzero(row[1:] != row[:-1]) + 1).tolist(), row.size]
            for c0, c1 in zip(cuts, cuts[1:]):
                tiles[int(row[c0])][first].append((slice(first + r0, first + r1), slice(c0, c1)))
    return tiles


class Lattice:
    """The (nu, tau) lattice of a length-n record and the tables built on it.

    Row m sits at time lag taus[m] = m-(n-1), column k at frequency
    nus[k] = (k-n)/(2n).  Every table is built on first use, read-only and
    kept with the lattice, so lattice(n) is the one place that holds them.
    """

    def __init__(self, n: int):
        self.n = n
        self.shape = (2 * n - 1, 2 * n)
        self._partitions, self._rims, self._bias = {}, {}, {}

    @cached_property
    def taus(self) -> np.ndarray:
        return _frozen(np.arange(-(self.n - 1), self.n))

    @cached_property
    def nus(self) -> np.ndarray:
        return _frozen((np.arange(2 * self.n) - self.n) / (2.0 * self.n))

    def cell(self, tau, nu):
        """(row, column) of the lattice cell nearest (tau, nu), elementwise
        over arrays; a point beyond the plane maps beyond its shape."""
        return np.rint(tau).astype(int) + self.n - 1, np.rint(nu * 2 * self.n).astype(int) + self.n

    @cached_property
    def mirror_phases(self) -> np.ndarray:
        """e^{j 2 pi nu tau} of _mirror_lags, an (n-1, 2n) table: row r, column k
        holds the root e^{j pi i / n} at i = ((k - n) t) mod 2n, t = n-1-r, each
        gathered from one table of the 2n roots."""
        roots = np.exp(1j * np.pi * np.arange(2 * self.n) / self.n)
        index = np.multiply.outer(np.arange(self.n - 1, 0, -1), np.arange(2 * self.n) - self.n)
        return _frozen(roots[np.remainder(index, 2 * self.n, out=index)])

    @cached_property
    def w(self) -> np.ndarray:
        """w(nu) = 1/2 - |nu|, except at the single nu = -1/2 column, where
        the weight would vanish; there it is floored at half the cell width."""
        w = 0.5 - np.abs(self.nus)
        w[0] = 1.0 / (4.0 * self.n)
        return _frozen(w)

    @property
    def base(self) -> np.ndarray:
        """Variance profile (N-|tau|) w(nu) of a flat spectrum, built per access."""
        return _frozen(np.outer(self.n - np.abs(self.taus), self.w))

    @cached_property
    def inv_sqrt_base(self) -> np.ndarray:  # 1 / sqrt(base) on the rows tau >= 0; tau < 0 reads [:0:-1]
        return _frozen(1.0 / np.sqrt(np.outer(self.n - self.taus[self.n - 1 :], self.w)))

    def partition(self, k: int) -> RegionPartition:
        """Centre square plus nested square annuli of equal max-norm width: cell
        (nu, tau) falls in region min(K-1, floor(K * max(|nu|/(1/2), |tau|/(N-1)))),
        the larger of its two axis labels; boundary cells stay in the inner region."""
        _check_integer("region count", k)
        if k < 1:
            raise ValueError("need at least one region")
        if k not in self._partitions:
            tau, nu = (np.minimum(k - 1, np.floor(k * (np.abs(axis) / (half + _BOUNDARY_EPS)))).astype(
                np.min_scalar_type(-k)) for axis, half in ((self.taus, self.n - 1.0), (self.nus, 0.5)))
            self._partitions[k] = RegionPartition(k, _frozen(np.maximum.outer(tau, nu)))
        return self._partitions[k]

    def rim(self, fraction: float) -> np.ndarray:
        """Boolean mask of the outer rim band: |tau|/(N-1) or |nu|/(1/2) >= 1 - fraction."""
        if not 0.0 < fraction < 0.5:
            raise ValueError("rim fraction must lie in (0, 1/2)")
        if fraction not in self._rims:
            tau, nu = np.abs(self.taus) / (self.n - 1.0), np.abs(self.nus) / 0.5
            self._rims[fraction] = _frozen(np.logical_or.outer(tau >= 1.0 - fraction, nu >= 1.0 - fraction))
        return self._rims[fraction]

    def bias(self, first: int = 0) -> tuple:
        """white_noise_mean, the unit-variance mean surface of analytic white
        noise, on the rows from row first on where it can be nonzero: tau = 0
        and odd tau (it is zero at even tau != 0).  One (rows, values) pair per
        row slice, rows counted from row first; built once per first."""
        if first not in self._bias:
            taus = self.taus[first:, None]
            self._bias[first] = tuple((rows, _frozen(white_noise_mean(self.nus[None, :], taus[rows], self.n)))
                                      for rows in (slice(self.n - 1 - first, self.n - first),
                                                   slice((self.n - first) % 2, None, 2)))
        return self._bias[first]


_lattice = lru_cache(maxsize=8)(Lattice)  # keyed by a Python int


def lattice(n: int) -> Lattice:
    """The Lattice of a length-n record, shared by every caller: one per integer n."""
    _check_integer("n", n)
    if n < 2:
        raise ValueError("need at least two samples")
    return _lattice(int(n))


@dataclass
class AmbiguityGrid:
    """Complex values on the (nu, tau) lattice for a length-n source signal.

    values[m, k] sits at time lag tau = m-(n-1) and frequency nu = (k-n)/(2n).
    """

    values: np.ndarray
    n: int
    kind: str = "raw"

    def __post_init__(self):
        if self.kind not in GRID_KINDS:
            raise ValueError(f"unknown grid kind {self.kind!r}")
        expected = lattice(self.n).shape
        if self.values.shape != expected:
            raise ValueError(
                f"grid shape {self.values.shape} does not match n={self.n} "
                f"(expected {expected})"
            )

    @property
    def shape(self):
        return self.values.shape


def compute_emaf(x, out: np.ndarray | None = None) -> AmbiguityGrid:
    """Empirical ambiguity function of a complex sample, kind="raw".

    For each lag tau >= 0 the product sequence m_tau[t] = x[t] x*[t-tau] is
    laid out on t = 0..N-1 (zero outside the valid range), zero-padded to
    length 2N and transformed, _TILE_ROWS rows at a time in one tile (512 KiB
    at N = 512, in L2 from the products to the half-swap); FFT bin q lands in
    column k = (q + N) mod 2N so that columns run over nu = (k-N)/(2N) in
    increasing order.  out, a complex (2N-1, 2N) array, receives the rows
    with tau >= 0 alone, its tau < 0 rows left as they were; without it a
    new array receives every row, the tau < 0 rows by _mirror_lags.  A
    record that is not finite, or whose lag sums (at most N max|x|^2) could
    overflow, is rejected.
    """
    x = np.asarray(x, dtype=complex)
    if x.ndim != 1:
        raise ValueError(f"x must be a 1-D record, got shape {x.shape}")
    n, shape = x.size, lattice(x.size).shape
    if not np.abs(x).max() <= (bound := np.sqrt(np.finfo(float).max / n)):  # NaN fails too
        raise ValueError(f"record samples must be finite and at most {bound:.6g} in magnitude at N = {n}")
    if out is not None and (out.shape != shape or out.dtype != complex):
        raise ValueError(f"EMAF out must be a complex array of shape {shape}")
    rows = np.empty(shape, dtype=complex) if out is None else out
    # window tau, reversed, holds x*[t - tau] for tau = 0..N-1; the mask keeps +0 off the record
    windows = np.lib.stride_tricks.sliding_window_view(np.pad(np.conj(x), (n - 1, 0)), n)[::-1]
    inside = np.lib.stride_tricks.sliding_window_view(np.pad(np.ones(n, bool), (n - 1, 0)), n)[::-1]
    upper, tile = rows[n - 1 :], np.empty((min(n, _TILE_ROWS), 2 * n), dtype=complex)  # tau >= 0
    for lags in (slice(t, t + _TILE_ROWS) for t in range(0, n, _TILE_ROWS)):
        block = tile[: len(upper[lags])]
        block.fill(0)
        np.multiply(x, windows[lags], out=block[:, :n], where=inside[lags])
        np.fft.fft(block, axis=1, out=block)
        # fftshift by a half-swap: bins q >= N hold the negative frequencies
        upper[lags, :n] = block[:, n:]
        upper[lags, n:] = block[:, :n]
    if out is None:
        _mirror_lags(rows, rows[: n - 1])
    return AmbiguityGrid(rows, n, "raw")


def _mirror_lags(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The tau < 0 rows of a (2N-1, 2N) grid from its tau > 0 rows, into out,
    a complex (N-1, 2N) array: A(nu, -tau] = e^{j 2 pi nu tau}
    conj(A(-nu, tau]).  -nu is column (2N - k) mod 2N, so nu = -1/2 is its own
    mirror (the EMAF has period 1 in nu), and the phase is
    Lattice.mirror_phases.  The grid loader and the reference builder mirror
    with this same function, so a round trip is exact.
    """
    np.conjugate(_flip_lags(values, out), out=out)
    return np.multiply(out, lattice(values.shape[1] // 2).mirror_phases, out=out)


def _flip_lags(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The tau > 0 rows of a (2N-1, 2N) array moved to their mirror cells
    (-tau, -nu), into out, an (N-1, 2N) array: out's row tau = -t, column k
    is row t, column (2N - k) mod 2N."""
    n = values.shape[1] // 2
    source = values[: n - 1 : -1]  # tau = N-1 .. 1, the mirrors of out's rows tau = -(N-1) .. -1
    out[:, 0] = source[:, 0]
    out[:, 1:] = source[:, :0:-1]
    return out


def _fold(reduce, half: np.ndarray):
    """reduce over the plane of a grid whose tau < 0 rows mirror the tau > 0
    rows of half, its rows with tau >= 0: row tau = 0 once, the others twice."""
    return reduce(half[0]) + 2 * reduce(half[1:])


def _unfold(half: np.ndarray, mirror=_flip_lags) -> np.ndarray:
    """The (2N-1, 2N) grid whose rows with tau >= 0 are half and whose tau < 0
    rows are mirror (_flip_lags, or _mirror_lags for complex values) of them."""
    n = len(half)
    full = np.empty((2 * n - 1, 2 * n), half.dtype)
    full[n - 1 :] = half
    mirror(full, full[: n - 1])
    return full


def _conjugate_symmetric(values: np.ndarray, exact: bool = False) -> bool:
    """Whether the tau < 0 rows of a (2N-1, 2N) grid equal _mirror_lags of its
    tau > 0 rows and every rebuilt cell is finite: by value (a zero matches
    either sign), or bit for bit with exact.  Such a grid is conjugate-symmetric,
    and its rows with tau >= 0 decide every plane-wide statistic."""
    n = values.shape[1] // 2
    with np.errstate(all="ignore"):  # an inf or NaN cell just makes the grid asymmetric
        mirror = _mirror_lags(values, np.empty((n - 1, 2 * n), dtype=complex))
    if not np.isfinite(mirror).all():
        return False
    if exact:
        return np.array_equal(mirror.view(np.uint64), np.ascontiguousarray(values[: n - 1]).view(np.uint64))
    return np.array_equal(mirror, values[: n - 1])


def standardize(grid: AmbiguityGrid, out: np.ndarray | None = None) -> AmbiguityGrid:
    """Divide each cell by sqrt((N-|tau|) * w(nu)), kind="standardized".

    Under a flat one-sided spectrum the standardized cells have constant
    variance, which is what the median-based variance estimators rely on.
    Accepts raw or bias-corrected grids.  out, a complex array of the grid's
    shape, receives the rows with tau >= 0 alone, its tau < 0 rows left as
    they were; without it every row goes into a new array.  Multiplying by
    1 / sqrt(base) gives numpy's division bits but for the sign of a zero
    part.
    """
    if grid.kind not in ("raw", "bias_corrected"):
        raise ValueError("standardize expects a raw or bias-corrected grid")
    n, values, inv = grid.n, grid.values, lattice(grid.n).inv_sqrt_base
    if out is None:
        out = np.empty(values.shape, np.result_type(values, inv))
        np.multiply(values[: n - 1], inv[:0:-1], out=out[: n - 1])
    np.multiply(values[n - 1 :], inv, out=out[n - 1 :])
    return AmbiguityGrid(out, n, "standardized")


def to_db(grid) -> np.ndarray:
    """Amplitude decibel display transform of a grid: 20*log10(|v|).

    Inputs with magnitude below 1e-15 clamp to -300 dB.
    """
    values = grid.values if isinstance(grid, AmbiguityGrid) else np.asarray(grid)
    mag = np.abs(values)
    out = np.full(mag.shape, DB_FLOOR)
    ok = mag >= DB_CLAMP_FLOOR
    out[ok] = 20.0 * np.log10(mag[ok])
    return out
