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
applies for compute_emaf and for the grid loader alike.  A grid whose tau < 0
rows are that mirror (_conjugate_symmetric) holds no information outside its
N rows with tau >= 0, so the estimators and the scoring take every plane-wide
statistic from those rows, each tau > 0 cell standing for itself and its mirror.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .sigcore import white_noise_mean

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

GRID_KINDS = ("raw", "standardized", "thresholded", "bias_corrected", "reference")

DB_CLAMP_FLOOR = 1e-15  # inputs below this clamp to -300 dB
DB_FLOOR = -300.0

# Medians over fewer cells than this are too unstable to act as a local
# variance estimate; such regions are merged outward.
MIN_REGION_CELLS = 16

_BOUNDARY_EPS = 1e-9


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class RegionPartition:
    """Assignment of every grid cell to one of region_count annuli."""

    region_count: int
    region_index: np.ndarray

    @cached_property
    def merged(self) -> tuple:
        """(labels, cell_region, order, bounds) of the merged regions, built
        once per partition.  Regions with < MIN_REGION_CELLS cells are folded
        outward into their neighbour (inward for the outermost); labels lists
        the survivors ascending, cell_region gives each cell's position in
        labels (narrowest unsigned dtype), order the flat cell indices sorted
        stably by it (row-major inside a region; None for one region) and
        order[bounds[i]:bounds[i + 1]] the cells of region i."""
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
        order = None
        if len(remaining) > 1:
            order = _frozen(np.argsort(cell_region.ravel(), kind="stable").astype(np.int32))
        return tuple(remaining), cell_region, order, bounds

    @cached_property
    def folded(self) -> dict:
        """Merged label -> the other annuli whose cells merged folded into it
        (an empty list where none was)."""
        labels, cell_region = self.merged[:2]
        label_of = np.full(self.region_count, -1)
        label_of[self.region_index.ravel()] = np.asarray(labels)[cell_region.ravel()]
        return {r: [a for a in np.flatnonzero(label_of == r).tolist() if a != r] for r in labels}

    @property
    def segments(self) -> tuple:
        """merged's order and, per region, (first, first pair, end) of its
        cells in it: over the whole plane no cell counts twice."""
        order, bounds = self.merged[2:]
        return order, [(lo, hi, hi) for lo, hi in zip(bounds, bounds[1:])]

    @cached_property
    def half(self) -> tuple | None:
        """segments over the rows with tau >= 0 of a (2N-1, 2N) grid, whose
        tau > 0 cells count twice (for their mirrors), or None when the labels
        are not mirror-symmetric (cell (-tau, -nu) labelled as (tau, nu)).
        The order gathers flat indices of those rows stably by (region,
        tau > 0), so that region i's tau = 0 cells come before its tau > 0
        cells (None for one region)."""
        idx, n = self.region_index, (self.region_index.shape[0] + 1) // 2
        if idx.shape != (2 * n - 1, 2 * n) or not np.array_equal(
            _flip_lags(idx, np.empty_like(idx[: n - 1])), idx[: n - 1]
        ):
            return None
        labels, cell_region = self.merged[:2]
        key = 2 * cell_region[n - 1 :].astype(np.int32)
        key[1:] += 1
        bounds = np.cumsum([0, *np.bincount(key.ravel(), minlength=2 * len(labels))]).tolist()
        order = None
        if len(labels) > 1:
            order = _frozen(np.argsort(key.ravel(), kind="stable").astype(np.int32))
        return order, list(zip(bounds[0::2], bounds[1::2], bounds[2::2]))


class Lattice:
    """The (nu, tau) lattice of a length-n record and the tables built on it.

    Row m sits at time lag taus[m] = m-(n-1), column k at frequency
    nus[k] = (k-n)/(2n).  Every table is built on first use, read-only and
    kept with the lattice, so lattice(n) is the one place that holds them.
    """

    def __init__(self, n: int):
        self.n = n
        self.shape = (2 * n - 1, 2 * n)
        self._partitions, self._rims = {}, {}

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
    def roots(self) -> np.ndarray:
        """e^{j pi i / n} for i = 0..2n-1, so that e^{j 2 pi nu tau} on column k
        is roots[((k - n) * tau) mod 2n]."""
        return _frozen(np.exp(1j * np.pi * np.arange(2 * self.n) / self.n))

    @cached_property
    def w(self) -> np.ndarray:
        """w(nu) = 1/2 - |nu|, except at the single nu = -1/2 column, where
        the weight would vanish; there it is floored at half the cell width."""
        w = 0.5 - np.abs(self.nus)
        w[0] = 1.0 / (4.0 * self.n)
        return _frozen(w)

    @property
    def base(self) -> np.ndarray:
        """Variance profile (N-|tau|) * w(nu) of the flat-spectrum reference, built
        per access: the lattice keeps inv_sqrt_base, 1 / sqrt(base), for standardize."""
        return _frozen(np.outer(self.n - np.abs(self.taus), self.w))

    @cached_property
    def inv_sqrt_base(self) -> np.ndarray:
        return _frozen(1.0 / np.sqrt(self.base))

    def maxnorm_ratio(self, eps: float = 0.0) -> np.ndarray:
        """max(|tau|/(N-1), |nu|/(1/2)) per cell, the denominators widened by eps."""
        r_tau = np.abs(self.taus) / (self.n - 1.0 + eps)
        r_nu = np.abs(self.nus) / (0.5 + eps)
        return np.maximum(r_tau[:, None], r_nu[None, :])

    def partition(self, k: int) -> RegionPartition:
        """Centre square plus nested square annuli of equal max-norm width.

        Cell (nu, tau) falls in region floor(K * max(|nu|/(1/2), |tau|/(N-1)))
        capped at K-1; boundary cells stay in the inner region.
        """
        if k < 1:
            raise ValueError("need at least one region")
        if k not in self._partitions:
            ratio = self.maxnorm_ratio(eps=_BOUNDARY_EPS)
            idx = np.minimum(k - 1, np.floor(k * ratio)).astype(np.min_scalar_type(-k))
            self._partitions[k] = RegionPartition(k, _frozen(idx))
        return self._partitions[k]

    def rim(self, fraction: float) -> np.ndarray:
        """Boolean mask of the outer rim band of the ambiguity plane."""
        if not 0.0 < fraction < 0.5:
            raise ValueError("rim fraction must lie in (0, 1/2)")
        if fraction not in self._rims:
            self._rims[fraction] = _frozen(self.maxnorm_ratio() >= 1.0 - fraction)
        return self._rims[fraction]

    @cached_property
    def bias_basis(self) -> np.ndarray:
        """Unit-variance mean surface of analytic white noise (white_noise_mean
        on the lattice)."""
        return _frozen(white_noise_mean(self.nus[None, :], self.taus[:, None], self.n))


@lru_cache(maxsize=8)
def lattice(n: int) -> Lattice:
    """The Lattice of a length-n record, shared by every caller."""
    if n < 2:
        raise ValueError("need at least two samples")
    return Lattice(n)


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


def compute_emaf(x, workspace: np.ndarray | None = None) -> AmbiguityGrid:
    """Empirical ambiguity function of a complex sample, kind="raw".

    For each lag tau >= 0 the product sequence m_tau[t] = x[t] x*[t-tau] is
    laid out on t = 0..N-1 (zero outside the valid range), zero-padded to
    length 2N and transformed; FFT bin q lands in column k = (q + N) mod 2N
    so that columns run over nu = (k-N)/(2N) in increasing order.  The
    tau < 0 rows are the _mirror_lags of the tau > 0 rows.

    workspace, a complex (2, 2N-1, 2N) array, lends the two buffers the
    computation needs so that repeated calls allocate nothing: the result
    views workspace[0] and is overwritten by the next call, and
    workspace[1] is left free as scratch.  Without one, fresh buffers are
    allocated.
    """
    x = np.asarray(x, dtype=complex)
    n = x.size
    shape = lattice(n).shape
    if workspace is None:
        rows, spectrum = np.empty(shape, dtype=complex), np.empty(shape, dtype=complex)
    elif workspace.shape != (2,) + shape or workspace.dtype != complex:
        raise ValueError(f"EMAF workspace must be complex with shape {(2,) + shape}")
    else:
        rows, spectrum = workspace
    upper = rows[n - 1 :]  # tau >= 0
    upper.fill(0)
    # window tau, reversed, holds x*[t - tau] for tau = 0..N-1; the mask keeps +0 off the record
    windows = np.lib.stride_tricks.sliding_window_view(np.pad(np.conj(x), (n - 1, 0)), n)[::-1]
    inside = np.lib.stride_tricks.sliding_window_view(np.pad(np.ones(n, bool), (n - 1, 0)), n)[::-1]
    np.multiply(x, windows, out=upper[:, :n], where=inside)
    np.fft.fft(upper, axis=1, out=spectrum[n - 1 :])
    # fftshift by a half-swap: bins q >= N hold the negative frequencies
    upper[:, :n] = spectrum[n - 1 :, n:]
    upper[:, n:] = spectrum[n - 1 :, :n]
    _mirror_lags(rows, rows[: n - 1], spectrum[: n - 1])
    return AmbiguityGrid(rows, n, "raw")


def _mirror_lags(values: np.ndarray, out: np.ndarray, phases: np.ndarray | None = None) -> np.ndarray:
    """The tau < 0 rows of a (2N-1, 2N) grid from its tau > 0 rows, into out,
    a complex (N-1, 2N) array: A(nu, -tau] = e^{j 2 pi nu tau}
    conj(A(-nu, tau]).  -nu is column (2N - k) mod 2N, so nu = -1/2 is its own
    mirror (the EMAF has period 1 in nu), and the phase is Lattice.roots
    indexed by ((k - N) tau) mod 2N, gathered into phases (an (N-1, 2N)
    complex buffer; default a new one).  The grid loader rebuilds a mirrored
    file with this same function, so its round trip is exact.
    """
    n = values.shape[1] // 2
    index = np.multiply.outer(np.arange(n - 1, 0, -1), np.arange(-n, n))
    if n & (n - 1):
        np.remainder(index, 2 * n, out=index)
    else:  # 2N is a power of two
        np.bitwise_and(index, 2 * n - 1, out=index)
    phases = np.take(lattice(n).roots, index, out=phases, mode="clip")
    np.conjugate(_flip_lags(values, out), out=out)
    return np.multiply(out, phases, out=out)


def _flip_lags(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The tau > 0 rows of a (2N-1, 2N) array moved to their mirror cells
    (-tau, -nu), into out, an (N-1, 2N) array: out's row tau = -t, column k
    is row t, column (2N - k) mod 2N."""
    n = values.shape[1] // 2
    source = values[: n - 1 : -1]  # tau = N-1 .. 1, the mirrors of out's rows tau = -(N-1) .. -1
    out[:, 0] = source[:, 0]
    out[:, 1:] = source[:, :0:-1]
    return out


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
    Accepts raw or bias-corrected grids; out, a complex array of the grid's
    shape, receives the values (default: a new array).  Multiplying by
    1 / sqrt(base) gives numpy's division bits but for the sign of a zero part.
    """
    if grid.kind not in ("raw", "bias_corrected"):
        raise ValueError("standardize expects a raw or bias-corrected grid")
    values = np.multiply(grid.values, lattice(grid.n).inv_sqrt_base, out=out)
    return AmbiguityGrid(values, grid.n, "standardized")


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
