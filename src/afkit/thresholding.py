"""Hard-threshold estimators of the ambiguity function.

Three estimators share one rule: a cell survives iff its squared magnitude
exceeds lambda^2 * sigma4 * (N-|tau|) * w(nu), where lambda^2 is the
universal level 2*ln(N_X * (ln N_X)^C) with N_X twice the number of
observations, and sigma4 is a robust variance estimate taken from the
median of the squared standardized grid (the median of a 1/2*chi^2_2
variable is ln 2).

* teaf   -- one global variance estimate from the whole plane.
* lteaf  -- a separate variance estimate in each of K nested max-norm
            annuli around the origin.
* lbteaf -- noise level estimated on the outer rim, the deterministic
            noise bias removed cell-wise, then region-local thresholding
            of the corrected grid.

All three are threshold_with_details with the method fixed: teaf is the
one-region partition, lbteaf the local rule after bias correction.
Surviving cells keep their input value exactly (hard thresholding).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .emaf import MIN_REGION_CELLS, AmbiguityGrid, RegionPartition, lattice, standardize
from .emaf import _conjugate_symmetric, _flip_lags, _mirror_lags

__all__ = [
    "METHODS",
    "MIN_REGION_CELLS",
    "RegionPartition",
    "SurvivorKernel",
    "ThresholdConfig",
    "bias_correct",
    "lbteaf",
    "lteaf",
    "make_partition",
    "teaf",
    "threshold_level",
    "threshold_with_details",
]

LN2 = math.log(2.0)

METHODS = ("teaf", "lteaf", "lbteaf")  # the threshold estimators, by name


@dataclass(frozen=True)
class ThresholdConfig:
    """Threshold exponent C >= 1, annulus count, rim width and method tag."""

    c_exponent: float = 1.0
    region_count: int = 8
    rim_fraction: float = 0.1
    method: str = "teaf"

    def validate(self) -> None:
        if not 1.0 <= self.c_exponent < math.inf:
            raise ValueError("threshold exponent must be finite and >= 1")
        if self.region_count < 1:
            raise ValueError("need at least one region")
        if not 0.0 < self.rim_fraction < 0.5:
            raise ValueError("rim fraction must lie in (0, 1/2)")
        if self.method not in METHODS:
            raise ValueError(f"unknown threshold method {self.method!r}")


def threshold_level(n_x: int, c: float = 1.0) -> float:
    """Universal squared threshold 2*ln(n_x * (ln n_x)^c)."""
    if n_x < 2:
        raise ValueError("collection size must be >= 2")
    return 2.0 * math.log(n_x * math.log(n_x) ** c)


def make_partition(n: int, k: int = 8) -> RegionPartition:
    """lattice(n).partition(k): the centre square and K - 1 nested annuli."""
    return lattice(n).partition(k)


def _median(a: np.ndarray, scratch: np.ndarray | None = None, pairs: np.ndarray | None = None,
            finite: bool = False):
    """np.median of the multiset a + pairs + pairs (each cell of pairs
    counted twice) of 1-D float arrays, bit for bit, without building it.
    Without pairs this is one partition pivot and a max over the lower half
    (np.median partitions on two or three).  With pairs, of size p, the
    central ranks r1 <= r2 of the a.size + 2p cells lie between the pair
    order statistics lo = (r1 - a.size) // 2 and hi = r2 // 2, found by two
    single-pivot partitions; the pairs between them (twice) and the cells
    of a between their values are sorted, and the ranks read off.  a and
    pairs are copied into scratch (default: a new array) and keep their
    order for np.median itself, which decides a zero or NaN result: its
    partition order picks the sign of a zero and the payload of a NaN.
    With finite, a NaN or inf anywhere makes the result NaN."""
    pairs = a[:0] if pairs is None else pairs
    size = a.size + 2 * pairs.size
    part = np.empty(a.size + pairs.size) if scratch is None else scratch[: a.size + pairs.size]
    once, twice = part[: a.size], part[a.size :]
    np.copyto(once, a)
    np.copyto(twice, pairs)
    if size:
        r1, r2 = (size - 1) // 2, size // 2
        if not pairs.size:
            once.partition(r2)
            top = once[r2:].max()
            low, high = once[:r2].max() if r1 < r2 else once[r2], once[r2]
        else:
            lo, hi = max((r1 - a.size) // 2, 0), min(r2 // 2, pairs.size - 1)
            twice.partition(hi)
            if lo < hi:
                twice[:hi].partition(lo)
            top = np.maximum(twice[hi:].max(), once.max(initial=-np.inf))
            if not np.isnan(top):
                floor = twice[lo] if lo else -np.inf  # cells of a below it rank below every candidate
                ceil = twice[hi] if hi < pairs.size - 1 else np.inf
                cand = np.sort(np.concatenate([twice[lo : hi + 1], twice[lo : hi + 1],
                                               once[(once >= floor) & (once <= ceil)]]))
                skipped = 2 * lo + np.count_nonzero(once < floor)
                low, high = cand[r1 - skipped], cand[r2 - skipped]
        if not np.isfinite(top) and finite:
            return np.nan
        if not np.isnan(top) and (mid := high if r1 == r2 else (low + high) / 2) != 0:
            return mid
    return np.median(np.concatenate([a, pairs, pairs]) if pairs.size else a)


def _power(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """np.abs(values) ** 2, optionally into out."""
    out = np.abs(values, out=out)
    return np.square(out, out=out)


def _sigma4(power: np.ndarray, scratch: np.ndarray | None = None, pairs: np.ndarray | None = None) -> float:
    """The variance rule of every estimator: the median of power, squared
    standardized cells, plus each cell of pairs twice, / ln 2 (the median of
    a 1/2 chi^2_2 variable).  The median of an even cell count is the mean
    of the two central order statistics (numpy convention).  Any NaN or inf
    cell is rejected."""
    if power.size == 0 and (pairs is None or pairs.size == 0):
        raise ValueError("cannot estimate a variance from an empty region")
    sigma4 = float(_median(power, scratch, pairs, finite=True) / LN2)
    if not math.isfinite(sigma4):
        raise ValueError("variance estimate is not finite: the grid holds NaN or inf")
    return sigma4


def bias_correct(grid: AmbiguityGrid, sigma2_w: float) -> AmbiguityGrid:
    """Subtract the analytic-white-noise mean surface scaled by sigma2_w.
    The surface is conjugate-symmetric, so a conjugate-symmetric grid stays
    so exactly: its corrected tau < 0 rows are the _mirror_lags of its
    corrected tau > 0 rows, as SurvivorKernel.corrected builds them."""
    if grid.kind != "raw":
        raise ValueError("bias correction expects a raw grid")
    if sigma2_w < 0:
        raise ValueError("noise variance must be >= 0")
    values = grid.values - sigma2_w * lattice(grid.n).bias_basis
    if _conjugate_symmetric(grid.values):
        _mirror_lags(values, values[: grid.n - 1])
    return AmbiguityGrid(values, grid.n, "bias_corrected")


class SurvivorKernel:
    """The survivor pass of one ThresholdConfig on the lattice of n for the
    given methods, its buffers allocated once.  A cell survives iff
    |v|^2 > lam2 * sigma4_r * (N-|tau|) * w(nu), sigma4_r the _sigma4 of
    |standardized v|^2 over the cell's merged region of parts[method]: the
    one-region partition for teaf, part (default: the lattice's
    region_count partition) for lteaf and lbteaf.

    With half (for grids that are _conjugate_symmetric) and mirror-symmetric
    partitions, a pass reads and writes only the rows with tau >= 0, `rows`:
    each median counts a tau > 0 cell twice, once for its mirror, and keep
    holds the decisions of those rows only (the tau < 0 cell (-tau, -nu)
    shares the decision of (tau, nu)).  Otherwise rows is the whole plane.

    survive(values) takes a record's raw values and sets sigma2_w (the rim
    noise level sqrt(_sigma4 over the rim), lbteaf only), then sigma4[m]
    and keep[m] for teaf and lteaf.  corrected(values) writes values -
    sigma2_w * bias basis into ws[0], never into values unless they are
    ws[0], mirrors its tau < 0 rows when half, sets lbteaf's sigma4 and
    keep from it and returns it.

    ws is two complex grids, real one real grid; scratch views ws[1] as
    two real grids; a pass leaves |v|^2 in scratch[0], scratch[1] and real free.
    """

    def __init__(self, n: int, cfg: ThresholdConfig, methods, part: RegionPartition | None = None,
                 half: bool = True):
        cfg.validate()
        lat = lattice(n)
        self.n, self.lam2 = n, threshold_level(2 * n, cfg.c_exponent)
        local = [m for m in methods if m != "teaf"]
        if local and part is None:
            part = lat.partition(cfg.region_count)
        elif local and part.region_index.shape != lat.shape:
            raise ValueError("partition does not match the grid dimensions")
        self.parts = {m: part if m in local else lat.partition(1) for m in methods}
        # Tables are built here, before any buffer below is touched, so that
        # their temporaries do not add to the peak memory.
        self.half = half and all(p.half is not None for p in self.parts.values())
        self.rows = slice(n - 1 if self.half else 0, None)
        # method -> gather order and (first, first pair, end) of each region's cells in it
        self.segments = {m: p.half if self.half else p.segments for m, p in self.parts.items()}
        self.rim = lat.rim(cfg.rim_fraction)[self.rows] if "lbteaf" in methods else None
        if self.rim is not None:  # a row-major gather lists the tau = 0 cells, counted once, first
            self.rim_once = np.count_nonzero(self.rim[0] if self.half else self.rim)
        lat.inv_sqrt_base
        self.lags, self.w = (n - np.abs(lat.taus))[self.rows, None], lat.w  # base = lags * w, per pass
        self.basis = lat.bias_basis[self.rows] if self.rim is not None else None
        self.ws, self.real = np.empty((2,) + lat.shape, dtype=complex), np.empty(lat.shape)
        self.scratch = self.ws[1].view(float).reshape((2,) + lat.shape)
        self.keep = {m: np.empty(lat.shape, dtype=bool) for m in methods}
        self.sigma4, self.sigma2_w = {}, None

    def survive(self, values: np.ndarray) -> None:
        self._keep(values, "raw", [m for m in self.keep if m != "lbteaf"], self.rim)

    def corrected(self, values: np.ndarray) -> np.ndarray:
        rows, out = self.rows, self.ws[0]
        basis = np.multiply(self.sigma2_w, self.basis, out=self.ws[1][rows])
        np.subtract(values[rows], basis, out=out[rows])
        if self.half:
            _mirror_lags(out, out[: self.n - 1], self.ws[1][: self.n - 1])
        self._keep(out, "bias_corrected", ["lbteaf"])
        return out

    def _keep(self, values, kind, methods, rim=None) -> None:
        """Set sigma4 and keep of methods, sigma2_w given a rim; leave |values|^2 in scratch[0]."""
        std = standardize(AmbiguityGrid(values, self.n, kind), out=self.ws[1]).values
        rows = self.rows
        std_power = _power(std[rows], out=self.real[rows])
        power, thr = self.scratch[0][rows], self.scratch[1].ravel()
        for m in methods:
            order, segments = self.segments[m]
            flat = std_power.ravel()
            if order is not None:
                flat = np.take(flat, order, out=power.ravel(), mode="clip")
            self.sigma4[m] = np.array([_sigma4(flat[a:b], thr, flat[b:c]) for a, b, c in segments])
        if rim is not None:
            cells = std_power[rim]
            self.sigma2_w = math.sqrt(_sigma4(cells[: self.rim_once], thr, cells[self.rim_once :]))
        _power(values[rows], out=power)
        base = np.multiply(self.lags, self.w, out=self.real[rows]) if methods else None
        for m in methods:
            level = self.lam2 * self.sigma4[m]
            if level.size > 1:  # per cell; one region multiplies base by a scalar
                level = np.take(level, self.parts[m].merged[1][rows], out=self.scratch[1][rows], mode="clip")
            np.greater(power, np.multiply(base, level, out=self.scratch[1][rows]), out=self.keep[m][rows])


def threshold_with_details(
    grid: AmbiguityGrid,
    cfg: ThresholdConfig,
    part: RegionPartition | None = None,
) -> tuple[AmbiguityGrid, dict]:
    """Run the configured estimator once and return (grid, metadata).

    teaf uses one region covering the plane and ignores part; lteaf and
    lbteaf use the merged regions of part (default: make_partition(N,
    region_count)).  A conjugate-symmetric grid is decided on its rows with
    tau >= 0 (SurvivorKernel's half), each cell (-tau, -nu) sharing the
    decision of (tau, nu).  Metadata records the method, C, region count,
    rim fraction, the squared threshold level, the rim noise level sigma2_w
    (lbteaf only) and, per merged region, the sigma4 estimate used, the
    cell count, the survivor count and the annuli folded into it, ready
    for a JSON sidecar.  The input grid is never written.
    """
    if grid.kind != "raw":
        raise ValueError(f"{cfg.method} expects a raw grid")
    method, n = cfg.method, grid.n
    kernel = SurvivorKernel(n, cfg, (method,), part, half=_conjugate_symmetric(grid.values))
    kernel.survive(grid.values)
    values = kernel.corrected(grid.values) if method == "lbteaf" else grid.values
    meta = {"method": method, **vars(cfg), "lambda2": kernel.lam2, "n": n}
    if method == "lbteaf":
        meta["sigma2_w"] = kernel.sigma2_w
    keep = kernel.keep[method]
    if kernel.half:
        _flip_lags(keep, keep[: n - 1])
    labels, cell_region, _, bounds = kernel.parts[method].merged
    survivors = np.bincount(cell_region[keep], minlength=len(labels))
    meta.update(
        sigma4={str(r): float(s) for r, s in zip(labels, kernel.sigma4[method])},
        cells={str(r): hi - lo for r, lo, hi in zip(labels, bounds, bounds[1:])},
        survivors={str(r): int(c) for r, c in zip(labels, survivors)},
        merged={str(r): folded for r, folded in kernel.parts[method].folded.items()},
    )
    del kernel  # its buffers go before the output grid is allocated
    return AmbiguityGrid(np.where(keep, values, 0.0), grid.n, "thresholded"), meta


def teaf(grid: AmbiguityGrid, cfg: ThresholdConfig = ThresholdConfig()) -> AmbiguityGrid:
    """Thresholded empirical AF with one global variance estimate."""
    return threshold_with_details(grid, replace(cfg, method="teaf"))[0]


def lteaf(
    grid: AmbiguityGrid,
    part: RegionPartition | None = None,
    cfg: ThresholdConfig = ThresholdConfig(),
) -> AmbiguityGrid:
    """Thresholded empirical AF with region-local variance estimates."""
    return threshold_with_details(grid, replace(cfg, method="lteaf"), part)[0]


def lbteaf(
    grid: AmbiguityGrid,
    part: RegionPartition | None = None,
    cfg: ThresholdConfig = ThresholdConfig(),
) -> AmbiguityGrid:
    """Bias-corrected, region-locally thresholded empirical AF.

    The noise level is estimated from the rim of the plane (far from the
    low-|tau| support of typical signals), the noise-induced mean is
    subtracted, and the corrected grid is thresholded with per-region
    variances recomputed from itself.
    """
    return threshold_with_details(grid, replace(cfg, method="lbteaf"), part)[0]
