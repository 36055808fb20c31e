"""Hard-threshold estimators of the ambiguity function.

Three estimators share one rule: a cell v survives iff |v|^2 > lambda^2 *
sigma4 * (N-|tau|) * w(nu), applied as |s|^2 > lambda^2 * sigma4 to the
standardized cell s = v / sqrt((N-|tau|) * w(nu)).  lambda^2 is the universal
level 2*ln(N_X * (ln N_X)^C), N_X twice the number of observations (Donoho &
Johnstone, Biometrika 1994); sigma4 is a robust variance estimate, the median
of |s|^2 over ln 2 (the median of a 1/2*chi^2_2 variable).

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
from .emaf import _conjugate_symmetric, _flip_lags, _mirror_lags, _tiles, _unfold
from .sigcore import _check_integer

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
        _check_integer("region count", self.region_count)
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


def _median(a, scratch: np.ndarray | None = None, pairs=(), finite: bool = False):
    """np.median of the cells of the blocks a and, twice each, of the blocks
    pairs (sequences of float arrays), bit for bit, without building that
    multiset: the blocks are copied in order into scratch (default: a new
    array).  The central ranks r1 <= r2 lie in one bracket block body whose
    cells count m times each: the pairs (m = 2; the cells of a are the rest)
    or, without pairs, the cells of a (m = 1; no rest).  Two single-pivot
    partitions find body's order statistics lo = (r1 - cells of rest) // m
    and hi = r2 // m; body[lo:hi+1], m times, and the rest cells between
    their values are sorted, and the ranks read off.  A zero or NaN result is
    np.median's of the blocks a, pairs, pairs in order, whose partition picks
    the sign of a zero and the payload of a NaN.  With finite, a NaN or +inf
    anywhere makes the result NaN."""
    once_size, pair_size = sum(b.size for b in a), sum(b.size for b in pairs)
    size, m = once_size + 2 * pair_size, 2 if pair_size else 1
    part = np.empty(once_size + pair_size) if scratch is None else scratch[: once_size + pair_size]
    for block, at in zip((*a, *pairs), np.cumsum([0, *(b.size for b in (*a, *pairs))]).tolist()):
        np.copyto(part[at : at + block.size].reshape(block.shape), block)
    rest, body = part[: once_size * (m - 1)], part[once_size * (m - 1) :]  # no rest without pairs
    if size:
        r1, r2 = (size - 1) // 2, size // 2
        lo, hi = max((r1 - rest.size) // m, 0), min(r2 // m, body.size - 1)
        body.partition(hi)
        if lo < hi:
            body[:hi].partition(lo)
        top = np.maximum(body[hi:].max(), rest.max(initial=-np.inf))
        if not np.isnan(top):
            floor = body[lo] if lo else -np.inf  # rest cells below it rank below every candidate
            ceil = body[hi] if hi < body.size - 1 else np.inf
            cand = np.sort(np.concatenate([body[lo : hi + 1]] * m + [rest[(rest >= floor) & (rest <= ceil)]]))
            skipped = m * lo + np.count_nonzero(rest < floor)
            low, high = cand[r1 - skipped], cand[r2 - skipped]
        if not np.isfinite(top) and finite:
            return np.nan
        if not np.isnan(top) and (mid := high if r1 == r2 else (low + high) / 2) != 0:
            return mid
    return np.median(np.concatenate([b.ravel() for b in (*a, *pairs, *pairs)]))


def _power(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """np.abs(values) ** 2, optionally into out."""
    out = np.abs(values, out=out)
    return np.square(out, out=out)


def _sigma4(power, scratch: np.ndarray | None = None, pairs=()) -> float:
    """The variance rule of every estimator: the _median of the blocks power,
    squared standardized cells, plus each cell of the blocks pairs twice,
    / ln 2 (the median of a 1/2 chi^2_2 variable).  The median of an even
    cell count is the mean of the two central order statistics (numpy
    convention).  Any NaN or inf cell is rejected."""
    if not any(b.size for b in (*power, *pairs)):
        raise ValueError("cannot estimate a variance from an empty region")
    sigma4 = float(_median(power, scratch, pairs, finite=True) / LN2)
    if not math.isfinite(sigma4):
        raise ValueError("variance estimate is not finite: the grid holds NaN or inf")
    return sigma4


def bias_correct(grid: AmbiguityGrid, sigma2_w: float) -> AmbiguityGrid:
    """Subtract the analytic-white-noise mean surface scaled by sigma2_w.
    It is zero off the Lattice.bias rows and conjugate-symmetric, so a
    conjugate-symmetric grid stays so exactly: it is corrected on its rows
    with tau >= 0 alone, from the table lbteaf's kernel reads, and its tau < 0
    rows are the _mirror_lags of its corrected tau > 0 rows."""
    if grid.kind != "raw":
        raise ValueError("bias correction expects a raw grid")
    if sigma2_w < 0:
        raise ValueError("noise variance must be >= 0")
    n, values = grid.n, grid.values.copy()
    first = n - 1 if _conjugate_symmetric(grid.values) else 0
    for rows, basis in lattice(n).bias(first):
        values[first:][rows] -= sigma2_w * basis
    if first:
        _mirror_lags(values, values[: n - 1])
    return AmbiguityGrid(values, n, "bias_corrected")


class SurvivorKernel:
    """The survivor pass of one ThresholdConfig on the lattice of n for the
    given methods, its buffers allocated once.  A cell survives iff its
    standardized power |s|^2 exceeds lam2 * sigma4_r, sigma4_r the _sigma4
    of |s|^2 over the cell's merged region of parts[method]: the one-region
    partition for teaf, part (default: the lattice's region_count
    partition) for lteaf and lbteaf.

    With half (for grids that are _conjugate_symmetric) and mirror-symmetric
    partitions, a pass reads and writes only the rows with tau >= 0, `rows`,
    and never computes a tau < 0 row: it standardizes those rows alone, each
    median counts a tau > 0 cell twice, once for its mirror, and keep
    holds the decisions of those rows only (the tau < 0 cell (-tau, -nu)
    shares the decision of (tau, nu)).  Otherwise rows is the whole plane,
    which survive standardizes into ws[1] as well, its tau < 0 rows by inv.
    Medians read their region's (and the rim's) _tiles, block by block; keep is
    one compare per row band, against its per-column levels or its one level.

    survive(values) takes a record's raw values, keeps their |s|^2 in real
    and sets sigma2_w (the rim noise level sqrt(_sigma4 over the rim),
    lbteaf only), then sigma4[m] and keep[m] for teaf and lteaf.
    corrected(values), given survive's values, writes the rows of values -
    sigma2_w * bias basis into ws[0] (in place when values is ws[0], else
    copied first), recomputes |s|^2 on the Lattice.bias rows alone, sets
    lbteaf's sigma4 and keep and returns ws[0], its tau < 0 rows as they
    were when half.

    ws is two complex grids (ws[0] receives the EMAF), real one real grid;
    scratch views ws[1][rows], free between passes, as two real grids shaped
    as real[rows]: a pass's medians go in scratch[0], a trial's errors in [1].
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
        elif local and part.region_count != cfg.region_count:
            raise ValueError(f"partition has {part.region_count} regions, the config {cfg.region_count}")
        self.parts = {m: part if m in local else lat.partition(1) for m in methods}
        # Tables are built here, before any buffer below is touched, so that
        # their temporaries do not add to the peak memory.
        self.half = half and all(p.half is not None for p in self.parts.values())
        self.rows = rows = slice(n - 1 if self.half else 0, None)
        tiles = {m: p.half if self.half else _tiles(p.merged[1], len(p.merged[0]), False)
                 for m, p in self.parts.items()}
        rim = _tiles(lat.rim(cfg.rim_fraction)[rows], 2, self.half)[1] if "lbteaf" in methods else None
        self.inv = lat.inv_sqrt_base if self.half else _unfold(lat.inv_sqrt_base)  # 1 / sqrt(base) on rows
        if rim:  # per Lattice.bias slice: its rows in rows, their bias basis and 1 / sqrt(base)
            self.bias = [(b, basis, self.inv[b]) for b, basis in lat.bias(rows.start)]
        self.ws, self.real = np.empty((2,) + lat.shape, dtype=complex), np.empty(lat.shape)
        self.scratch = self.ws[1][rows].view(float).reshape((2,) + self.real[rows].shape)
        self.keep = {m: np.empty(lat.shape, dtype=bool) for m in methods}
        power = self.real[rows]
        # method -> per region, (once, pairs) views of its tiles in real; per row band, (rows, labels)
        self.regions = {m: [([power[t] for t in once], [power[t] for t in pairs]) for once, pairs in tiles[m]]
                        for m in methods}
        bands = {m: sorted({(t.start, t.stop) for region in tiles[m] for t, _ in sum(region, [])}) for m in tiles}
        self.bands = {m: [(slice(*b), row if np.ptp(row) else row[:1]) for b in bands[m]
                          for row in [self.parts[m].merged[1][rows][b[0]]]] for m in bands}
        self.rim = None if rim is None else tuple([power[t] for t in part] for part in rim)
        self.sigma4, self.sigma2_w = {}, None

    def survive(self, values: np.ndarray) -> None:
        std = standardize(AmbiguityGrid(values, self.n), out=self.ws[1]).values
        if not self.half:  # standardize filled the rows with tau >= 0 alone
            np.multiply(values[: self.n - 1], self.inv[: self.n - 1], out=std[: self.n - 1])
        _power(std[self.rows], out=self.real[self.rows])
        self._decide([m for m in self.keep if m != "lbteaf"], self.rim)

    def corrected(self, values: np.ndarray) -> np.ndarray:
        rows, out = self.rows, self.ws[0]
        if not np.may_share_memory(values, out):
            np.copyto(out[rows], values[rows])
        corrected, temp, power = out[rows], self.ws[1][rows], self.real[rows]
        for b, basis, inv in self.bias:
            np.subtract(corrected[b], np.multiply(self.sigma2_w, basis, out=temp[b]), out=corrected[b])
            _power(np.multiply(corrected[b], inv, out=temp[b]), out=power[b])
        self._decide(["lbteaf"])
        return out

    def _decide(self, methods, rim=None) -> None:
        """Set sigma4 and keep of methods from real's |s|^2, sigma2_w given the rim."""
        thr, power = self.scratch[0].reshape(-1), self.real[self.rows]
        for m in methods:
            self.sigma4[m] = np.array([_sigma4(once, thr, pairs) for once, pairs in self.regions[m]])
            level, keep = self.lam2 * self.sigma4[m], self.keep[m][self.rows]
            for b, labels in self.bands[m]:
                np.greater(power[b], level[labels], out=keep[b])
        if rim is not None:
            self.sigma2_w = math.sqrt(_sigma4(rim[0], thr, rim[1]))


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
    if method == "lbteaf" and kernel.half:  # the corrected grid stays exactly conjugate-symmetric
        _mirror_lags(values, values[: n - 1])
    meta = {"method": method, **vars(cfg), "lambda2": kernel.lam2, "n": n}
    if method == "lbteaf":
        meta["sigma2_w"] = kernel.sigma2_w
    keep = kernel.keep[method]
    if kernel.half:
        _flip_lags(keep, keep[: n - 1])
    labels, cell_region, bounds = kernel.parts[method].merged
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
