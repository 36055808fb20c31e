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
from functools import cached_property, lru_cache

import numpy as np

from .emaf import AmbiguityGrid, standardization_base, standardize
from .sigcore import dirichlet, normalized_sinc

__all__ = [
    "MIN_REGION_CELLS",
    "RegionPartition",
    "ThresholdConfig",
    "bias_correct",
    "estimate_sigma4",
    "lbteaf",
    "lteaf",
    "make_partition",
    "rim_region",
    "teaf",
    "threshold_level",
    "threshold_with_details",
]

LN2 = math.log(2.0)

# Medians over fewer cells than this are too unstable to act as a local
# variance estimate; such regions are merged outward.
MIN_REGION_CELLS = 16

_BOUNDARY_EPS = 1e-9


@dataclass(frozen=True)
class ThresholdConfig:
    """Threshold exponent C >= 1, annulus count, rim width and method tag."""

    c_exponent: float = 1.0
    region_count: int = 8
    rim_fraction: float = 0.1
    method: str = "teaf"

    def validate(self) -> None:
        if self.c_exponent < 1.0:
            raise ValueError("threshold exponent must be >= 1")
        if self.region_count < 1:
            raise ValueError("need at least one region")
        if not 0.0 < self.rim_fraction < 0.5:
            raise ValueError("rim fraction must lie in (0, 1/2)")
        if self.method not in ("teaf", "lteaf", "lbteaf"):
            raise ValueError(f"unknown threshold method {self.method!r}")


@dataclass(frozen=True)
class RegionPartition:
    """Assignment of every grid cell to one of region_count annuli."""

    region_count: int
    region_index: np.ndarray

    def cells_in(self, k: int) -> int:
        return int(np.count_nonzero(self.region_index == k))

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
        cell_region = position[target][idx]
        bounds = tuple(int(b) for b in np.cumsum([0, *counts[remaining]]))
        order = None
        if len(remaining) > 1:
            order = np.argsort(cell_region.ravel(), kind="stable").astype(np.int32)
            order.flags.writeable = False
        cell_region.flags.writeable = False
        return tuple(remaining), cell_region, order, bounds


def threshold_level(n_x: int, c: float = 1.0) -> float:
    """Universal squared threshold 2*ln(n_x * (ln n_x)^c)."""
    if n_x < 2:
        raise ValueError("collection size must be >= 2")
    return 2.0 * math.log(n_x * math.log(n_x) ** c)


def _maxnorm_ratio(n: int, eps: float = 0.0) -> np.ndarray:
    taus = np.arange(-(n - 1), n)
    nus = (np.arange(2 * n) - n) / (2.0 * n)
    r_tau = np.abs(taus) / (n - 1.0 + eps)
    r_nu = np.abs(nus) / (0.5 + eps)
    return np.maximum(r_tau[:, None], r_nu[None, :])


@lru_cache(maxsize=8)
def make_partition(n: int, k: int = 8) -> RegionPartition:
    """Centre square plus nested square annuli of equal max-norm width.

    Cell (nu, tau) falls in region floor(K * max(|nu|/(1/2), |tau|/(N-1)))
    capped at K-1; boundary cells stay in the inner region.  Cached per
    (N, K), so the merged region masks are built once.
    """
    if k < 1:
        raise ValueError("need at least one region")
    ratio = _maxnorm_ratio(n, eps=_BOUNDARY_EPS)
    idx = np.minimum(k - 1, np.floor(k * ratio)).astype(np.min_scalar_type(-k))
    idx.flags.writeable = False
    return RegionPartition(k, idx)


@lru_cache(maxsize=8)
def rim_region(n: int, rim_fraction: float) -> np.ndarray:
    """Boolean mask of the outer rim band of the ambiguity plane."""
    if not 0.0 < rim_fraction < 0.5:
        raise ValueError("rim fraction must lie in (0, 1/2)")
    mask = _maxnorm_ratio(n) >= 1.0 - rim_fraction
    mask.flags.writeable = False
    return mask


def _median(a: np.ndarray, scratch: np.ndarray | None = None):
    """np.median of a 1-D float array, bit for bit, from one partition pivot
    and a max over the lower half (np.median partitions on two or three).
    a is copied into scratch (default: a new array) and keeps its order for
    np.median itself, which decides a zero or NaN result: its partition
    order picks the sign of a zero and the payload of a NaN."""
    part = np.empty_like(a) if scratch is None else scratch[: a.size]
    np.copyto(part, a)
    if a.size:
        k = a.size // 2
        part.partition(k)
        mid = part[k] if a.size % 2 else (part[:k].max() + part[k]) / 2
        if mid != 0 and not np.isnan(part[k:].max()):
            return mid
    return np.median(a)


def _power(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """np.abs(values) ** 2, optionally into out."""
    out = np.abs(values, out=out)
    return np.square(out, out=out)


def estimate_sigma4(std_grid: AmbiguityGrid, mask: np.ndarray) -> float:
    """Robust variance estimate: median of |standardized|^2 over mask / ln 2.

    The median of an even cell count is the mean of the two central order
    statistics (numpy convention).
    """
    if std_grid.kind != "standardized":
        raise ValueError("variance estimation expects a standardized grid")
    cells = _power(std_grid.values[mask])
    if cells.size == 0:
        raise ValueError("cannot estimate a variance from an empty region")
    return float(_median(cells) / LN2)


def _rim_sigma2(std_power: np.ndarray, rim_fraction: float) -> float:
    """lbteaf's noise level sigma2_w = sqrt(median of std_power, the squared
    standardized grid, over the rim / ln 2)."""
    rim = std_power[rim_region(std_power.shape[1] // 2, rim_fraction)]
    sigma4 = float(_median(rim) / LN2)
    if not math.isfinite(sigma4):
        raise ValueError("rim noise estimate is not finite: the grid holds NaN or inf")
    return math.sqrt(sigma4)


def _region_sigma4(std_power, part, scratch=None) -> np.ndarray:
    """sigma4 per merged region of part: the median of std_power, the
    squared standardized grid, over the region / ln 2.  scratch (two real
    grids) is overwritten."""
    _, _, order, bounds = part.merged
    scratch = np.empty((2,) + std_power.shape) if scratch is None else scratch
    flat = std_power.ravel()
    if order is not None:
        flat = np.take(flat, order, out=scratch[0].ravel(), mode="clip")
    medians = [_median(flat[lo:hi], scratch[1].ravel()) for lo, hi in zip(bounds, bounds[1:])]
    sigma4 = np.array(medians) / LN2
    if not np.isfinite(sigma4).all():
        raise ValueError("region variance estimate is not finite: the grid holds NaN or inf")
    return sigma4


def _survivors(power, sigma4, part, lam2, keep=None, thr=None) -> np.ndarray:
    """The survivor rule: a cell survives iff power = |v|^2 > lam2 * sigma4_r
    * (N-|tau|) * w(nu), sigma4_r from _region_sigma4 for the cell's merged
    region.  keep (boolean) and thr (real) grids are overwritten."""
    thr = np.take(lam2 * sigma4, part.merged[1], out=thr, mode="clip")
    np.multiply(thr, standardization_base(power.shape[1] // 2), out=thr)
    return np.greater(power, thr, out=keep)


@lru_cache(maxsize=8)
def _bias_basis(n: int) -> np.ndarray:
    # Unit-variance mean surface of analytic white noise:
    # (1/2) e^{-j pi nu (N+tau-1)} D_{N-|tau|}(nu) e^{j pi tau/2} sinc(tau/2).
    taus = np.arange(-(n - 1), n, dtype=float)[:, None]
    nus = ((np.arange(2 * n) - n) / (2.0 * n))[None, :]
    sinc_half = normalized_sinc(taus / 2.0)
    # the sinc of a nonzero integer is exactly zero; floats leave ~1e-16
    sinc_half[(taus % 2 == 0) & (taus != 0)] = 0.0
    basis = (
        0.5
        * np.exp(-1j * np.pi * nus * (n + taus - 1.0))
        * dirichlet(n - np.abs(taus), nus)
        * np.exp(1j * np.pi * taus / 2.0)
        * sinc_half
    )
    basis.flags.writeable = False
    return basis


def bias_correct(grid: AmbiguityGrid, sigma2_w: float) -> AmbiguityGrid:
    """Subtract the analytic-white-noise mean surface scaled by sigma2_w."""
    if grid.kind != "raw":
        raise ValueError("bias correction expects a raw grid")
    if sigma2_w < 0:
        raise ValueError("noise variance must be >= 0")
    return AmbiguityGrid(_subtract_bias(grid.values, sigma2_w), grid.n, "bias_corrected")


def _subtract_bias(values, sigma2_w, out=None, tmp=None) -> np.ndarray:
    """values - sigma2_w * bias basis, optionally into out with tmp as the
    complex scratch grid for the scaled basis."""
    basis = np.multiply(sigma2_w, _bias_basis(values.shape[1] // 2), out=tmp)
    return np.subtract(values, basis, out=out)


def threshold_with_details(
    grid: AmbiguityGrid,
    cfg: ThresholdConfig,
    part: RegionPartition | None = None,
) -> tuple[AmbiguityGrid, dict]:
    """Run the configured estimator once and return (grid, metadata).

    teaf uses one region covering the plane and ignores part; lteaf and
    lbteaf use the merged regions of part (default: make_partition(N,
    region_count)).  Metadata records the method, C, region count, rim
    fraction, the squared threshold level, the rim noise level sigma2_w
    (lbteaf only) and, per merged region, the sigma4 estimate used, the
    cell count and the survivor count, ready for a JSON sidecar.
    """
    cfg.validate()
    if grid.kind != "raw":
        raise ValueError(f"{cfg.method} expects a raw grid")
    n = grid.n
    if cfg.method == "teaf":
        part = make_partition(n, 1)
    elif part is None:
        part = make_partition(n, cfg.region_count)
    elif part.region_index.shape != grid.shape:
        raise ValueError("partition does not match the grid dimensions")
    lam2 = threshold_level(2 * n, cfg.c_exponent)
    meta = {"method": cfg.method, **vars(cfg), "lambda2": lam2, "n": n}
    if cfg.method == "lbteaf":
        meta["sigma2_w"] = _rim_sigma2(_power(standardize(grid).values), cfg.rim_fraction)
        grid = bias_correct(grid, meta["sigma2_w"])
    sigma4 = _region_sigma4(_power(standardize(grid).values), part)
    keep = _survivors(_power(grid.values), sigma4, part, lam2)
    labels, cell_region, _, bounds = part.merged
    survivors = np.bincount(cell_region[keep], minlength=len(labels))
    meta.update(
        sigma4={str(r): float(s) for r, s in zip(labels, sigma4)},
        cells={str(r): hi - lo for r, lo, hi in zip(labels, bounds, bounds[1:])},
        survivors={str(r): int(c) for r, c in zip(labels, survivors)},
    )
    return AmbiguityGrid(np.where(keep, grid.values, 0.0), n, "thresholded"), meta


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
