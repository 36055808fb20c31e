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
    def merged_regions(self) -> tuple:
        """(label, boolean cell mask) per region, ascending, after folding
        regions with < MIN_REGION_CELLS cells outward into their neighbour
        (inward for the outermost).  Built once per partition."""
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
        labels = target[idx]
        regions = tuple((r, labels == r) for r in remaining)
        for _, mask in regions:
            mask.flags.writeable = False
        return regions


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
    idx = np.minimum(k - 1, np.floor(k * ratio).astype(int))
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


def estimate_sigma4(std_grid: AmbiguityGrid, mask: np.ndarray) -> float:
    """Robust variance estimate: median of |standardized|^2 over mask / ln 2.

    The median of an even cell count is the mean of the two central order
    statistics (numpy convention).
    """
    if std_grid.kind != "standardized":
        raise ValueError("variance estimation expects a standardized grid")
    cells = np.abs(std_grid.values[mask]) ** 2
    if cells.size == 0:
        raise ValueError("cannot estimate a variance from an empty region")
    return float(np.median(cells) / LN2)


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
    out = grid.values - sigma2_w * _bias_basis(grid.n)
    return AmbiguityGrid(out, grid.n, "bias_corrected")


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
        rim = rim_region(n, cfg.rim_fraction)
        meta["sigma2_w"] = math.sqrt(estimate_sigma4(standardize(grid), rim))
        grid = bias_correct(grid, meta["sigma2_w"])
    std_abs2 = np.abs(standardize(grid).values) ** 2
    sigma4, cells, survivors = {}, {}, {}
    sigma4_cells = np.empty(grid.shape)
    for r, mask in part.merged_regions:
        sigma4_cells[mask] = sigma4[str(r)] = float(np.median(std_abs2[mask]) / LN2)
        cells[str(r)] = int(np.count_nonzero(mask))
    keep = np.abs(grid.values) ** 2 > lam2 * sigma4_cells * standardization_base(n)
    for r, mask in part.merged_regions:
        survivors[str(r)] = int(np.count_nonzero(keep & mask))
    meta.update(sigma4=sigma4, cells=cells, survivors=survivors)
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
