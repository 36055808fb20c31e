"""Ambiguity indicator cells and the total-spread estimator.

The spread of an estimated ambiguity surface is the fraction of cells in a
region where the estimate is nonzero.  Zero tests are exact (== 0):
thresholding and the reference constructors write literal zeros, so no
second tolerance is involved.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .emaf import AmbiguityGrid, lattice

__all__ = ["SpreadReport", "indicator", "lag_band", "total_spread"]


@dataclass(frozen=True)
class SpreadReport:
    total_spread: float
    nonzero_cells: int
    region_cells: int
    region_desc: str = "all"

    def to_dict(self) -> dict:
        return asdict(self)


def indicator(grid: AmbiguityGrid) -> np.ndarray:
    """Boolean grid marking cells with exactly nonzero magnitude."""
    if grid.kind not in ("thresholded", "reference"):
        raise ValueError(f"indicator expects a thresholded or reference grid, got kind={grid.kind}")
    return grid.values != 0


def lag_band(n: int, tau0: int) -> np.ndarray:
    """Region mask selecting the single lag row tau = tau0."""
    lat = lattice(n)
    if abs(tau0) > n - 1:
        raise ValueError("lag outside the grid")
    mask = np.zeros(lat.shape, dtype=bool)
    mask[lat.taus == tau0] = True
    return mask


def total_spread(mask: np.ndarray, region="all") -> SpreadReport:
    """Fraction of region cells that are marked in mask.

    region may be "all" (the full plane) or a boolean mask of the same
    shape selecting an arbitrary cell set, e.g. :func:`lag_band`.
    """
    mask = np.asarray(mask, dtype=bool)
    if isinstance(region, str):
        if region != "all":
            raise ValueError(f"unknown region {region!r}")
        nonzero = int(np.count_nonzero(mask))
        cells = int(mask.size)
        desc = "all"
    else:
        region = np.asarray(region, dtype=bool)
        if region.shape != mask.shape:
            raise ValueError("region mask shape mismatch")
        cells = int(np.count_nonzero(region))
        if cells == 0:
            raise ValueError("empty region")
        nonzero = int(np.count_nonzero(mask & region))
        desc = "custom"
    return SpreadReport(nonzero / cells, nonzero, cells, desc)
