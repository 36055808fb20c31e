"""Empirical ambiguity function on the standard lattice.

The empirical ambiguity function (EMAF) of a length-N complex sample x is

    A(nu, tau] = sum_{t=max(0,tau)}^{N-1+min(0,tau)} x[t] x*[t-tau] e^{-j 2 pi nu t}

evaluated on a fixed (nu, tau) lattice: rows index the time lag
tau = m - (N-1) for m = 0..2N-2, columns index the local frequency
nu = (k - N) / (2N) for k = 0..2N-1, i.e. nu covers [-1/2, 1/2) and the grid
has shape (2N-1, 2N) -- 511 x 512 for N = 256.  Lag products are zero-padded
(no circular extension) and each row is evaluated with one length-2N FFT.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "GRID_KINDS",
    "AmbiguityGrid",
    "compute_emaf",
    "standardization_base",
    "standardize",
    "to_db",
]

GRID_KINDS = ("raw", "standardized", "thresholded", "bias_corrected", "reference")

DB_CLAMP_FLOOR = 1e-15  # inputs below this clamp to -300 dB
DB_FLOOR = -300.0


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
        expected = (2 * self.n - 1, 2 * self.n)
        if self.values.shape != expected:
            raise ValueError(
                f"grid shape {self.values.shape} does not match n={self.n} "
                f"(expected {expected})"
            )

    @property
    def shape(self):
        return self.values.shape

    def tau_values(self) -> np.ndarray:
        return np.arange(-(self.n - 1), self.n)

    def nu_values(self) -> np.ndarray:
        return (np.arange(2 * self.n) - self.n) / (2.0 * self.n)


def compute_emaf(x, workspace: np.ndarray | None = None) -> AmbiguityGrid:
    """Empirical ambiguity function of a complex sample, kind="raw".

    For each lag tau the product sequence m_tau[t] = x[t] x*[t-tau] is laid
    out on t = 0..N-1 (zero outside the valid range), zero-padded to length
    2N and transformed; FFT bin q lands in column k = (q + N) mod 2N so that
    columns run over nu = (k-N)/(2N) in increasing order.

    workspace, a complex (2, 2N-1, 2N) array, lends the two buffers the
    computation needs so that repeated calls allocate nothing: the result
    views workspace[0] and is overwritten by the next call, and
    workspace[1] is left free as scratch.  Without one, fresh buffers are
    allocated.
    """
    x = np.asarray(x, dtype=complex)
    n = x.size
    if n < 2:
        raise ValueError("need at least two samples")
    shape = (2 * n - 1, 2 * n)
    if workspace is None:
        rows, spectrum = np.zeros(shape, dtype=complex), np.empty(shape, dtype=complex)
    elif workspace.shape != (2,) + shape or workspace.dtype != complex:
        raise ValueError(f"EMAF workspace must be complex with shape {(2,) + shape}")
    else:
        rows, spectrum = workspace
        rows.fill(0)
    conj = np.conj(x)
    for m in range(2 * n - 1):
        tau = m - (n - 1)
        if tau >= 0:
            rows[m, tau:n] = x[tau:] * conj[: n - tau]
        else:
            rows[m, : n + tau] = x[: n + tau] * conj[-tau:]
    np.fft.fft(rows, axis=1, out=spectrum)
    # fftshift by a half-swap: bins q >= N hold the negative frequencies
    rows[:, :n] = spectrum[:, n:]
    rows[:, n:] = spectrum[:, :n]
    return AmbiguityGrid(rows, n, "raw")


@lru_cache(maxsize=8)
def standardization_base(n: int) -> np.ndarray:
    """Variance profile (N-|tau|) * w(nu) of the flat-spectrum reference.

    w(nu) = 1/2 - |nu| except at the single nu = -1/2 column, where the
    weight would vanish; there it is floored at half the cell width 1/(4N).
    """
    taus = np.arange(-(n - 1), n)
    nus = (np.arange(2 * n) - n) / (2.0 * n)
    w = 0.5 - np.abs(nus)
    w[0] = 1.0 / (4.0 * n)
    base = np.outer(n - np.abs(taus), w)
    base.flags.writeable = False
    return base


def standardize(grid: AmbiguityGrid) -> AmbiguityGrid:
    """Divide each cell by sqrt((N-|tau|) * w(nu)), kind="standardized".

    Under a flat one-sided spectrum the standardized cells have constant
    variance, which is what the median-based variance estimators rely on.
    Accepts raw or bias-corrected grids.
    """
    if grid.kind not in ("raw", "bias_corrected"):
        raise ValueError("standardize expects a raw or bias-corrected grid")
    den = np.sqrt(standardization_base(grid.n))
    return AmbiguityGrid(grid.values / den, grid.n, "standardized")


def to_db(grid, mode: str = "amplitude") -> np.ndarray:
    """Decibel display transform of a grid.

    amplitude mode: 20*log10(|v|) of a complex grid; power mode:
    10*log10(v) of a real nonnegative grid.  Inputs with magnitude below
    1e-15 clamp to -300 dB.
    """
    values = grid.values if isinstance(grid, AmbiguityGrid) else np.asarray(grid)
    if mode == "amplitude":
        mag = np.abs(values)
    elif mode == "power":
        if np.iscomplexobj(values):
            values = values.real
        if np.any(values < 0):
            raise ValueError("power mode requires a nonnegative real grid")
        mag = values
    else:
        raise ValueError(f"unknown dB mode {mode!r}")
    out = np.full(mag.shape, DB_FLOOR)
    ok = mag >= DB_CLAMP_FLOOR
    factor = 20.0 if mode == "amplitude" else 10.0
    out[ok] = factor * np.log10(mag[ok])
    return out
