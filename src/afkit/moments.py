"""Closed-form moments of the empirical ambiguity function, and sparse
finite-sample reference grids for the benchmark processes.

The moment formulas give the mean, variance and relation (pseudo-variance)
of the EMAF at a single (nu, tau) cell for three model classes:

* a deterministic analytic signal in analytic white noise,
* a stationary analytic process described by its autocorrelation and
  spectral density,
* uniformly modulated white noise described by the transform of its
  time-varying variance.

A fourth route covers any strictly underspread process through its
dual-time second moment table.  All spectral integrals use trapezoidal
quadrature on DEFAULT_GRID_SIZE = 2^14 uniform intervals; finite-sample
O(1) remainder terms are omitted from the returned values, so ensemble
comparisons should use statistical tolerances.

The reference grids ("expected ambiguity surface restricted to the true
support") serve as ground truth for mean-square-error benchmarking.
naf_for_process places the reference_lines of a process spec (each spec in
sigcore defines its own) on the lattice.  Each grid is held as its support
in the rows with tau >= 0 and, like every EMAF, is conjugate-symmetric bit
for bit by construction: its tau < 0 rows are the emaf._mirror_lags of its
tau > 0 rows, so scores fold onto tau >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .emaf import AmbiguityGrid, _fold, _mirror_lags, _unfold, lattice
from .sigcore import DEFAULT_GRID_SIZE, ProcessSpec, _ma_band, _quad, dirichlet, ma_real_spectral_density
from .sigcore import white_noise_mean

__all__ = [
    "DEFAULT_GRID_SIZE",
    "MomentTriple",
    "NAFReference",
    "SpectrumTable",
    "l_value",
    "ma_analytic_autocorr",
    "ma_analytic_spectrum",
    "ma_dual_time_table",
    "ma_real_spectral_density",
    "naf_for_process",
    "prop1_moments",
    "prop2_moments",
    "prop3_moments",
    "um_modulation_spectrum",
    "underspread_relation",
    "underspread_variance",
    "variance_from_af",
]

_MIN_GRID_SIZE = 2**12


@dataclass(frozen=True)
class MomentTriple:
    """Mean, variance and relation of the EMAF at one (nu, tau) cell."""

    mean: complex
    variance: float
    relation: complex

    def __post_init__(self):
        if not np.all(np.isfinite([self.mean, self.variance, self.relation])):
            raise ValueError("mean, variance and relation must be finite")
        if self.variance < 0:
            raise ValueError("variance must be nonnegative")
        if abs(self.relation) > self.variance * (1.0 + 1e-6) + 1e-12:
            raise ValueError("relation magnitude exceeds the variance")


@dataclass(frozen=True)
class SpectrumTable:
    """Spectral values on a uniform grid of grid_size intervals over
    [f_start, f_stop]; zero outside.  grid_size must be a power of two
    >= 2^12 so quadrature against these tables stays well resolved."""

    values: np.ndarray
    f_start: float
    f_stop: float

    def __post_init__(self):
        if np.ndim(self.values) != 1:
            raise ValueError("spectrum values must be a 1-D array")
        if not (np.all(np.isfinite([self.f_start, self.f_stop])) and self.f_start < self.f_stop):
            raise ValueError("spectrum support needs finite f_start < f_stop")
        q = self.grid_size
        if q < _MIN_GRID_SIZE or q & (q - 1):
            raise ValueError("grid_size must be a power of two >= 4096")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("spectrum values must be finite")

    @property
    def grid_size(self) -> int:
        return self.values.size - 1

    def nodes(self) -> np.ndarray:
        return np.linspace(self.f_start, self.f_stop, self.values.size)

    def at(self, f) -> np.ndarray:
        """Linear interpolation, zero outside the table's support."""
        f, nodes = np.asarray(f, dtype=float), self.nodes()
        re = np.interp(f, nodes, self.values.real, left=0.0, right=0.0)
        im = np.interp(f, nodes, self.values.imag, left=0.0, right=0.0)
        return re + 1j * im


def l_value(m: int, nu: float) -> float:
    """Overlap integral of two unit sinc kernels offset by 2*m*nu.

    Equals sinc(2*m*nu) exactly (the sinc pair integrates to the sinc of
    the offset), so no quadrature is needed at evaluation time.
    """
    if m < 1:
        raise ValueError("kernel length must be >= 1")
    return float(np.sinc(2.0 * m * nu))


def _windowed_transform(g: np.ndarray, tau: int) -> SpectrumTable:
    # Transform of the lag-windowed signal over one period [0, 1]: first
    # N-|tau| samples for tau >= 0, the trailing N-|tau| samples re-anchored
    # at zero otherwise.  The period's end repeats its start.
    n = g.size
    w = g[: n - tau] if tau >= 0 else g[-tau:]
    values = np.fft.fft(w, DEFAULT_GRID_SIZE)
    return SpectrumTable(np.append(values, values[0]), 0.0, 1.0)


def _emaf_at(x: np.ndarray, nu: float, tau: int) -> complex:
    n = x.size
    if tau >= 0:
        t = np.arange(tau, n)
        prod = x[tau:] * np.conj(x[: n - tau])
    else:
        t = np.arange(0, n + tau)
        prod = x[: n + tau] * np.conj(x[-tau:])
    return complex(np.sum(prod * np.exp(-2j * np.pi * nu * t)))


def _check_cell(nu: float, tau: int, n: int) -> None:
    """Reject a (nu, tau) point off the ambiguity plane of a length-n record."""
    if n < 2:
        raise ValueError("need at least two samples")
    if abs(tau) >= n:
        raise ValueError("|tau| must be < n")
    if not -0.5 < nu < 0.5:
        raise ValueError(f"nu = {nu} must lie in (-1/2, 1/2)")


def prop1_moments(
    g,
    sigma2_w: float,
    nu: float,
    tau: int,
    n: int,
) -> MomentTriple:
    """EMAF moments for a deterministic analytic signal plus analytic white
    noise with one-sided PSD level sigma2_w.

    mean      = A_gg(nu,tau] + (sigma2_w/2) e^{-j pi nu (N+tau-1)}
                D_{N-|tau|}(nu) e^{j pi tau/2} sinc(tau/2)
    variance  = sigma2_w (h(nu,tau] + h(-nu,-tau])
                + sigma2_w^2 (N-|tau|)(1/2-|nu|)
    relation  = -sigma2_w^2 (N-|tau|) L(N-|tau|, nu) e^{-2j pi nu (N-1)}
                * |nu| sinc(2|nu| tau)            for tau != 0
                (the tau = 0 limit carries +1/2 in place of |nu| sinc)
                + 2 sigma2_w h'(nu,tau]

    h and h' are overlap integrals of the lag-windowed transform of g,
    evaluated by trapezoidal quadrature.
    """
    g = np.asarray(g, dtype=complex)
    if g.size != n:
        raise ValueError("signal length does not match n")
    _check_cell(nu, tau, n)
    if sigma2_w < 0:
        raise ValueError("noise PSD level must be >= 0")

    m = n - abs(tau)
    mean = _emaf_at(g, nu, tau) + sigma2_w * white_noise_mean(nu, tau, n)

    g_tab = _windowed_transform(g, tau)
    g_neg = _windowed_transform(g, -tau)

    def h_of(nu_, tab):
        return _quad(
            lambda f: np.abs(tab.at(f)) ** 2, max(-nu_, 0.0), 0.5 - max(0.0, nu_)
        ).real

    h_pos = h_of(nu, g_tab)
    h_neg = h_of(-nu, g_neg)
    w_nu = 0.5 - abs(nu)
    variance = sigma2_w * (h_pos + h_neg) + sigma2_w**2 * m * w_nu

    sign = 1.0 if tau >= 0 else -1.0

    def hprime_integrand(f):
        return (
            np.conj(g_tab.at(f))
            * g_neg.at((f + 2.0 * nu) % 1.0)
            * np.exp(2j * np.pi * (f - sign * nu) * tau)
        )

    h_prime = _quad(hprime_integrand, max(0.0, -nu), 0.5 + min(0.0, -nu))
    if tau == 0:
        ridge = -0.5
    else:
        ridge = abs(nu) * np.sinc(2.0 * abs(nu) * tau)
    relation = (
        -(sigma2_w**2) * m * l_value(m, nu) * np.exp(-2j * np.pi * nu * (n - 1)) * ridge
        + 2.0 * sigma2_w * h_prime
    )
    return MomentTriple(complex(mean), float(variance), complex(relation))


def _abar(spectrum: SpectrumTable, nu: float, tau: int) -> complex:
    """Normalized spectral overlap: int S(f-nu) S(f) e^{j4 pi f tau} df over
    the admissible band, divided by (1/2 - |nu|)."""
    a, b = max(0.0, nu), 0.5 + min(0.0, nu)

    def integrand(f):
        return spectrum.at(f - nu) * spectrum.at(f) * np.exp(4j * np.pi * f * tau)

    return _quad(integrand, a, b) / (0.5 - abs(nu))


def prop2_moments(
    autocorr,
    spectrum: SpectrumTable,
    nu: float,
    tau: int,
    n: int,
) -> MomentTriple:
    """EMAF moments for a zero-mean stationary analytic process.

    autocorr maps lag -> complex autocorrelation (any object supporting
    [tau]; a dict works); spectrum is the process spectral density on
    [0, 1/2].  mean = D_{N-|tau|}(nu) e^{-j pi nu (N+tau-1)} M[tau];
    variance and relation come from the spectral overlap integral.
    """
    _check_cell(nu, tau, n)
    m = n - abs(tau)
    w_nu = 0.5 - abs(nu)
    mean = (
        dirichlet(m, nu) * np.exp(-1j * np.pi * nu * (n + tau - 1)) * complex(autocorr[tau])
    )
    variance = (m * w_nu * _abar(spectrum, -nu, 0)).real
    relation = (
        np.exp(-2j * np.pi * nu * (n + tau - 1))
        * m
        * w_nu
        * l_value(m, nu)
        * _abar(spectrum, nu, tau)
    )
    return MomentTriple(complex(mean), float(max(variance, 0.0)), complex(relation))


def prop3_moments(
    mod_spectrum: SpectrumTable,
    nu: float,
    tau: int,
    n: int,
) -> MomentTriple:
    """EMAF moments for the analytic image of uniformly modulated white
    noise, described by the transform Sigma(nu) of its time-varying
    variance (see :func:`um_modulation_spectrum` for the scaling).

    mean     = (1/2-|nu|) Sigma(nu) e^{j pi (1/2-|nu|) tau}
               sinc((1/2-|nu|) tau)
    variance = int_{-1/2+|nu|}^{1/2-|nu|} |Sigma(f)|^2 e^{j 2 pi f tau}
               ((1/2-|nu|) - |f|) df
    relation = e^{-4j pi nu tau} double overlap integral of Sigma.

    The variance kernel ((1/2-|nu|) - |f|) is the exact overlap weight of
    the underlying double frequency integral; collapsing it to a constant
    (1/2-|nu|) is only valid for modulation spectra that concentrate near
    f = 0, which finite-record spectra with off-center lines do not.
    Contributions that vanish for proper processes are omitted, so the
    tau = 0 row (where the complementary part of the analytic process
    enters the second moment) carries a larger remainder.
    """
    _check_cell(nu, tau, n)
    w_nu = 0.5 - abs(nu)
    mean = (
        w_nu
        * complex(mod_spectrum.at(nu))
        * np.exp(1j * np.pi * w_nu * tau)
        * np.sinc(w_nu * tau)
    )
    variance = _quad(
        lambda f: np.abs(mod_spectrum.at(f)) ** 2
        * np.exp(2j * np.pi * f * tau)
        * (w_nu - np.abs(f)),
        -0.5 + abs(nu),
        0.5 - abs(nu),
    ).real

    # Double integral over the admissible square: the outer axis alpha
    # runs down a column, so one quadrature covers every inner integral.
    a, b = max(0.0, nu), 0.5 + min(0.0, nu)
    alphas = np.linspace(a, b, 513)[:, None]
    inner_vals = _quad(
        lambda f: mod_spectrum.at(f - alphas + nu)
        * np.conj(mod_spectrum.at(f - nu - alphas))
        * np.exp(2j * np.pi * (f + alphas) * tau),
        a,
        b,
        1024,
    )
    relation = np.exp(-4j * np.pi * nu * tau) * np.trapezoid(inner_vals, alphas[:, 0])
    variance = max(variance, 0.0)
    if abs(relation) > variance:
        # Quadrature noise can push the pseudo-variance a hair past the
        # variance; clip to keep the triple admissible.
        relation = relation * (variance / abs(relation)) if variance > 0 else 0.0
    return MomentTriple(complex(mean), float(variance), complex(relation))


def _checked_table(m_table, t_spread: int, nu: float, tau: int) -> np.ndarray:
    """m_table as a complex array, checked to be 2-D with 2T-1 lag columns, with (nu, tau) on its plane."""
    if t_spread < 1:
        raise ValueError("spread bound must be >= 1")
    m_table = np.asarray(m_table, dtype=complex)
    if m_table.ndim != 2 or m_table.shape[1] != 2 * t_spread - 1:
        raise ValueError("moment table must be 2-D with 2*T-1 lag columns")
    _check_cell(nu, tau, len(m_table))
    return m_table


def underspread_variance(m_table: np.ndarray, t_spread: int, nu: float, tau: int) -> float:
    """EMAF variance of a strictly underspread process from its dual-time
    second moment table.

    m_table[t, j] holds M[t, tau'] with tau' = j - (T-1) for |tau'| <= T-1;
    the variance is sum_t sum_tau' e^{-j2 pi nu tau'} M[t,tau'] M*[t-tau,tau']
    with out-of-range factors treated as zero, at a (nu, tau) on the plane
    of the table's rows.  The sum is real up to symmetry; the real part is returned.
    """
    m_table = _checked_table(m_table, t_spread, nu, tau)
    n_t = m_table.shape[0]
    taus_p = np.arange(-(t_spread - 1), t_spread)
    phase = np.exp(-2j * np.pi * nu * taus_p)
    lo, hi = max(tau, 0), n_t + min(tau, 0)  # rows t with t and t - tau in range
    lead, lag = m_table[lo:hi], np.conj(m_table[lo - tau : hi - tau])
    total = np.sum((lead * lag) @ phase)
    return float(total.real)


def underspread_relation(m_table: np.ndarray, t_spread: int, nu: float, tau: int) -> complex:
    """EMAF relation of a strictly underspread process.

    Zero for |tau| >= T (the residual there is logarithmic in N and not
    computable from the table); for |tau| < T it is the direct double sum
    sum_t sum_tau' e^{-j2 pi nu (2t - tau')} M[t, tau'+tau] M*[t-tau, tau'-tau]
    over both lag signs, with out-of-range factors treated as zero, at a
    (nu, tau) on the plane of the table's rows.
    """
    m_table = _checked_table(m_table, t_spread, nu, tau)
    n_t, c = m_table.shape[0], t_spread - 1
    if abs(tau) >= t_spread:
        return 0.0 + 0.0j
    padded = np.pad(m_table, ((0, 0), (c, c)))  # column j holds lag j - 2c
    lo, hi = max(tau, 0), n_t + min(tau, 0)
    lead = padded[lo:hi, c + tau : 3 * c + 1 + tau]
    lag = np.conj(padded[lo - tau : hi - tau, c - tau : 3 * c + 1 - tau])
    phase = np.exp(-2j * np.pi * nu * (2 * np.arange(lo, hi)[:, None] - np.arange(-c, c + 1)))
    return complex(np.sum(phase * lead * lag))


def variance_from_af(
    af: AmbiguityGrid | np.ndarray,
    n: int,
    t_spread: int,
    nu: float,
    tau: int,
) -> float:
    """EMAF variance from a dense ambiguity surface.

    Riemann sum of sum_tau' int e^{-j2 pi (nu tau' - nu' tau)}
    |A(nu',tau']|^2 dnu' over the rows |tau'| <= T-1 of a grid on the
    standard nu lattice (cell width 1/(2N)).
    """
    values = af.values if isinstance(af, AmbiguityGrid) else np.asarray(af)
    lat = lattice(n)
    taus, nus = lat.taus, lat.nus
    rows = np.abs(taus) <= t_spread - 1
    abs2 = np.abs(values[rows, :]) ** 2
    inner = abs2 @ np.exp(2j * np.pi * nus * tau) / (2.0 * n)
    total = np.sum(np.exp(-2j * np.pi * nu * taus[rows]) * inner)
    return float(total.real)


# ---------------------------------------------------------------------------
# Process-specific spectra, autocorrelations and dual-time tables.


def ma_analytic_autocorr(weights, xi_var: float, taus):
    """One-sided spectral transform 2 * int_0^{1/2} S_R(f) e^{j2 pi f tau} df.

    This is the analytic extension of the real autocorrelation (equal to it
    at lag zero).  The autocorrelation of the analytic-signal process itself
    is twice this value.
    """
    out = 2.0 * _ma_band(weights, xi_var, np.atleast_1d(np.asarray(taus, dtype=int)))
    return out if out.size > 1 else complex(out[0])


def ma_analytic_spectrum(weights, xi_var: float) -> SpectrumTable:
    """Spectral density of the analytic MA process on [0, 1/2]: the real
    density doubled in amplitude twice (one-sided folding times the
    analytic doubling), i.e. 4 * S_R(f)."""
    xs = np.linspace(0.0, 0.5, DEFAULT_GRID_SIZE + 1)
    return SpectrumTable(4.0 * ma_real_spectral_density(weights, xi_var, xs) + 0j, 0.0, 0.5)


def ma_dual_time_table(weights, xi_var: float, n: int, t_spread: int) -> np.ndarray:
    """Stationary dual-time second moment table M[t, tau'] of the analytic
    MA process, truncated to |tau'| <= T-1 (rows constant in t), 1 <= T <= n."""
    if not 1 <= t_spread <= n:
        raise ValueError(f"spread bound T = {t_spread} must lie in [1, n = {n}]")
    taus = np.arange(-(t_spread - 1), t_spread)
    return np.tile(2.0 * np.atleast_1d(ma_analytic_autocorr(weights, xi_var, taus)), (n, 1))


def um_modulation_spectrum(f0: float, n: int) -> SpectrumTable:
    """Transform of the time-varying variance of the analytic modulated
    process, on [-1/2, 1/2].

    For the real modulation variance sin^2(2 pi f0 t) the analytic process
    carries four times its finite-record transform (the analytic doubling
    enters the dual-frequency correlation twice):

        Sigma(nu) = 4 sum_t sin^2(2 pi f0 t) e^{-j2 pi nu t}
                  = 2 E_N(nu) - E_N(nu - 2 f0) - E_N(nu + 2 f0)

    with E_N(nu) = e^{-j pi nu (N-1)} D_N(nu).  The scaling is fixed by
    matching the ensemble mean of the EMAF.
    """
    nus = np.linspace(-0.5, 0.5, DEFAULT_GRID_SIZE + 1)

    def e_n(v):
        return np.exp(-1j * np.pi * v * (n - 1)) * dirichlet(n, v)

    values = 2.0 * e_n(nus) - e_n(nus - 2.0 * f0) - e_n(nus + 2.0 * f0)
    return SpectrumTable(values, -0.5, 0.5)


# ---------------------------------------------------------------------------
# Reference grids (expected EMAF restricted to the true support).


@dataclass(frozen=True)
class NAFReference:
    """Sparse reference surface: flat indices `cells` of its support in the N
    rows with tau >= 0, and its finite `values` there.  The dense views, built
    per access, _unfold those rows (by _mirror_lags for the grid), so they are
    conjugate-symmetric and zero off the support by construction."""

    n: int
    cells: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self.values).all():
            raise ValueError("reference grid holds a non-finite cell")

    @property
    def grid(self) -> AmbiguityGrid:
        half = np.zeros((self.n, 2 * self.n), dtype=complex)
        half.flat[self.cells] = self.values
        return AmbiguityGrid(_unfold(half, _mirror_lags), self.n, "reference")

    @property
    def support_mask(self) -> np.ndarray:
        half = np.zeros((self.n, 2 * self.n), dtype=bool)
        half.flat[self.cells] = True
        return _unfold(half)

    @property
    def cells_nonzero(self) -> int:
        return int(_fold(np.count_nonzero, self.support_mask[self.n - 1 :]))


def _reference(n: int, tau, nu, values) -> NAFReference:
    """Reference surface with each value in the lattice cell nearest its
    (tau, nu), 0 <= tau < N, nu taken modulo 1.  Values that land on one cell
    add in input order: each cell takes its first value and adds only the
    others, so a lone value keeps its bits, signed zeros included."""
    tau, nu, values = (np.ravel(a) for a in np.broadcast_arrays(tau, nu, values))
    if not (np.isfinite(tau).all() and np.isfinite(nu).all()):
        raise ValueError("a reference line needs a finite tau and nu")
    rows, cols = lattice(n).cell(tau, nu)
    if ((rows < n - 1) | (rows >= 2 * n - 1)).any():
        raise ValueError(f"a reference line needs 0 <= tau < N = {n}")
    keys = (rows - (n - 1)) * (2 * n) + cols % (2 * n)
    cells, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    sums, rest = values[first].astype(complex), np.delete(np.arange(keys.size), first)
    np.add.at(sums, inverse[rest], values[rest])
    return NAFReference(n, cells, sums)


def naf_for_process(spec: ProcessSpec, n: int) -> NAFReference:
    """Reference surface of a process spec: its reference_lines placed on the
    lattice of a length-n record."""
    spec.validate(n)
    return _reference(n, *spec.reference_lines(n))
