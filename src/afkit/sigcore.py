"""Signal generation and shared special functions.

Provides the test processes used throughout the package (a linear chirp in
analytic white noise, a moving-average process, uniformly modulated white
noise, a time-varying MA and analytic white noise) and their registry
PROCESSES, the discrete analytic-signal construction, and the Dirichlet
kernel, white-noise mean and MA spectral density (with _ma_band, its one
band transform) that the moment formulas are built from.

All generators are pure functions of (spec, n, seed): the same inputs give
bit-identical output regardless of thread count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Sequence, Union

import numpy as np

__all__ = [
    "DEFAULT_GRID_SIZE",
    "DEFAULT_MA_WEIGHTS",
    "AnalyticWhiteNoise",
    "ChirpInNoise",
    "MovingAverage",
    "PROCESSES",
    "TimeVaryingMA",
    "UniformlyModulated",
    "ProcessSpec",
    "analytic_signal",
    "dirichlet",
    "generate",
    "ma_real_spectral_density",
    "white_noise_mean",
]

# Default MA weights used by the benchmark configurations.
DEFAULT_MA_WEIGHTS = (1.0, 0.33, 0.266, 0.2, 0.133, 0.066)
DEFAULT_GRID_SIZE = 2**14  # quadrature intervals of every spectral integral

_INT_EPS = 1e-9  # |f - round(f)| below this hits the removable singularity


def _check_integer(name: str, value) -> None:
    """Reject a value that is not an integer, a bool included, by name."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def dirichlet(n, f):
    """Dirichlet kernel sin(pi*f*n)/sin(pi*f).

    Total function: at integer f (where the denominator vanishes) the
    removable singularity is filled with the limit n*cos(pi*f*n)/cos(pi*f).
    Broadcasts over both arguments; scalars in, scalar out.
    """
    n_arr = np.asarray(n, dtype=float)
    if np.any(n_arr < 1):
        raise ValueError("dirichlet order must be >= 1")
    f_arr = np.asarray(f, dtype=float)
    near = np.abs(f_arr - np.round(f_arr)) < _INT_EPS
    safe = np.where(near, 1.0, np.sin(np.pi * f_arr))
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.asarray(np.sin(np.pi * f_arr * n_arr) / safe)
        near = np.broadcast_to(near, out.shape)
        n_at, f_at = (np.broadcast_to(a, out.shape)[near] for a in (n_arr, f_arr))
        out[near] = n_at * np.cos(np.pi * f_at * n_at) / np.cos(np.pi * f_at)
    if np.isscalar(n) and np.isscalar(f):
        return float(out)
    return out


def white_noise_mean(nu, tau, n: int):
    """EMAF mean of analytic white noise with unit PSD level at (nu, tau]:
    (1/2) e^{-j pi nu (N+tau-1)} D_{N-|tau|}(nu) e^{j pi tau/2} sinc(tau/2).

    Broadcasts over nu and the integer lag tau.  The sinc of a nonzero
    integer is exactly zero, so the mean is exactly zero at even tau != 0
    (floats would leave ~1e-16 there).
    """
    nu, tau = np.asarray(nu, dtype=float), np.asarray(tau)
    sinc_half = np.where((tau % 2 == 0) & (tau != 0), 0.0, np.sinc(tau / 2.0))
    out = np.exp(-1j * np.pi * nu * (n + tau - 1.0))
    out *= 0.5  # the factors in their order, multiplied in place
    out *= dirichlet(n - np.abs(tau), nu)
    out *= np.exp(1j * np.pi * tau / 2.0)
    out *= sinc_half
    return out


def analytic_signal(x) -> np.ndarray:
    """One-sided (analytic) complex signal of a real-valued input.

    Frequency-domain construction: take the length-N DFT, keep bin 0 and the
    Nyquist bin unscaled, double the interior positive bins, zero the
    negative bins, inverse DFT.  The real part of the output reproduces the
    input; the DFT of the output vanishes on strictly negative bins.

    A complex input contributes only its real part (the usual convention),
    which makes the construction idempotent.
    """
    x = np.asarray(x)
    if np.iscomplexobj(x):
        x = x.real
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    if n < 2:
        raise ValueError("need at least two samples")
    spec = np.fft.fft(x)
    h = np.zeros(n)
    h[0] = 1.0
    if n % 2 == 0:
        h[n // 2] = 1.0
        h[1 : n // 2] = 2.0
    else:
        h[1 : (n + 1) // 2] = 2.0
    return np.fft.ifft(spec * h)


def _quad(fn, a: float, b: float, q: int = DEFAULT_GRID_SIZE):
    """Trapezoid rule of fn over [a, b] on q+1 uniform nodes."""
    xs = np.linspace(a, b, q + 1)
    return np.trapezoid(fn(xs), xs)


def ma_real_spectral_density(weights, xi_var: float, f) -> np.ndarray:
    """Two-sided spectral density of the real MA process at frequency f."""
    w = np.asarray(weights, dtype=float)
    f = np.asarray(f, dtype=float)
    resp = np.zeros(f.shape, dtype=complex)
    for i, wi in enumerate(w):
        resp += wi * np.exp(-2j * np.pi * f * i)
    return xi_var * np.abs(resp) ** 2


def _ma_band(weights, xi_var: float, lags, shifts=(0.0,), a: float = 0.0, b: float = 0.5):
    """int_a^b sum_s S_R(f - s) e^{j2 pi f tau} df over the shifts s of the
    real MA density, at each lag tau of lags: one _quad, the lag axis down a
    column."""
    taus = np.asarray(lags)[:, None]
    return _quad(lambda f: sum(ma_real_spectral_density(weights, xi_var, f - s) for s in shifts)
                 * np.exp(2j * np.pi * f * taus), a, b)


def _analytic_white_noise(n: int, psd: float, rng: np.random.Generator) -> np.ndarray:
    # Synthesize i.i.d. circular complex Gaussian spectrum on the positive
    # bins of a 4x oversampled grid, inverse DFT, and crop n samples.  The
    # oversampling removes the circular wrap-around correlation at lags
    # near +-n that a length-n construction would carry.
    m = 4 * n
    half = m // 2
    scale = np.sqrt(m * psd / 2.0)
    z = scale * (rng.standard_normal(half) + 1j * rng.standard_normal(half))
    spec = np.zeros(m, dtype=complex)
    spec[:half] = z
    w = np.fft.ifft(spec)
    return w[n : 2 * n]


def _ma_filter(xi: np.ndarray, weights) -> np.ndarray:
    # xi carries len(weights)-1 warm-up samples so the output is stationary.
    return np.convolve(xi, np.asarray(weights, dtype=float), mode="valid")


# Each process spec class is the process' one definition: `name` (the CLI
# --process value and the process= provenance field), `estimators` (the
# estimators whose output means something for a record of the process:
# the bias-corrected lbteaf for a deterministic signal in noise, the plain
# local lteaf for a stochastic process), `validate(n)`, `_draw(n, rng)` and
# `reference_lines(n)`: the (tau, nu, values) of its reference surface at
# 0 <= tau < N, which moments.naf_for_process places on the lattice.


@dataclass(frozen=True)
class ChirpInNoise:
    """Deterministic linear chirp exp(j*pi*(2*alpha*t + beta*t^2)) plus
    analytic white noise with one-sided PSD level noise_psd on [0, 1/2)."""

    name: ClassVar[str] = "chirp"
    estimators: ClassVar[tuple] = ("emaf", "teaf", "lbteaf")

    alpha: float = 0.1
    beta: float = 9.0196e-4
    noise_psd: float = 0.6

    def validate(self, n: int) -> None:
        if not 0.0 < self.alpha < 0.5:
            raise ValueError("chirp start frequency must lie in (0, 1/2)")
        if not np.isfinite(self.beta):
            raise ValueError("chirp rate must be finite")
        # Aliasing, or a sweep below 0 (no longer an analytic record),
        # silently invalidates every downstream moment formula, so an
        # out-of-band sweep is a hard error.
        end = self.alpha + self.beta * (n - 1)
        if not 0.0 < end < 0.5:
            raise ValueError(
                "chirp sweeps out of (0, 1/2) over the record: "
                f"alpha + beta*(n-1) = {end:g}"
            )
        if not 0.0 <= self.noise_psd < np.inf:
            raise ValueError("noise PSD level must be finite and >= 0")

    def chirp(self, n: int) -> np.ndarray:
        """The noise-free chirp samples t = 0..n-1."""
        t = np.arange(n)
        return np.exp(1j * np.pi * (2.0 * self.alpha * t + self.beta * t * t))

    def _draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        g = self.chirp(n)
        if self.noise_psd > 0:
            g = g + _analytic_white_noise(n, self.noise_psd, rng)
        return g

    def reference_lines(self, n: int):
        """The noise-free EMAF, in each lag row at the lattice nu nearest beta*tau:
        exp(j pi [2 alpha tau - beta tau^2 + (beta tau - nu)(N+tau-1)]) D_{N-tau}(beta tau - nu),
        as the lag sum runs over N-tau samples centred on t = (N-1+tau)/2."""
        taus = np.arange(n)
        nu = np.rint(self.beta * taus * 2 * n) / (2.0 * n)  # the snapped lattice frequency
        delta = self.beta * taus - nu
        phase = np.pi * (2.0 * self.alpha * taus - self.beta * taus**2 + delta * (n + taus - 1))
        return taus, nu, np.exp(1j * phase) * dirichlet(n - taus, delta)


@dataclass(frozen=True)
class MovingAverage:
    """Real MA process R[t] = sum_i w_i xi[t-i] with xi ~ N(0, xi_var),
    observed through its analytic signal."""

    name: ClassVar[str] = "ma"
    estimators: ClassVar[tuple] = ("emaf", "teaf", "lteaf")

    weights: Sequence[float] = DEFAULT_MA_WEIGHTS
    xi_var: float = 1.0

    def validate(self, n: int) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0 or not np.all(np.isfinite(w)):
            raise ValueError("weights must be a finite 1-D sequence")
        if w[0] == 0:
            raise ValueError("leading MA weight must be nonzero")
        if not 0.0 < self.xi_var < np.inf:
            raise ValueError("innovation variance must be finite and positive")
        if w.size - 1 >= n:
            raise ValueError("MA order must be smaller than the record length")

    def _draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        order = len(self.weights) - 1
        xi = rng.normal(0.0, np.sqrt(self.xi_var), n + order)
        return analytic_signal(_ma_filter(xi, self.weights))

    def reference_lines(self, n: int):
        """The nu = 0 line at 0 <= tau <= L (the real process' AF support):
        (N-tau) times the one-sided transform 2 int_0^{1/2} S_R(f) e^{j2 pi f tau} df."""
        lags = np.arange(len(self.weights))
        return lags, 0.0, (n - lags) * (2.0 * _ma_band(self.weights, self.xi_var, lags))


@dataclass(frozen=True)
class UniformlyModulated:
    """Uniformly modulated white noise R[t] = sin(2*pi*f0*t) * xi[t] with
    xi ~ N(0,1), observed through its analytic signal."""

    name: ClassVar[str] = "um"
    estimators: ClassVar[tuple] = ("emaf", "teaf", "lteaf")

    f0: float = 0.09

    def validate(self, n: int) -> None:
        if not 0.0 < self.f0 < 0.25:
            raise ValueError("modulation frequency must lie in (0, 1/4)")

    def _draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        xi = rng.standard_normal(n)
        return analytic_signal(np.sin(2.0 * np.pi * self.f0 * np.arange(n)) * xi)

    def reference_lines(self, n: int):
        """N at the origin and -N(1/2 - |2 f0|) at (nu = +-2 f0, tau = 0)."""
        line = -n * (0.5 - abs(2.0 * self.f0))
        return 0, [0.0, 2.0 * self.f0, -2.0 * self.f0], [float(n), line, line]


@dataclass(frozen=True)
class TimeVaryingMA:
    """Time-varying MA: R[t] = sin(2*pi*f0*t) * sum_i w_i xi[t-i]."""

    name: ClassVar[str] = "tvma"
    estimators: ClassVar[tuple] = ("emaf", "teaf", "lteaf")

    weights: Sequence[float] = DEFAULT_MA_WEIGHTS
    f0: float = 0.042

    def validate(self, n: int) -> None:
        MovingAverage(self.weights).validate(n)
        if not 0.0 < self.f0 < 0.25:
            raise ValueError("modulation frequency must lie in (0, 1/4)")

    def _draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        order = len(self.weights) - 1
        xi = rng.standard_normal(n + order)
        r = np.sin(2.0 * np.pi * self.f0 * np.arange(n)) * _ma_filter(xi, self.weights)
        return analytic_signal(r)

    def reference_lines(self, n: int):
        """Three lag bands at nu in {0, +-2 f0} and 0 <= tau <= L, with values
        given by shifted-spectrum integrals of the real MA density."""
        lags, f0, w = np.arange(len(self.weights)), self.f0, self.weights
        center = _ma_band(w, 1.0, lags, (f0, -f0))
        plus = -_ma_band(w, 1.0, lags, (-f0,), b=0.5 - 2.0 * f0)
        minus = -_ma_band(w, 1.0, lags, (f0,), a=2.0 * f0)
        values = (n - lags) * np.stack([center, plus, minus])
        return lags, np.array([[0.0], [2.0 * f0], [-2.0 * f0]]), values


@dataclass(frozen=True)
class AnalyticWhiteNoise:
    """Analytic white noise: flat one-sided PSD of level psd on [0, 1/2)."""

    name: ClassVar[str] = "noise"
    estimators: ClassVar[tuple] = ("emaf", "teaf", "lteaf", "lbteaf")

    psd: float = 0.6

    def validate(self, n: int) -> None:
        if not 0.0 < self.psd < np.inf:
            raise ValueError("PSD level must be finite and positive")

    def _draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return _analytic_white_noise(n, self.psd, rng)

    def reference_lines(self, n: int):
        """The origin alone (the real-noise AF support), at the mean N * psd / 2."""
        return 0, 0.0, n * self.psd / 2.0


# The process registry: name -> spec class.  The CLI choices, the
# provenance check and the estimator pairing all read it.
PROCESSES = {
    cls.name: cls
    for cls in (ChirpInNoise, MovingAverage, UniformlyModulated, TimeVaryingMA, AnalyticWhiteNoise)
}

ProcessSpec = Union[tuple(PROCESSES.values())]


def generate(spec: ProcessSpec, n: int, seed: int) -> np.ndarray:
    """Generate one length-n realization of the process as a complex signal.

    Chirp-in-noise and pure-noise variants are built directly in the
    analytic domain; the stochastic real-valued processes are synthesized in
    the time domain and passed through :func:`analytic_signal`.
    Pure in (spec, n, seed).
    """
    _check_integer("n", n)
    if n < 2:
        raise ValueError("need at least two samples")
    spec.validate(n)
    return spec._draw(n, np.random.Generator(np.random.PCG64(seed)))
