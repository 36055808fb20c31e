"""Shared helpers for the test suite."""

import numpy as np
import pytest


def emaf_direct(x):
    """Brute-force double-loop empirical ambiguity function (oracle)."""
    x = np.asarray(x, dtype=complex)
    n = x.size
    out = np.zeros((2 * n - 1, 2 * n), dtype=complex)
    for m in range(2 * n - 1):
        tau = m - (n - 1)
        for k in range(2 * n):
            nu = (k - n) / (2.0 * n)
            acc = 0.0 + 0.0j
            for t in range(max(0, tau), n + min(0, tau)):
                acc += x[t] * np.conj(x[t - tau]) * np.exp(-2j * np.pi * nu * t)
            out[m, k] = acc
    return out


def emaf_at(x, nu, tau):
    """Single-cell empirical ambiguity function by direct summation."""
    x = np.asarray(x, dtype=complex)
    n = x.size
    if tau >= 0:
        t = np.arange(tau, n)
        prod = x[tau:] * np.conj(x[: n - tau])
    else:
        t = np.arange(0, n + tau)
        prod = x[: n + tau] * np.conj(x[-tau:])
    return complex(np.sum(prod * np.exp(-2j * np.pi * nu * t)))


def random_complex_signal(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)


U = 2.0**-53  # unit roundoff


def gamma(k: int) -> float:
    """Higham's gamma_k: the relative error bound of k roundings."""
    return k * U / (1 - k * U)


def mirror_power_error() -> float:
    """Bound on p'/p - 1 and p/p' - 1, where p = fl(|fl(v s)|)^2 is a cell's
    power (s > 0 a real scale: 1 for raw cells, 1/sqrt(base) standardized)
    and p' that of its mirror cell, v' = fl(r conj(v)) with r a root of
    Lattice.roots.  |r| is within 2 sqrt2 u of 1 (np.exp puts each part
    within 1 ulp of a point on the unit circle) and the complex product
    adds sqrt5 u |r||v| (Brent, Percival and Zimmermann 2007).  Each power
    then takes one rounding per part for the scale (u), at most five for
    |z| (hypot, or numpy's SIMD l sqrt(1 + (s/l)^2)) and one for the square."""
    modulus = 2 * np.sqrt(2) * U
    pipe = (1 + U) ** 2 * (1 + gamma(5)) ** 2 * (1 + U), (1 - U) ** 2 * (1 - gamma(5)) ** 2 * (1 - U)
    hi = ((1 + modulus) * (1 + np.sqrt(5) * U)) ** 2 * pipe[0]
    lo = ((1 - modulus) * (1 - np.sqrt(5) * U)) ** 2 * pipe[1]
    return hi / lo - 1
