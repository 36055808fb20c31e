"""Acceptance suite: end-to-end benchmark and property gates.

Each test prints one PASS/FAIL line (run with -s to see them) and asserts
its stated tolerance.  The Monte Carlo gates use desk-scale trial counts
with fixed seeds, so every run is deterministic.
"""

import numpy as np
import pytest
from scipy import stats

import afkit
from afkit.bench import MCConfig, derive_trial_seed, run_bench
from afkit.emaf import compute_emaf
from afkit.moments import (
    ma_analytic_autocorr,
    ma_analytic_spectrum,
    ma_dual_time_table,
    prop1_moments,
    prop2_moments,
    prop3_moments,
    um_modulation_spectrum,
    underspread_variance,
    variance_from_af,
)
from afkit.sigcore import (
    DEFAULT_MA_WEIGHTS,
    ChirpInNoise,
    MovingAverage,
    TimeVaryingMA,
    UniformlyModulated,
    dirichlet,
    generate,
)
from afkit.thresholding import ThresholdConfig, lteaf, make_partition, teaf

from conftest import emaf_at, random_complex_signal
from test_moments import sinc_overlap_quadrature

N = 256
TRIALS = 500

# Noise level for the chirp benchmark: the reference totals correspond to
# a noise variance of 0.6 for the analytic noise itself, i.e. a one-sided
# PSD level of 1.2 (see the README conventions section).
CHIRP_BENCH = ChirpInNoise(alpha=0.1, beta=9.0196e-4, noise_psd=1.2)


def _report(tag, ok, detail):
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} -- {detail}")


def _ensemble(spec, cells, trials, base_seed):
    zs = {c: np.empty(trials, dtype=complex) for c in cells}
    for i in range(trials):
        x = generate(spec, N, derive_trial_seed(base_seed, i))
        for c in cells:
            zs[c][i] = emaf_at(x, *c)
    return zs


def _moment_deviations(z, triple):
    """(mean deviation, variance deviation) in units of their standard
    errors, both estimated from the sample."""
    k = z.size
    zbar = z.mean()
    w = z - zbar
    s2 = float(np.sum(np.abs(w) ** 2) / (k - 1))
    m4 = float(np.mean(np.abs(w) ** 4))
    se_mean = np.sqrt(s2 / k)
    se_var = np.sqrt(max(m4 - s2**2, 1e-300) / k)
    return abs(zbar - triple.mean) / se_mean, abs(s2 - triple.variance) / se_var


def _interior_cells(rng, count, tau_max=96, nu_max=0.35, skip_zero_tau=False):
    cells = []
    while len(cells) < count:
        k = int(rng.integers(0, 2 * N))
        nu = (k - N) / (2.0 * N)
        tau = int(rng.integers(-tau_max, tau_max + 1))
        if abs(nu) > nu_max:
            continue
        if skip_zero_tau and tau == 0:
            continue
        cells.append((nu, tau))
    return cells


class TestCriterion1MA:
    def test_ma_mse_and_threshold_gains(self):
        cfg = MCConfig(
            MovingAverage(DEFAULT_MA_WEIGHTS, 1.0),
            n=N,
            trials=TRIALS,
            base_seed=101,
            estimators=("emaf", "teaf", "lteaf"),
            threshold=ThresholdConfig(c_exponent=1.0, region_count=8),
        )
        rep = run_bench(cfg).per_estimator
        emaf_mse = rep["emaf"].total_mse_mean
        teaf_mse = rep["teaf"].total_mse_mean
        lteaf_mse = rep["lteaf"].total_mse_mean
        ok_emaf = 2.0337e8 * 0.8 <= emaf_mse <= 2.0337e8 * 1.2
        ok_gain = teaf_mse < emaf_mse / 50 and lteaf_mse < emaf_mse / 50
        _report(
            "1 [MA, K=500]",
            ok_emaf and ok_gain,
            f"emaf={emaf_mse:.4g} (target 2.0337e8 +-20%), "
            f"emaf/teaf={emaf_mse / teaf_mse:.0f}, emaf/lteaf={emaf_mse / lteaf_mse:.0f} "
            f"(each must exceed 50)",
        )
        assert ok_emaf
        assert ok_gain


class TestCriterion2UM:
    def test_um_mse_ratio_and_spread(self):
        cfg = MCConfig(
            UniformlyModulated(0.09),
            n=N,
            trials=TRIALS,
            base_seed=202,
            estimators=("emaf", "teaf", "lteaf"),
        )
        rep = run_bench(cfg).per_estimator
        emaf_mse = rep["emaf"].total_mse_mean
        ok_emaf = 3.3225e7 * 0.8 <= emaf_mse <= 3.3225e7 * 1.2
        ok_ratio = (
            rep["teaf"].total_mse_mean < emaf_mse / 50
            and rep["lteaf"].total_mse_mean < emaf_mse / 50
        )
        spread = rep["teaf"].spread_mean
        lo = 6.5513e-4 - 8.9984e-4
        hi = 6.5513e-4 + 8.9984e-4
        ok_spread = lo <= spread <= hi
        _report(
            "2 [UM, K=500]",
            ok_emaf and ok_ratio and ok_spread,
            f"emaf={emaf_mse:.4g} (target 3.3225e7 +-20%), "
            f"teaf spread={spread:.4g} (band [{max(lo, 0):.3g}, {hi:.3g}])",
        )
        assert ok_emaf
        assert ok_ratio
        assert ok_spread


class TestCriterion3TVMA:
    def test_tvma_mse_and_local_ordering(self):
        spec = TimeVaryingMA(DEFAULT_MA_WEIGHTS, 0.042)
        cfg = MCConfig(
            spec, n=N, trials=TRIALS, base_seed=300,
            estimators=("emaf", "teaf", "lteaf"),
        )
        rep = run_bench(cfg).per_estimator
        emaf_mse = rep["emaf"].total_mse_mean
        ok_emaf = 5.0842e7 * 0.8 <= emaf_mse <= 5.0842e7 * 1.2
        wins = int(rep["lteaf"].total_mse_mean < rep["teaf"].total_mse_mean)
        for r in range(1, 5):
            extra = run_bench(
                MCConfig(spec, n=N, trials=TRIALS, base_seed=300 + r,
                         estimators=("teaf", "lteaf"))
            ).per_estimator
            wins += int(extra["lteaf"].total_mse_mean < extra["teaf"].total_mse_mean)
        ok_order = wins >= 3  # >= 60% of five repeated runs
        _report(
            "3 [TVMA, K=500 x5]",
            ok_emaf and ok_order,
            f"emaf={emaf_mse:.4g} (target 5.0842e7 +-20%), lteaf<teaf in {wins}/5 runs",
        )
        assert ok_emaf
        assert ok_order


class TestCriterion4Chirp:
    def test_chirp_bias_corrected_ratio_and_spread(self):
        cfg = MCConfig(
            CHIRP_BENCH, n=N, trials=TRIALS, base_seed=404,
            estimators=("emaf", "lbteaf"),
            threshold=ThresholdConfig(rim_fraction=0.1),
        )
        rep = run_bench(cfg).per_estimator
        ratio = rep["lbteaf"].total_mse_mean / rep["emaf"].total_mse_mean
        spread = rep["lbteaf"].spread_mean
        ok_ratio = 0.15 <= ratio <= 0.40
        ok_spread = 0.005 <= spread <= 0.03
        _report(
            "4 [chirp-in-noise, K=500]",
            ok_ratio and ok_spread,
            f"lbteaf/emaf={ratio:.3f} (band [0.15, 0.40], reference 0.240), "
            f"lbteaf spread={spread:.4g} (band [0.005, 0.03])",
        )
        assert ok_ratio
        assert ok_spread


class TestCriterion5Properties:
    def test_symmetry_and_parseval(self):
        rng = np.random.default_rng(55)
        n = 32
        ok = True
        for _ in range(20):
            x = random_complex_signal(rng, n)
            g = compute_emaf(x)
            scale = np.abs(g.values).max()
            # conjugation symmetry away from the nu = -1/2 column
            flipped = g.values[::-1, :0:-1]
            taus = np.arange(-(n - 1), n)[:, None]
            nus = ((np.arange(1, 2 * n) - n) / (2.0 * n))[None, :]
            rhs = np.exp(-2j * np.pi * nus * taus) * np.conj(g.values[:, 1:])
            ok &= bool(np.max(np.abs(flipped - rhs)) <= 1e-9 * scale)
            # per-lag energy identity
            conj = np.conj(x)
            for m in range(2 * n - 1):
                tau = m - (n - 1)
                prod = x[tau:] * conj[: n - tau] if tau >= 0 else x[: n + tau] * conj[-tau:]
                lhs = np.sum(np.abs(g.values[m]) ** 2) / (2 * n)
                ok &= bool(abs(lhs - np.sum(np.abs(prod) ** 2)) <= 1e-9 * max(lhs, 1.0))
        _report("5a [symmetry+Parseval]", ok, "20 random signals at 1e-9")
        assert ok

    def test_threshold_monotonicity_and_scale_invariance(self):
        x = generate(MovingAverage(), 128, 5)
        g = compute_emaf(x)
        alive1 = teaf(g, ThresholdConfig(c_exponent=1.0)).values != 0
        alive2 = teaf(g, ThresholdConfig(c_exponent=1.5)).values != 0
        alive3 = teaf(g, ThresholdConfig(c_exponent=3.0)).values != 0
        ok_mono = bool(np.all(alive2 <= alive1) and np.all(alive3 <= alive2))
        ok_scale = True
        for c in (2.0, 3.0, 0.25):
            scaled = teaf(compute_emaf(c * x)).values != 0
            ok_scale &= bool(np.array_equal(alive1, scaled))
        _report("5b [monotonicity+scale]", ok_mono and ok_scale,
                "survivor sets nested in C and invariant under rescaling")
        assert ok_mono
        assert ok_scale

    def test_single_region_collapse(self):
        x = generate(UniformlyModulated(), 128, 6)
        g = compute_emaf(x)
        a = teaf(g)
        b = lteaf(g, make_partition(128, 1), ThresholdConfig(region_count=1))
        ok = bool(np.array_equal(a.values, b.values))
        _report("5c [K=1 local == global]", ok, "bit-exact")
        assert ok

    def test_sinc_overlap_oracle(self):
        rng = np.random.default_rng(8)
        ms = rng.integers(1, 300, size=10)
        nus = rng.uniform(-0.4, 0.4, size=10)
        worst = 0.0
        for m in ms:
            for nu in nus:
                expected = sinc_overlap_quadrature(2.0 * int(m) * nu)
                worst = max(worst, abs(afkit.l_value(int(m), nu) - expected))
        ok = worst <= 1e-6
        _report("5d [sinc overlap vs quadrature]", ok,
                f"worst abs deviation {worst:.2e} on a 100-point lattice")
        assert ok

    def test_variance_routes_agree(self):
        t_spread = 12
        table = ma_dual_time_table(DEFAULT_MA_WEIGHTS, 1.0, N, t_spread)
        nus = (np.arange(2 * N) - N) / (2.0 * N)
        dense = np.zeros((2 * N - 1, 2 * N), dtype=complex)
        lags = np.arange(-(t_spread - 1), t_spread)
        auto = 2.0 * ma_analytic_autocorr(DEFAULT_MA_WEIGHTS, 1.0, lags)
        for lag, a in zip(lags, auto):
            dense[lag + (N - 1), :] = (
                dirichlet(N - abs(lag), nus)
                * np.exp(-1j * np.pi * nus * (N + lag - 1))
                * a
            )
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(20):
            # |nu| <= 0.45: at the frequency edge the variance nearly
            # vanishes and relative comparison loses meaning for both routes
            k = int(rng.integers(N - int(0.9 * N), N + int(0.9 * N) + 1))
            nu = (k - N) / (2.0 * N)
            tau = int(rng.integers(-N // 2, N // 2 + 1))
            v1 = underspread_variance(table, t_spread, nu, tau)
            v2 = variance_from_af(dense, N, t_spread, nu, tau)
            worst = max(worst, abs(v1 - v2) / abs(v1))
        ok = worst <= 0.10
        _report("5e [variance routes]", ok, f"worst rel diff {worst:.3f} over 20 cells")
        assert ok


class TestCriterion6MomentOracles:
    """Ensemble screens of the closed forms, 2000 trials, 10 interior cells,
    4 sample standard errors."""

    TRIALS = 2000

    def test_deterministic_plus_noise_moments(self):
        rng = np.random.default_rng(61)
        cells = _interior_cells(rng, 10)
        psd = 0.6
        t = np.arange(N)
        g = np.exp(1j * np.pi * (2 * 0.1 * t + 9.0196e-4 * t * t))
        forms = {c: prop1_moments(g, psd, c[0], c[1], N) for c in cells}
        zs = _ensemble(ChirpInNoise(0.1, 9.0196e-4, psd), cells, self.TRIALS, 611)
        worst = max(max(_moment_deviations(zs[c], forms[c])) for c in cells)
        ok = worst <= 4.0
        _report("6a [noisy deterministic moments]", ok, f"worst deviation {worst:.2f} SE")
        assert ok

    def test_stationary_moments(self):
        rng = np.random.default_rng(62)
        cells = _interior_cells(rng, 10)
        spectrum = ma_analytic_spectrum(DEFAULT_MA_WEIGHTS, 1.0)
        lags = sorted({c[1] for c in cells})
        auto_vals = 2.0 * ma_analytic_autocorr(DEFAULT_MA_WEIGHTS, 1.0, lags)
        auto = dict(zip(lags, auto_vals))
        forms = {c: prop2_moments(auto, spectrum, c[0], c[1], N) for c in cells}
        zs = _ensemble(MovingAverage(), cells, self.TRIALS, 622)
        worst = max(max(_moment_deviations(zs[c], forms[c])) for c in cells)
        ok = worst <= 4.0
        _report("6b [stationary moments]", ok, f"worst deviation {worst:.2f} SE")
        assert ok

    def test_modulated_moments(self):
        # tau = 0 is excluded: there the second moment picks up the
        # complementary (improper) part of the analytic process, which the
        # proper-process closed forms deliberately omit
        rng = np.random.default_rng(63)
        cells = _interior_cells(rng, 10, skip_zero_tau=True)
        sigma = um_modulation_spectrum(0.09, N)
        forms = {c: prop3_moments(sigma, c[0], c[1], N) for c in cells}
        zs = _ensemble(UniformlyModulated(0.09), cells, self.TRIALS, 633)
        worst = max(max(_moment_deviations(zs[c], forms[c])) for c in cells)
        ok = worst <= 4.0
        _report("6c [modulated moments]", ok, f"worst deviation {worst:.2f} SE")
        assert ok

    def test_underspread_variance(self):
        rng = np.random.default_rng(64)
        cells = _interior_cells(rng, 10)
        t_spread = 12
        table = ma_dual_time_table(DEFAULT_MA_WEIGHTS, 1.0, N, t_spread)
        zs = _ensemble(MovingAverage(), cells, self.TRIALS, 644)
        worst = 0.0
        for c, z in zs.items():
            w = z - z.mean()
            s2 = float(np.sum(np.abs(w) ** 2) / (z.size - 1))
            m4 = float(np.mean(np.abs(w) ** 4))
            se = np.sqrt(max(m4 - s2**2, 1e-300) / z.size)
            thv = underspread_variance(table, t_spread, c[0], c[1])
            worst = max(worst, abs(s2 - thv) / se)
        ok = worst <= 4.0
        _report("6d [underspread variance]", ok, f"worst deviation {worst:.2f} SE")
        assert ok


class TestCriterion7Normality:
    def test_off_support_cells_look_gaussian(self):
        trials = 2000
        cells = [(0.11, 9), (-0.21, 14), (0.30, -22), (-0.07, 33), (0.17, -51)]
        zs = _ensemble(MovingAverage(), cells, trials, 777)
        worst_skew, worst_kurt = 0.0, 0.0
        for c, z in zs.items():
            den = np.sqrt((N - abs(c[1])) * (0.5 - abs(c[0])))
            s = z / den
            for part in (s.real, s.imag):
                worst_skew = max(worst_skew, abs(stats.skew(part)))
                worst_kurt = max(worst_kurt, abs(stats.kurtosis(part)))
        ok = worst_skew < 0.15 and worst_kurt < 0.3
        _report(
            "7 [asymptotic normality screen]",
            ok,
            f"worst |skew|={worst_skew:.3f} (<0.15), worst |excess kurtosis|="
            f"{worst_kurt:.3f} (<0.3), 5 cells x re/im, 2000 trials",
        )
        assert ok
