import numpy as np
import pytest
from scipy.signal import hilbert

from afkit.emaf import lattice
from afkit.sigcore import (
    AnalyticWhiteNoise,
    ChirpInNoise,
    MovingAverage,
    TimeVaryingMA,
    UniformlyModulated,
    _INT_EPS,
    analytic_signal,
    dirichlet,
    generate,
    white_noise_mean,
)


class TestDirichlet:
    def test_removable_singularity_at_zero(self):
        assert dirichlet(4, 0.0) == pytest.approx(4.0, abs=1e-12)

    def test_numerator_zero(self):
        assert dirichlet(256, 1.0 / 256.0) == pytest.approx(0.0, abs=1e-9)

    def test_direct_value(self):
        # sin(pi/2)/sin(pi/4) = sqrt(2)
        assert dirichlet(2, 0.25) == pytest.approx(1.414214, abs=1e-6)

    def test_integer_limit_uses_cos_ratio(self):
        # D_2(f) = 2 cos(pi f), so the limit at f = 1 is -2, not +2.
        assert dirichlet(2, 1.0) == pytest.approx(-2.0, abs=1e-9)

    def test_even_in_f(self):
        f = np.linspace(-3.0, 3.0, 1001)
        for n in (2, 5, 256):
            np.testing.assert_allclose(dirichlet(n, f), dirichlet(n, -f), atol=1e-12)

    def test_broadcasts(self):
        ns = np.array([[2.0], [3.0]])
        fs = np.array([0.1, 0.2, 0.3])
        out = dirichlet(ns, fs)
        assert out.shape == (2, 3)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            dirichlet(0, 0.1)


def _where_dirichlet(n, f):
    # the np.where form dirichlet had, which evaluated the limit on every cell
    n_arr, f_arr = np.asarray(n, dtype=float), np.asarray(f, dtype=float)
    near = np.abs(f_arr - np.round(f_arr)) < _INT_EPS
    safe = np.where(near, 1.0, np.sin(np.pi * f_arr))
    with np.errstate(invalid="ignore", divide="ignore"):
        main = np.sin(np.pi * f_arr * n_arr) / safe
        limit = n_arr * np.cos(np.pi * f_arr * n_arr) / np.cos(np.pi * f_arr)
    return np.where(near, limit, main)


class TestLatticeTablesKeepTheirBits:
    """dirichlet and white_noise_mean against the expressions they replaced,
    on the lattices the bias basis is built on."""

    @pytest.mark.parametrize("n", [3, 24, 33, 128, 512])
    def test_dirichlet(self, n):
        lat = lattice(n)
        f = np.concatenate([lat.nus, np.arange(-3.0, 4.0), [1e-13, 2.0 - 1e-13, 0.5 + 1e-13]])
        orders = (n - np.abs(lat.taus))[:, None]
        got, want = dirichlet(orders, f[None, :]), _where_dirichlet(orders, f[None, :])
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        for n_, f_ in ((4, 0.0), (2, 1.0), (5, 0.3), (3, -2.0)):
            got = dirichlet(n_, f_)
            assert isinstance(got, float) and got == float(_where_dirichlet(n_, f_))

    @pytest.mark.parametrize("n", [3, 24, 33, 128, 512])
    def test_white_noise_mean(self, n):
        lat = lattice(n)
        nu, tau = lat.nus[None, :], lat.taus[:, None]
        sinc_half = np.where((tau % 2 == 0) & (tau != 0), 0.0, np.sinc(tau / 2.0))
        want = (
            0.5
            * np.exp(-1j * np.pi * nu * (n + tau - 1.0))
            * _where_dirichlet(n - np.abs(tau), nu)
            * np.exp(1j * np.pi * tau / 2.0)
            * sinc_half
        )
        np.testing.assert_array_equal(white_noise_mean(nu, tau, n).view(np.uint64), want.view(np.uint64))
        # Lattice.bias holds the rows tau = 0 and odd tau from its first row on, the same
        # bits; the rows it drops are exactly zero
        for first, rows in ((0, 1 + n - n % 2), (n - 1, 1 + n // 2)):
            kept, tail = np.zeros(2 * n - 1 - first, bool), want[first:]
            for at, basis in lat.bias(first):
                np.testing.assert_array_equal(basis.view(np.uint64), tail[at].view(np.uint64))
                kept[at] = True
            tau = lat.taus[first:]
            np.testing.assert_array_equal(kept, (tau == 0) | (tau % 2 == 1))
            assert np.count_nonzero(kept) == rows and not tail[~kept].any()


class TestAnalyticSignal:
    def test_zeros(self):
        np.testing.assert_array_equal(analytic_signal(np.zeros(16)), np.zeros(16))

    def test_cosine_becomes_complex_exponential(self):
        n, k = 64, 5
        t = np.arange(n)
        x = np.cos(2 * np.pi * k * t / n)
        expected = np.exp(2j * np.pi * k * t / n)
        assert np.max(np.abs(analytic_signal(x) - expected)) <= 1e-10

    def test_parseval_doubling(self):
        # zero-mean input without Nyquist energy: total power doubles
        n = 128
        t = np.arange(n)
        x = np.cos(2 * np.pi * 3 * t / n) + 0.5 * np.sin(2 * np.pi * 17 * t / n)
        a = analytic_signal(x)
        assert np.sum(np.abs(a) ** 2) == pytest.approx(2 * np.sum(x**2), rel=1e-9)

    def test_real_part_preserved(self, rng):
        x = rng.standard_normal(100)
        assert np.max(np.abs(analytic_signal(x).real - x)) <= 1e-10

    def test_negative_bins_vanish(self, rng):
        n = 128
        x = rng.standard_normal(n)
        spec = np.fft.fft(analytic_signal(x))
        neg = np.abs(spec[n // 2 + 1 :])
        assert neg.max() <= 1e-10 * np.abs(spec).max()

    def test_idempotent(self, rng):
        x = rng.standard_normal(96)
        a1 = analytic_signal(x)
        a2 = analytic_signal(a1)
        assert np.max(np.abs(a1 - a2)) <= 1e-10

    def test_agrees_with_scipy(self, rng):
        x = rng.standard_normal(200)
        np.testing.assert_allclose(analytic_signal(x), hilbert(x), atol=1e-10)

    def test_too_short(self):
        with pytest.raises(ValueError):
            analytic_signal(np.array([1.0]))


class TestSpecsValidation:
    def test_chirp_nyquist_guard(self):
        # alpha + beta*(n-1) must stay below 1/2
        ChirpInNoise(0.1, 9.0196e-4, 0.6).validate(256)
        with pytest.raises(ValueError):
            ChirpInNoise(0.1, 2e-3, 0.6).validate(256)
        with pytest.raises(ValueError):
            ChirpInNoise(0.0, 1e-4, 0.6).validate(256)
        with pytest.raises(ValueError):  # sweeps below 0: not analytic
            ChirpInNoise(0.1, -0.002, 0.6).validate(256)

    def test_ma_weights(self):
        with pytest.raises(ValueError):
            MovingAverage((0.0, 1.0)).validate(64)
        with pytest.raises(ValueError):
            MovingAverage((1.0,), xi_var=0.0).validate(64)

    def test_f0_range(self):
        with pytest.raises(ValueError):
            UniformlyModulated(0.3).validate(64)
        with pytest.raises(ValueError):
            TimeVaryingMA(f0=0.25).validate(64)

    def test_noise_psd(self):
        with pytest.raises(ValueError):
            AnalyticWhiteNoise(0.0).validate(64)


class TestGenerate:
    def test_pure_function_of_inputs(self):
        for spec in (
            ChirpInNoise(),
            MovingAverage(),
            UniformlyModulated(),
            TimeVaryingMA(),
            AnalyticWhiteNoise(),
        ):
            a = generate(spec, 128, 99)
            b = generate(spec, 128, 99)
            np.testing.assert_array_equal(a, b)
            c = generate(spec, 128, 100)
            assert np.any(a != c) or isinstance(spec, ChirpInNoise) is False

    def test_rejects_a_single_sample(self):
        with pytest.raises(ValueError, match="need at least two samples"):
            generate(MovingAverage(), 1, 0)

    def test_chirp_without_noise_starts_at_one(self):
        x = generate(ChirpInNoise(0.1, 9.0196e-4, 0.0), 256, 0)
        assert x[0] == pytest.approx(1.0 + 0.0j, abs=1e-12)

    def test_chirp_unit_modulus_without_noise(self):
        x = generate(ChirpInNoise(0.1, 9.0196e-4, 0.0), 256, 0)
        np.testing.assert_allclose(np.abs(x), 1.0, atol=1e-12)

    def test_um_zero_crossings(self):
        # sin(2 pi f0 t) = 0 at multiples of 50 for f0 = 0.09
        x = generate(UniformlyModulated(0.09), 256, 5)
        for t in (0, 50, 100, 150, 200, 250):
            assert abs(x.real[t]) <= 1e-12

    def test_ma_lag0_autocorrelation(self):
        # population value xi_var * sum w_i^2 = 1.241601
        x = generate(MovingAverage(), 10**5, 3)
        lag0 = np.mean(x.real**2)
        assert lag0 == pytest.approx(1.241601, rel=0.05)

    def test_analytic_noise_power(self):
        # flat one-sided PSD sigma2 integrates to sigma2/2
        x = generate(AnalyticWhiteNoise(2.0), 10**5, 7)
        assert np.mean(np.abs(x) ** 2) == pytest.approx(1.0, rel=0.05)

    def test_analytic_noise_no_circular_wrap(self):
        # lag-(n-1) correlation must be consistent with zero, unlike a
        # length-n spectral synthesis which would alias it to the lag-1
        # value psd/pi ~ 0.19; the sampling noise floor here is ~0.02
        n, psd, trials = 256, 0.6, 400
        acc = 0.0
        for s in range(trials):
            x = generate(AnalyticWhiteNoise(psd), n, 50_000 + s)
            acc += x[n - 1] * np.conj(x[0])
        acc /= trials
        assert abs(acc) < 0.25 * psd / np.pi

    def test_stochastic_outputs_are_analytic(self):
        for spec in (MovingAverage(), UniformlyModulated(), TimeVaryingMA()):
            x = generate(spec, 128, 11)
            spec_bins = np.fft.fft(x)
            neg = np.abs(spec_bins[65:])
            assert neg.max() <= 1e-10 * np.abs(spec_bins).max()


class TestSpectralHelpersLiveHere:
    def test_sigcore_imports_nothing_from_moments(self):
        import ast

        import afkit.sigcore

        tree = ast.parse(open(afkit.sigcore.__file__).read())
        sources = [(node.level, node.module) for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        sources += [(0, alias.name) for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names]
        assert not [s for s in sources if s[1] and s[1].split(".")[-1] == "moments"], sources

    def test_moments_reexports_the_one_definition(self):
        import afkit
        import afkit.moments
        import afkit.sigcore

        for name in ("DEFAULT_GRID_SIZE", "ma_real_spectral_density", "_quad"):
            assert getattr(afkit.moments, name) is getattr(afkit.sigcore, name)
        for module in (afkit.moments, afkit.sigcore):  # importing afkit resolved its own names
            for name in module.__all__:
                getattr(module, name)
