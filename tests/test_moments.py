import numpy as np
import pytest

from afkit.emaf import _conjugate_symmetric, _flip_lags, _mirror_lags, compute_emaf, lattice
from afkit.moments import (
    DEFAULT_GRID_SIZE,
    MomentTriple,
    SpectrumTable,
    _reference,
    _windowed_transform,
    l_value,
    ma_analytic_autocorr,
    ma_analytic_spectrum,
    ma_dual_time_table,
    ma_real_spectral_density,
    naf_for_process,
    prop1_moments,
    prop2_moments,
    prop3_moments,
    um_modulation_spectrum,
    underspread_relation,
    underspread_variance,
    variance_from_af,
)
from afkit.sigcore import (
    DEFAULT_MA_WEIGHTS,
    PROCESSES,
    AnalyticWhiteNoise,
    ChirpInNoise,
    MovingAverage,
    TimeVaryingMA,
    UniformlyModulated,
    dirichlet,
    generate,
)

from conftest import emaf_at


def sinc_overlap_quadrature(a, half_width=2000.0, step=0.02):
    """Numerical overlap integral of sinc(f) sinc(f+a) df (test oracle).

    Trapezoid over [-F, F] plus the analytic non-oscillatory tail
    cos(pi a)/(2 pi^2) int_{|f|>F} df/(f(f+a)); the remaining oscillatory
    tail cancels to O(1/F^2).
    """
    f = np.arange(-half_width, half_width + step, step)
    body = np.trapezoid(np.sinc(f) * np.sinc(f + a), f)
    if abs(a) >= half_width:
        raise ValueError("offset outside the quadrature window")
    if a == 0:
        tail = 1.0 / (np.pi**2 * half_width)
    else:
        tail = (
            np.cos(np.pi * a)
            / (2.0 * np.pi**2 * a)
            * np.log((half_width + a) / (half_width - a))
        )
    return body + tail


def prop3_relation_loop(mod_spectrum, nu, tau):
    """Prop 3 relation with one inner quadrature per outer node (oracle)."""
    a, b = max(0.0, nu), 0.5 + min(0.0, nu)
    alphas = np.linspace(a, b, 513)

    def inner(alpha):
        fs = np.linspace(a, b, 1025)
        vals = (
            mod_spectrum.at(fs - alpha + nu)
            * np.conj(mod_spectrum.at(fs - nu - alpha))
            * np.exp(2j * np.pi * (fs + alpha) * tau)
        )
        return np.trapezoid(vals, fs)

    inner_vals = np.array([inner(al) for al in alphas])
    return np.exp(-4j * np.pi * nu * tau) * np.trapezoid(inner_vals, alphas)


def underspread_relation_loop(m_table, t_spread, nu, tau):
    """Underspread relation for tau >= 0, one pass per lag offset (oracle)."""
    n_t = m_table.shape[0]
    if tau >= t_spread:
        return 0j

    def m_at(t, lag):
        out = np.zeros(t.size, dtype=complex)
        if abs(lag) <= t_spread - 1:
            ok = (t >= 0) & (t < n_t)
            out[ok] = m_table[t[ok], lag + t_spread - 1]
        return out

    xs = np.arange(0, n_t - tau)
    total = 0j
    for tp in range(1 - t_spread, t_spread):
        phase = np.exp(-2j * np.pi * nu * (2 * xs + 2 * tau - tp))
        total += np.sum(phase * m_at(xs + tau, tp + tau) * np.conj(m_at(xs, tp - tau)))
    return total


def nonstationary_table(n, t_spread):
    """The MA dual-time table with each row scaled by a seeded random factor."""
    table = ma_dual_time_table(DEFAULT_MA_WEIGHTS, 1.0, n, t_spread)
    return table * np.random.default_rng(17).uniform(0.5, 1.5, size=(n, 1))


class TestLValue:
    def test_zero_offset(self):
        assert l_value(10, 0.0) == pytest.approx(1.0)

    def test_unit_offset_zero(self):
        assert l_value(100, 1.0 / 200.0) == pytest.approx(0.0, abs=1e-12)

    def test_known_value(self):
        assert l_value(10, 0.01) == pytest.approx(0.935489, abs=1e-6)

    def test_oracle_self_check(self):
        # the quadrature oracle is itself validated at analytic points
        assert sinc_overlap_quadrature(0.0) == pytest.approx(1.0, abs=1e-6)
        assert sinc_overlap_quadrature(1.0) == pytest.approx(0.0, abs=1e-6)

    def test_against_quadrature_lattice(self):
        rng = np.random.default_rng(8)
        ms = rng.integers(1, 300, size=10)
        nus = rng.uniform(-0.4, 0.4, size=10)
        for m in ms:
            for nu in nus:
                expected = sinc_overlap_quadrature(2.0 * m * nu)
                assert l_value(int(m), nu) == pytest.approx(expected, abs=1e-6)

    def test_rejects_zero_length(self):
        with pytest.raises(ValueError):
            l_value(0, 0.1)


class TestMomentTripleInvariants:
    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            MomentTriple(0j, -1.0, 0j)

    def test_relation_bounded_by_variance(self):
        with pytest.raises(ValueError):
            MomentTriple(0j, 1.0, 2.0 + 0j)

    def test_equality_allowed(self):
        MomentTriple(0j, 1.0, 1.0 + 0j)

    @pytest.mark.parametrize(
        "mean, relation", [(complex("nan"), 0j), (0j, complex("nan")), (complex(np.inf, 0), 0j)]
    )
    def test_non_finite_mean_or_relation_rejected(self, mean, relation):
        with pytest.raises(ValueError):
            MomentTriple(mean, 1.0, relation)

    def test_nan_autocorrelation_rejected(self):
        spectrum = ma_analytic_spectrum(DEFAULT_MA_WEIGHTS, 1.0)
        with pytest.raises(ValueError):
            prop2_moments({3: float("nan")}, spectrum, 0.1, 3, 256)


class TestSpectrumTable:
    def test_power_of_two_enforced(self):
        with pytest.raises(ValueError):
            SpectrumTable(np.ones(1000, dtype=complex), 0.0, 0.5)
        # a column of 2^12 + 1 values used to construct and fail in np.interp
        with pytest.raises(ValueError, match="1-D"):
            SpectrumTable(np.ones((2**12 + 1, 1), dtype=complex), 0.0, 0.5)

    def test_non_finite_value_rejected(self):
        values = np.ones(2**12 + 1, dtype=complex)
        values[7] = np.nan
        with pytest.raises(ValueError, match="spectrum values must be finite"):
            SpectrumTable(values, 0.0, 0.5)

    def test_zero_outside_support(self):
        tab = SpectrumTable(np.ones(2**12 + 1, dtype=complex), 0.0, 0.5)
        assert tab.at(-0.1) == 0.0
        assert tab.at(0.6) == 0.0
        assert tab.at(0.25) == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "f_start, f_stop", [(0.5, 0.0), (0.25, 0.25), (np.nan, 0.5), (0.0, np.inf), (-np.inf, 0.5)]
    )
    def test_empty_or_non_finite_support_rejected(self, f_start, f_stop):
        # such a table used to answer 0 everywhere
        with pytest.raises(ValueError):
            SpectrumTable(np.ones(2**12 + 1, dtype=complex), f_start, f_stop)


class TestProp1:
    def test_rejects_signal_of_another_length(self):
        with pytest.raises(ValueError, match="signal length does not match n"):
            prop1_moments(np.ones(17, dtype=complex), 0.5, 0.1, 2, 16)

    def test_rejects_negative_noise_psd(self):
        with pytest.raises(ValueError, match="noise PSD level must be >= 0"):
            prop1_moments(np.ones(16, dtype=complex), -0.5, 0.1, 2, 16)

    def test_windowed_transform_equals_the_periodic_table(self, rng):
        # The periodic table prop1 used before, kept as the oracle: node k at
        # position k, the argument wrapped into [0, 1) and scaled by q.  The
        # nodes k/q differ from it by a power of two only, so bits must match.
        g = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        f = np.concatenate([np.linspace(-0.6, 1.0, 1601), [-1e-20, 0.5, 1.0 - 2**-53]])
        q = DEFAULT_GRID_SIZE
        for tau in (-5, 0, 3):
            w = g[: 64 - tau] if tau >= 0 else g[-tau:]
            values = np.fft.fft(w, q)
            values = np.append(values, values[0])
            pos, nodes = (f % 1.0) * q, np.arange(q + 1, dtype=float)
            expected = np.interp(pos, nodes, values.real) + 1j * np.interp(pos, nodes, values.imag)
            np.testing.assert_array_equal(_windowed_transform(g, tau).at(f % 1.0), expected)

    def test_zero_signal_even_lag_mean_vanishes(self):
        g = np.zeros(64, dtype=complex)
        trip = prop1_moments(g, 0.5, 0.0, 2, 64)
        assert abs(trip.mean) <= 1e-12

    def test_zero_signal_origin_moments(self):
        n, s2 = 64, 0.5
        trip = prop1_moments(np.zeros(n, dtype=complex), s2, 0.0, 0, n)
        assert trip.mean == pytest.approx(s2 * n / 2.0)
        assert trip.variance == pytest.approx(s2**2 * n / 2.0, rel=1e-9)
        # at the origin the statistic is real, so relation equals variance
        assert trip.relation == pytest.approx(trip.variance, rel=1e-6)

    def test_mean_is_chirp_surface_plus_noise_term(self):
        n = 128
        t = np.arange(n)
        g = np.exp(1j * np.pi * (2 * 0.1 * t + 5e-4 * t * t))
        nu, tau = 0.05, 3
        trip = prop1_moments(g, 0.0, nu, tau, n)
        assert trip.mean == pytest.approx(emaf_at(g, nu, tau), rel=1e-9)

    def test_lag_bound(self):
        with pytest.raises(ValueError):
            prop1_moments(np.zeros(8, dtype=complex), 0.1, 0.0, 8, 8)

    @pytest.mark.parametrize("tau", [2, -2, 4, -6, 10])
    @pytest.mark.parametrize("nu", [0.0, 0.1, -0.31])
    def test_noise_mean_exactly_zero_at_even_lags(self, nu, tau):
        # sinc(tau/2) of a nonzero integer is exactly zero, as in the bias basis
        assert prop1_moments(np.zeros(64, dtype=complex), 0.5, nu, tau, 64).mean == 0


class TestProp2:
    def test_mean_at_zero_frequency(self):
        n = 256
        auto = {3: 0.4 + 0.2j}
        spectrum = ma_analytic_spectrum(DEFAULT_MA_WEIGHTS, 1.0)
        trip = prop2_moments(auto, spectrum, 0.0, 3, n)
        assert trip.mean == pytest.approx((n - 3) * (0.4 + 0.2j), rel=1e-12)

    def test_flat_spectrum_variance(self):
        # flat analytic density sigma2 on [0, 1/2]: variance sigma2^2 N / 2
        n, s2 = 256, 1.3
        flat = SpectrumTable(np.full(2**12 + 1, s2, dtype=complex), 0.0, 0.5)
        trip = prop2_moments({0: s2 / 2.0}, flat, 0.0, 0, n)
        assert trip.variance == pytest.approx(s2**2 * n / 2.0, rel=1e-6)

    def test_relation_magnitude_bounded(self):
        spectrum = ma_analytic_spectrum(DEFAULT_MA_WEIGHTS, 1.0)
        auto = dict.fromkeys(range(-6, 7), 0.0)
        for tau in (0, 2, 5):
            trip = prop2_moments(auto, spectrum, 0.11, tau, 256)
            assert abs(trip.relation) <= trip.variance * (1 + 1e-6)

    def test_coarse_spectrum_rejected(self):
        with pytest.raises(ValueError):
            SpectrumTable(np.ones(2**10 + 1, dtype=complex), 0.0, 0.5)


class TestProp3:
    def test_constant_modulation_mean(self):
        # constant variance: mean at the origin is half the zero-frequency
        # transform value
        n = 256
        q = 2**12
        nus = np.linspace(-0.5, 0.5, q + 1)
        e_n = np.exp(-1j * np.pi * nus * (n - 1)) * dirichlet(n, nus)
        tab = SpectrumTable(4.0 * e_n, -0.5, 0.5)  # 4x transform of ones
        trip = prop3_moments(tab, 0.0, 0, n)
        assert trip.mean == pytest.approx(0.5 * 4.0 * n, rel=1e-6)

    def test_sinc_zero_kills_mean(self):
        # (1/2 - |nu|) tau integer and nonzero -> sinc factor vanishes
        tab = um_modulation_spectrum(0.09, 256)
        trip = prop3_moments(tab, 0.25, 4, 256)
        assert abs(trip.mean) <= 1e-9 * 256

    def test_um_peak_mean_scaling(self):
        # at (nu = 2 f0, tau = 0) the mean is -(1/2 - 2 f0) N within
        # finite-record leakage
        n, f0 = 256, 0.09
        tab = um_modulation_spectrum(f0, n)
        trip = prop3_moments(tab, 2 * f0, 0, n)
        assert trip.mean.real == pytest.approx(-(0.5 - 2 * f0) * n, rel=0.02)

    def test_variance_positive(self):
        tab = um_modulation_spectrum(0.09, 256)
        for nu, tau in ((0.1, 5), (-0.3, 40), (0.02, -77)):
            assert prop3_moments(tab, nu, tau, 256).variance > 0

    @pytest.mark.parametrize("nu, tau", [(0.0, 0), (0.1, 5), (-0.3, 40), (0.02, -77), (-0.17, -3)])
    def test_relation_equals_the_per_node_loop(self, nu, tau):
        tab = um_modulation_spectrum(0.09, 256)
        trip = prop3_moments(tab, nu, tau, 256)
        want = prop3_relation_loop(tab, nu, tau)
        if abs(want) > trip.variance:
            want = want * (trip.variance / abs(want))
        assert trip.relation == complex(want)  # bit for bit


class TestUnderspread:
    def test_constant_table_variance(self):
        n, c = 64, 1.7
        table = np.full((n, 1), c, dtype=complex)
        for tau in (0, 5, n - 1):
            got = underspread_variance(table, 1, 0.2, tau)
            assert got == pytest.approx((n - tau) * c**2, rel=1e-12)

    def test_relation_zero_outside_spread(self):
        table = np.full((64, 5), 0.3, dtype=complex)
        assert underspread_relation(table, 3, 0.1, 3) == 0
        assert underspread_relation(table, 3, 0.1, -7) == 0

    def test_relation_constant_table_origin(self):
        n, c = 64, 0.9
        table = np.full((n, 1), c, dtype=complex)
        got = underspread_relation(table, 1, 0.0, 0)
        assert got == pytest.approx(n * c**2, rel=1e-12)

    def test_variance_real_for_stationary_table(self):
        table = ma_dual_time_table(DEFAULT_MA_WEIGHTS, 1.0, 128, 8)
        # direct complex evaluation must be real up to rounding
        taus_p = np.arange(-7, 8)
        phase = np.exp(-2j * np.pi * 0.17 * taus_p)
        lead, lag = table[4:, :], np.conj(table[:-4, :])
        total = np.sum((lead * lag) @ phase)
        assert abs(total.imag) <= 1e-9 * abs(total.real)

    @pytest.mark.parametrize("fn", [underspread_variance, underspread_relation])
    @pytest.mark.parametrize("nu, tau", [(0.1, 300), (0.7, 0)])
    def test_cell_off_the_plane_rejected(self, fn, nu, tau):
        # on this N = 256 table tau = 300 used to give 0.0 and 0j, and nu = 0.7
        # the values of nu = -0.3 (843.84 and 3.296 - 3.8e-12j)
        table = ma_dual_time_table((1.0, 0.5), 1.0, 256, 12)
        with pytest.raises(ValueError, match="nu = 0.7|tau"):
            fn(table, 12, nu, tau)

    def test_table_shape_checked(self):
        with pytest.raises(ValueError):
            underspread_variance(np.ones((8, 4), dtype=complex), 3, 0.0, 0)

    @pytest.mark.parametrize("fn", [underspread_variance, underspread_relation])
    @pytest.mark.parametrize(
        "table, t_spread",
        [(np.ones(5), 3), (np.ones((2, 8, 5)), 3), (np.ones((8, 4)), 3), (np.ones((8, 1)), 0)],
    )
    def test_tables_checked_alike(self, fn, table, t_spread):
        with pytest.raises(ValueError):
            fn(table, t_spread, 0.1, 0)

    @pytest.mark.parametrize("nu", [0.05, -0.2, 0.37])
    def test_relation_conjugation_symmetry(self, nu):
        # rel(nu, tau] = conj(rel(-nu, -tau]) e^{-j4 pi nu tau} (Hlawatsch &
        # Boudreaux-Bartels 1992), on a table that is not stationary
        n, t_spread = 64, 8
        table = nonstationary_table(n, t_spread)
        taus = np.arange(1 - t_spread, t_spread)
        lhs = np.array([underspread_relation(table, t_spread, nu, tau) for tau in taus])
        rhs = np.array(
            [np.conj(underspread_relation(table, t_spread, -nu, -tau)) for tau in taus]
        ) * np.exp(-4j * np.pi * nu * taus)
        assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(lhs).max()

    @pytest.mark.parametrize("nu", [0.0, 0.05, -0.2, 0.37])
    def test_relation_equals_the_per_lag_loop(self, nu):
        n, t_spread = 64, 8
        for table in (ma_dual_time_table(DEFAULT_MA_WEIGHTS, 1.0, n, t_spread),
                      nonstationary_table(n, t_spread)):
            taus = range(t_spread + 1)
            got = np.array([underspread_relation(table, t_spread, nu, tau) for tau in taus])
            want = np.array([underspread_relation_loop(table, t_spread, nu, tau) for tau in taus])
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestVarianceFromAf:
    def test_zero_surface(self):
        af = np.zeros((31, 32), dtype=complex)
        assert variance_from_af(af, 16, 4, 0.1, 3) == 0.0

    def test_single_cell_mass(self):
        n, a = 16, 2.0 - 1.0j
        af = np.zeros((2 * n - 1, 2 * n), dtype=complex)
        af[n - 1, n] = a  # mass at the origin
        for nu, tau in ((0.0, 0), (0.2, 3), (-0.4, 10)):
            got = variance_from_af(af, n, 5, nu, tau)
            assert got == pytest.approx(abs(a) ** 2 / (2 * n), rel=1e-12)

    def test_cross_check_with_dual_time_sum(self):
        # dense expected surface of the MA process vs the lag-domain sum
        n, t_spread = 256, 12
        table = ma_dual_time_table(DEFAULT_MA_WEIGHTS, 1.0, n, t_spread)
        nus = (np.arange(2 * n) - n) / (2.0 * n)
        dense = np.zeros((2 * n - 1, 2 * n), dtype=complex)
        lags = np.arange(-(t_spread - 1), t_spread)
        auto = 2.0 * np.atleast_1d(ma_analytic_autocorr(DEFAULT_MA_WEIGHTS, 1.0, lags))
        for lag, a in zip(lags, auto):
            dense[lag + (n - 1), :] = (
                dirichlet(n - abs(lag), nus)
                * np.exp(-1j * np.pi * nus * (n + lag - 1))
                * a
            )
        rng = np.random.default_rng(5)
        for _ in range(20):
            # |nu| <= 0.45: at the frequency edge the variance itself nearly
            # vanishes and neither route retains relative accuracy
            k = int(rng.integers(n - int(0.9 * n), n + int(0.9 * n) + 1))
            nu = (k - n) / (2.0 * n)
            tau = int(rng.integers(-n // 2, n // 2 + 1))
            v1 = underspread_variance(table, t_spread, nu, tau)
            v2 = variance_from_af(dense, n, t_spread, nu, tau)
            assert v2 == pytest.approx(v1, rel=0.10)


class TestNafChirp:
    def test_zero_lag_cell(self):
        ref = naf_for_process(ChirpInNoise(0.1, 9.0196e-4), 256)
        assert ref.grid.values[255, 256] == pytest.approx(256.0 + 0j)

    def test_support_count_and_spread(self):
        ref = naf_for_process(ChirpInNoise(0.1, 9.0196e-4), 256)
        assert ref.cells_nonzero == 511
        assert ref.cells_nonzero / ref.grid.values.size == pytest.approx(0.002, rel=0.03)

    def test_known_off_axis_cell(self):
        # tau = 100: nearest bin to beta*tau = 0.090196 is nu = 0.089844,
        # carrying |D_156(0.000352)| ~ 155.2
        ref = naf_for_process(ChirpInNoise(0.1, 9.0196e-4), 256)
        m = 100 + 255
        k = int(np.flatnonzero(ref.support_mask[m])[0])
        assert (k - 256) / 512.0 == pytest.approx(0.089844, abs=1e-6)
        assert abs(ref.grid.values[m, k]) == pytest.approx(155.2, abs=0.1)

    def test_one_cell_per_row(self):
        ref = naf_for_process(ChirpInNoise(0.05, 5e-4), 64)
        assert np.all(ref.support_mask.sum(axis=1) == 1)

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_support_is_the_noise_free_emaf_on_both_lag_signs(self, n):
        # the phase used N + |tau| - 1: every tau < 0 cell was off by up to 0.37 of the peak
        spec = ChirpInNoise()
        ref = naf_for_process(spec, n)
        emaf = compute_emaf(spec.chirp(n)).values
        taus = lattice(n).taus[:, None]
        for lags in (taus < 0, taus >= 0):
            cells = ref.support_mask & lags
            assert np.count_nonzero(cells) == np.count_nonzero(lags)
            err = np.abs(ref.grid.values[cells] - emaf[cells]).max()
            assert err <= 1e-12 * n, err


class TestNafMa:
    def test_support_count_and_spread(self):
        ref = naf_for_process(MovingAverage(DEFAULT_MA_WEIGHTS, 1.0), 256)
        assert ref.cells_nonzero == 11
        spread = ref.cells_nonzero / ref.grid.values.size
        assert spread == pytest.approx(4.2044e-5, rel=1e-3)

    def test_origin_value(self):
        # N times the lag-zero autocorrelation sum(w_i^2) = 1.241701
        ref = naf_for_process(MovingAverage(DEFAULT_MA_WEIGHTS, 1.0), 256)
        v = ref.grid.values[255, 256]
        expected = 256 * sum(w * w for w in DEFAULT_MA_WEIGHTS)
        assert v.real == pytest.approx(expected, rel=1e-9)
        assert abs(v.imag) <= 1e-9 * abs(v.real)

    def test_off_axis_zero(self):
        ref = naf_for_process(MovingAverage(DEFAULT_MA_WEIGHTS, 1.0), 64)
        off = ref.grid.values[:, np.arange(128) != 64]
        assert np.all(off == 0)

    def test_autocorr_quadrature_matches_weights(self):
        # lag-zero transform equals the time-domain sum of squared weights
        a0 = ma_analytic_autocorr(DEFAULT_MA_WEIGHTS, 1.0, 0)
        assert a0.real == pytest.approx(sum(w * w for w in DEFAULT_MA_WEIGHTS), rel=1e-9)
        assert abs(a0.imag) <= 1e-9

    def test_autocorr_lag_column_equals_one_lag_at_a_time(self):
        # one quadrature over a column of lags, bit for bit the per-lag values
        lags = np.arange(-9, 10)
        column = ma_analytic_autocorr(DEFAULT_MA_WEIGHTS, 1.0, lags)
        one = [ma_analytic_autocorr(DEFAULT_MA_WEIGHTS, 1.0, int(t)) for t in lags]
        assert column.tobytes() == np.array(one).tobytes()


class TestNafUm:
    def test_three_cells(self):
        ref = naf_for_process(UniformlyModulated(0.09), 256)
        assert ref.cells_nonzero == 3
        assert ref.grid.values[255, 256] == pytest.approx(256.0 + 0j)
        k2 = int(round(0.18 * 512)) + 256
        assert ref.grid.values[255, k2] == pytest.approx(-256 * 0.32 + 0j)
        assert ref.grid.values[255, 2 * 256 - k2] == pytest.approx(-256 * 0.32 + 0j)

    def test_spread(self):
        ref = naf_for_process(UniformlyModulated(0.09), 256)
        spread = ref.cells_nonzero / ref.grid.values.size
        assert spread == pytest.approx(1.1466e-5, rel=1e-3)


class TestNafTvma:
    def test_support_count(self):
        ref = naf_for_process(TimeVaryingMA(DEFAULT_MA_WEIGHTS, 0.042), 256)
        assert ref.cells_nonzero == 33

    def test_off_band_zero(self):
        n = 256
        ref = naf_for_process(TimeVaryingMA(DEFAULT_MA_WEIGHTS, 0.042), n)
        k2 = int(round(2 * 0.042 * 2 * n))
        bands = {n, n + k2, n - k2}
        for k in range(2 * n):
            if k not in bands:
                assert np.all(ref.grid.values[:, k] == 0)

    def test_origin_matches_time_domain_variance(self):
        # expected origin value N * M_R[0]; time-domain check via the
        # modulated-process variance accumulated over the record
        n, f0 = 256, 0.042
        ref = naf_for_process(TimeVaryingMA(DEFAULT_MA_WEIGHTS, f0), n)
        m_r0 = sum(w * w for w in DEFAULT_MA_WEIGHTS)
        t = np.arange(n)
        time_domain = 2.0 * m_r0 * np.sum(np.sin(2 * np.pi * f0 * t) ** 2)
        v = ref.grid.values[n - 1, n].real
        assert v == pytest.approx(n * m_r0, rel=1e-6)
        assert v == pytest.approx(time_domain, rel=0.02)

    def test_reduces_to_um_for_unit_weights(self):
        n, f0 = 128, 0.09
        ref = naf_for_process(TimeVaryingMA((1.0,), f0), n)
        um = naf_for_process(UniformlyModulated(f0), n)
        np.testing.assert_allclose(
            ref.grid.values[n - 1], um.grid.values[n - 1], rtol=1e-6, atol=1e-9
        )


class TestNafDispatch:
    def test_all_processes(self):
        for spec, count in (
            (ChirpInNoise(), 511),
            (MovingAverage(), 11),
            (UniformlyModulated(), 3),
            (TimeVaryingMA(), 33),
            (AnalyticWhiteNoise(), 1),
        ):
            ref = naf_for_process(spec, 256)
            assert ref.cells_nonzero == count

    def test_noise_reference_origin(self):
        ref = naf_for_process(AnalyticWhiteNoise(0.6), 256)
        assert ref.grid.values[255, 256] == pytest.approx(256 * 0.3)


def _edge_specs(n):
    # lines within a rounding of nu = +-1/2 or of each other, and a chirp whose
    # sweep ends within 1/(4N) of 1/2
    return [
        UniformlyModulated(0.2499), UniformlyModulated(1e-5),
        TimeVaryingMA(f0=0.2499), TimeVaryingMA(f0=1e-5),
        ChirpInNoise(1.0 / (8 * n), (0.5 - 3.0 / (16 * n)) / (n - 1)),
    ]


def _dense_reference(n, tau, nu, values):
    """The dense builder the sparse NAFReference replaced, kept as the oracle
    of its bits: (grid, support mask, support count).  Each line goes to its
    nearest cell on the whole plane, each cell takes its first value and adds
    the others, then grid and mask get their tau < 0 rows by the mirror."""
    lat = lattice(n)
    tau, nu, values = (np.ravel(a) for a in np.broadcast_arrays(tau, nu, values))
    rows, cols = lat.cell(tau, nu)
    keys = np.ravel_multi_index((rows, cols % (2 * n)), lat.shape)
    cells, first = np.unique(keys, return_index=True)
    grid, mask = np.zeros(lat.shape, dtype=complex), np.zeros(lat.shape, dtype=bool)
    grid.flat[cells], mask.flat[cells] = values[first], True
    np.add.at(grid.ravel(), np.delete(keys, first), np.delete(values, first))
    _mirror_lags(grid, grid[: n - 1])
    _flip_lags(mask, mask[: n - 1])
    return grid, mask, int(np.count_nonzero(mask))


def _assert_dense_bits(ref, dense, msg=""):
    grid, mask, count = dense
    np.testing.assert_array_equal(ref.grid.values.view(np.uint64), grid.view(np.uint64), err_msg=msg)
    np.testing.assert_array_equal(ref.support_mask, mask, err_msg=msg)
    assert ref.cells_nonzero == count, msg


class TestReferencePlacement:
    """Every reference surface puts each line in its nearest lattice cell,
    nu taken modulo 1, and lines that land on one cell add."""

    @pytest.mark.parametrize("n", [2, 3, 16, 33, 256, 512])
    def test_sparse_reference_keeps_the_dense_bits(self, n, monkeypatch):
        # the reference holds only its tau >= 0 support; its dense views equal
        # the dense builder's bit for bit, the -0.0 of mirrored zeros included
        specs = [cls() for cls in PROCESSES.values()] + _edge_specs(n)
        if n == 512:
            specs.append(ChirpInNoise(0.1, 9.0196e-4 * 255 / 511))
        checked = 0
        for spec in specs:
            try:
                spec.validate(n)
            except ValueError:
                continue
            ref = naf_for_process(spec, n)
            with monkeypatch.context() as m:
                m.setattr("afkit.moments._reference", _dense_reference)
                dense = naf_for_process(spec, n)
            _assert_dense_bits(ref, dense, str(spec))
            checked += 1
        assert checked >= 5

    def test_lines_on_one_cell_add_in_input_order(self):
        # (1e16 + 1) - 1e16 is 0 and (1e16 - 1e16) + 1 is 1; the lone -0.0 at
        # tau = 2 keeps its sign, and so does its mirror's product
        n = 16
        for values, total in (([1e16, 1.0, -1e16, -0.0], 0.0), ([1e16, -1e16, 1.0, -0.0], 1.0)):
            args = (n, [0, 0, 0, 2], [0.125, 0.125, 0.125, 0.25], values)
            ref = _reference(*args)
            assert ref.grid.values[n - 1, n + 4] == total
            assert np.signbit(ref.values[ref.cells == 2 * 2 * n + n + 8].real).all()
            assert ref.cells_nonzero == 3
            _assert_dense_bits(ref, _dense_reference(*args))

    @pytest.mark.parametrize("tau", [-2, 16])
    def test_line_off_the_tau_nonnegative_rows_is_rejected(self, tau):
        # tau = -2 used to be overwritten by the mirror, leaving an all-zero
        # reference with cells_nonzero 0; tau = N failed inside numpy
        with pytest.raises(ValueError, match=r"0 <= tau < N = 16"):
            _reference(16, tau, 0.125, 5.0)

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_support_is_mirror_symmetric(self, n):
        # tau -> -tau, column k -> (2N - k) mod 2N: the AF symmetry
        # A(-nu, -tau) = conj(A(nu, tau)) up to a phase; clamping nu = +1/2 to
        # the last column broke it
        mirror = (2 * n - np.arange(2 * n)) % (2 * n)
        for spec in [cls() for cls in PROCESSES.values()] + _edge_specs(n):
            mask = naf_for_process(spec, n).support_mask
            assert np.array_equal(mask, mask[::-1, mirror]), spec

    @pytest.mark.parametrize("n", [16, 33, 64, 256])
    def test_every_reference_is_exactly_conjugate_symmetric(self, n):
        # the tau < 0 rows are the _mirror_lags of the tau > 0 rows bit for bit,
        # as in every EMAF, so the benchmark scores each tau < 0 cell as its
        # mirror; they used to be placed from their own values (tvma's were off
        # by 4.2e-5 of the peak at N = 256) and failed the exact test at every N
        for spec in [cls() for cls in PROCESSES.values()] + _edge_specs(n):
            ref = naf_for_process(spec, n)
            assert _conjugate_symmetric(ref.grid.values, exact=True), spec
            assert ref.cells_nonzero == np.count_nonzero(ref.support_mask), spec

    def test_coinciding_lines_add(self):
        # all three lines of UniformlyModulated(1e-5) at N = 64 snap to the
        # origin; the last one used to overwrite the others, leaving -31.99872
        ref = naf_for_process(UniformlyModulated(1e-5), 64)
        assert ref.cells_nonzero == 1
        assert ref.grid.values[63, 64] == pytest.approx(64 - 128 * (0.5 - 2e-5), rel=1e-12)

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_chirp_line_at_the_band_edge_wraps(self, n):
        # beta (N-1) snaps to nu = +1/2, which is the column of nu = -1/2; the
        # value there is still the noise-free EMAF
        spec = _edge_specs(n)[-1]
        ref = naf_for_process(spec, n)
        assert ref.support_mask[2 * n - 2, 0]
        emaf = compute_emaf(spec.chirp(n)).values
        assert np.abs(ref.grid.values - emaf)[ref.support_mask].max() <= 1e-12 * n

    @pytest.mark.parametrize("n", [16, 64, 256])
    @pytest.mark.parametrize("f0", [0.09, 0.2499, 1e-5])
    def test_um_lines_keep_their_total(self, n, f0):
        ref = naf_for_process(UniformlyModulated(f0), n)
        assert ref.grid.values.sum() == pytest.approx(n - 2 * n * (0.5 - 2 * f0), rel=1e-12)

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_tvma_bands_add_on_one_column(self, n):
        # at f0 = 1e-5 the +-2 f0 bands share the nu = 0 column with the centre.
        # Their sum leaves two integrals over bands of width 2 f0 of a density
        # at most (sum |w|)^2, so it is at most (N - |tau|) 4 f0 (sum |w|)^2;
        # one band alone (the last one used to overwrite the others) is O(N)
        f0 = 1e-5
        ref = naf_for_process(TimeVaryingMA(DEFAULT_MA_WEIGHTS, f0), n)
        assert ref.cells_nonzero == len(DEFAULT_MA_WEIGHTS) * 2 - 1
        assert np.count_nonzero(ref.support_mask[:, n]) == ref.cells_nonzero
        bound = n * 4 * f0 * sum(abs(w) for w in DEFAULT_MA_WEIGHTS) ** 2
        assert np.abs(ref.grid.values).max() <= bound


class TestEnsembleAgreement:
    """Spot checks of the closed forms against small ensembles (the full
    2000-trial screens live in the acceptance suite)."""

    def test_prop1_origin_mean(self):
        n, psd, trials = 256, 0.6, 300
        spec = ChirpInNoise(0.1, 9.0196e-4, psd)
        t = np.arange(n)
        g = np.exp(1j * np.pi * (2 * 0.1 * t + 9.0196e-4 * t * t))
        trip = prop1_moments(g, psd, 0.0, 0, n)
        acc = 0.0
        for s in range(trials):
            x = generate(spec, n, 7000 + s)
            acc += emaf_at(x, 0.0, 0)
        acc /= trials
        se = np.sqrt(trip.variance / trials)
        assert abs(acc - trip.mean) <= 4 * se

    def test_prop2_lagged_variance(self):
        n, trials = 256, 500
        nu, tau = 0.1, 3
        spectrum = ma_analytic_spectrum(DEFAULT_MA_WEIGHTS, 1.0)
        auto = {tau: 2.0 * ma_analytic_autocorr(DEFAULT_MA_WEIGHTS, 1.0, tau)}
        trip = prop2_moments(auto, spectrum, nu, tau, n)
        zs = np.array(
            [emaf_at(generate(MovingAverage(), n, 8000 + s), nu, tau) for s in range(trials)]
        )
        s2 = np.sum(np.abs(zs - zs.mean()) ** 2) / (trials - 1)
        assert s2 == pytest.approx(trip.variance, rel=0.10)

    def test_prop3_peak_mean(self):
        # ensemble mean at the off-center modulation line (nu = 2 f0,
        # tau = 0) pins the transform's scaling convention
        n, f0, trials = 256, 0.09, 500
        tab = um_modulation_spectrum(f0, n)
        trip = prop3_moments(tab, 2 * f0, 0, n)
        zs = np.array(
            [emaf_at(generate(UniformlyModulated(f0), n, 8500 + s), 2 * f0, 0)
             for s in range(trials)]
        )
        se = np.sqrt(np.sum(np.abs(zs - zs.mean()) ** 2) / (trials - 1) / trials)
        assert abs(zs.mean() - trip.mean) <= 4 * se
        assert trip.mean.real == pytest.approx(-(0.5 - 2 * f0) * n, rel=0.02)

    def test_underspread_variance_against_ensemble(self):
        n, t_spread, trials = 256, 12, 2000
        nu, tau = 0.2, 4
        table = ma_dual_time_table(DEFAULT_MA_WEIGHTS, 1.0, n, t_spread)
        want = underspread_variance(table, t_spread, nu, tau)
        zs = np.array(
            [emaf_at(generate(MovingAverage(), n, 8600 + s), nu, tau) for s in range(trials)]
        )
        s2 = np.sum(np.abs(zs - zs.mean()) ** 2) / (trials - 1)
        assert s2 == pytest.approx(want, rel=0.10)

    def test_underspread_relation_against_ensemble(self):
        # the pseudo-variance estimator's own noise floor
        # (sigma^2 sqrt(2/K)) exceeds the relation's magnitude at interior
        # cells, so the check is agreement within sampling error, not a
        # relative bound
        n, t_spread, trials = 256, 12, 2000
        nu, tau = 0.05, 2
        table = ma_dual_time_table(DEFAULT_MA_WEIGHTS, 1.0, n, t_spread)
        want = underspread_relation(table, t_spread, nu, tau)
        zs = np.array(
            [emaf_at(generate(MovingAverage(), n, 8700 + s), nu, tau) for s in range(trials)]
        )
        w = zs - zs.mean()
        r_hat = np.sum(w * w) / (trials - 1)
        m4 = np.mean(np.abs(w) ** 4)
        se = np.sqrt(max(m4 - abs(r_hat) ** 2, 1e-300) / trials)
        assert abs(r_hat - want) <= 4 * se
