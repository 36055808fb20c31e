import numpy as np
import pytest

from afkit.emaf import (
    AmbiguityGrid,
    _fold,
    _mirror_lags,
    _unfold,
    compute_emaf,
    lattice,
    standardize,
    to_db,
)
from afkit.sigcore import generate, MovingAverage
from afkit.spread import lag_band
from afkit.thresholding import make_partition

from conftest import U, emaf_direct, gamma, random_complex_signal


class TestGridType:
    def test_shape_and_lattice(self):
        n = 16
        g = compute_emaf(np.ones(n, dtype=complex))
        assert g.shape == (2 * n - 1, 2 * n)
        taus, nus = lattice(n).taus, lattice(n).nus
        assert taus[0] == -(n - 1) and taus[-1] == n - 1
        assert nus[0] == -0.5 and nus[-1] == (n - 1) / (2 * n)

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_cell_inverts_the_axes(self, n):
        lat = lattice(n)
        np.testing.assert_array_equal(lat.cell(lat.taus, 0.0)[0], np.arange(lat.shape[0]))
        np.testing.assert_array_equal(lat.cell(0, lat.nus)[1], np.arange(lat.shape[1]))
        # a point within half a cell of a lattice point maps to that point's cell
        assert lat.cell(2.4, 1.4 / (2 * n)) == (n + 1, n + 1)
        assert lat.cell(-1.6, -1.6 / (2 * n)) == (n - 3, n - 2)
        assert lat.cell(-(n - 1), -0.5) == (0, 0)
        assert lat.cell(n, 0.5) == (lat.shape[0], lat.shape[1])  # beyond the plane

    def test_dimensions_for_paper_scale(self):
        g = compute_emaf(np.ones(256, dtype=complex))
        assert g.shape == (511, 512)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            AmbiguityGrid(np.zeros((3, 4), dtype=complex), 4)

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            AmbiguityGrid(np.zeros((7, 8), dtype=complex), 4, "weird")


class TestLatticeSize:
    # a float n used to pass the shape check ((127.0, 128.0) == (127, 128)) and
    # fail later with a bare TypeError, or build a second, float-shaped lattice
    @pytest.mark.parametrize("bad", [64.0, np.float64(64.0), True, "64"])
    def test_a_non_integer_n_is_rejected_in_one_line(self, bad):
        calls = [
            lambda: lattice(bad),
            lambda: AmbiguityGrid(np.zeros((127, 128), dtype=complex), bad),
            lambda: lag_band(bad, 0),
            lambda: make_partition(bad, 8),
            lambda: generate(MovingAverage(), bad, 1),  # used to quote n plus the MA order
        ]
        for call in calls:
            with pytest.raises(ValueError, match="^n must be an integer, got") as err:
                call()
            assert "\n" not in str(err.value)

    def test_one_lattice_per_n(self):
        assert lattice(np.int64(24)) is lattice(24) is lattice(np.int32(24))
        assert type(lattice(np.int64(24)).n) is int


class TestComputeEmaf:
    def test_origin_cell_is_total_power(self, rng):
        x = random_complex_signal(rng, 64)
        g = compute_emaf(x)
        expected = np.sum(np.abs(x) ** 2)
        assert g.values[63, 64] == pytest.approx(expected, rel=1e-9)

    def test_unit_impulse(self):
        n, t0 = 16, 5
        x = np.zeros(n, dtype=complex)
        x[t0] = 1.0
        g = compute_emaf(x)
        nus = lattice(n).nus
        np.testing.assert_allclose(
            g.values[n - 1, :], np.exp(-2j * np.pi * nus * t0), atol=1e-12
        )
        off = np.delete(g.values, n - 1, axis=0)
        assert np.max(np.abs(off)) <= 1e-12

    def test_matches_brute_force(self, rng):
        x = random_complex_signal(rng, 8)
        g = compute_emaf(x)
        ref = emaf_direct(x)
        np.testing.assert_allclose(g.values, ref, rtol=1e-10, atol=1e-10)

    def test_all_entries_finite(self, rng):
        g = compute_emaf(random_complex_signal(rng, 32))
        assert np.all(np.isfinite(g.values.real)) and np.all(np.isfinite(g.values.imag))

    def test_conjugation_symmetry(self, rng):
        # A(-nu,-tau] = e^{-j2 pi nu tau} conj(A(nu,tau]) away from nu = -1/2
        n = 24
        for _ in range(5):
            x = random_complex_signal(rng, n)
            g = compute_emaf(x)
            scale = np.abs(g.values).max()
            for m in range(2 * n - 1):
                tau = m - (n - 1)
                for k in range(1, 2 * n):
                    nu = (k - n) / (2.0 * n)
                    m2 = -tau + (n - 1)
                    k2 = -(k - n) + n
                    if k2 >= 2 * n:
                        continue
                    lhs = g.values[m2, k2]
                    rhs = np.exp(-2j * np.pi * nu * tau) * np.conj(g.values[m, k])
                    assert abs(lhs - rhs) <= 1e-9 * scale

    def test_row_parseval(self, rng):
        n = 32
        x = random_complex_signal(rng, n)
        g = compute_emaf(x)
        conj = np.conj(x)
        for m in range(2 * n - 1):
            tau = m - (n - 1)
            if tau >= 0:
                prod = x[tau:] * conj[: n - tau]
            else:
                prod = x[: n + tau] * conj[-tau:]
            lhs = np.sum(np.abs(g.values[m]) ** 2) / (2 * n)
            rhs = np.sum(np.abs(prod) ** 2)
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_quadratic_scaling(self, rng):
        x = random_complex_signal(rng, 16)
        g1 = compute_emaf(x)
        g2 = compute_emaf(2.0 * x)  # power-of-two scale: exact in floats
        np.testing.assert_array_equal(g2.values, 4.0 * g1.values)

    def test_too_short(self):
        with pytest.raises(ValueError):
            compute_emaf(np.array([1.0 + 0j]))

    @pytest.mark.parametrize("shape", [(4, 8), (1, 16), (16, 1), ()])
    def test_a_record_that_is_not_1d_is_rejected_in_one_line(self, shape):
        # a 2-D record used to fail inside sliding_window_view
        with pytest.raises(ValueError, match=r"^x must be a 1-D record, got shape \(") as err:
            compute_emaf(np.ones(shape))
        assert "\n" not in str(err.value)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf), complex(np.nan, 1.0)])
    def test_a_record_that_is_not_finite_is_rejected_in_one_line(self, bad):
        # a NaN sample once gave a grid with 16 of its 56 cells finite, silently
        x = np.ones(4, dtype=complex)
        x[2] = bad
        with pytest.raises(ValueError, match=r"^record samples must be finite and at most ") as err:
            compute_emaf(x)
        assert "\n" not in str(err.value)

    @pytest.mark.parametrize("n", [2, 32, 33, 512])
    def test_a_record_whose_lag_sums_could_overflow_is_rejected(self, n, rng):
        # every lag sum is at most N max|x|^2, so up to sqrt(max double / N) no cell overflows
        bound = np.sqrt(np.finfo(float).max / n)
        x = np.exp(2j * np.pi * rng.random(n))
        assert np.isfinite(compute_emaf(0.5 * bound * x).values).all()
        with pytest.raises(ValueError, match=r"^record samples must be finite and at most "):
            compute_emaf(2.0 * bound * x)

    def test_afkit_emaf_rejects_a_record_it_cannot_represent(self, tmp_path, capsys):
        # finite samples near 1e160 at N = 32 once gave a grid with inf and nan cells, and exit 0
        from afkit.cli import main
        from afkit.gridio import write_signal

        sig, out, db = tmp_path / "x.csv", tmp_path / "raw.csv", tmp_path / "db.csv"
        write_signal(sig, np.full(32, 1e160 + 0j))
        assert main(["emaf", "-i", str(sig), "-o", str(out), "--db", str(db)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "record samples must be finite" in err[0], err
        assert not out.exists() and not db.exists()

    # below, at and just past the boundaries of the FFT's row tiles
    @pytest.mark.parametrize("n", [2, 5, 31, 32, 33, 64, 65])
    def test_out_matches_a_fresh_call(self, n, rng):
        # a reused out gives the rows with tau >= 0 a fresh call's bits on
        # every call, stale contents included, and leaves its tau < 0 rows
        out = np.full((2 * n - 1, 2 * n), complex(np.nan, 1.0))
        lower = out[: n - 1].copy()
        for x in _loop_inputs(n, rng):
            got = compute_emaf(x, out)
            assert got.kind == "raw" and got.values is out
            np.testing.assert_array_equal(out[n - 1 :].view(np.uint64),
                                          compute_emaf(x).values[n - 1 :].view(np.uint64))
            np.testing.assert_array_equal(out[: n - 1].view(np.uint64), lower.view(np.uint64))

    @pytest.mark.parametrize("n", [2, 5, 31, 32, 33, 64, 65])
    def test_out_that_is_not_one_complex_plane_is_rejected_in_one_line(self, n, rng):
        # the two-plane workspace compute_emaf used to take, a wrong shape, a float plane
        x = random_complex_signal(rng, n)
        for out in (np.empty((2, 2 * n - 1, 2 * n), dtype=complex), np.empty((2 * n, 2 * n), dtype=complex),
                    np.empty((2 * n - 1, 2 * n))):
            with pytest.raises(ValueError, match=r"^EMAF out must be a complex array of shape") as err:
                compute_emaf(x, out)
            assert "\n" not in str(err.value)


class TestStandardize:
    def test_origin_divisor(self):
        n = 256
        g = compute_emaf(np.ones(n, dtype=complex))
        s = standardize(g)
        v = g.values[n - 1, n]
        assert s.values[n - 1, n] == pytest.approx(v / np.sqrt(n / 2.0), rel=1e-12)

    def test_max_lag_divisor(self):
        n = 64
        x = np.ones(n, dtype=complex)
        g = compute_emaf(x)
        s = standardize(g)
        m = (n - 1) + (n - 1)  # tau = n-1 row
        v = g.values[m, n]
        assert s.values[m, n] == pytest.approx(v / np.sqrt(0.5), rel=1e-12)

    def test_floor_column(self):
        # nu = -1/2 weight floors at 1/(4N): divisor sqrt(256/1024) = 0.5
        n = 256
        g = compute_emaf(np.ones(n, dtype=complex))
        s = standardize(g)
        v = g.values[n - 1, 0]
        assert s.values[n - 1, 0] == pytest.approx(v / 0.5, rel=1e-12)

    def test_requires_raw_or_corrected(self):
        n = 16
        g = compute_emaf(np.ones(n, dtype=complex))
        s = standardize(g)
        with pytest.raises(ValueError):
            standardize(s)

    def test_base_grid_cached_readonly(self):
        base = lattice(32).base
        assert not base.flags.writeable
        assert not lattice(32).inv_sqrt_base.flags.writeable

    @pytest.mark.parametrize("n", [2, 3, 16, 128])
    def test_equals_the_division_bit_for_bit(self, n, rng):
        # numpy divides v by a real s as (re + im*0) * (1/s)
        lat = lattice(n)
        values = rng.standard_normal(lat.shape) + 1j * rng.standard_normal(lat.shape)
        got = standardize(AmbiguityGrid(values, n)).values
        want = np.divide(values, np.sqrt(lat.base))
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        # the nu = -1/2 column, whose weight is floored
        column = [np.ascontiguousarray(v[:, 0]).view(np.uint64) for v in (got, want)]
        np.testing.assert_array_equal(*column)

    def test_zero_parts_differ_at_most_in_sign(self):
        n = 4
        values = np.zeros(lattice(n).shape, dtype=complex)
        values[0, :4] = [complex(-0.0, 1.0), complex(1.0, -0.0), complex(-1.0, -0.0), complex(-0.0, -0.0)]
        got = standardize(AmbiguityGrid(values, n)).values
        want = np.divide(values, np.sqrt(lattice(n).base))
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal((np.abs(got) ** 2).view(np.uint64),
                                      (np.abs(want) ** 2).view(np.uint64))


@pytest.mark.parametrize("n", [3, 16, 127, 128])
class TestHalf:
    # given a buffer, the rows with tau >= 0 carry the full call's bits and
    # the buffer's tau < 0 rows keep the sentinel they held
    SENTINEL = complex(-7.25, np.nan)

    def assert_half(self, got, want, n):
        np.testing.assert_array_equal(got[n - 1 :].view(np.uint64), want[n - 1 :].view(np.uint64))
        sentinel = np.full((n - 1, 2 * n), self.SENTINEL)
        np.testing.assert_array_equal(got[: n - 1].view(np.uint64), sentinel.view(np.uint64))

    def test_half_emaf(self, n, rng):
        x = random_complex_signal(rng, n)
        out = np.full((2 * n - 1, 2 * n), self.SENTINEL)
        got = compute_emaf(x, out).values
        assert got is out
        self.assert_half(got, compute_emaf(x).values, n)

    def test_half_standardize(self, n, rng):
        grid = compute_emaf(random_complex_signal(rng, n))
        out = np.full(grid.shape, self.SENTINEL)
        got = standardize(grid, out)
        assert got.kind == "standardized" and got.values is out
        self.assert_half(out, standardize(grid).values, n)


class TestFoldUnfold:
    # the half-plane rule: a plane-wide reduction takes row tau = 0 once and
    # the rows below it twice, and the tau < 0 rows are a mirror of them
    @pytest.mark.parametrize("n", [2, 3, 16, 127, 128, 512])
    def test_unfolded_profile_is_the_reversed_concatenation(self, n):
        # w(nu) = w(-nu) exactly on the lattice, so flipping the rows and the
        # columns gives the rows reversed, bit for bit
        inv = lattice(n).inv_sqrt_base
        want = np.concatenate((inv[:0:-1], inv))
        np.testing.assert_array_equal(_unfold(inv).view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("n", [2, 3, 16, 127, 128])
    def test_unfolded_half_emaf_is_the_full_emaf(self, n, rng):
        out = np.full((2 * n - 1, 2 * n), np.nan, dtype=complex)
        for signal in _loop_inputs(n, rng):
            half = compute_emaf(signal, out).values[n - 1 :]
            got = _unfold(half, _mirror_lags)
            assert got.shape == (2 * n - 1, 2 * n) and not np.shares_memory(got, out)
            np.testing.assert_array_equal(got.view(np.uint64), compute_emaf(signal).values.view(np.uint64))

    @pytest.mark.parametrize("n", [2, 3, 16, 33])
    def test_fold(self, n, rng):
        h = rng.standard_normal((n, 2 * n))
        h[rng.random(h.shape) < 0.3] = 0.0
        assert np.float64(_fold(np.sum, h)).tobytes() == np.float64(h[0].sum() + 2.0 * h[1:].sum()).tobytes()
        assert _fold(np.size, h) == 2 * h.size - len(h[0]) == (2 * n - 1) * 2 * n
        full = _unfold(h)
        assert _fold(np.count_nonzero, h) == np.count_nonzero(full)
        assert _fold(np.count_nonzero, h != 0) == np.count_nonzero(full)


def _emaf_per_lag_loop(x):
    """compute_emaf as it was written before the one-call lag products: one
    slice product per lag into zeroed rows, the FFT and the half-swap."""
    n = x.size
    rows = np.zeros((2 * n - 1, 2 * n), dtype=complex)
    conj = np.conj(x)
    for m in range(2 * n - 1):
        tau = m - (n - 1)
        if tau >= 0:
            rows[m, tau:n] = x[tau:] * conj[: n - tau]
        else:
            rows[m, : n + tau] = x[: n + tau] * conj[-tau:]
    spectrum = np.fft.fft(rows, axis=1)
    rows[:, :n] = spectrum[:, n:]
    rows[:, n:] = spectrum[:, :n]
    return rows


def _loop_inputs(n, rng):
    """A random record, one with exact zeros and -0.0 parts inside, and its negation."""
    x = random_complex_signal(rng, n)
    sparse = x.copy()
    sparse[::3] = 0.0  # exact zeros inside the record
    sparse[1::4] = complex(-0.0, 1.0)
    return x, sparse, -x


@pytest.mark.parametrize("n", [2, 3, 16, 127, 128])
def test_lag_products_match_the_per_lag_loop(n, rng):
    # the tau >= 0 rows: lag products, FFT and half-swap, bit for bit
    out = np.empty((2 * n - 1, 2 * n), dtype=complex)
    for signal in _loop_inputs(n, rng):
        want = _emaf_per_lag_loop(signal)[n - 1 :].view(np.uint64)
        np.testing.assert_array_equal(compute_emaf(signal).values[n - 1 :].view(np.uint64), want)
        np.testing.assert_array_equal(compute_emaf(signal, out).values[n - 1 :].view(np.uint64), want)


def _root_error(angle, roundings: int):
    """Bound on |computed e^{j angle} - exact| when the computed angle carries
    roundings relative roundings: |e^{j(a + d)} - e^{ja}| <= |d| <= g |exact|
    <= g |angle| / (1 - g), g = gamma_roundings, and exp puts each part within
    1 ulp of a value of modulus <= 1 (2u)."""
    g = gamma(roundings)
    return g * np.abs(angle) / (1 - g) + 2 * np.sqrt(2) * U


# the roots of Lattice.mirror_phases: the angle fl(fl(pi) i) / N, three roundings, |angle| < 2 pi
ROOT_ERROR = _root_error(2 * np.pi, 3)


@pytest.mark.parametrize("n", [2, 3, 16, 24, 33, 127, 128, 512])
def test_mirror_phases_table(n):
    # row r, column k holds e^{j pi i / N}, i = ((k - N) tau) mod 2N, for the
    # lag tau = N-1-r that the row mirrors, bit for bit as np.exp computes it,
    # whether or not 2N is a power of two; read-only and built once
    phases = lattice(n).mirror_phases
    assert phases.shape == (n - 1, 2 * n) and phases is lattice(n).mirror_phases
    with pytest.raises(ValueError):
        phases[0, 0] = 1
    i = ((np.arange(2 * n) - n) * np.arange(n - 1, 0, -1)[:, None]) % (2 * n)
    np.testing.assert_array_equal(phases.view(np.uint64), np.exp(1j * np.pi * i / n).view(np.uint64))


def _mirror_bound(n: int) -> float:
    """Bound on ||new row - loop row||_2 / ||loop row||_2 over the tau < 0 rows.

    Both rows are length-L FFTs, L = 2N a power of two, of inputs of one norm
    (the lag -tau products are the conjugated, shifted lag tau products), so
    by Higham, Accuracy and Stability of Numerical Algorithms, Thm 24.2, each
    is within eps_f ||y||_2 of the exact row y, eps_f = t eta / (1 - t eta),
    t = log2 L, eta = mu + gamma_4 (sqrt 2 + mu) (a radix-4 pass is two
    radix-2 stages, its +-j rotation exact), with mu = ROOT_ERROR, which
    also bounds the FFT's twiddles.  The mirror adds to the FFT error of its
    tau > 0 row a complex product (sqrt 5 u |a||b|, Brent, Percival and
    Zimmermann 2007) with a root off by mu: per row
        ||new - loop|| <= (2 eps_f + (sqrt5 u (1 + mu) + mu)(1 + eps_f)) ||y||,
    and ||y|| <= ||loop|| / (1 - eps_f).
    """
    t = np.log2(2 * n)
    mu = ROOT_ERROR
    eta = mu + gamma(4) * (np.sqrt(2) + mu)
    eps_f = t * eta / (1 - t * eta)
    return (2 * eps_f + (np.sqrt(5) * U * (1 + mu) + mu) * (1 + eps_f)) / (1 - eps_f)


@pytest.mark.parametrize("n", [2, 3, 16, 127, 128, 512])
def test_negative_lags_are_the_mirror_of_the_positive_lags(n, rng):
    # the tau < 0 rows are _mirror_lags of the tau > 0 rows exactly, with or
    # without an out.  Two references built without _mirror_lags bound
    # them: at every n, cell by cell, the loop's tau > 0 rows mirrored by
    # A(nu, -tau] = e^{j 2 pi nu tau} conj(A(-nu, tau]) with the phase from
    # np.exp; where the FFT bound holds, row by row, the per-lag loop itself
    out = np.empty((2 * n - 1, 2 * n), dtype=complex)
    lags = np.arange(n - 1, 0, -1)[:, None]  # tau of the row mirrored into rows tau = -(N-1) .. -1
    columns = (2 * n - np.arange(2 * n)) % (2 * n)  # -nu; nu = -1/2, column 0, is its own mirror
    angle = 2 * np.pi * lattice(n).nus * lags  # four roundings: pi, nu and two products
    phase = np.exp(1j * angle)
    # both sides are one complex product (sqrt 5 u) of the same cell with a root
    # off by ROOT_ERROR and _root_error(angle, 4) respectively
    mu = _root_error(angle, 4)
    cell_bound = ROOT_ERROR + mu + np.sqrt(5) * U * (2 + ROOT_ERROR + mu)
    for signal in _loop_inputs(n, rng):
        got = compute_emaf(signal).values
        mirror = _mirror_lags(got, np.empty((n - 1, 2 * n), dtype=complex))
        np.testing.assert_array_equal(got[: n - 1].view(np.uint64), mirror.view(np.uint64))
        np.testing.assert_array_equal(compute_emaf(signal, out).values[n - 1 :].view(np.uint64),
                                      got[n - 1 :].view(np.uint64))
        loop = _emaf_per_lag_loop(signal)
        source = loop[n - 1 + lags, columns]
        assert (np.abs(got[: n - 1] - phase * np.conj(source)) <= cell_bound * np.abs(source)).all()
        if n & (n - 1) == 0:  # the FFT error bound is derived for power-of-two lengths
            gap = np.linalg.norm(got[: n - 1] - loop[: n - 1], axis=1)
            assert (gap <= _mirror_bound(n) * np.linalg.norm(loop[: n - 1], axis=1)).all()


class TestToDb:
    def test_amplitude_unit(self):
        vals = np.array([[1.0 + 0j]])
        g = AmbiguityGrid(np.ones((31, 32), dtype=complex), 16)
        assert to_db(g)[0, 0] == pytest.approx(0.0)

    def test_zero_clamps(self):
        arr = np.zeros((2, 2))
        assert np.all(to_db(arr.astype(complex)) == -300.0)

    def test_realistic_grid(self):
        x = generate(MovingAverage(), 64, 0)
        g = compute_emaf(x)
        db = to_db(g)
        assert np.all(np.isfinite(db))
        assert db.max() == pytest.approx(20 * np.log10(np.abs(g.values).max()))
