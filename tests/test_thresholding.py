import json
import math

import numpy as np
import pytest

from afkit.emaf import (
    AmbiguityGrid,
    _conjugate_symmetric,
    _flip_lags,
    _mirror_lags,
    compute_emaf,
    lattice,
    standardize,
)
from afkit.sigcore import (
    DEFAULT_MA_WEIGHTS,
    AnalyticWhiteNoise,
    ChirpInNoise,
    MovingAverage,
    TimeVaryingMA,
    UniformlyModulated,
    generate,
)
from afkit.thresholding import (
    METHODS,
    MIN_REGION_CELLS,
    RegionPartition,
    SurvivorKernel,
    ThresholdConfig,
    _median,
    _sigma4,
    bias_correct,
    lbteaf,
    lteaf,
    make_partition,
    teaf,
    threshold_level,
    threshold_with_details,
)

from conftest import U, mirror_power_error


class TestThresholdLevel:
    def test_values(self):
        assert threshold_level(512, 1.0) == pytest.approx(16.138, abs=1e-3)
        assert threshold_level(2, 1.0) == pytest.approx(0.653, abs=1e-3)

    def test_monotone_in_collection_size(self):
        assert threshold_level(1024, 1.0) > threshold_level(512, 1.0)

    def test_monotone_in_exponent(self):
        assert threshold_level(512, 2.0) > threshold_level(512, 1.0)

    def test_rejects_small_collections(self):
        with pytest.raises(ValueError):
            threshold_level(1)


class TestPartition:
    def test_single_region(self):
        part = make_partition(64, 1)
        assert np.all(part.region_index == 0)

    def test_center_cell(self):
        n = 64
        part = make_partition(n, 8)
        assert part.region_index[n - 1, n] == 0

    def test_extreme_frequency_cell(self):
        n = 256
        part = make_partition(n, 8)
        # nu = -1/2 at tau = 0 has max-norm ratio ~ 1 -> outermost region
        assert part.region_index[n - 1, 0] == 7

    def test_every_cell_assigned(self):
        part = make_partition(32, 5)
        assert part.region_index.min() >= 0 and part.region_index.max() <= 4

    def test_nested_in_maxnorm(self):
        n = 32
        part = make_partition(n, 6)
        taus = np.arange(-(n - 1), n)
        nus = (np.arange(2 * n) - n) / (2.0 * n)
        ratio = np.maximum(
            (np.abs(taus) / (n - 1.0))[:, None], (np.abs(nus) / 0.5)[None, :]
        )
        order = np.argsort(ratio.ravel())
        labels = part.region_index.ravel()[order]
        assert np.all(np.diff(labels) >= 0)


class TestRimRegion:
    def test_tiny_fraction_keeps_only_boundary(self):
        n = 32
        mask = lattice(n).rim(1e-9)
        taus = np.arange(-(n - 1), n)
        nus = (np.arange(2 * n) - n) / (2.0 * n)
        boundary = (np.abs(taus) == n - 1)[:, None] | (np.abs(nus) == 0.5)[None, :]
        np.testing.assert_array_equal(mask, boundary)

    def test_center_never_in_rim(self):
        n = 64
        assert not lattice(n).rim(0.49)[n - 1, n]

    def test_known_cell(self):
        # nu = 0.46 has ratio 0.92 >= 0.9
        n = 256
        k = int(round(0.46 * 2 * n)) + n
        assert lattice(n).rim(0.1)[n - 1, k]

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            lattice(16).rim(0.0)
        with pytest.raises(ValueError):
            lattice(16).rim(0.5)


class TestEstimateSigma4:
    """_sigma4, the variance rule of every estimator, on squared standardized cells."""

    def test_constant_grid(self):
        assert _sigma4(np.full(15 * 16, 3.0)) == pytest.approx(3.0 / math.log(2.0), rel=1e-12)

    def test_single_cell_mask(self):
        assert _sigma4(np.array([4.0])) == pytest.approx(4.0 / math.log(2.0), rel=1e-12)

    def test_even_count_median(self):
        assert _sigma4(np.array([1.0, 3.0])) == pytest.approx(2.0 / math.log(2.0), rel=1e-12)

    def test_noise_population_value(self):
        # squared standardized noise cells ~ sigma^4 * (1/2)chi^2_2;
        # the ln2-adjusted median estimates sigma^4 = 0.36
        n, psd = 256, 0.6
        est = []
        for s in range(50):
            x = generate(AnalyticWhiteNoise(psd), n, 1000 + s)
            std = standardize(compute_emaf(x))
            est.append(_sigma4(np.abs(std.values.ravel()) ** 2))
        assert np.mean(est) == pytest.approx(psd**2, rel=0.10)

    def test_empty_mask(self):
        with pytest.raises(ValueError, match="empty region"):
            _sigma4(np.empty(0))


class TestMedian:
    CASES = [
        [3.0],
        [2.0, 1.0],
        [5.0, 1.0, 4.0, 1.0, 5.0],
        [2.0, 2.0, 7.0, 1.0, 2.0, 2.0],  # ties
        [0.0, -0.0, -0.0, 0.0, -0.0],  # signed zeros
        [-0.0, 0.0, 0.0, -0.0],
        [-0.0, -0.0],
        [-1.0, 1.0],
        [np.inf, 1.0, np.inf, 2.0],
        [-np.inf, np.inf],
        [1.0, np.nan, 2.0, 3.0],
        [np.nan, 1.0, 2.0],
        [np.nan, -np.nan, 1.0, 2.0],
    ]

    @staticmethod
    def _bits(v):
        return np.float64(v).tobytes()

    def test_bit_identical_to_numpy(self, rng):
        cases = [np.array(c) for c in self.CASES]
        cases += [rng.standard_exponential(size) for size in (1, 2, 7, 8, 255, 256, 4097)]
        cases += [rng.integers(0, 3, size).astype(float) for size in (9, 10, 101, 1000)]
        for a in cases:
            before = a.copy()
            scratch = np.full(a.size + 3, 42.0)
            for got in (_median(a), _median(a, scratch)):
                assert self._bits(got) == self._bits(np.median(a)), a
            np.testing.assert_array_equal(a, before)  # a keeps its order

    def test_pairs_bit_identical_to_numpy(self, rng):
        # the weighted median, each cell of pairs counted twice, is np.median
        # of the explicit multiset a + pairs + pairs bit for bit: every case as
        # a with no pairs and split into a and pairs, an empty a included
        payload = np.array([0x7FF80000000ABCDE], dtype=np.uint64).view(float)[0]  # a NaN payload
        cases = [np.array(c) for c in self.CASES] + [np.array([1.0, payload, 2.0]), np.array([0.5, -payload])]
        cases += [rng.standard_exponential(size) for size in (1, 2, 7, 8, 255, 256, 4097)]
        cases += [rng.integers(0, 3, size).astype(float) for size in (9, 10, 101, 1000, 4097)]
        for c in cases:
            cuts = range(c.size + 1) if c.size <= 16 else (0, 1, c.size // 3, c.size // 2, c.size - 1, c.size)
            for cut in cuts:
                a, pairs = c[:cut], c[cut:]
                before = c.copy()
                with np.errstate(invalid="ignore"):
                    want = np.median(np.concatenate([a, pairs, pairs]))
                    scratch = np.full(c.size + 3, 42.0)
                    for got in (_median(a, pairs=pairs), _median(a, scratch, pairs)):
                        assert self._bits(got) == self._bits(want), (a, pairs)
                np.testing.assert_array_equal(c, before)  # a and pairs keep their order

    def test_non_finite_anywhere_is_nan_with_finite(self):
        for a, pairs in (([1.0], [np.inf, 1.0, 1.0]), ([np.nan, 1.0], [1.0, 2.0]), ([], [1.0, np.nan]),
                         ([np.inf, 1.0, 2.0], [3.0]), ([1.0], [2.0, np.inf])):
            assert np.isnan(_median(np.array(a), pairs=np.array(pairs), finite=True))

    def test_empty_is_nan_like_numpy(self):
        with pytest.warns(RuntimeWarning):
            assert np.isnan(_median(np.array([])))


class TestHalfPlane:
    """SurvivorKernel on the rows with tau >= 0 of a conjugate-symmetric grid
    against the same kernel over the whole plane."""

    @staticmethod
    def _flip(mask):
        full = mask.copy()
        _flip_lags(full, full[: (mask.shape[0] - 1) // 2])
        return full

    def test_half_order_of_a_partition(self):
        for n, k in ((8, 8), (32, 5), (64, 8)):
            part = make_partition(n, k)
            order, segments = part.half
            labels, cell_region, _, full_bounds = part.merged
            region = cell_region[n - 1 :].ravel()
            positive = np.arange(region.size) >= 2 * n  # the tau > 0 rows
            assert len(segments) == len(labels) and segments[-1][2] == region.size
            for i, (first, pair, end) in enumerate(segments):
                np.testing.assert_array_equal(order[first:pair], np.flatnonzero((region == i) & ~positive))
                np.testing.assert_array_equal(order[pair:end], np.flatnonzero((region == i) & positive))
                assert pair - first + 2 * (end - pair) == full_bounds[i + 1] - full_bounds[i]
        assert make_partition(16, 1).half == (None, [(0, 32, 16 * 32)])
        idx = np.zeros((31, 32), dtype=int)
        idx[16:] = 1  # tau > 0 apart from tau < 0: not mirror-symmetric
        assert RegionPartition(2, idx).half is None

    def test_sigma4_is_the_full_plane_median_of_the_mirrored_plane(self):
        # bit for bit: replacing every tau < 0 power by its mirror's gives the
        # full plane whose per-region medians the half-plane kernel takes
        n = 64
        kernel = SurvivorKernel(n, ThresholdConfig(), ("teaf", "lteaf", "lbteaf"))
        assert kernel.half
        for seed in range(3):
            raw = compute_emaf(generate(TimeVaryingMA(DEFAULT_MA_WEIGHTS, 0.042), n, seed)).values
            kernel.survive(raw)
            power = np.abs(standardize(AmbiguityGrid(raw, n)).values) ** 2
            _flip_lags(power, power[: n - 1])
            for m in ("teaf", "lteaf"):
                cell_region = kernel.parts[m].merged[1]
                want = [_sigma4(power[cell_region == i]) for i in range(len(kernel.sigma4[m]))]
                np.testing.assert_array_equal(np.array(want).view(np.uint64), kernel.sigma4[m].view(np.uint64))
            assert kernel.sigma2_w == math.sqrt(_sigma4(power[lattice(n).rim(0.1)]))

    @pytest.mark.parametrize("n", [16, 64, 128])
    def test_half_plane_agrees_with_the_full_plane(self, n):
        # Every cell of the half-plane multiset is the full plane's cell or its
        # mirror's, whose power is within delta (mirror_power_error) of it, so
        # each order statistic, and sigma4, is within the rounding of the mean
        # of two and of / ln 2 of that.  The level adds two products; a
        # survivor may flip only where |v|^2 lies within that of the level.
        delta, r = mirror_power_error(), (1 + U) / (1 - U)
        sigma_bound = (1 + delta) * r**2 - 1
        level_bound = (1 + sigma_bound) * r**2 - 1
        flip_bound = (1 + delta) * (1 + level_bound) - 1
        lat = lattice(n)
        half, full = (SurvivorKernel(n, ThresholdConfig(), ("teaf", "lteaf", "lbteaf"), half=h) for h in (True, False))
        assert half.half and not full.half
        processes = (MovingAverage(), UniformlyModulated(0.09), TimeVaryingMA(DEFAULT_MA_WEIGHTS, 0.042),
                     AnalyticWhiteNoise(0.6))
        for process in processes:
            for seed in range(3):
                raw = compute_emaf(generate(process, n, seed)).values
                half.survive(raw)
                full.survive(raw)
                assert abs(half.sigma2_w - full.sigma2_w) <= (math.sqrt(1 + sigma_bound) * r - 1) * full.sigma2_w
                for m in ("teaf", "lteaf"):
                    assert (np.abs(half.sigma4[m] - full.sigma4[m]) <= sigma_bound * full.sigma4[m]).all()
                    flips = self._flip(half.keep[m]) != full.keep[m]
                    level = lat.base * (full.lam2 * full.sigma4[m])[full.parts[m].merged[1]]
                    power = np.abs(raw) ** 2
                    assert (np.abs(power - level)[flips] <= flip_bound * level[flips]).all()

    def test_keep_of_a_cell_is_the_keep_of_its_mirror(self):
        n = 64
        g = compute_emaf(generate(UniformlyModulated(0.09), n, 4))
        for method in METHODS:
            est, meta = threshold_with_details(g, ThresholdConfig(method=method))
            alive = est.values != 0
            np.testing.assert_array_equal(alive, self._flip(alive))
            assert sum(meta["survivors"].values()) == np.count_nonzero(alive)

    def test_bias_correction_keeps_the_symmetry(self):
        n = 32
        g = compute_emaf(generate(ChirpInNoise(), n, 1))
        assert _conjugate_symmetric(bias_correct(g, 0.4).values, exact=True)
        values = g.values.copy()
        values[3, 7] += 1e-9  # no longer the mirror: corrected cell by cell
        np.testing.assert_array_equal(
            bias_correct(AmbiguityGrid(values, n), 0.4).values, values - 0.4 * lattice(n).bias_basis
        )


class TestTeaf:
    def test_zero_grid_stays_zero(self):
        n = 16
        g = AmbiguityGrid(np.zeros((2 * n - 1, 2 * n), dtype=complex), n)
        out = teaf(g)
        assert np.all(out.values == 0)
        assert out.kind == "thresholded"

    def test_hard_threshold_identity(self, rng):
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        g = compute_emaf(x)
        out = teaf(g)
        alive = out.values != 0
        np.testing.assert_array_equal(out.values[alive], g.values[alive])

    def test_ma_low_lag_core_always_survives(self):
        # the nu = 0 cells at |tau| <= 1 carry means far above threshold
        n = 256
        for s in range(100):
            x = generate(MovingAverage(), n, 2000 + s)
            out = teaf(compute_emaf(x))
            for lag in (-1, 0, 1):
                assert out.values[lag + (n - 1), n] != 0

    def test_ma_support_band_survival_rates(self):
        # per-trial survival of the whole nu = 0, |tau| <= 5 band is
        # limited by the outer lags, whose means sit near the threshold
        n, trials = 256, 100
        all5 = 0
        for s in range(trials):
            x = generate(MovingAverage(), n, 2000 + s)
            out = teaf(compute_emaf(x))
            all5 += all(
                out.values[lag + (n - 1), n] != 0 for lag in range(-5, 6)
            )
        assert all5 >= 10  # frozen Monte Carlo floor (observed 20/100)

    def test_monotone_in_exponent(self):
        x = generate(MovingAverage(), 128, 5)
        g = compute_emaf(x)
        alive1 = teaf(g, ThresholdConfig(c_exponent=1.0)).values != 0
        alive2 = teaf(g, ThresholdConfig(c_exponent=2.0)).values != 0
        assert np.all(alive2 <= alive1)

    def test_scale_invariant_survivor_set(self):
        x = generate(MovingAverage(), 128, 6)
        g = compute_emaf(x)
        base = teaf(g).values != 0
        for c in (2.0, 3.0, 0.5):
            scaled = teaf(compute_emaf(c * x)).values != 0
            np.testing.assert_array_equal(base, scaled)

    def test_requires_raw(self):
        g = standardize(compute_emaf(np.ones(8, dtype=complex)))
        with pytest.raises(ValueError):
            teaf(g)


class TestLteaf:
    def test_single_region_equals_teaf(self):
        x = generate(MovingAverage(), 128, 7)
        g = compute_emaf(x)
        a = teaf(g)
        b = lteaf(g, make_partition(128, 1), ThresholdConfig(region_count=1))
        np.testing.assert_array_equal(a.values, b.values)

    def test_noise_survivor_fraction(self):
        # tail bound: surviving fraction stays well under 1%
        n = 256
        part = make_partition(n, 8)
        fracs = []
        for s in range(50):
            x = generate(AnalyticWhiteNoise(0.6), n, 3000 + s)
            out = lteaf(compute_emaf(x), part)
            fracs.append(np.count_nonzero(out.values) / out.values.size)
        assert max(fracs) <= 0.01

    def test_um_keeps_the_three_reference_peaks(self):
        # interior tau = 0 survivors collapse to the three reference peaks
        # plus at most the Dirichlet main lobe around each (width 1/N, i.e.
        # +-3 bins); the peaks themselves survive together in most trials
        n, f0, trials = 256, 0.09, 50
        part = make_partition(n, 8)
        k2 = int(round(2 * f0 * 2 * n))
        peaks = {n, n + k2, n - k2}
        allowed = set()
        for k in peaks:
            allowed |= set(range(k - 3, k + 4))
        interior = ~lattice(n).rim(0.1)
        m0 = n - 1
        all3 = 0
        for s in range(trials):
            x = generate(UniformlyModulated(f0), n, 5000 + s)
            out = lteaf(compute_emaf(x), part)
            row_alive = set(np.flatnonzero((out.values[m0] != 0) & interior[m0]))
            assert row_alive <= allowed
            all3 += peaks <= row_alive
        assert all3 / trials >= 0.8  # frozen Monte Carlo floor (observed 0.88)

    def test_small_regions_merge(self):
        # a tiny grid with many regions forces the merge rule; the cells
        # per region must never drop below the median stability floor
        x = generate(MovingAverage((1.0, 0.5), 1.0), 8, 1)
        g = compute_emaf(x)
        part = make_partition(8, 8)
        assert min(np.count_nonzero(part.region_index == k) for k in range(8)) < MIN_REGION_CELLS
        out = lteaf(g, part, ThresholdConfig(region_count=8))
        assert out.kind == "thresholded"
        labels, cell_region, order, bounds = part.merged
        assert list(labels) == sorted(labels)
        counts = np.bincount(cell_region.ravel(), minlength=len(labels))
        assert counts.size == len(labels) and counts.min() >= MIN_REGION_CELLS
        assert cell_region.dtype == np.uint8 and order.dtype == np.int32
        assert bounds == tuple(np.cumsum([0, *counts]))
        # stable: row-major inside each region, as a boolean mask would gather
        for i in range(len(labels)):
            np.testing.assert_array_equal(
                order[bounds[i]:bounds[i + 1]], np.flatnonzero(cell_region == i)
            )
        assert part.merged is make_partition(8, 8).merged

    def test_merge_map_in_the_sidecar(self):
        # the sidecar's merged field names the annuli folded into each merged
        # label; with them, each label's cell count is the sum of its annuli's
        x = generate(MovingAverage((1.0, 0.5), 1.0), 8, 1)
        part = make_partition(8, 8)
        _, meta = threshold_with_details(compute_emaf(x), ThresholdConfig(method="lteaf"), part)
        sidecar = json.dumps(meta, allow_nan=False)  # strict JSON, as `afkit threshold --meta` writes it
        merged = json.loads(sidecar)["merged"]
        assert set(merged) == set(meta["cells"])
        assert any(merged.values())  # this grid does merge
        annuli = [int(label) for label in merged] + [a for folded in merged.values() for a in folded]
        sizes = np.bincount(part.region_index.ravel(), minlength=8)
        assert sorted(annuli) == np.flatnonzero(sizes).tolist()  # each annulus with cells once
        for label, folded in merged.items():
            assert int(label) not in folded
            assert meta["cells"][label] == sizes[[int(label), *folded]].sum()
        _, single = threshold_with_details(compute_emaf(x), ThresholdConfig(method="teaf"))
        assert single["merged"] == {"0": []}

    def test_partition_shape_checked(self):
        g = compute_emaf(np.ones(16, dtype=complex))
        with pytest.raises(ValueError):
            lteaf(g, make_partition(8, 4))


class TestBiasCorrect:
    def test_even_nonzero_lags_unchanged(self, rng):
        n = 32
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        g = compute_emaf(x)
        b = bias_correct(g, 0.7)
        for lag in (-6, -2, 2, 4, 8):
            np.testing.assert_array_equal(
                b.values[lag + (n - 1)], g.values[lag + (n - 1)]
            )

    def test_origin_subtracts_half_power(self):
        n = 64
        g = compute_emaf(np.zeros(n, dtype=complex) + 1.0)
        b = bias_correct(g, 0.5)
        expected = g.values[n - 1, n] - 0.5 * n / 2.0
        assert b.values[n - 1, n] == pytest.approx(expected, rel=1e-12)

    def test_zero_variance_is_identity(self, rng):
        x = rng.standard_normal(16) + 0j
        g = compute_emaf(x)
        b = bias_correct(g, 0.0)
        np.testing.assert_array_equal(b.values, g.values)

    def test_unbiased_on_pure_noise(self):
        # ensemble mean of the corrected grid is zero within sampling noise
        n, psd, trials = 256, 0.6, 200
        acc = np.zeros((2 * n - 1, 2 * n), dtype=complex)
        acc2 = np.zeros((2 * n - 1, 2 * n))
        for s in range(trials):
            x = generate(AnalyticWhiteNoise(psd), n, 9000 + s)
            b = bias_correct(compute_emaf(x), psd)
            acc += b.values
            acc2 += np.abs(b.values) ** 2
        mean = acc / trials
        var = acc2 / trials - np.abs(mean) ** 2
        se = np.sqrt(var / trials)
        assert np.max(np.abs(mean) / se) <= 5.0

    def test_rejects_negative_variance(self):
        g = compute_emaf(np.ones(8, dtype=complex))
        with pytest.raises(ValueError):
            bias_correct(g, -0.1)


class TestLbteaf:
    def test_zero_grid(self):
        n = 16
        g = AmbiguityGrid(np.zeros((2 * n - 1, 2 * n), dtype=complex), n)
        out = lbteaf(g)
        assert np.all(out.values == 0)

    def test_pure_chirp_matches_local_thresholding(self):
        # without noise the rim estimate and the correction are negligible,
        # so the survivor set must coincide with plain region-local
        # thresholding of the raw grid (up to razor-edge cells)
        n = 256
        part = make_partition(n, 8)
        total_missing, total_cells = 0, 0
        for alpha, beta in ((0.05, 5e-4), (0.1, 9.0196e-4), (0.15, 1.2e-3)):
            x = generate(ChirpInNoise(alpha, beta, 0.0), n, 1)
            g = compute_emaf(x)
            ref = lteaf(g, part).values != 0
            got = lbteaf(g, part).values != 0
            total_missing += np.count_nonzero(ref & ~got)
            total_cells += np.count_nonzero(ref)
        assert total_missing <= 0.01 * total_cells

    def test_chirp_in_noise_survivor_fraction(self):
        # sparse line reconstruction: a few percent of the plane survives
        n = 256
        part = make_partition(n, 8)
        fracs = []
        for s in range(10):
            x = generate(ChirpInNoise(0.1, 9.0196e-4, 0.6), n, 4000 + s)
            out = lbteaf(compute_emaf(x), part)
            fracs.append(np.count_nonzero(out.values) / out.values.size)
        assert 0.005 <= np.mean(fracs) <= 0.03

    def test_survivors_carry_corrected_values(self):
        # nonzero outputs equal the bias-corrected cells exactly
        n = 128
        x = generate(ChirpInNoise(0.1, 9.0196e-4, 0.6), n, 3)
        g = compute_emaf(x)
        part = make_partition(n, 8)
        out, meta = threshold_with_details(g, ThresholdConfig(method="lbteaf"), part)
        corrected = bias_correct(g, meta["sigma2_w"])
        alive = out.values != 0
        assert np.any(alive)
        np.testing.assert_array_equal(out.values[alive], corrected.values[alive])


class TestThresholdWithDetails:
    def test_metadata_fields(self):
        # one case per estimator
        for method, estimator in (("teaf", teaf), ("lteaf", lteaf), ("lbteaf", lbteaf)):
            x = generate(ChirpInNoise() if method == "lbteaf" else MovingAverage(), 64, 1)
            g = compute_emaf(x)
            cfg = ThresholdConfig(method=method)
            before = g.values.copy()
            est, meta = threshold_with_details(g, cfg)
            np.testing.assert_array_equal(g.values, before)  # the input grid is never written
            assert meta["method"] == method
            assert meta["lambda2"] == pytest.approx(threshold_level(128, 1.0))
            assert set(meta["sigma4"]) and all(v > 0 for v in meta["sigma4"].values())
            assert set(meta["cells"]) == set(meta["survivors"]) == set(meta["sigma4"])
            assert sum(meta["cells"].values()) == g.values.size
            if method == "teaf":  # the one-region partition
                assert meta["cells"] == {"0": g.values.size}
            assert sum(meta["survivors"].values()) == np.count_nonzero(est.values)
            np.testing.assert_array_equal(est.values, estimator(g, cfg=cfg).values)
            json.dumps(meta, allow_nan=False)

    def test_hand_built_partition_honoured(self):
        # two halves along tau: the merged regions follow the given labels
        n = 16
        g = compute_emaf(generate(MovingAverage(), n, 4))
        idx = np.zeros(g.shape, dtype=int)
        idx[n:] = 1
        _, meta = threshold_with_details(
            g, ThresholdConfig(method="lteaf", region_count=2), RegionPartition(2, idx)
        )
        assert meta["cells"] == {"0": n * 2 * n, "1": (n - 1) * 2 * n}

    def test_partition_labels_checked(self):
        g = compute_emaf(np.ones(8, dtype=complex))
        part = RegionPartition(2, np.full(g.shape, 2))
        with pytest.raises(ValueError):
            lteaf(g, part, ThresholdConfig(region_count=2))

    def test_non_finite_grid_rejected(self):
        # one NaN cell used to make every threshold NaN: no survivors, spread
        # 0; one inf + 0j cell used to pass every estimator and survive
        n = 32
        g = compute_emaf(generate(ChirpInNoise(), n, 2))
        # tau = 0, nu = 0; a rim corner; tau = 9 with its tau < 0 mirror set to match
        for cell, mirrored in (((31, 32), False), ((0, 0), False), ((40, 20), True)):
            for bad in (np.nan, np.inf, -np.inf, complex(1, np.inf), complex(np.inf, np.inf)):
                values = g.values.copy()
                values[cell] = bad
                if mirrored:
                    with np.errstate(all="ignore"):
                        _mirror_lags(values, values[: n - 1])
                for method in METHODS:
                    with pytest.raises(ValueError, match="not finite"):
                        threshold_with_details(AmbiguityGrid(values, 32), ThresholdConfig(method=method))
        # a tau = 1 cell whose square overflows: at nu = 0 its mirror is finite
        # and the grid stays conjugate-symmetric; elsewhere the mirror overflows
        for k in (n, 5):
            values = g.values.copy()
            values[n, k] = 1.5e308 - 1.5e308j
            with np.errstate(all="ignore"):
                _mirror_lags(values, values[: n - 1])
            assert _conjugate_symmetric(values) == (k == n)
            for method in METHODS:
                with pytest.raises(ValueError, match="not finite"), np.errstate(over="ignore"):
                    threshold_with_details(AmbiguityGrid(values, 32), ThresholdConfig(method=method))

    def test_lbteaf_metadata_has_noise_level(self):
        x = generate(ChirpInNoise(), 64, 1)
        g = compute_emaf(x)
        est, meta = threshold_with_details(g, ThresholdConfig(method="lbteaf"))
        assert meta["sigma2_w"] > 0
        assert est.kind == "thresholded"
