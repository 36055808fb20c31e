import json
import math
import tracemalloc

import numpy as np
import pytest

from afkit.bench import MCConfig, _kernel
from afkit.emaf import (
    AmbiguityGrid,
    Lattice,
    _conjugate_symmetric,
    _flip_lags,
    _lattice,
    _mirror_lags,
    _tiles,
    compute_emaf,
    lattice,
    standardize,
)
from afkit.sigcore import (
    DEFAULT_MA_WEIGHTS,
    PROCESSES,
    AnalyticWhiteNoise,
    ChirpInNoise,
    MovingAverage,
    TimeVaryingMA,
    UniformlyModulated,
    generate,
    white_noise_mean,
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

from conftest import U, gamma, mirror_power_error


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
    @pytest.mark.parametrize("cfg, cause", [
        (ThresholdConfig(region_count=0), "need at least one region"),
        (ThresholdConfig(method="nope"), "unknown threshold method 'nope'"),
    ])
    def test_config_rejected(self, cfg, cause):
        with pytest.raises(ValueError, match=cause):
            cfg.validate()

    def test_zero_regions_rejected(self):
        with pytest.raises(ValueError, match="need at least one region"):
            lattice(16).partition(0)

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

    def test_a_non_integer_count_never_reaches_the_partition_cache(self):
        # ThresholdConfig(region_count=8.0) used to cache a float16-labelled
        # partition under the key 8.0 == 8, and every later region_count=8 call
        # at that N then failed to cast its labels
        n = 29
        g = compute_emaf(generate(MovingAverage(), n, 2))
        for bad in (8.0, True, np.float64(8.0)):
            with pytest.raises(ValueError, match="region count must be an integer"):
                lteaf(g, cfg=ThresholdConfig(region_count=bad))
            for partition in (lambda: lattice(n).partition(bad), lambda: make_partition(n, bad)):
                with pytest.raises(ValueError, match="region count must be an integer"):
                    partition()
        est = lteaf(g)
        assert est.n == n
        assert lattice(n).partition(8).region_index.dtype.kind in "iu"
        assert make_partition(n, np.int64(8)) is lattice(n).partition(8)


def test_separable_labels_and_rim_match_the_maxnorm_grid():
    # partition and rim are built from per-axis labels; the formula they
    # replace built the whole max-norm grid max(|tau|/(N-1+eps), |nu|/(1/2+eps))
    def maxnorm_ratio(lat, eps=0.0):
        r_tau = np.abs(lat.taus) / (lat.n - 1.0 + eps)
        r_nu = np.abs(lat.nus) / (0.5 + eps)
        return np.maximum(r_tau[:, None], r_nu[None, :])

    for n in (2, 3, 7, 16, 31, 64, 128, 256, 512, 1000):
        lat = Lattice(n)  # a private lattice: the shared cache keeps its own tables
        ratio = maxnorm_ratio(lat, eps=1e-9)
        for k in (1, 2, 3, 5, 8, 13, 64):
            want = np.minimum(k - 1, np.floor(k * ratio)).astype(np.min_scalar_type(-k))
            got = lat.partition(k).region_index
            assert got.dtype == want.dtype, (n, k)
            np.testing.assert_array_equal(got, want, err_msg=f"n={n} k={k}")
        ratio = maxnorm_ratio(lat)
        for fraction in (0.05, 0.1, 0.25, 0.49):
            np.testing.assert_array_equal(lat.rim(fraction), ratio >= 1.0 - fraction, err_msg=f"n={n} f={fraction}")


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
        assert _sigma4([np.full(15 * 16, 3.0)]) == pytest.approx(3.0 / math.log(2.0), rel=1e-12)

    def test_single_cell_mask(self):
        assert _sigma4([np.array([4.0])]) == pytest.approx(4.0 / math.log(2.0), rel=1e-12)

    def test_even_count_median(self):
        assert _sigma4([np.array([1.0, 3.0])]) == pytest.approx(2.0 / math.log(2.0), rel=1e-12)

    def test_noise_population_value(self):
        # squared standardized noise cells ~ sigma^4 * (1/2)chi^2_2;
        # the ln2-adjusted median estimates sigma^4 = 0.36
        n, psd = 256, 0.6
        est = []
        for s in range(50):
            x = generate(AnalyticWhiteNoise(psd), n, 1000 + s)
            std = standardize(compute_emaf(x))
            est.append(_sigma4([np.abs(std.values) ** 2]))
        assert np.mean(est) == pytest.approx(psd**2, rel=0.10)

    def test_empty_mask(self):
        with pytest.raises(ValueError, match="empty region"):
            _sigma4([np.empty(0)])


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
            for got in (_median([a]), _median([a], scratch)):
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
                    for got in (_median([a], pairs=[pairs]), _median([a], scratch, [pairs])):
                        assert self._bits(got) == self._bits(want), (a, pairs)
                np.testing.assert_array_equal(c, before)  # a and pairs keep their order

    @staticmethod
    def _blocks(values, count, rng):
        # values cut into count contiguous blocks (some empty), each of an even
        # size shaped as two rows, as the kernel copies its rectangles
        cuts = np.sort(rng.integers(0, values.size + 1, count - 1))
        blocks = np.split(values, cuts)
        return [b.reshape(2, -1) if b.size % 2 == 0 and b.size else b for b in blocks]

    def test_blocks_bit_identical_to_numpy(self, rng):
        # a and pairs given as 1-3 blocks each, copied in order: the same bits
        # as the one-block median of their concatenation, signed zeros and NaN
        # payloads included, without pairs and with them
        payload = np.array([0x7FF80000000ABCDE], dtype=np.uint64).view(float)[0]
        cases = [np.array(c) for c in self.CASES] + [np.array([1.0, payload, 2.0]), np.array([0.5, -payload])]
        cases += [rng.standard_exponential(size) for size in (1, 2, 7, 8, 255, 256, 4097)]
        cases += [rng.integers(0, 3, size).astype(float) for size in (9, 10, 101, 1000, 4097)]
        for c in cases:
            for cut in {c.size, c.size // 2, 0}:
                a, pairs = c[:cut], c[cut:]
                with np.errstate(invalid="ignore"):
                    want = np.median(np.concatenate([a, pairs, pairs]))
                    for count in (1, 2, 3):
                        once, twice = self._blocks(a, count, rng), self._blocks(pairs, count, rng)
                        scratch = np.full(c.size + 3, 42.0)
                        for got in (_median(once, pairs=twice), _median(once, scratch, twice)):
                            assert self._bits(got) == self._bits(want), (once, twice)
                        assert np.concatenate([b.ravel() for b in (*once, *twice)]).tobytes() == c.tobytes()

    def test_non_finite_anywhere_is_nan_with_finite(self):
        for a, pairs in (([1.0], [np.inf, 1.0, 1.0]), ([np.nan, 1.0], [1.0, 2.0]), ([], [1.0, np.nan]),
                         ([np.inf, 1.0, 2.0], [3.0]), ([1.0], [2.0, np.inf])):
            assert np.isnan(_median([np.array(a)], pairs=[np.array(pairs)], finite=True))

    def test_empty_is_nan_like_numpy(self):
        with pytest.warns(RuntimeWarning):
            assert np.isnan(_median([np.array([])]))


class TestHalfPlane:
    """SurvivorKernel on the rows with tau >= 0 of a conjugate-symmetric grid
    against the same kernel over the whole plane."""

    @staticmethod
    def _flip(mask):
        full = mask.copy()
        _flip_lags(full, full[: (mask.shape[0] - 1) // 2])
        return full

    @staticmethod
    def _check_tiles(part):
        # each merged region's rectangles cover exactly its cells, once each;
        # on the half plane the tau = 0 row is split out and counted once
        labels, cell_region, bounds = part.merged
        n = (cell_region.shape[0] + 1) // 2
        planes = [(_tiles(cell_region, len(labels), False), cell_region, False)]
        if part.half is not None:
            planes.append((part.half, cell_region[n - 1 :], True))
        for tiles, region, half in planes:
            assert len(tiles) == len(labels)
            for i, (once, pairs) in enumerate(tiles):
                covered = np.zeros(region.shape, dtype=int)
                for rows, cols in (*once, *pairs):
                    assert rows.step is None and cols.step is None and rows.start < rows.stop and cols.start < cols.stop
                    covered[rows, cols] += 1
                np.testing.assert_array_equal(covered, region == i)
                if half:
                    assert all(rows == slice(0, 1) for rows, _ in once)
                    assert all(rows.start >= 1 for rows, _ in pairs)
                    cells = sum(covered[t].size for t in once) + 2 * sum(covered[t].size for t in pairs)
                    assert cells == bounds[i + 1] - bounds[i]
                else:
                    assert pairs == []

    @pytest.mark.parametrize("n", [2, 3, 8, 16, 24, 33, 128])
    @pytest.mark.parametrize("k", [1, 3, 8, 50])
    def test_tiles_cover_each_merged_region_once(self, n, k):
        part = make_partition(n, k)
        assert part.half is not None
        if n == 8 and k == 8:  # regions under MIN_REGION_CELLS merge
            assert len(part.merged[0]) < k
        self._check_tiles(part)
        if k == 8 and n == 128:  # annulus j is 2j + 1 rectangles over tau > 0, two runs at tau = 0
            assert [(len(once), len(pairs)) for once, pairs in part.half] == [(1, 1)] + [(2, 2 * j + 1) for j in range(1, k)]

    def test_tiles_of_custom_partitions(self, rng):
        n = 16
        idx = np.empty((2 * n - 1, 2 * n), dtype=int)
        idx[n - 1 :] = rng.integers(0, 4, (n, 2 * n))
        idx[n - 1, n + 1 :] = idx[n - 1, n - 1 : 0 : -1]  # the tau = 0 row is its own mirror
        _flip_lags(idx, idx[: n - 1])
        symmetric = RegionPartition(4, idx)
        assert symmetric.half is not None
        self._check_tiles(symmetric)
        asymmetric = RegionPartition(3, rng.integers(0, 3, (2 * n - 1, 2 * n)))
        assert asymmetric.half is None  # full-plane mode
        self._check_tiles(asymmetric)
        idx = np.zeros((31, 32), dtype=int)
        idx[16:] = 1  # tau > 0 apart from tau < 0: not mirror-symmetric
        assert RegionPartition(2, idx).half is None
        self._check_tiles(RegionPartition(2, idx))

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
                want = [_sigma4([power[cell_region == i]]) for i in range(len(kernel.sigma4[m]))]
                np.testing.assert_array_equal(np.array(want).view(np.uint64), kernel.sigma4[m].view(np.uint64))
            assert kernel.sigma2_w == math.sqrt(_sigma4([power[lattice(n).rim(0.1)]]))

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
            bias_correct(AmbiguityGrid(values, n), 0.4).values, values - 0.4 * _bias_surface(n, slice(None))
        )


def _bias_surface(n, rows):
    """white_noise_mean on the given rows of the lattice of n."""
    lat = lattice(n)
    return white_noise_mean(lat.nus[None, :], lat.taus[rows, None], n)


def gather_oracle(kernel, rim_fraction, raw):
    """The survivor pass as it was before the tiles: |s|^2 of the kernel's
    rows gathered into region order by a stable argsort ((region, tau > 0)
    on the half plane), np.median of each region's tau = 0 cells once and
    tau > 0 cells twice, a per-cell level grid and a boolean rim gather;
    then the whole rows of raw - sigma2_w * bias basis, decided again.
    Returns (sigma4, keep, sigma2_w, corrected rows); sigma4 and keep map
    method -> value, lbteaf's from the corrected rows."""
    n, lat = kernel.n, lattice(kernel.n)
    rows = slice(n - 1 if kernel.half else 0, None)
    sigma4, keep = {}, {}

    def median(cells, once):
        return float(np.median(np.concatenate([cells[:once], cells[once:], cells[once:]])) / math.log(2.0))

    def decide(values, methods):
        power = np.square(np.abs(values * (1.0 / np.sqrt(lat.base))[rows]))
        for m in methods:
            cell_region = kernel.parts[m].merged[1][rows]
            key = cell_region.astype(np.int64) * (2 if kernel.half else 1)
            key[1:] += kernel.half
            gathered = power.ravel()[np.argsort(key.ravel(), kind="stable")]
            bounds = np.cumsum([0, *np.bincount(key.ravel())])
            if kernel.half:
                sigma4[m] = np.array([median(gathered[a:c], b - a) for a, b, c in zip(bounds[0::2], bounds[1::2], bounds[2::2])])
            else:
                sigma4[m] = np.array([median(gathered[a:b], b - a) for a, b in zip(bounds, bounds[1:])])
            keep[m] = power > (kernel.lam2 * sigma4[m])[cell_region]
        return power

    power = decide(raw[rows], [m for m in kernel.keep if m != "lbteaf"])
    rim = lat.rim(rim_fraction)[rows]
    sigma2_w = math.sqrt(median(power[rim], np.count_nonzero(rim[0]) if kernel.half else power.size))
    corrected = raw[rows] - sigma2_w * _bias_surface(n, rows)
    decide(corrected, ["lbteaf"])
    return sigma4, keep, sigma2_w, corrected


class TestKernelOracle:
    """SurvivorKernel's tiles against the gather-based pass, bit for bit."""

    @staticmethod
    def _check(kernel, raw, values):
        # values: raw itself (the corrected rows copied into ws[0]) or ws[0]
        # holding raw's rows (corrected in place)
        n, rows = kernel.n, kernel.rows
        sigma4, keep, sigma2_w, corrected = gather_oracle(kernel, ThresholdConfig().rim_fraction, raw)
        kernel.survive(values)
        out = kernel.corrected(values)[rows]
        assert np.float64(kernel.sigma2_w).tobytes() == np.float64(sigma2_w).tobytes()
        for m in kernel.keep:
            np.testing.assert_array_equal(kernel.sigma4[m].view(np.uint64), sigma4[m].view(np.uint64))
            np.testing.assert_array_equal(kernel.keep[m][rows], keep[m])
        for b, _ in lattice(n).bias(rows.start):
            np.testing.assert_array_equal(out[b].view(np.uint64), corrected[b].view(np.uint64))
        np.testing.assert_array_equal(out, corrected)  # the other rows by value: the input's

    @pytest.mark.parametrize("half", [True, False])
    def test_kernel_matches_the_gather_oracle(self, half):
        # ws[0] holds the record's rows: its tau >= 0 rows computed there on
        # the half plane (compute_emaf fills no others), the whole record copied
        # on the full plane
        cases = [(PROCESSES[name](), 64, METHODS, None) for name in PROCESSES]
        cases += [(ChirpInNoise(), n, ("lbteaf",), None) for n in (16, 64, 256)]
        labels = np.random.default_rng(7).integers(0, 3, (63, 64))  # not mirror-symmetric
        cases.append((ChirpInNoise(), 32, ("lteaf", "lbteaf"), RegionPartition(3, labels)))
        for process, n, methods, part in cases:
            cfg = ThresholdConfig(region_count=8 if part is None else 3)
            kernel = SurvivorKernel(n, cfg, methods, part, half=half)
            assert kernel.half == (half and part is None)
            for seed in (1, 2):
                x = generate(process, n, seed)
                raw = compute_emaf(x).values
                self._check(kernel, raw, raw)
                if kernel.half:
                    compute_emaf(x, kernel.ws[0])
                else:
                    np.copyto(kernel.ws[0], raw)
                self._check(kernel, raw, kernel.ws[0])


def raw_space_rule(grid, lam2, part):
    """The survivor rule as it was stated on raw cells: sigma4_r from the
    regional medians of the mirrored plane of |s|^2 (the multiset the
    half-plane kernel takes), then keep iff |v|^2 > base * (lam2 * sigma4_r).
    Returns (sigma4 per merged region, keep, level per cell)."""
    n, cell_region = grid.n, part.merged[1]
    power = np.abs(standardize(grid).values) ** 2
    _flip_lags(power, power[: n - 1])
    sigma4 = np.array([_sigma4([power[cell_region == i]]) for i in range(len(part.merged[0]))])
    level = (lam2 * sigma4)[cell_region]
    raw_power = np.square(np.abs(grid.values))
    return sigma4, raw_power > np.multiply(lattice(n).base, level), level


class TestStandardizedRule:
    """The kernel compares |s|^2 with lam2 * sigma4_r; the rule it replaces
    compared |v|^2 with base * lam2 * sigma4_r."""

    @staticmethod
    def flip_bound() -> float:
        # Both rules share sigma4, the level L = fl(lam2 sigma4) and the float
        # base b = fl((N-|tau|) w).  Let x = |v|^2 / b exactly.  Old rule:
        # fl(|v|)^2 = |v|^2 (1 + p), |p| <= (1 + g5)^2 (1 + u) - 1 (|z| takes at
        # most five roundings, the square one), and fl(b L) = b L (1 + t),
        # |t| <= u.  New rule: r = fl(1 / fl(sqrt b)) has r^2 b within
        # ((1 + u) / (1 - u))^2 of 1, the scaled parts one rounding each (u on
        # the modulus), then |z| and the square as above, so
        # |s|^2 = x (1 + q), 1 + q <= ((1 + u) / (1 - u))^2 (1 + u)^2 (1 + g5)^2 (1 + u).
        # The two disagree only if x lies between L / (1 + q) and
        # L (1 + t) / (1 + p); then | |s|^2 - L | <= L ((1 + u)(1 + q) / (1 - p) - 1).
        g5 = gamma(5)
        p = (1 + g5) ** 2 * (1 + U) - 1
        q = ((1 + U) / (1 - U)) ** 2 * (1 + U) ** 2 * (1 + g5) ** 2 * (1 + U) - 1
        return (1 + U) * (1 + q) / (1 - p) - 1

    @pytest.mark.parametrize("n", [3, 24, 33, 128, 512])
    def test_kernel_bias_basis_is_the_lattice_rows(self, n):
        # the kernel reads the lattice's bias rows with tau >= 0, tau = 0 and
        # odd tau, the same bits; the tau >= 0 rows they leave out are exactly zero
        kernel, lat = SurvivorKernel(n, ThresholdConfig(region_count=1), ("lbteaf",)), lattice(n)
        assert kernel.half and len(kernel.bias) == len(lat.bias(n - 1)) == 2
        upper = _bias_surface(n, slice(n - 1, None))
        for (b, basis, inv), (rows, table) in zip(kernel.bias, lat.bias(n - 1)):
            assert b == rows and basis is table
            np.testing.assert_array_equal(basis.view(np.uint64), upper[b].view(np.uint64))
            np.testing.assert_array_equal(inv.view(np.uint64), (1.0 / np.sqrt(lat.base))[n - 1 :][b].view(np.uint64))
        assert sum(len(basis) for _, basis, _ in kernel.bias) == 1 + n // 2
        assert not upper[2::2].any()

    def test_the_lattice_builds_the_bias_rows_it_is_asked_for(self):
        # a bench worker's kernel builds the 1 + N/2 rows with tau >= 0 alone, and
        # bias_correct of a conjugate-symmetric grid reads that same table; only a
        # full-plane grid adds the 1 + N rows of the whole plane, 8.4 MB at N = 512
        n = 512
        _lattice.cache_clear()
        lat = lattice(n)
        process = ChirpInNoise(0.1, 9.0196e-4 * 255 / 511, 1.2)  # the default sweep, rescaled to N = 512
        _kernel(MCConfig(process, n=n, trials=1, estimators=("emaf", "teaf", "lbteaf")))
        assert list(lat._bias) == [n - 1]
        assert sum(len(basis) for _, basis in lat.bias(n - 1)) == 1 + n // 2
        zero = np.zeros(lat.shape, dtype=complex)
        bias_correct(AmbiguityGrid(zero, n), 0.4)
        assert list(lat._bias) == [n - 1]
        zero[0, 3] = 1.0  # a tau < 0 cell off its mirror: the grid is corrected on the whole plane
        bias_correct(AmbiguityGrid(zero, n), 0.4)
        assert sorted(lat._bias) == [0, n - 1]
        assert sum(basis.nbytes for _, basis in lat.bias()) == (1 + n) * 2 * n * 16

    @pytest.mark.parametrize("n", [16, 33, 64])
    def test_agrees_with_the_raw_space_rule(self, n):
        bound, rows = self.flip_bound(), slice(n - 1, None)
        kernel = SurvivorKernel(n, ThresholdConfig(), METHODS)
        assert kernel.half
        processes = (MovingAverage(), UniformlyModulated(0.09), TimeVaryingMA(DEFAULT_MA_WEIGHTS, 0.042),
                     ChirpInNoise(), AnalyticWhiteNoise(0.6))
        for process in processes:
            for seed in range(3):
                raw = compute_emaf(generate(process, n, seed))
                kernel.survive(raw.values)
                grids = {"teaf": raw, "lteaf": raw,
                         "lbteaf": bias_correct(raw, kernel.sigma2_w)}
                kernel.corrected(raw.values)
                for m, grid in grids.items():
                    sigma4, keep, level = raw_space_rule(grid, kernel.lam2, kernel.parts[m])
                    np.testing.assert_array_equal(sigma4.view(np.uint64), kernel.sigma4[m].view(np.uint64))
                    flips = kernel.keep[m][rows] != keep[rows]
                    s2 = np.abs(standardize(grid).values[rows]) ** 2
                    assert (np.abs(s2 - level[rows])[flips] <= bound * level[rows][flips]).all(), (process, m)


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
        labels, cell_region, bounds = part.merged
        assert list(labels) == sorted(labels)
        counts = np.bincount(cell_region.ravel(), minlength=len(labels))
        assert counts.size == len(labels) and counts.min() >= MIN_REGION_CELLS
        assert cell_region.dtype == np.uint8
        assert bounds == tuple(np.cumsum([0, *counts]))
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
        with pytest.raises(ValueError, match="grid dimensions"):
            lteaf(g, make_partition(8, 4), ThresholdConfig(region_count=4))

    @pytest.mark.parametrize("method", ["lteaf", "lbteaf"])
    def test_partition_region_count_checked(self, method):
        # the sidecar reports the config's region_count, so it must be the
        # partition's: a partition of 4 regions under the default 8 is refused
        g = compute_emaf(generate(MovingAverage(), 64, 3))
        with pytest.raises(ValueError, match="partition has 4 regions, the config 8"):
            threshold_with_details(g, ThresholdConfig(method=method), make_partition(64, 4))
        _, meta = threshold_with_details(g, ThresholdConfig(method=method, region_count=4), make_partition(64, 4))
        assert meta["region_count"] == 4 and len(meta["cells"]) <= 4


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

    @pytest.mark.parametrize("n", [2, 3, 16, 33, 64, 129])
    def test_a_symmetric_grid_is_the_whole_plane_correction_mirrored(self, rng, n):
        # corrected on its rows with tau >= 0 from bias(n - 1), a conjugate-symmetric
        # grid keeps the bits of a subtraction over the whole plane from bias(0), mirrored
        g = compute_emaf(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        want = g.values.copy()
        for rows, basis in lattice(n).bias():
            want[rows] -= 0.37 * basis
        _mirror_lags(want, want[: n - 1])
        np.testing.assert_array_equal(bias_correct(g, 0.37).values.view(np.uint64), want.view(np.uint64))

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

    def test_rejects_a_grid_that_is_not_raw(self):
        g = compute_emaf(np.ones(8, dtype=complex))
        with pytest.raises(ValueError, match="bias correction expects a raw grid"):
            bias_correct(AmbiguityGrid(g.values, 8, "thresholded"), 0.1)

    def test_negative_zero_parts_on_even_lags_stay(self):
        # the bias basis is +-0 at even tau != 0; those rows are the input's,
        # so a -0.0 part there stays -0.0 (subtracting a +-0 could flip it)
        n = 32
        g = compute_emaf(generate(ChirpInNoise(), n, 5))
        for symmetric in (True, False):
            values = g.values.copy()
            planted = np.zeros(values.shape, dtype=bool)
            for tau in (2, 4, 6) if symmetric else (-4, -2, 2, 4):
                planted[tau + n - 1, 1::2] = True
            values[planted] = np.where(np.arange(planted.sum()) % 2, complex(-0.0, 1e3), complex(1e3, -0.0))
            if symmetric:
                _mirror_lags(values, values[: n - 1])
            else:
                values[n + 3, 8] += 1e-9  # off the planted columns: no longer the mirror
            grid = AmbiguityGrid(values, n)
            assert _conjugate_symmetric(values) == symmetric
            out, meta = threshold_with_details(grid, ThresholdConfig(method="lbteaf"))
            corrected = bias_correct(grid, meta["sigma2_w"]).values
            assert (out.values[planted] != 0).all()
            for got in (out.values[planted], corrected[planted]):
                np.testing.assert_array_equal(got.view(np.uint64), values[planted].view(np.uint64))
            alive = out.values != 0
            np.testing.assert_array_equal(out.values[alive].view(np.uint64), corrected[alive].view(np.uint64))


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
        # one case per estimator, on the half plane and, with one tau < 0 cell
        # moved off its mirror, on the full plane
        estimators = (("teaf", teaf), ("lteaf", lteaf), ("lbteaf", lbteaf))
        for (method, estimator), symmetric in [(e, s) for e in estimators for s in (True, False)]:
            x = generate(ChirpInNoise() if method == "lbteaf" else MovingAverage(), 64, 1)
            g = compute_emaf(x)
            if not symmetric:
                g.values[5, 9] += 1.0
            assert _conjugate_symmetric(g.values) == symmetric
            cfg = ThresholdConfig(method=method)
            before = g.values.copy()
            est, meta = threshold_with_details(g, cfg)
            np.testing.assert_array_equal(g.values.view(np.uint64), before.view(np.uint64))  # never written
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

    def test_a_full_plane_pass_allocates_no_grid_beside_the_kernel(self):
        # On a grid that is not conjugate-symmetric the kernel standardizes
        # every row into its own ws[1], so a call's traced peak is its buffers
        # (ws, real, keep and the full-plane 1 / sqrt(base)) plus less than a
        # quarter of a complex grid; a standardized copy of the plane (16
        # bytes a cell) used to come on top.  The output grid is allocated
        # once the kernel is gone, beside no more than ws and keep.
        n = 256
        g = compute_emaf(generate(ChirpInNoise(), n, 3))
        g.values[5, 9] += 1.0
        for method in METHODS:
            cfg = ThresholdConfig(method=method)
            kernel = SurvivorKernel(n, cfg, (method,), half=False)
            buffers = sum(a.nbytes for a in (kernel.ws, kernel.real, kernel.inv, kernel.keep[method]))
            del kernel
            threshold_with_details(g, cfg)  # the lattice tables are built outside the trace
            tracemalloc.start()
            try:
                threshold_with_details(g, cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= buffers + 4 * g.values.size, (method, peak, buffers)

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
