import numpy as np
import pytest

from afkit.emaf import AmbiguityGrid, compute_emaf
from afkit.moments import naf_for_process
from afkit.sigcore import ChirpInNoise, MovingAverage, UniformlyModulated, generate
from afkit.spread import indicator, lag_band, total_spread
from afkit.thresholding import teaf


def _thresholded(values, n):
    return AmbiguityGrid(values, n, "thresholded")


class TestIndicator:
    def test_all_zero(self):
        g = _thresholded(np.zeros((31, 32), dtype=complex), 16)
        assert not indicator(g).any()

    def test_reference_support(self):
        ref = naf_for_process(UniformlyModulated(0.09), 256)
        assert indicator(ref.grid).sum() == 3
        np.testing.assert_array_equal(indicator(ref.grid), ref.support_mask)

    def test_idempotent_masking(self):
        n = 16
        vals = np.zeros((2 * n - 1, 2 * n), dtype=complex)
        vals[3, 4] = 1.5
        vals[10, 20] = -2j
        g = _thresholded(vals, n)
        mask = indicator(g)
        masked = _thresholded(np.where(mask, vals, 0.0), n)
        np.testing.assert_array_equal(indicator(masked), mask)

    def test_rejects_raw(self):
        g = compute_emaf(np.ones(8, dtype=complex))
        with pytest.raises(ValueError):
            indicator(g)


class TestTotalSpread:
    def test_all_true(self):
        mask = np.ones((31, 32), dtype=bool)
        rep = total_spread(mask)
        assert rep.total_spread == 1.0
        assert rep.nonzero_cells == rep.region_cells == mask.size

    def test_ma_reference_spread(self):
        ref = naf_for_process(MovingAverage((1.0, 0.33, 0.266, 0.2, 0.133, 0.066), 1.0), 256)
        rep = total_spread(indicator(ref.grid))
        assert rep.total_spread == pytest.approx(4.2044e-5, rel=1e-3)
        assert rep.nonzero_cells == 11
        assert rep.region_cells == 512 * 511

    def test_chirp_single_lag_band(self):
        ref = naf_for_process(ChirpInNoise(0.1, 9.0196e-4), 256)
        rep = total_spread(indicator(ref.grid), lag_band(256, 0))
        assert rep.total_spread == pytest.approx(1.0 / 512.0, rel=1e-12)
        assert rep.region_cells == 512

    def test_ratio_is_exact_fraction(self):
        mask = np.zeros((7, 8), dtype=bool)
        mask[2, 3] = mask[4, 1] = True
        rep = total_spread(mask)
        assert rep.total_spread == 2 / 56

    def test_monotone_in_mask(self, rng):
        shape = (15, 16)
        small = rng.random(shape) < 0.2
        big = small | (rng.random(shape) < 0.2)
        region = rng.random(shape) < 0.5
        region[0, 0] = True
        assert (
            total_spread(small, region).total_spread
            <= total_spread(big, region).total_spread
        )

    def test_unknown_region_string_rejected(self):
        with pytest.raises(ValueError, match="unknown region 'half'"):
            total_spread(np.ones((7, 8), dtype=bool), "half")

    def test_region_mask_of_another_shape_rejected(self):
        with pytest.raises(ValueError, match="region mask shape mismatch"):
            total_spread(np.ones((7, 8), dtype=bool), np.ones((8, 7), dtype=bool))

    def test_empty_region_rejected(self):
        mask = np.ones((7, 8), dtype=bool)
        with pytest.raises(ValueError):
            total_spread(mask, np.zeros((7, 8), dtype=bool))

    def test_thresholded_never_exceeds_raw(self):
        x = generate(MovingAverage(), 128, 2)
        g = compute_emaf(x)
        raw_spread = total_spread(g.values != 0).total_spread
        thr_spread = total_spread(indicator(teaf(g))).total_spread
        assert thr_spread <= raw_spread
        assert raw_spread == pytest.approx(1.0, abs=1e-6)

    def test_lag_band_bounds(self):
        with pytest.raises(ValueError):
            lag_band(16, 16)
