import os

import numpy as np
import pytest

from afkit.bench import (
    ACCUMULATION_BLOCK,
    STAGES,
    MCConfig,
    _run_block,
    _scored_cells,
    _TrialPass,
    _worker_count,
    derive_trial_seed,
    mse_against_naf,
    run_bench,
)
from afkit.emaf import AmbiguityGrid, _flip_lags, compute_emaf
from afkit.moments import NAFReference, naf_for_process, naf_um
from afkit.sigcore import (
    DEFAULT_MA_WEIGHTS,
    AnalyticWhiteNoise,
    ChirpInNoise,
    MovingAverage,
    TimeVaryingMA,
    UniformlyModulated,
    generate,
)
from afkit.spread import indicator, total_spread
from afkit.thresholding import ThresholdConfig, lbteaf, lteaf, make_partition, teaf

from conftest import gamma, mirror_power_error


def public_path_report(cfg):
    """run_bench's per-estimator stats rebuilt from the public functions:
    compute_emaf -> teaf/lteaf/lbteaf -> mse_against_naf -> total_spread,
    summed in the same blocks and order."""
    naf = naf_for_process(cfg.process, cfg.n)
    part = make_partition(cfg.n, cfg.threshold.region_count)
    estimate = {
        "emaf": lambda g: g,
        "teaf": lambda g: teaf(g, cfg.threshold),
        "lteaf": lambda g: lteaf(g, part, cfg.threshold),
        "lbteaf": lambda g: lbteaf(g, part, cfg.threshold),
    }
    sq = {name: np.zeros(naf.grid.values.shape) for name in cfg.estimators}
    totals = {name: [] for name in cfg.estimators}
    spreads = {name: [] for name in cfg.estimators}
    for start in range(0, cfg.trials, ACCUMULATION_BLOCK):
        block = {name: np.zeros(naf.grid.values.shape) for name in cfg.estimators}
        for trial in range(start, min(start + ACCUMULATION_BLOCK, cfg.trials)):
            x = generate(cfg.process, cfg.n, derive_trial_seed(cfg.base_seed, trial))
            raw = compute_emaf(x)
            for name in cfg.estimators:
                est = estimate[name](raw)
                err, total = mse_against_naf(est, naf)
                block[name] += err
                totals[name].append(total)
                mask = est.values != 0 if name == "emaf" else indicator(est)
                spreads[name].append(total_spread(mask).total_spread)
        for name in cfg.estimators:
            sq[name] += block[name]
    out = {}
    for name in cfg.estimators:
        t, s = np.asarray(totals[name]), np.asarray(spreads[name])
        out[name] = ({
            "total_mse_mean": float(t.mean()),
            "total_mse_std": float(t.std(ddof=1)),
            "spread_mean": float(s.mean()),
            "spread_std": float(s.std(ddof=1)),
        }, sq[name] / cfg.trials)
    return out


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_trial_seed(5, 3) == derive_trial_seed(5, 3)

    def test_distinct_across_trials(self):
        seeds = {derive_trial_seed(0, i) for i in range(200)}
        assert len(seeds) == 200

    def test_distinct_across_bases(self):
        assert derive_trial_seed(1, 0) != derive_trial_seed(2, 0)


class TestMseAgainstNaf:
    def test_perfect_estimate(self):
        ref = naf_um(0.09, 64)
        grid, total = mse_against_naf(ref.grid, ref)
        assert total == 0.0
        assert np.all(grid == 0)

    def test_zero_estimate_against_um(self):
        n = 256
        ref = naf_um(0.09, n)
        zero = AmbiguityGrid(np.zeros((2 * n - 1, 2 * n), dtype=complex), n)
        _, total = mse_against_naf(zero, ref)
        assert total == pytest.approx(256**2 + 2 * 81.92**2, rel=1e-9)

    def test_single_cell_error(self):
        n = 16
        ref = naf_um(0.09, n)
        est = AmbiguityGrid(ref.grid.values.copy(), n, "thresholded")
        est.values[0, 0] += 3.0 - 4.0j
        _, total = mse_against_naf(est, ref)
        assert total == pytest.approx(25.0, rel=1e-12)

    def test_shape_mismatch(self):
        ref = naf_um(0.09, 16)
        est = AmbiguityGrid(np.zeros((63, 64), dtype=complex), 32)
        with pytest.raises(ValueError):
            mse_against_naf(est, ref)


class TestHalfPlaneScoring:
    @pytest.mark.parametrize("n", [16, 64])
    def test_folded_total_matches_the_full_plane_sum(self, n):
        # Off the reference cells and their mirrors the error is |v|^2, and a
        # tau < 0 cell's is its mirror's within mirror_power_error (delta):
        # the exact folded sum H is within delta H of the exact full sum F, and
        # each computed sum of m nonnegative terms within gamma(m) of its own.
        process = TimeVaryingMA(DEFAULT_MA_WEIGHTS, 0.042)
        naf = naf_for_process(process, n)
        ref = naf.grid.values
        cells = _scored_cells(ref)[0]
        delta, m = mirror_power_error(), ref.size
        own_lower = 0
        for seed in range(5):
            raw = compute_emaf(generate(process, n, seed))
            err, total = mse_against_naf(raw, naf)
            full = np.abs(raw.values - ref) ** 2
            f = full.sum()
            h = f / (1 - delta)
            assert abs(total - f) <= delta * h + gamma(m) * (f + h)
            # the reference cells and their mirrors score their own values; the
            # other tau < 0 cells their mirrors' errors
            np.testing.assert_array_equal(err.flat[cells], full.flat[cells])
            mirrored = err.copy()
            _flip_lags(mirrored, mirrored[: n - 1])
            off = np.ones(err.shape, dtype=bool)
            off.flat[cells] = False
            np.testing.assert_array_equal(err[off], mirrored[off])
            own_lower += np.count_nonzero((err != mirrored)[: n - 1])
        assert own_lower  # tvma's reference is not conjugate-symmetric: the own values count

    def test_support_without_its_mirror(self):
        # a one-cell reference at tau = 2: its mirror cell (-2, -nu) is not on
        # the support, yet it is scored from the estimate's own value there
        n = 16
        values = np.zeros((2 * n - 1, 2 * n), dtype=complex)
        values[n + 1, 5] = 4.0 - 1.0j
        naf = NAFReference(AmbiguityGrid(values, n, "reference"), values != 0, 1)
        raw = compute_emaf(generate(UniformlyModulated(), n, 7))
        err, _ = mse_against_naf(raw, naf)
        full = np.abs(raw.values - values) ** 2
        for cell in ((n + 1, 5), (n - 3, 2 * n - 5)):
            assert err[cell] == full[cell]

    def test_block_results_hold_the_tau_nonnegative_rows(self):
        n = 16
        cfg = MCConfig(TimeVaryingMA(DEFAULT_MA_WEIGHTS, 0.042), n=n, trials=3, estimators=("emaf", "teaf"))
        trial_pass = _TrialPass(cfg, naf_for_process(cfg.process, n))
        out, clock = _run_block(trial_pass, (0, 3))
        for slot in out.values():
            assert slot["sq"].shape == (n, 2 * n) and slot["cells"].shape == trial_pass.cells.shape
        assert tuple(clock) == STAGES and clock["pool_start"] == 0.0
        mse = run_bench(cfg).per_estimator["emaf"].mse_grid
        mirrored = mse.copy()
        _flip_lags(mirrored, mirrored[: n - 1])
        off = np.ones(mse.shape, dtype=bool)
        off.flat[trial_pass.cells] = False
        np.testing.assert_array_equal(mse[off], mirrored[off])


class TestMCConfigValidation:
    def test_pairing_rules(self):
        with pytest.raises(ValueError):
            MCConfig(MovingAverage(), estimators=("emaf", "lbteaf")).validate()
        with pytest.raises(ValueError):
            MCConfig(ChirpInNoise(), estimators=("lteaf",)).validate()
        MCConfig(ChirpInNoise(), estimators=("emaf", "teaf", "lbteaf")).validate()
        MCConfig(UniformlyModulated(), estimators=("teaf", "lteaf")).validate()

    def test_empty_estimators(self):
        with pytest.raises(ValueError):
            MCConfig(MovingAverage(), estimators=()).validate()

    def test_unknown_estimator(self):
        with pytest.raises(ValueError):
            MCConfig(MovingAverage(), estimators=("emaf", "bogus")).validate()


class TestRunBench:
    def test_single_trial_degenerate_std(self):
        cfg = MCConfig(MovingAverage(), n=64, trials=1, estimators=("emaf",))
        rep = run_bench(cfg)
        stats = rep.per_estimator["emaf"]
        assert stats.total_mse_std == 0.0
        assert rep.metadata["single_trial_std_degenerate"] is True

    def test_mse_grid_consistency(self):
        cfg = MCConfig(MovingAverage(), n=64, trials=8, estimators=("emaf", "teaf"))
        rep = run_bench(cfg)
        for stats in rep.per_estimator.values():
            assert stats.mse_grid.sum() == pytest.approx(stats.total_mse_mean, rel=1e-9)

    def test_reproducible_across_thread_counts(self):
        trials = 2 * ACCUMULATION_BLOCK + 3
        cfg = MCConfig(MovingAverage(), n=48, trials=trials, base_seed=9,
                       estimators=("emaf", "teaf"))
        seq = run_bench(cfg, threads=1)
        par = run_bench(cfg, threads=3)
        for name in cfg.estimators:
            a, b = seq.per_estimator[name], par.per_estimator[name]
            assert a.total_mse_mean == b.total_mse_mean
            assert a.total_mse_std == b.total_mse_std
            assert a.spread_mean == b.spread_mean
            np.testing.assert_array_equal(a.mse_grid, b.mse_grid)

    def test_environment_is_metadata_only(self):
        # the environment a report was measured in goes to metadata; results
        # stay equal at 1 and 2 workers and gain no key
        cfg = MCConfig(UniformlyModulated(), n=16, trials=2 * ACCUMULATION_BLOCK, base_seed=3,
                       estimators=("emaf", "teaf", "lteaf"))
        reports = [run_bench(cfg, threads=t).to_dict() for t in (1, 2)]
        assert reports[0]["results"] == reports[1]["results"]
        for report, workers in zip(reports, (1, 2)):
            env = report["metadata"]["environment"]
            assert set(env) == {"python", "numpy", "cpu_count", "workers", "git_revision"}
            assert env["numpy"] == np.__version__ and env["cpu_count"] == os.cpu_count()
            assert env["workers"] == min(workers, os.cpu_count())
            assert env["git_revision"] is None or len(env["git_revision"]) == 40
            assert set(report["results"]) == set(cfg.estimators)
            for stats in report["results"].values():
                assert set(stats) == {"total_mse_mean", "total_mse_std", "spread_mean", "spread_std"}

    def test_timing_is_metadata_only(self):
        # seconds per stage go to metadata; results stay equal at 1 and 2
        # workers and gain no key
        cfg = MCConfig(AnalyticWhiteNoise(0.6), n=16, trials=2 * ACCUMULATION_BLOCK, base_seed=3,
                       estimators=("emaf", "teaf", "lteaf", "lbteaf"))
        reports = [run_bench(cfg, threads=t) for t in (1, 2)]
        dicts = [r.to_dict() for r in reports]
        assert dicts[0]["results"] == dicts[1]["results"]
        for name in cfg.estimators:
            np.testing.assert_array_equal(reports[0].per_estimator[name].mse_grid,
                                          reports[1].per_estimator[name].mse_grid)
        for report in dicts:
            timing, workers = report["metadata"]["timing"], report["metadata"]["environment"]["workers"]
            assert tuple(timing) == STAGES
            assert all(timing[stage] > 0 for stage in STAGES if stage != "pool_start")
            assert (timing["pool_start"] > 0) == (workers > 1)
            assert "timing" not in report["results"]
            for stats in report["results"].values():
                assert set(stats) == {"total_mse_mean", "total_mse_std", "spread_mean", "spread_std"}

    def test_reproducible_across_calls(self):
        cfg = MCConfig(UniformlyModulated(), n=48, trials=6, base_seed=4,
                       estimators=("emaf", "lteaf"))
        a = run_bench(cfg)
        b = run_bench(cfg)
        for name in cfg.estimators:
            np.testing.assert_array_equal(
                a.per_estimator[name].mse_grid, b.per_estimator[name].mse_grid
            )

    def test_trial_stream_matches_generate(self):
        # the harness must consume exactly the documented per-trial seeds
        cfg = MCConfig(MovingAverage(), n=32, trials=3, base_seed=77,
                       estimators=("emaf",))
        rep = run_bench(cfg)
        acc = np.zeros((63, 64))
        naf = naf_for_process(cfg.process, cfg.n)
        for i in range(cfg.trials):
            x = generate(cfg.process, cfg.n, derive_trial_seed(77, i))
            err, _ = mse_against_naf(compute_emaf(x), naf)
            acc += err
        np.testing.assert_allclose(
            rep.per_estimator["emaf"].mse_grid, acc / cfg.trials, rtol=1e-12
        )

    def test_thresholded_beats_raw_for_stochastic_process(self):
        cfg = MCConfig(UniformlyModulated(), n=128, trials=40,
                       estimators=("emaf", "teaf", "lteaf"),
                       threshold=ThresholdConfig())
        rep = run_bench(cfg)
        emaf_mse = rep.per_estimator["emaf"].total_mse_mean
        assert rep.per_estimator["teaf"].total_mse_mean < emaf_mse
        assert rep.per_estimator["lteaf"].total_mse_mean < emaf_mse

    def test_fused_pass_matches_public_path(self):
        # every process x estimator pairing, bit for bit
        configs = [
            (ChirpInNoise(0.1, 9.0196e-4 * 255 / 31, 1.2), ("emaf", "teaf", "lbteaf")),
            (MovingAverage(), ("emaf", "teaf", "lteaf")),
            (UniformlyModulated(0.09), ("emaf", "teaf", "lteaf")),
            (TimeVaryingMA(DEFAULT_MA_WEIGHTS, 0.042), ("emaf", "teaf", "lteaf")),
            (AnalyticWhiteNoise(0.6), ("lbteaf", "lteaf", "emaf", "teaf")),
        ]
        for process, estimators in configs:
            cfg = MCConfig(process, n=32, trials=30, base_seed=11, estimators=estimators,
                           threshold=ThresholdConfig(region_count=3))
            rep = run_bench(cfg)
            for name, (stats, mse_grid) in public_path_report(cfg).items():
                assert rep.per_estimator[name].to_dict() == stats, (process, name)
                np.testing.assert_array_equal(rep.per_estimator[name].mse_grid, mse_grid)

    def test_emaf_spread_counts_when_a_cell_is_zero(self):
        # |v|^2 > 0 everywhere gives spread 1 without a count; a unit
        # impulse's EMAF is zero off the tau = 0 row, so the count runs
        n = 32
        cfg = MCConfig(MovingAverage(), n=n, trials=1, estimators=("emaf", "teaf"))
        trial_pass = _TrialPass(cfg, naf_for_process(cfg.process, n))
        impulse = np.zeros(n, dtype=complex)
        impulse[0] = 1.0
        for x in (impulse, generate(cfg.process, n, 5)):
            raw = compute_emaf(x).values
            spread = {name: s for name, _, s in trial_pass.scores(x)}["emaf"]
            assert spread == np.count_nonzero(raw) / raw.size
        assert spread == 1.0
        raw = compute_emaf(impulse).values
        assert np.count_nonzero(raw) == 2 * n  # the count path was the one taken above

    def test_threads_below_one_rejected(self, monkeypatch):
        cfg = MCConfig(MovingAverage(), n=16, trials=2, estimators=("emaf",))
        with pytest.raises(ValueError, match="threads must be >= 1"):
            run_bench(cfg, threads=0)
        monkeypatch.setenv("AFKIT_THREADS", "0")
        with pytest.raises(ValueError, match="AFKIT_THREADS must be >= 1"):
            run_bench(cfg)

    def test_worker_count_clamped(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 4)
        assert _worker_count(1, 20) == 1
        assert _worker_count(3, 20) == 3
        assert _worker_count(64, 20) == 4  # CPUs
        assert _worker_count(64, 2) == 2  # blocks
        monkeypatch.setattr("os.cpu_count", lambda: None)
        assert _worker_count(64, 20) == 1

    def test_noise_process_benchable(self):
        cfg = MCConfig(AnalyticWhiteNoise(0.6), n=64, trials=4,
                       estimators=("emaf", "teaf", "lbteaf"))
        rep = run_bench(cfg)
        assert rep.per_estimator["teaf"].spread_mean <= 0.05
