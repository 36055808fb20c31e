import os
import pickle
from dataclasses import replace

import numpy as np
import pytest

from afkit import bench, thresholding
from afkit.bench import (
    ACCUMULATION_BLOCK,
    STAGES,
    MCConfig,
    _kernel,
    _run_block,
    _score,
    _worker_count,
    derive_trial_seed,
    mse_against_naf,
    run_bench,
)
from afkit.emaf import AmbiguityGrid, _flip_lags, _fold, _lattice, compute_emaf, lattice
from afkit.moments import NAFReference, naf_for_process
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

from conftest import U, gamma, mirror_power_error


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


class TestScore:
    @pytest.mark.parametrize("n", [2, 3, 16, 33])
    def test_a_keep_mask_scores_as_the_estimate_it_keeps(self, n):
        # _score(half, keep) is _score of the estimate zero off keep, bit for
        # bit on every cell; the cells it returns hold every nonzero error and
        # its count is the estimate's _fold of np.count_nonzero.  keep marks
        # nonzero cells only, as a survivor mask does; halves carry -0.0 parts
        # and exact zeros, and the reference signed zeros and zero values
        rng = np.random.default_rng(n)
        shape = (n, 2 * n)
        for zeros in (0.0, 0.2):
            for kept in (1.0, 0.5):
                half = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                half.view(float)[rng.random((n, 4 * n)) < zeros] = -0.0
                half[rng.random(shape) < zeros / 2] = 0.0
                cells = np.flatnonzero(rng.random(half.size) < 0.3)
                values = rng.standard_normal(cells.size) + 1j * rng.standard_normal(cells.size)
                values.view(float)[rng.random(2 * cells.size) < 0.2] = -0.0
                values[rng.random(cells.size) < 0.1] = 0.0
                naf = NAFReference(n, cells, values)
                keep = (half != 0) & (rng.random(shape) < kept)
                estimate = np.where(keep, half, 0)
                got, want = np.full(shape, np.nan), np.full(shape, np.nan)
                wrote, count = _score(half, keep, naf, got)
                everywhere, want_count = _score(estimate, None, naf, want)
                assert everywhere == slice(None)
                np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
                written = np.zeros(got.size, dtype=bool)
                written[wrote] = True
                assert not got.reshape(-1)[~written].any()
                assert count == want_count == _fold(np.count_nonzero, estimate)


class TestMseAgainstNaf:
    def test_the_symmetric_branch_counts_no_nonzero_cell(self, monkeypatch):
        # mse_against_naf discards the nonzero count, so it never takes one,
        # even for an estimate with zeros (the trial's emaf count would)
        n = 32
        estimate = teaf(compute_emaf(generate(MovingAverage(), n, 4)))
        naf = naf_for_process(MovingAverage(), n)
        assert (estimate.values == 0).any()
        want = mse_against_naf(estimate, naf)

        def counted(reduce, half):
            if reduce is not np.sum:
                raise AssertionError("mse_against_naf took a nonzero count")
            return _fold(reduce, half)

        monkeypatch.setattr(bench, "_fold", counted)
        got = mse_against_naf(estimate, naf)
        np.testing.assert_array_equal(got[0].view(np.uint64), want[0].view(np.uint64))
        assert got[1] == want[1]
        with pytest.raises(AssertionError, match="nonzero count"):  # the trial's rule still counts
            _score(estimate.values[n - 1 :], None, naf, np.empty((n, 2 * n)))

    def test_perfect_estimate(self):
        ref = naf_for_process(UniformlyModulated(0.09), 64)
        grid, total = mse_against_naf(ref.grid, ref)
        assert total == 0.0
        assert np.all(grid == 0)

    def test_zero_estimate_against_um(self):
        n = 256
        ref = naf_for_process(UniformlyModulated(0.09), n)
        zero = AmbiguityGrid(np.zeros((2 * n - 1, 2 * n), dtype=complex), n)
        _, total = mse_against_naf(zero, ref)
        assert total == pytest.approx(256**2 + 2 * 81.92**2, rel=1e-9)

    def test_single_cell_error(self):
        n = 16
        ref = naf_for_process(UniformlyModulated(0.09), n)
        est = AmbiguityGrid(ref.grid.values.copy(), n, "thresholded")
        est.values[0, 0] += 3.0 - 4.0j
        _, total = mse_against_naf(est, ref)
        assert total == pytest.approx(25.0, rel=1e-12)

    def test_shape_mismatch(self):
        ref = naf_for_process(UniformlyModulated(0.09), 16)
        est = AmbiguityGrid(np.zeros((63, 64), dtype=complex), 32)
        with pytest.raises(ValueError):
            mse_against_naf(est, ref)


class TestHalfPlaneScoring:
    @pytest.mark.parametrize("n", [16, 64])
    def test_folded_total_matches_the_full_plane_sum(self, n):
        # Off the reference's support the error is |v|^2, and a tau < 0 cell's
        # is its mirror's within mirror_power_error (delta).  On the support v
        # and ref are each one complex product of their mirror cell with the
        # same root r, |r| <= 1 + 2 sqrt2 u, so |v - ref| is |r| |d|, d the
        # mirror's difference, within eta = sqrt5 u |r| (|v| + |ref|) of the
        # mirror, < 3u (|v| + |ref|): the cell's error is within delta of its
        # mirror's plus 4 eta (|d| + eta) (the 4 covers 2 |r| and the roundings
        # of the mirror's power).  The exact folded sum H is then within
        # delta H + extra of the exact full sum F, and each computed sum of m
        # nonnegative terms within gamma(m) of its own.
        process = TimeVaryingMA(DEFAULT_MA_WEIGHTS, 0.042)
        naf = naf_for_process(process, n)
        ref = naf.grid.values
        delta, m = mirror_power_error(), ref.size
        support = naf.support_mask[n:]  # the tau > 0 cells whose mirrors are on the support
        for seed in range(5):
            raw = compute_emaf(generate(process, n, seed))
            err, total = mse_against_naf(raw, naf)
            full = np.abs(raw.values - ref) ** 2
            np.testing.assert_array_equal(err[n - 1 :], full[n - 1 :])
            eta = 3 * U * (np.abs(raw.values[n:]) + np.abs(ref[n:]))[support]
            extra = (4 * eta * (np.sqrt(full[n:][support]) + eta)).sum()
            f = full.sum()
            h = (f + extra) / (1 - delta)
            assert abs(total - f) <= delta * h + extra + gamma(m) * (f + h)
            # every tau < 0 cell, on the support or off it, scores its mirror's error
            mirrored = err.copy()
            _flip_lags(mirrored, mirrored[: n - 1])
            np.testing.assert_array_equal(err.view(np.uint64), mirrored.view(np.uint64))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, np.nan)])
    def test_non_finite_reference_is_rejected(self, bad):
        # a NaN at the origin (flat cell N of the tau >= 0 rows) used to be
        # accepted and made mse_against_naf return nan
        n = 16
        with pytest.raises(ValueError, match="non-finite"):
            NAFReference(n, np.array([n]), np.array([bad], dtype=complex))

    def test_block_results_hold_the_tau_nonnegative_rows(self):
        # and every trial stage is clocked: generate, the EMAF, both survivor
        # passes (lbteaf's correction too) and the scoring each gain time
        n = 16
        configs = [
            (TimeVaryingMA(DEFAULT_MA_WEIGHTS, 0.042), ("emaf", "teaf")),
            (ChirpInNoise(0.1, 9.0196e-4 * 255 / (n - 1), 1.2), ("emaf", "teaf", "lbteaf")),
        ]
        for process, estimators in configs:
            cfg = MCConfig(process, n=n, trials=3, estimators=estimators)
            out, clock = _run_block(cfg, naf_for_process(process, n), _kernel(cfg), (0, 3))
            for cells, values, totals, spreads in out.values():
                # the shipped cells index the N x 2N rows with tau >= 0, once each
                flat = np.arange(n * 2 * n)[cells]
                assert flat.shape == values.shape and np.all(np.diff(flat) > 0)
                assert len(totals) == len(spreads) == 3
            assert tuple(clock) == STAGES and clock["pool_start"] == 0.0
            for stage in ("generate", "emaf", "survivor_pass", "scoring"):
                assert clock[stage] > 0, (process, stage)
            mse = run_bench(cfg).per_estimator["emaf"].mse_grid
            mirrored = mse.copy()
            _flip_lags(mirrored, mirrored[: n - 1])
            np.testing.assert_array_equal(mse, mirrored)


    def test_a_trial_never_reads_a_tau_negative_row(self):
        # NaN in the tau < 0 rows of the kernel's buffers (both workspace
        # grids and real; a bit pattern in every keep) reaches no sum, and
        # nothing writes those rows: the trial neither reads, mirrors nor
        # takes its medians or errors in them
        n = 64
        configs = [
            (TimeVaryingMA(DEFAULT_MA_WEIGHTS, 0.042), ("emaf", "teaf", "lteaf")),
            (ChirpInNoise(0.1, 9.0196e-4 * 255 / (n - 1), 1.2), ("emaf", "teaf", "lbteaf")),
        ]
        for process, estimators in configs:
            cfg = MCConfig(process, n=n, trials=5, base_seed=3, estimators=estimators)
            naf = naf_for_process(process, n)
            clean = _run_block(cfg, naf, _kernel(cfg), (0, 5))[0]
            kernel = _kernel(cfg)
            lower = [kernel.ws[0][: n - 1], kernel.ws[1][: n - 1], kernel.real[: n - 1]]
            for rows in lower:
                rows.fill(np.nan)
            lower += [keep[: n - 1].view(np.uint8) for keep in kernel.keep.values()]
            for rows in lower[3:]:
                rows.fill(0xA5)
            before = [rows.copy() for rows in lower]
            got = _run_block(cfg, naf, kernel, (0, 5))[0]
            flat = np.arange(n * 2 * n)
            for name in estimators:
                (cells, values, totals, spreads), want = got[name], clean[name]
                np.testing.assert_array_equal(values.view(np.uint64), want[1].view(np.uint64))
                np.testing.assert_array_equal(flat[cells], flat[want[0]])
                assert totals == want[2] and spreads == want[3]
            assert len(lower) == 3 + len(estimators) - 1
            for rows, sentinel in zip(lower, before):
                np.testing.assert_array_equal(rows.view(np.uint8), sentinel.view(np.uint8), err_msg=str(process))


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

    def test_repeated_estimator(self):
        # it used to run every trial, scoring teaf twice into one slot, then
        # fail with a bare KeyError from the second pop of teaf's sums
        cfg = MCConfig(UniformlyModulated(), n=16, trials=4, estimators=("emaf", "teaf", "teaf"))
        with pytest.raises(ValueError, match="estimator teaf is given twice"):
            cfg.validate()
        with pytest.raises(ValueError, match="estimator teaf is given twice"):
            run_bench(cfg)

    def test_zero_trials(self):
        with pytest.raises(ValueError, match="need at least one trial"):
            MCConfig(MovingAverage(), n=16, trials=0, estimators=("emaf",)).validate()

    @pytest.mark.parametrize("field, value", [
        ("base_seed", 1.5),  # ran seed 1 while metadata reported 1.5
        ("trials", True),  # ran one trial and reported "trials": true
        ("n", 32.0),  # raised a bare TypeError
        ("n", np.float64(32.0)),
        ("base_seed", False),
        ("base_seed", -1),  # failed in numpy's SeedSequence, naming no field
    ])
    def test_integer_fields(self, field, value):
        cfg = MCConfig(MovingAverage(), estimators=("emaf",), **{"n": 32, "trials": 2, field: value})
        with pytest.raises(ValueError, match=field):
            cfg.validate()
        with pytest.raises(ValueError, match=field):
            run_bench(cfg)

    def test_numpy_integer_fields_accepted(self):
        cfg = MCConfig(MovingAverage(), n=np.int64(16), trials=np.int32(2), base_seed=np.uint8(3),
                       estimators=("emaf",))
        cfg.validate()
        plain = MCConfig(MovingAverage(), n=16, trials=2, base_seed=3, estimators=("emaf",))
        assert run_bench(cfg).to_dict()["results"] == run_bench(plain).to_dict()["results"]


class TestRunBench:
    def test_a_numpy_n_shares_the_lattice_of_its_int(self):
        # MCConfig(n=np.int64(n)) used to leave a second cache entry, every
        # lattice table built and held twice
        _lattice.cache_clear()
        cfg = MCConfig(ChirpInNoise(0.1, 9.0196e-4 * 255 / 31, 1.2), n=np.int64(32), trials=3,
                       estimators=("emaf", "teaf", "lbteaf"))
        want = run_bench(replace(cfg, n=32)).to_dict()["results"]
        assert run_bench(cfg).to_dict()["results"] == want
        assert _lattice.cache_info().currsize == 1
        assert lattice(np.int64(32)) is lattice(32)

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
        # two full blocks and a short one, each crossing the process boundary
        # as (cells, values) sums
        trials = 2 * ACCUMULATION_BLOCK + 3
        for process, estimators in [
            (MovingAverage(), ("emaf", "teaf")),
            (ChirpInNoise(0.1, 9.0196e-4 * 255 / 47, 1.2), ("emaf", "teaf", "lbteaf")),
        ]:
            cfg = MCConfig(process, n=48, trials=trials, base_seed=9, estimators=estimators)
            seq = run_bench(cfg, threads=1)
            par = run_bench(cfg, threads=3)
            for name in cfg.estimators:
                a, b = seq.per_estimator[name], par.per_estimator[name]
                assert a.to_dict() == b.to_dict(), (process, name)
                np.testing.assert_array_equal(a.mse_grid.view(np.uint64), b.mse_grid.view(np.uint64))

    def test_workers_start_on_the_reference_support_alone(self, monkeypatch):
        # spawn writes a worker's pickled start arguments into its pipe before
        # it starts the next worker: a dense reference there would serialize
        # the pool's start-up
        class Started(Exception):
            pass

        def pool(**kwargs):
            raise Started(kwargs["initargs"])

        monkeypatch.setattr("afkit.bench.ProcessPoolExecutor", pool)
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        n = 256
        cfg = MCConfig(ChirpInNoise(0.1, 9.0196e-4, 1.2), n=n, trials=500, estimators=("emaf", "teaf", "lbteaf"))
        with pytest.raises(Started) as started:
            run_bench(cfg, threads=2)
        grid_bytes = naf_for_process(cfg.process, n).grid.values.nbytes
        assert len(pickle.dumps(started.value.args[0])) < 0.01 * grid_bytes

    def test_scoring_never_builds_the_dense_reference(self, monkeypatch):
        # a trial and the half-plane fold read the reference's tau >= 0 support
        # cells and values alone; only a full-plane score builds its grid
        def dense(self):
            raise AssertionError("the dense reference was built")

        configs = [
            (TimeVaryingMA(DEFAULT_MA_WEIGHTS, 0.042), ("emaf", "teaf", "lteaf")),
            (ChirpInNoise(0.1, 9.0196e-4 * 255 / 31, 1.2), ("emaf", "teaf", "lbteaf")),
        ]
        for process, estimators in configs:
            cfg = MCConfig(process, n=32, trials=3, estimators=estimators)
            naf, raw = naf_for_process(process, 32), compute_emaf(generate(process, 32, 1))
            with monkeypatch.context() as m:
                m.setattr(NAFReference, "grid", property(dense))
                m.setattr(NAFReference, "support_mask", property(dense))
                run_bench(cfg, threads=1)
                mse_against_naf(raw, naf)

    def test_a_trial_calls_compute_emaf_and_standardize_by_module_name(self, monkeypatch):
        # perfbench's trace wraps afkit.bench.compute_emaf and
        # afkit.thresholding.standardize and reads their spans per trial:
        # one block calls each once per trial and returns the unpatched results
        cfg = MCConfig(ChirpInNoise(0.1, 9.0196e-4 * 255 / 31, 1.2), n=32, trials=ACCUMULATION_BLOCK,
                       estimators=("emaf", "teaf", "lbteaf"))
        want = run_bench(cfg, threads=1)
        calls = {}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(bench, "compute_emaf")
        counted(thresholding, "standardize")
        got = run_bench(cfg, threads=1)
        assert calls == {"compute_emaf": cfg.trials, "standardize": cfg.trials}
        assert got.to_dict()["results"] == want.to_dict()["results"]
        for name in cfg.estimators:
            np.testing.assert_array_equal(got.per_estimator[name].mse_grid.view(np.uint64),
                                          want.per_estimator[name].mse_grid.view(np.uint64))

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

    @pytest.mark.parametrize("n", [24, 33])
    def test_fused_pass_matches_public_path_off_powers_of_two(self, n):
        # 2N is not a power of two: the public path's mirror reads phases
        # whose index ((k - N) tau) mod 2N wraps at such a modulus
        configs = [
            (ChirpInNoise(0.1, 9.0196e-4 * 255 / (n - 1), 1.2), ("emaf", "teaf", "lbteaf")),
            (TimeVaryingMA(DEFAULT_MA_WEIGHTS, 0.042), ("emaf", "teaf", "lteaf")),
            (AnalyticWhiteNoise(0.6), ("lbteaf", "lteaf", "emaf", "teaf")),
        ]
        for process, estimators in configs:
            cfg = MCConfig(process, n=n, trials=30, base_seed=11, estimators=estimators,
                           threshold=ThresholdConfig(region_count=3))
            rep = run_bench(cfg)
            for name, (stats, mse_grid) in public_path_report(cfg).items():
                assert rep.per_estimator[name].to_dict() == stats, (process, name)
                np.testing.assert_array_equal(rep.per_estimator[name].mse_grid, mse_grid)

    @pytest.mark.parametrize("n", [32, 33])
    def test_fused_pass_without_emaf_matches_public_path(self, n):
        # without emaf no trial computes the full |v|^2: each thresholded
        # error is built from its kept cells alone
        configs = [
            (TimeVaryingMA(DEFAULT_MA_WEIGHTS, 0.042), ("teaf", "lteaf")),
            (ChirpInNoise(0.1, 9.0196e-4 * 255 / (n - 1), 1.2), ("lbteaf",)),
            (AnalyticWhiteNoise(0.6), ("lbteaf",)),
        ]
        for process, estimators in configs:
            cfg = MCConfig(process, n=n, trials=30, base_seed=11, estimators=estimators,
                           threshold=ThresholdConfig(region_count=3))
            rep = run_bench(cfg)
            for name, (stats, mse_grid) in public_path_report(cfg).items():
                assert rep.per_estimator[name].to_dict() == stats, (process, name)
                np.testing.assert_array_equal(rep.per_estimator[name].mse_grid, mse_grid)

    def test_emaf_spread_counts_when_a_cell_is_zero(self):
        # |v|^2 > 0 everywhere gives spread 1 without a count; a unit
        # impulse's EMAF is zero off the tau = 0 row, so the count runs
        n = 32
        naf, err = naf_for_process(MovingAverage(), n), np.empty((n, 2 * n))
        impulse = np.zeros(n, dtype=complex)
        impulse[0] = 1.0
        for x in (impulse, generate(MovingAverage(), n, 5)):
            raw = compute_emaf(x).values
            spread = _score(raw[n - 1 :], None, naf, err)[1] / raw.size
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

    @pytest.mark.parametrize("threads", [1.5, 2.5, True, "2"])
    def test_threads_not_an_integer_rejected(self, monkeypatch, threads):
        # 1.5 built the reference and then failed inside the pool with a
        # TypeError, 2.5 ran 2 workers, True ran 1, "2" raised a bare TypeError
        built = []
        monkeypatch.setattr("afkit.bench.naf_for_process", lambda *args: built.append(args))
        cfg = MCConfig(MovingAverage(), n=16, trials=2, estimators=("emaf",))
        with pytest.raises(ValueError, match=f"threads must be an integer, got {threads!r}"):
            run_bench(cfg, threads=threads)
        assert built == []  # rejected before the reference build

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
