"""Monte Carlo benchmark harness.

Runs K seeded trials of a process, computes the empirical ambiguity
function and the configured threshold estimators for each trial, and
accumulates per-cell squared errors against the process' reference
surface, per-trial total squared errors and total spreads.

Determinism contract: trial i always uses the seed derived from
(base_seed, i), trials are accumulated in fixed blocks of
ACCUMULATION_BLOCK trials combined in index order, so the report is
bit-identical for a given config regardless of worker count.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .emaf import AmbiguityGrid, compute_emaf
from .moments import NAFReference, naf_for_process
from .sigcore import (
    AnalyticWhiteNoise,
    ChirpInNoise,
    MovingAverage,
    ProcessSpec,
    TimeVaryingMA,
    UniformlyModulated,
    generate,
)
from .spread import indicator, total_spread
from .thresholding import ThresholdConfig, lbteaf, lteaf, make_partition, teaf

__all__ = [
    "ACCUMULATION_BLOCK",
    "ESTIMATORS",
    "EstimatorStats",
    "MCConfig",
    "MCReport",
    "derive_trial_seed",
    "mse_against_naf",
    "run_bench",
]

ESTIMATORS = ("emaf", "teaf", "lteaf", "lbteaf")

# Trials are summed inside fixed contiguous blocks and blocks combined in
# order; the grouping must not depend on the worker count or the floats
# would differ between schedules.
ACCUMULATION_BLOCK = 25

_STOCHASTIC = (MovingAverage, UniformlyModulated, TimeVaryingMA)
_NOISE_LIKE = (ChirpInNoise, AnalyticWhiteNoise)


@dataclass(frozen=True)
class MCConfig:
    """Monte Carlo run description."""

    process: ProcessSpec
    n: int = 256
    trials: int = 500
    base_seed: int = 0
    estimators: tuple = ("emaf", "teaf")
    threshold: ThresholdConfig = field(default_factory=ThresholdConfig)

    def validate(self) -> None:
        self.process.validate(self.n)
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if not self.estimators:
            raise ValueError("estimator set must be nonempty")
        for est in self.estimators:
            if est not in ESTIMATORS:
                raise ValueError(f"unknown estimator {est!r}")
        # Mirror the populated benchmark table: the bias-corrected variant
        # applies to deterministic-signal-plus-noise observations, the
        # plain local variant to stochastic processes.
        if "lbteaf" in self.estimators and not isinstance(self.process, _NOISE_LIKE):
            raise ValueError("lbteaf applies to deterministic-plus-noise processes only")
        if "lteaf" in self.estimators and not isinstance(
            self.process, _STOCHASTIC + (AnalyticWhiteNoise,)
        ):
            raise ValueError("lteaf applies to stochastic processes only")
        self.threshold.validate()


@dataclass
class EstimatorStats:
    total_mse_mean: float
    total_mse_std: float
    spread_mean: float
    spread_std: float
    mse_grid: np.ndarray

    def to_dict(self) -> dict:
        return {
            "total_mse_mean": self.total_mse_mean,
            "total_mse_std": self.total_mse_std,
            "spread_mean": self.spread_mean,
            "spread_std": self.spread_std,
        }


@dataclass
class MCReport:
    per_estimator: dict
    metadata: dict

    def to_dict(self) -> dict:
        return {
            "results": {k: v.to_dict() for k, v in self.per_estimator.items()},
            "metadata": self.metadata,
        }


def derive_trial_seed(base_seed: int, trial: int) -> int:
    """Documented hash of (base_seed, trial index) into an independent
    64-bit stream seed."""
    ss = np.random.SeedSequence([int(base_seed), int(trial)])
    return int(ss.generate_state(1, np.uint64)[0])


def mse_against_naf(estimate: AmbiguityGrid, naf: NAFReference):
    """Per-cell squared error |estimate - reference|^2 and its plane sum."""
    if estimate.values.shape != naf.grid.values.shape:
        raise ValueError("estimate and reference grids are not congruent")
    err = np.abs(estimate.values - naf.grid.values) ** 2
    return err, float(err.sum())


def _estimate(name: str, raw: AmbiguityGrid, part, cfg: ThresholdConfig) -> AmbiguityGrid:
    if name == "emaf":
        return raw
    if name == "teaf":
        return teaf(raw, cfg)
    if name == "lteaf":
        return lteaf(raw, part, cfg)
    return lbteaf(raw, part, cfg)


def _spread_of(name: str, grid: AmbiguityGrid) -> float:
    if name == "emaf":
        # The raw surface has no exact zeros in practice; count anyway.
        mask = grid.values != 0
    else:
        mask = indicator(grid)
    return total_spread(mask).total_spread


def _run_block(cfg: MCConfig, naf: NAFReference, block) -> dict:
    start, stop = block
    part = make_partition(cfg.n, cfg.threshold.region_count)
    shape = naf.grid.values.shape
    out = {
        name: {"sq": np.zeros(shape), "totals": [], "spreads": []}
        for name in cfg.estimators
    }
    for trial in range(start, stop):
        x = generate(cfg.process, cfg.n, derive_trial_seed(cfg.base_seed, trial))
        raw = compute_emaf(x)
        for name in cfg.estimators:
            est = _estimate(name, raw, part, cfg.threshold)
            err, tot = mse_against_naf(est, naf)
            slot = out[name]
            slot["sq"] += err
            slot["totals"].append(tot)
            slot["spreads"].append(_spread_of(name, est))
    return out


_WORKER_ARGS = None


def _worker_init(cfg, naf):
    global _WORKER_ARGS
    _WORKER_ARGS = (cfg, naf)


def _worker_run(block):
    cfg, naf = _WORKER_ARGS
    return _run_block(cfg, naf, block)


def run_bench(cfg: MCConfig, threads: int | None = None) -> MCReport:
    """Run the configured Monte Carlo benchmark.

    threads > 1 distributes trial blocks over worker processes; results are
    identical to a single-threaded run.  Defaults to the AFKIT_THREADS
    environment variable, else 1.
    """
    cfg.validate()
    if threads is None:
        text = os.environ.get("AFKIT_THREADS", "1")
        try:
            threads = int(text)
        except ValueError:
            raise ValueError(f"AFKIT_THREADS must be an integer, got {text!r}") from None
    naf = naf_for_process(cfg.process, cfg.n)
    blocks = [
        (s, min(s + ACCUMULATION_BLOCK, cfg.trials))
        for s in range(0, cfg.trials, ACCUMULATION_BLOCK)
    ]
    t0 = time.perf_counter()
    if threads > 1 and len(blocks) > 1:
        with ProcessPoolExecutor(
            max_workers=threads, initializer=_worker_init, initargs=(cfg, naf)
        ) as pool:
            partials = list(pool.map(_worker_run, blocks))
    else:
        partials = [_run_block(cfg, naf, b) for b in blocks]
    wall = time.perf_counter() - t0

    per_estimator = {}
    for name in cfg.estimators:
        sq = np.zeros(naf.grid.values.shape)
        totals, spreads = [], []
        for p in partials:
            sq += p[name]["sq"]
            totals.extend(p[name]["totals"])
            spreads.extend(p[name]["spreads"])
        totals = np.asarray(totals)
        spreads = np.asarray(spreads)
        k = cfg.trials
        std = float(totals.std(ddof=1)) if k > 1 else 0.0
        sstd = float(spreads.std(ddof=1)) if k > 1 else 0.0
        per_estimator[name] = EstimatorStats(
            total_mse_mean=float(totals.mean()),
            total_mse_std=std,
            spread_mean=float(spreads.mean()),
            spread_std=sstd,
            mse_grid=sq / k,
        )
    metadata = {
        "process": type(cfg.process).__name__,
        "process_params": {
            k: (list(v) if isinstance(v, (tuple, list)) else v)
            for k, v in vars(cfg.process).items()
        },
        "n": cfg.n,
        "trials": cfg.trials,
        "base_seed": cfg.base_seed,
        "estimators": list(cfg.estimators),
        "threshold": vars(cfg.threshold).copy(),
        "wall_time_s": wall,
        "single_trial_std_degenerate": cfg.trials == 1,
    }
    return MCReport(per_estimator, metadata)
