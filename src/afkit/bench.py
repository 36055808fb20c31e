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

import functools
import multiprocessing
import os
import platform
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .emaf import AmbiguityGrid, _conjugate_symmetric, _flip_lags, compute_emaf
from .moments import NAFReference, naf_for_process
from .sigcore import ProcessSpec, generate
from .thresholding import METHODS, SurvivorKernel, ThresholdConfig

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

ESTIMATORS = ("emaf", *METHODS)

# Trials are summed inside fixed contiguous blocks and blocks combined in
# order; the grouping must not depend on the worker count or the floats
# would differ between schedules.
ACCUMULATION_BLOCK = 25

# The stages metadata["timing"] reports, in seconds summed over blocks and
# workers; pool_start is the time from starting the pool until each worker
# is ready (0 without a pool).
STAGES = ("generate", "emaf", "survivor_pass", "scoring", "reference_build", "pool_start")


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
            if est not in self.process.estimators:
                raise ValueError(f"estimator {est} is not defined for the {self.process.name} process")
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
    """Per-cell squared error |estimate - reference|^2 and its plane sum.

    A conjugate-symmetric estimate (emaf._conjugate_symmetric) is scored by
    the half-plane rule of run_bench: the reference's nonzero cells and their
    mirrors from the estimate's own values, every other tau < 0 cell as its
    mirror (-tau, -nu), so that the sum counts the rows with tau > 0 twice."""
    values, ref = estimate.values, naf.grid.values
    if values.shape != ref.shape:
        raise ValueError("estimate and reference grids are not congruent")
    if not _conjugate_symmetric(values):
        err = np.abs(values - ref) ** 2
        return err, float(err.sum())
    cells, upper, _ = _scored_cells(ref)
    half = np.square(np.abs(values[estimate.n - 1 :]))
    cell_err = np.square(np.abs(values.flat[cells] - ref.flat[cells]))
    half.flat[upper] = 0.0
    return _unfold(half, cells, cell_err), _folded_total(half, cell_err)


def _scored_cells(ref: np.ndarray) -> tuple:
    """(cells, upper, deciders) of the half-plane rule against ref: the flat
    indices of the reference's nonzero cells and their mirrors, which are
    scored from their own values; those of them with tau >= 0, as flat
    indices of the rows with tau >= 0; and for each of cells, the flat index
    in those rows of the cell whose keep decision it shares (itself, or its
    mirror when tau < 0)."""
    rows, cols = ref.shape
    support = ref != 0
    cells = np.flatnonzero(support | np.roll(support[::-1, ::-1], 1, axis=1))
    offset = rows // 2 * cols  # the N - 1 rows with tau < 0
    m, k = np.divmod(cells, cols)
    deciders = np.where(m < rows // 2, (rows - 1 - m) * cols + -k % cols, cells) - offset
    return cells, cells[cells >= offset] - offset, deciders


def _folded_total(half: np.ndarray, cell_err: np.ndarray) -> float:
    """Plane sum of the half-plane rule: row tau = 0 once, the tau > 0 rows
    twice (for their mirrors), the explicitly scored cells once."""
    return float(half[0].sum() + 2.0 * half[1:].sum() + cell_err.sum())


def _folded_count(mask: np.ndarray) -> int:
    """Nonzero cells of a plane whose tau < 0 rows mirror mask's tau > 0 rows."""
    return np.count_nonzero(mask[0]) + 2 * np.count_nonzero(mask[1:])


def _unfold(half: np.ndarray, cells: np.ndarray, cell_err: np.ndarray) -> np.ndarray:
    """The (2N-1, 2N) error grid of the half-plane rule: half on the rows with
    tau >= 0, its mirror on those with tau < 0, and cell_err on cells."""
    n = half.shape[0]
    full = np.empty((2 * n - 1, 2 * n))
    full[n - 1 :] = half
    _flip_lags(full, full[: n - 1])
    full.flat[cells] = cell_err
    return full


def _lap(clock: dict, stage: str, start: float) -> float:
    now = time.perf_counter()
    clock[stage] += now - start
    return now


class _TrialPass:
    """run_bench's fused trial pass, allocated once per process: one
    SurvivorKernel for the thresholded estimators, whose workspace also
    receives the EMAF, and the scoring, which borrows the kernel's scratch
    grids between its passes.  compute_emaf's grid is conjugate-symmetric,
    so the kernel decides on the rows with tau >= 0 and the scoring follows
    mse_against_naf's half-plane rule: a trial's error is an (N, 2N) grid of
    those rows, zero on the reference cells and their mirrors (`cells`),
    plus the error of each of `cells`.  Off `cells` the error |v - ref|^2 is
    the |v|^2 the kernel's pass left in scratch[0].  A thresholded estimate
    is scored from its keep mask, never built: its error is |raw - ref|^2
    where kept and |ref|^2 elsewhere, its spread the kept fraction (same
    bits as mse_against_naf and total_spread of the built estimate)."""

    def __init__(self, cfg: MCConfig, naf: NAFReference):
        self.cfg, self.ref = cfg, naf.grid.values
        self.cells, self.upper, self.deciders = _scored_cells(self.ref)
        self.ref_power = np.abs(self.ref.flat[self.cells]) ** 2
        self.kernel = SurvivorKernel(
            cfg.n, cfg.threshold, [name for name in cfg.estimators if name != "emaf"]
        )

    def scores(self, x, clock: dict | None = None):
        """Yield (estimator, (error grid, cell errors), spread) of one record;
        the grid is a reused buffer.  clock, keyed by STAGES, gains the
        seconds of the EMAF, the survivor pass and the scoring, which
        includes the caller's work between yields."""
        clock = dict.fromkeys(STAGES, 0.0) if clock is None else clock
        kernel = self.kernel
        t = time.perf_counter()
        raw = compute_emaf(x, kernel.ws).values
        t = _lap(clock, "emaf", t)
        kernel.survive(raw)
        t = _lap(clock, "survivor_pass", t)
        yield from self._errors(raw, [name for name in self.cfg.estimators if name != "lbteaf"])
        if "lbteaf" in self.cfg.estimators:
            t = _lap(clock, "scoring", t)
            corrected = kernel.corrected(raw)
            t = _lap(clock, "survivor_pass", t)
            yield from self._errors(corrected, ["lbteaf"])
        _lap(clock, "scoring", t)

    def _errors(self, values, names):
        n, kernel = self.cfg.n, self.kernel
        err, masked = kernel.scratch[0][n - 1 :], kernel.real[n - 1 :]
        cell_err = np.square(np.abs(values.flat[self.cells] - self.ref.flat[self.cells]))
        whole = "emaf" in names and err.all()  # |v|^2 > 0 implies v != 0
        err.flat[self.upper] = 0.0
        for name in names:
            if name == "emaf":
                yield name, (err, cell_err), 1.0 if whole else _folded_count(values[n - 1 :]) / values.size
            else:
                keep = kernel.keep[name][n - 1 :]
                np.copyto(masked, 0.0)
                np.copyto(masked, err, where=keep)
                kept = np.where(keep.flat[self.deciders], cell_err, self.ref_power)
                yield name, (masked, kept), _folded_count(keep) / values.size


def _run_block(trial_pass: _TrialPass, block) -> tuple:
    """(per-estimator sums, clock) of one block: each estimator's error grid
    of the rows with tau >= 0 and cell errors summed over the block's trials,
    its per-trial totals and spreads, and the seconds of each stage."""
    start, stop = block
    cfg, clock = trial_pass.cfg, dict.fromkeys(STAGES, 0.0)
    out = {
        name: {"sq": np.zeros((cfg.n, 2 * cfg.n)), "cells": np.zeros(trial_pass.cells.size),
               "totals": [], "spreads": []}
        for name in cfg.estimators
    }
    for trial in range(start, stop):
        t = time.perf_counter()
        x = generate(cfg.process, cfg.n, derive_trial_seed(cfg.base_seed, trial))
        _lap(clock, "generate", t)
        for name, (err, cell_err), spread in trial_pass.scores(x, clock):
            slot = out[name]
            slot["sq"] += err
            slot["cells"] += cell_err
            slot["totals"].append(_folded_total(err, cell_err))
            slot["spreads"].append(spread)
    return out, clock


_WORKER_PASS, _WORKER_START = None, 0.0


def _worker_init(cfg, naf, created):
    global _WORKER_PASS, _WORKER_START
    _WORKER_PASS = _TrialPass(cfg, naf)
    _WORKER_START = time.time() - created  # the pool's start, as this worker saw it


def _worker_run(block):
    global _WORKER_START
    out, clock = _run_block(_WORKER_PASS, block)
    clock["pool_start"], _WORKER_START = _WORKER_START, 0.0
    return out, clock


@functools.cache
def _git_revision() -> str | None:
    """HEAD of the git work tree that holds this source file, read as
    perfbench/child.py reads it: HEAD, then its loose ref, else None."""
    git = Path(__file__).resolve().parents[2] / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return None


def _environment(workers: int) -> dict:
    """What a report's numbers were measured with; metadata only."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "workers": workers,
        "git_revision": _git_revision(),
    }


def _worker_count(threads: int, blocks: int) -> int:
    """Worker processes worth starting: no more than the blocks or the CPUs."""
    return max(1, min(threads, blocks, os.cpu_count() or 1))


def run_bench(cfg: MCConfig, threads: int | None = None) -> MCReport:
    """Run the configured Monte Carlo benchmark.

    threads > 1 distributes trial blocks over worker processes; results are
    identical to a single-threaded run.  Defaults to the AFKIT_THREADS
    environment variable, else 1.  The workers are spawned, not forked, so
    that none carries a copy of the caller's memory; a script that calls
    this with threads > 1 must guard its entry point with
    ``if __name__ == "__main__":``.
    """
    cfg.validate()
    if threads is None:
        text = os.environ.get("AFKIT_THREADS", "1")
        try:
            threads = int(text)
        except ValueError:
            raise ValueError(f"AFKIT_THREADS must be an integer, got {text!r}") from None
        if threads < 1:
            raise ValueError(f"AFKIT_THREADS must be >= 1, got {threads}")
    elif threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    timing = dict.fromkeys(STAGES, 0.0)
    t0 = time.perf_counter()
    naf = naf_for_process(cfg.process, cfg.n)
    timing["reference_build"] = time.perf_counter() - t0
    blocks = [
        (s, min(s + ACCUMULATION_BLOCK, cfg.trials))
        for s in range(0, cfg.trials, ACCUMULATION_BLOCK)
    ]
    workers = _worker_count(threads, len(blocks))
    cells = _scored_cells(naf.grid.values)[0]
    sq = {name: np.zeros((cfg.n, 2 * cfg.n)) for name in cfg.estimators}
    cell_sq = {name: np.zeros(cells.size) for name in cfg.estimators}
    totals = {name: [] for name in cfg.estimators}
    spreads = {name: [] for name in cfg.estimators}

    def combine(partials):
        # Each block is folded in as it arrives, in index order, so that
        # only a few blocks' grids are ever held at once.
        for p, clock in partials:
            for name in cfg.estimators:
                sq[name] += p[name]["sq"]
                cell_sq[name] += p[name]["cells"]
                totals[name].extend(p[name]["totals"])
                spreads[name].extend(p[name]["spreads"])
            for stage, seconds in clock.items():
                timing[stage] += seconds

    t0 = time.perf_counter()
    if workers > 1:
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context("spawn"),
            initializer=_worker_init, initargs=(cfg, naf, time.time()),
        ) as pool:
            combine(pool.map(_worker_run, blocks))
    else:
        trial_pass = _TrialPass(cfg, naf)
        combine(_run_block(trial_pass, b) for b in blocks)
    wall = time.perf_counter() - t0

    per_estimator = {}
    k = cfg.trials
    for name in cfg.estimators:
        t, sp = np.asarray(totals[name]), np.asarray(spreads[name])
        grid = _unfold(sq.pop(name), cells, cell_sq[name])
        per_estimator[name] = EstimatorStats(
            total_mse_mean=float(t.mean()),
            total_mse_std=float(t.std(ddof=1)) if k > 1 else 0.0,
            spread_mean=float(sp.mean()),
            spread_std=float(sp.std(ddof=1)) if k > 1 else 0.0,
            mse_grid=np.divide(grid, k, out=grid),
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
        "environment": _environment(workers),
        "timing": timing,
    }
    return MCReport(per_estimator, metadata)
