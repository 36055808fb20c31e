"""Monte Carlo benchmark harness.

Runs K seeded trials of a process, computes the empirical ambiguity
function and the configured threshold estimators for each trial, and
accumulates per-cell squared errors against the process' reference
surface, per-trial total squared errors and total spreads: a block of
trials returns one record per estimator (_run_block), which run_bench folds
into that estimator's accumulator.  The EMAF and the reference are
conjugate-symmetric, so errors fold onto the tau >= 0 rows by one rule,
_score, which reads only the reference's support cells and their values; a
trial scores by it, and so does mse_against_naf.

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

from .emaf import AmbiguityGrid, _conjugate_symmetric, _fold, _unfold, compute_emaf
from .moments import NAFReference, naf_for_process
from .sigcore import ProcessSpec, _check_integer, generate
from .thresholding import METHODS, SurvivorKernel, ThresholdConfig, _power

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
        for name in ("n", "trials", "base_seed"):
            _check_integer(name, getattr(self, name))
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be >= 0, got {self.base_seed}")
        self.process.validate(self.n)
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if not self.estimators:
            raise ValueError("estimator set must be nonempty")
        for i, est in enumerate(self.estimators):
            if est not in ESTIMATORS:
                raise ValueError(f"unknown estimator {est!r}")
            if est in self.estimators[:i]:
                raise ValueError(f"estimator {est} is given twice")
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

    def to_dict(self) -> dict:  # the scalar fields, in order
        return {k: v for k, v in vars(self).items() if k != "mse_grid"}


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

    Like every reference, a conjugate-symmetric estimate
    (emaf._conjugate_symmetric) is scored by run_bench's rule, _score of its
    rows with tau >= 0, each tau < 0 cell taking its mirror's error, so that
    the sum counts the rows with tau > 0 twice."""
    values, n = estimate.values, estimate.n
    if n != naf.n:
        raise ValueError("estimate and reference grids are not congruent")
    if not _conjugate_symmetric(values):
        err = np.abs(values - naf.grid.values) ** 2
        return err, float(err.sum())
    half = np.empty((n, 2 * n))
    _score(values[n - 1 :], None, naf, half, count=False)
    return _unfold(half), float(_fold(np.sum, half))


def _score(half, keep, naf: NAFReference, out: np.ndarray, count: bool = True) -> tuple:
    """The one scoring rule: into out, the error of the tau >= 0 rows half
    of an estimate that is zero off keep (a mask of nonzero cells of half;
    None keeps every cell), |v - ref|^2 on naf.cells, |v|^2 on the other
    kept cells and 0 elsewhere.  Returns the cells of out it wrote (every
    other cell is 0) and the estimate's nonzero count on the whole plane
    (emaf._fold; False unless count).  A kept estimate is never built: its
    |v|^2 is computed on the kept cells alone."""
    cells, v = naf.cells, half.flat[naf.cells]
    if keep is None:
        _power(half, out=out)  # |v|^2 > 0 implies v != 0
        wrote, count = slice(None), count and _fold(np.size if out.all() else np.count_nonzero, half)
    else:
        out.fill(0.0)
        kept = np.flatnonzero(keep)
        out.flat[kept] = _power(half.flat[kept])
        on = keep.flat[cells]
        wrote, count, v = np.concatenate((kept, cells[~on])), _fold(np.count_nonzero, keep), np.where(on, v, 0)
    out.flat[cells] = _power(v - naf.values)
    return wrote, count


def _lap(clock: dict, stage: str, start: float) -> float:
    now = time.perf_counter()
    clock[stage] += now - start
    return now


def _kernel(cfg: MCConfig) -> SurvivorKernel:
    """cfg's survivor pass; its ws[0] also receives each trial's EMAF."""
    return SurvivorKernel(cfg.n, cfg.threshold, [name for name in cfg.estimators if name != "emaf"])


def _run_block(cfg: MCConfig, naf: NAFReference, kernel: SurvivorKernel, block) -> tuple:
    """(records, clock) of one block.  An estimator's record is (cells,
    values, totals, spreads): its tau >= 0 rows' error grid summed over the
    block, at flat cells (all of emaf's, a thresholded one's nonzero ones:
    the others add an exact 0), and its per-trial totals and spreads; clock
    has each stage's seconds (keyed by STAGES).  A trial computes no tau < 0
    row: the EMAF and the reference are conjugate-symmetric, so the kernel
    decides and _score folds on the rows with tau >= 0 alone, into the
    kernel's scratch[1], free between its passes.  lbteaf comes last
    (ESTIMATORS order), as its correction overwrites the EMAF."""
    n, clock = cfg.n, dict.fromkeys(STAGES, 0.0)
    err, keep = kernel.scratch[1], {name: k[n - 1 :] for name, k in kernel.keep.items()}
    out = {name: (np.zeros(n * 2 * n), [], []) for name in cfg.estimators}
    for trial in range(*block):
        t = time.perf_counter()
        x = generate(cfg.process, n, derive_trial_seed(cfg.base_seed, trial))
        t = _lap(clock, "generate", t)
        values = compute_emaf(x, kernel.ws[0]).values
        t = _lap(clock, "emaf", t)
        kernel.survive(values)
        t = _lap(clock, "survivor_pass", t)
        for name in sorted(cfg.estimators, key=ESTIMATORS.index):
            if name == "lbteaf":
                t = _lap(clock, "scoring", t)
                values = kernel.corrected(values)
                t = _lap(clock, "survivor_pass", t)
            cells, count = _score(values[n - 1 :], keep.get(name), naf, err)
            sq, totals, spreads = out[name]
            sq[cells] += err.reshape(-1)[cells]
            totals.append(float(_fold(np.sum, err)))
            spreads.append(count / values.size)
        _lap(clock, "scoring", t)
    for name, (sq, totals, spreads) in out.items():
        cells = slice(None) if name == "emaf" else np.flatnonzero(sq)
        out[name] = cells, sq[cells], totals, spreads
    return out, clock


_WORKER, _WORKER_START = None, 0.0


def _worker_init(cfg, naf, created):
    global _WORKER, _WORKER_START
    _WORKER = cfg, naf, _kernel(cfg)
    _WORKER_START = time.time() - created  # the pool's start, as this worker saw it


def _worker_run(block):
    global _WORKER_START
    out, clock = _run_block(*_WORKER, block)
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
    this with threads > 1 must guard its entry point with ``if __name__ ==
    "__main__":``.  Workers start from the NAFReference's support alone and
    send back _run_block's records: README."""
    cfg.validate()
    source = "threads"
    if threads is None:
        source, text = "AFKIT_THREADS", os.environ.get("AFKIT_THREADS", "1")
        try:
            threads = int(text)
        except ValueError:
            raise ValueError(f"AFKIT_THREADS must be an integer, got {text!r}") from None
    _check_integer(source, threads)
    if threads < 1:
        raise ValueError(f"{source} must be >= 1, got {threads}")
    timing = dict.fromkeys(STAGES, 0.0)
    t0 = time.perf_counter()
    naf = naf_for_process(cfg.process, cfg.n)
    timing["reference_build"] = time.perf_counter() - t0
    blocks = [
        (s, min(s + ACCUMULATION_BLOCK, cfg.trials))
        for s in range(0, cfg.trials, ACCUMULATION_BLOCK)
    ]
    workers = _worker_count(threads, len(blocks))
    acc = {name: (np.zeros((cfg.n, 2 * cfg.n)), [], []) for name in cfg.estimators}

    def combine(partials):
        # Each block is folded in as it arrives, in index order, so that
        # only a few blocks' grids are ever held at once.
        for p, clock in partials:
            for name, (cells, values, totals, spreads) in p.items():
                sq, all_totals, all_spreads = acc[name]
                sq.reshape(-1)[cells] += values
                all_totals.extend(totals)
                all_spreads.extend(spreads)
            for stage, seconds in clock.items():
                timing[stage] += seconds

    t0 = time.perf_counter()
    if workers > 1:
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context("spawn"),
            initializer=_worker_init, initargs=(cfg, naf, time.time()),
        ) as pool:
            combine(pool.map(_worker_run, blocks))
    else:  # one kernel for every block, as a worker keeps one
        combine(map(functools.partial(_run_block, cfg, naf, _kernel(cfg)), blocks))
    wall = time.perf_counter() - t0

    per_estimator = {}
    k = cfg.trials
    for name in cfg.estimators:
        sq, totals, spreads = acc.pop(name)
        t, sp, grid = np.asarray(totals), np.asarray(spreads), _unfold(sq)
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
