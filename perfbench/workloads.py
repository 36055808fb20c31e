"""Workload definitions, their untraced measurement and their output checks.

A workload's seed is a benchmark argument: it is hashed with a call or
record index into the seeds afkit receives, so afkit only ever sees the
generated config and inputs.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from afkit import bench, cli
from afkit.bench import MCConfig
from afkit.emaf import compute_emaf
from afkit.gridio import load_grid
from afkit.sigcore import (
    DEFAULT_MA_WEIGHTS,
    ChirpInNoise,
    TimeVaryingMA,
    UniformlyModulated,
    generate,
)
from afkit.thresholding import ThresholdConfig, lbteaf, lteaf, make_partition

THRESHOLD = ThresholdConfig(c_exponent=1.0, region_count=8, rim_fraction=0.1)

# The desk chirp beta sweeps past Nyquist at N = 512, so it is rescaled to
# keep the desk sweep alpha + beta*(N-1) of N = 256.
CHIRP_BETA_N512 = 9.0196e-4 * 255 / 511


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "mc": repeated run_bench calls; "pipeline": CLI records
    process: object
    gen_flags: tuple  # `afkit gen` flags that build the same process
    n: int
    method: str  # the local estimator that `afkit threshold` runs on a record
    estimators: tuple = ()
    workers: int = 1
    trials: int = 0  # trials per run_bench call: the desk config's count
    replay_trials: int = 0  # trials of the traced replay, a prefix of the first call
    check: Callable = None  # pooled per-estimator means -> list of failed checks (mc)


def derive_seed(*words: int) -> int:
    return int(np.random.SeedSequence([int(w) for w in words]).generate_state(1, np.uint32)[0])


def mc_config(w: Workload, seed: int, call: int, trials: int) -> MCConfig:
    return MCConfig(
        process=w.process, n=w.n, trials=trials, base_seed=derive_seed(seed, call),
        estimators=w.estimators, threshold=THRESHOLD,
    )


def peak_rss_mb() -> float:
    """Larger of this process's and its largest reaped child's peak RSS."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


# ---------------------------------------------------------------- checks

# Bands of the acceptance suite (tests/test_acceptance.py) around the
# README values, applied to the trial-weighted means of a whole run.
TVMA_EMAF_MSE = 5.17e7
TVMA_EMAF_BAND = (0.8, 1.2)
CHIRP_RATIO_BAND = (0.15, 0.40)
CHIRP_SPREAD_BAND = (0.005, 0.03)


def summarize_report(report) -> dict:
    """What a run keeps of one run_bench report; the per-cell grids are
    dropped at once so that they do not add to the measured peak RSS."""
    return {
        "trials": report.metadata["trials"],
        "results": {k: v.to_dict() for k, v in report.per_estimator.items()},
        "finite": all(
            math.isfinite(v) for s in report.per_estimator.values() for v in s.to_dict().values()
        ) and all(bool(np.all(np.isfinite(s.mse_grid))) for s in report.per_estimator.values()),
    }


def pooled_means(summaries) -> dict:
    """Trial-weighted mean of each estimator's total MSE and spread."""
    trials = sum(s["trials"] for s in summaries)
    return {
        name: {
            key: sum(s["results"][name][key] * s["trials"] for s in summaries) / trials
            for key in ("total_mse_mean", "spread_mean")
        }
        for name in summaries[0]["results"]
    }


def tvma_problems(means: dict) -> list:
    mse = {k: v["total_mse_mean"] for k, v in means.items()}
    lo, hi = (TVMA_EMAF_MSE * f for f in TVMA_EMAF_BAND)
    problems = []
    if not lo <= mse["emaf"] <= hi:
        problems.append(f"emaf MSE {mse['emaf']:.5g} outside [{lo:.4g}, {hi:.4g}]")
    if not (mse["teaf"] < mse["emaf"] / 50 and mse["lteaf"] < mse["emaf"] / 50):
        problems.append("teaf or lteaf MSE is not below emaf/50")
    if not mse["lteaf"] < mse["teaf"]:
        problems.append("lteaf MSE is not below teaf MSE")
    return problems


def chirp_problems(means: dict) -> list:
    ratio = means["lbteaf"]["total_mse_mean"] / means["emaf"]["total_mse_mean"]
    spread = means["lbteaf"]["spread_mean"]
    problems = []
    if not CHIRP_RATIO_BAND[0] <= ratio <= CHIRP_RATIO_BAND[1]:
        problems.append(f"lbteaf/emaf MSE {ratio:.4g} outside {CHIRP_RATIO_BAND}")
    if not CHIRP_SPREAD_BAND[0] <= spread <= CHIRP_SPREAD_BAND[1]:
        problems.append(f"lbteaf spread {spread:.4g} outside {CHIRP_SPREAD_BAND}")
    return problems


def mc_problems(w: Workload, summaries) -> list:
    """Failed checks on a run's report summaries; empty when every output is right."""
    problems = [f"non-finite result in call {i}" for i, s in enumerate(summaries) if not s["finite"]]
    return problems + w.check(pooled_means(summaries))


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def record_problems(w: Workload, n: int, seed: int, paths: dict) -> dict:
    """Failed output checks of one record, keyed by the command at fault."""
    problems = {}
    expected = {"lteaf": lteaf, "lbteaf": lbteaf}[w.method](
        compute_emaf(generate(w.process, n, seed)), make_partition(n, THRESHOLD.region_count),
        THRESHOLD,
    )
    got, _ = load_grid(paths["thr"])
    if not np.array_equal(got.values, expected.values):
        problems["threshold"] = "thresholded grid differs from the in-memory estimator"
    try:
        with open(paths["meta"]) as fh:
            json.loads(fh.read(), parse_constant=_reject_constant)
    except ValueError as exc:
        problems["threshold"] = f"--meta sidecar is not strict JSON: {exc}"
    with open(paths["spread"]) as fh:
        spread = json.load(fh)["total_spread"]
    if not 0.0 <= spread <= 1.0:
        problems["spread"] = f"spread {spread!r} outside [0, 1]"
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mc-tvma-n256-w1", "mc", TimeVaryingMA(DEFAULT_MA_WEIGHTS, 0.042),
            ("--process", "tvma", "--f0", "0.042"), 256, "lteaf",
            ("emaf", "teaf", "lteaf"), workers=1, trials=500, replay_trials=100,
            check=tvma_problems,
        ),
        Workload(
            "mc-chirp-n512-w2", "mc", ChirpInNoise(0.1, CHIRP_BETA_N512, 1.2),
            ("--process", "chirp", "--alpha", "0.1", "--beta", repr(CHIRP_BETA_N512),
             "--noise-psd", "1.2"), 512, "lbteaf",
            ("emaf", "teaf", "lbteaf"), workers=2, trials=200, replay_trials=50,
            check=chirp_problems,
        ),
        Workload(
            "pipeline-um-n128", "pipeline", UniformlyModulated(0.09),
            ("--process", "um", "--f0", "0.09"), 128, "lteaf",
        ),
    )
}


# ---------------------------------------------------------------- records

COMMANDS = ("gen", "emaf", "threshold", "spread")


def record_paths(workdir: str) -> dict:
    names = {"sig": "x.csv", "raw": "raw.csv", "thr": "thr.csv", "meta": "meta.json",
             "spread": "spread.json"}
    return {k: os.path.join(workdir, v) for k, v in names.items()}


def record_argv(w: Workload, n: int, seed: int, p: dict) -> list:
    return [
        ["gen", *w.gen_flags, "--n", str(n), "--seed", str(seed), "-o", p["sig"]],
        ["emaf", "-i", p["sig"], "-o", p["raw"]],
        ["threshold", "-i", p["raw"], "--method", w.method, "--meta", p["meta"], "-o", p["thr"]],
        ["spread", "-i", p["thr"], "-o", p["spread"]],
    ]


def run_record(w: Workload, n: int, seed: int, workdir: str, span=None):
    """One closed-loop record through in-process `afkit.cli.main`.

    Returns (wall seconds, commands attempted, set of failed commands).
    `span(name)`, when given, wraps each command in a trace span.
    """
    p = record_paths(workdir)
    failed = set()
    attempted = 0
    t0 = time.perf_counter()
    for name, argv in zip(COMMANDS, record_argv(w, n, seed, p)):
        attempted += 1
        try:
            if span is None:
                rc = cli.main(argv)
            else:
                with span(f"cli.{name}"):
                    rc = cli.main(argv)
        except Exception:  # a crashing command is a failed operation, not a crashed run
            rc = -1
        if rc != 0:
            failed.add(name)
            break
    wall = time.perf_counter() - t0
    return wall, attempted, failed


def checked_record(w: Workload, n: int, seed: int, workdir: str, span=None, pause=None):
    """run_record plus its output checks, which stay outside the timing."""
    wall, attempted, failed = run_record(w, n, seed, workdir, span)
    if not failed:
        with pause() if pause else contextlib.nullcontext():
            try:
                failed |= set(record_problems(w, n, seed, record_paths(workdir)))
            except (OSError, ValueError, KeyError):  # unreadable output
                failed |= {"threshold", "spread"}
    return wall, attempted, failed


# ---------------------------------------------------------------- untraced runs


def metric(value, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def _keeps_going(start: float, last: float, seconds: float) -> bool:
    """Start another unit of work only if it should end within the budget."""
    return time.perf_counter() - start + last <= seconds


def measure_mc(w: Workload, seed: int, seconds: float) -> dict:
    """Desk-size run_bench calls, as `afkit bench` makes them: at least one,
    and another only while it should end within the budget."""
    summaries, walls, problems = [], [], []
    start = time.perf_counter()
    while True:
        cfg = mc_config(w, seed, len(walls), w.trials)
        t0 = time.perf_counter()
        try:
            summaries.append(summarize_report(bench.run_bench(cfg, threads=w.workers)))
        except Exception as exc:  # a raising call fails its trials, the run goes on
            problems.append(f"run_bench raised {exc!r}")
        walls.append(time.perf_counter() - t0)
        if not _keeps_going(start, walls[-1], seconds):
            break
    trials = w.trials * len(walls)
    if summaries:
        problems += mc_problems(w, summaries)
    return {
        "attempted": trials,
        "failed": trials if problems else 0,
        "problems": problems,
        "ops_per_s": trials / sum(walls),
        "named": {"trials_per_s": metric(trials / sum(walls), "trials/s", trials)},
        "detail": {
            "run_bench_wall_s": walls,
            "pooled_means": pooled_means(summaries) if summaries else None,
        },
    }


def percentile_with_tail(values, q: int):
    """The q-th percentile, or None when fewer than ten samples lie above it."""
    cut = statistics.quantiles(values, n=100)[q - 1]
    return cut if sum(v > cut for v in values) >= 10 else None


def measure_pipeline(w: Workload, seed: int, seconds: float, workdir: str) -> dict:
    walls, attempted, failed = [], 0, 0
    start = time.perf_counter()
    while True:
        wall, tried, bad = checked_record(w, w.n, derive_seed(seed, len(walls)), workdir)
        walls.append(wall)
        attempted += tried
        failed += len(bad)
        if not _keeps_going(start, wall, seconds):
            break
    named = {
        "records_per_s": metric(len(walls) / sum(walls), "records/s", len(walls)),
        "record_s_p50": metric(statistics.median(walls), "s", len(walls)),
    }
    if len(walls) >= 2:
        p75 = percentile_with_tail(walls, 75)
        if p75 is not None:
            named["record_s_p75"] = metric(p75, "s", len(walls))
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": [],
        "ops_per_s": len(walls) / sum(walls),
        "named": named,
        "detail": {"record_wall_s": walls},
    }
