"""One fresh benchmark process for one workload; prints one JSON line.

    python3 perfbench/child.py {setup,measure,trace} --workload W --seed S --seconds T

setup    imports afkit and builds the workload's reference, then exits.
measure  does the same, then runs the workload untraced for T seconds.
trace    replays the workload through traced public functions and derives
         the per-layer metrics.

perfbench/run.py starts these with PYTHONPATH pointing at the checkout's
src/ and BLAS/OpenMP pinned to one thread.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

import afkit  # noqa: E402
import afkit.cli  # noqa: E402,F401  (the import a CLI user pays)
from afkit import bench, moments, thresholding  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from spans import Tracer, child_time, instrument, summarize  # noqa: E402

# Records replayed on the mc workloads so that gridio and cli are traced
# there too; N = 128 keeps one record near a second.
PROBE_RECORD_N = 128
PROBE_CALLS = 3


def git_revision():
    """HEAD of the checkout when it is a git work tree, else None."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as fh:
                return fh.read().strip()
        return head
    except OSError:
        return None


def environment(w) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "workers": w.workers,
        "git_revision": git_revision(),
        "thread_pins": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


def measure(w, seed, seconds, workdir) -> dict:
    if w.kind == "mc":
        return wl.measure_mc(w, seed, seconds)
    return wl.measure_pipeline(w, seed, seconds, workdir)


def probe_estimators(reached, raw, naf) -> None:
    """A few calls of each estimator and of the scoring the replay never reached."""
    part = thresholding.make_partition(raw.n, wl.THRESHOLD.region_count)
    calls = {
        "thresholding.teaf": lambda: thresholding.teaf(raw, wl.THRESHOLD),
        "thresholding.lteaf": lambda: thresholding.lteaf(raw, part, wl.THRESHOLD),
        "thresholding.lbteaf": lambda: thresholding.lbteaf(raw, part, wl.THRESHOLD),
        "bench.mse_against_naf": lambda: bench.mse_against_naf(raw, naf),
    }
    for name, call in calls.items():
        if name not in reached:
            for _ in range(PROBE_CALLS):
                call()


def traced_records(tr, w, n, seeds, workdir):
    wall, attempted, failed = 0.0, 0, 0
    for seed in seeds:
        with tr.span("record"):
            dt, tried, bad = wl.checked_record(w, n, seed, workdir, tr.span, tr.paused)
        wall += dt
        attempted += tried
        failed += len(bad)
    return wall, attempted, failed


def trace_mc(w, seed, seconds, workdir, tr, probe) -> dict:
    cfg = wl.mc_config(w, seed, 0, w.replay_trials)
    cpu0, kids0, t0 = time.process_time(), wl.children_cpu_s(), time.perf_counter()
    untraced = bench.run_bench(cfg, threads=w.workers)
    wall_w = time.perf_counter() - t0
    if w.workers > 1:
        busy = (wl.children_cpu_s() - kids0) / (wall_w * w.workers)
    else:
        busy = (time.process_time() - cpu0) / wall_w
    with instrument(tr):
        t0 = time.perf_counter()
        traced = bench.run_bench(cfg, threads=1)
        wall_t = time.perf_counter() - t0
    outer, inner = child_time(tr.spans, {"bench.run_bench"})
    raw = afkit.compute_emaf(
        afkit.generate(w.process, w.n, afkit.derive_trial_seed(cfg.base_seed, 0))
    )
    with instrument(probe):
        naf = moments.naf_for_process(w.process, w.n)
        probe_estimators({s[0] for s in tr.spans}, raw, naf)
        rec_wall, rec_tried, rec_failed = traced_records(
            probe, w, PROBE_RECORD_N, [wl.derive_seed(seed, 0)], workdir
        )
    if w.workers > 1:
        t0 = time.perf_counter()
        bench.run_bench(cfg, threads=1)
        wall_u1 = time.perf_counter() - t0
        unattributed = 1.0 - inner / (wall_w * w.workers)
    else:
        wall_u1 = wall_w
        unattributed = 1.0 - inner / outer
    traced, untraced = wl.summarize_report(traced), wl.summarize_report(untraced)
    problems = wl.mc_problems(w, [untraced])
    if traced["results"] != untraced["results"]:
        problems.append("traced replay differs from the untraced run_bench report")
    return {
        "attempted": cfg.trials + rec_tried,
        "failed": (cfg.trials if problems else 0) + rec_failed,
        "problems": problems,
        "records": 0,
        "probe_records": 1,
        "unattributed_frac": unattributed,
        "worker_busy_frac": busy,
        "overhead_frac": wall_t / wall_u1 - 1.0,
        "detail": {
            "replayed_trials": cfg.trials,
            "run_bench_untraced_s": wall_w,
            "run_bench_traced_1w_s": wall_t,
            "run_bench_untraced_1w_s": wall_u1,
            "probe_record_s": rec_wall,
            "results_traced": traced["results"],
            "results_untraced": untraced["results"],
        },
    }


def trace_pipeline(w, seed, seconds, workdir, tr, probe) -> dict:
    seeds, wall_u, attempted, failed = [], 0.0, 0, 0
    cpu0, t0 = time.process_time(), time.perf_counter()
    while not seeds or wall_u + wall_u / len(seeds) <= seconds / 2:
        seeds.append(wl.derive_seed(seed, len(seeds)))
        dt, tried, bad = wl.checked_record(w, w.n, seeds[-1], workdir)
        wall_u += dt
        attempted += tried
        failed += len(bad)
    busy = (time.process_time() - cpu0) / (time.perf_counter() - t0)
    with instrument(tr):
        wall_t, tried, bad = traced_records(tr, w, w.n, seeds, workdir)
    raw = afkit.compute_emaf(afkit.generate(w.process, w.n, seeds[0]))
    with instrument(probe):
        naf = moments.naf_for_process(w.process, w.n)
        probe_estimators({s[0] for s in tr.spans}, raw, naf)
    outer, _ = child_time(tr.spans, {"record"})
    _, inner = child_time(tr.spans, {f"cli.{c}" for c in wl.COMMANDS})
    return {
        "attempted": attempted + tried,
        "failed": failed + bad,
        "problems": [],
        "records": len(seeds),
        "probe_records": 0,
        "unattributed_frac": 1.0 - inner / outer,
        "worker_busy_frac": busy,
        "overhead_frac": wall_t / wall_u - 1.0,
        "detail": {"records_untraced_s": wall_u, "records_traced_s": wall_t},
    }


LAYER_MS = (
    "sigcore.generate",
    "emaf.compute_emaf",
    "emaf.standardize",
    "thresholding.teaf",
    "thresholding.lteaf",
    "thresholding.lbteaf",
    "thresholding.threshold_with_details",
    "bench.mse_against_naf",
    "moments.naf_for_process",
    "gridio.write_grid",
    "gridio.load_grid",
    "gridio.write_signal",
    "gridio.load_signal",
    "cli.gen",
    "cli.emaf",
    "cli.threshold",
    "cli.spread",
)


def layer_metrics(tr, probe, out) -> tuple:
    """(per-layer metrics, per-span summaries): metrics are mean inclusive ms
    per call, and counts per call or per record.  A layer's figures come
    from the workload's replay (`tr`), or from the probes when the replay
    never reached it."""
    summary = {"replay": summarize(tr.spans), "probes": summarize(probe.spans)}

    def source(name):
        return "replay" if name in summary["replay"] else "probes"

    def ms(names, per):
        s = summary[source(per)]
        return 1e3 * sum(s.get(n, {}).get("total_s", 0.0) for n in names) / s[per]["calls"]

    metrics = {f"{name}.ms": ms([name], name) for name in LAYER_MS}
    metrics["spread.total_spread.ms"] = ms(
        ["spread.indicator", "spread.total_spread"], "spread.total_spread"
    )
    emaf_calls = summary["replay"]["emaf.compute_emaf"]["calls"]
    for key in ("emaf.compute_emaf.flops_computed", "emaf.compute_emaf.bytes_computed"):
        metrics[key] = tr.counters[key] / emaf_calls
    for key in ("gridio.bytes_written", "gridio.bytes_read"):
        if out["records"]:
            metrics[key] = tr.counters[key] / out["records"]
        else:
            metrics[key] = probe.counters[key] / out["probe_records"]
    metrics["bench.unattributed_frac"] = out["unattributed_frac"]
    metrics["bench.worker_busy_frac"] = out["worker_busy_frac"]
    metrics["trace.overhead_frac"] = out["overhead_frac"]
    return metrics, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure", "trace"))
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    if os.path.dirname(os.path.abspath(afkit.__file__)) != os.path.join(ROOT, "src", "afkit"):
        print(f"afkit was imported from {afkit.__file__}, not from this checkout", file=sys.stderr)
        return 2
    w = wl.WORKLOADS[args.workload]
    result = {"environment": environment(w)}
    if args.mode != "trace":
        moments.naf_for_process(w.process, w.n)
        result["setup_s"] = time.perf_counter() - _T0
        if args.mode == "setup":
            print(json.dumps(result))
            return 0
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.mode == "measure":
            out = measure(w, args.seed, args.seconds, workdir)
            out["peak_rss_mb"] = wl.peak_rss_mb()
        else:
            tr, probe = Tracer(), Tracer()
            run = trace_mc if w.kind == "mc" else trace_pipeline
            out = run(w, args.seed, args.seconds, workdir, tr, probe)
            out["metrics"], out["spans"] = layer_metrics(tr, probe, out)
            tr.dump(os.path.join(OUT, f"spans-{w.name}-seed{args.seed}.json"))
            probe.dump(os.path.join(OUT, f"probes-{w.name}-seed{args.seed}.json"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
