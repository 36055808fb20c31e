"""Run one benchmark workload in fresh processes and print its metrics.

    python3 perfbench/run.py --workload mc-tvma-n256-w1 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  With --trace 0 the workload runs
untraced and the end-to-end metrics of BENCHMARK.json are printed; with
--trace 1 a separate traced replay prints the per-layer metrics.  The
next-to-last line is a report (environment, sample counts, per-span
times); the last line is the result
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Workloads, their reasons and the layer-to-metric map: perfbench/README.md.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Set-up is short and noisy, so it is timed in this many fresh processes
# besides the measuring one, half before the measurement and half after it,
# so that the samples span the run; the median is reported.
SETUP_PROBES = 8
# Every run, including its set-up probes, must end well inside 180 s.
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_child(mode: str, args, deadline: float) -> dict:
    """Run child.py in a fresh process group and return its JSON line."""
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"), mode, "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
    ]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{mode} process overran the deadline") from None
    finally:
        try:  # pool workers left behind by a crashed child
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} process exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise ChildFailed(f"{mode} process printed nothing")
    return json.loads(lines[-1])


def end_to_end(out: dict, setups: list) -> dict:
    return {
        "ops_per_s": out["ops_per_s"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": out["peak_rss_mb"],
    }


def result_line(spec: dict, trace: int, out: dict, values: dict) -> dict:
    """The last output line: every metric BENCHMARK.json names, with its unit."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    return {
        "correct": out["failed"] == 0 and not out["problems"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description="Run one afkit benchmark workload.")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "afkit", "__init__.py")):
        print("perfbench: no afkit sources under src/ in this checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            out = run_child("trace", args, deadline)
            values = out["metrics"]
        else:
            def setup_probes(count):
                return [run_child("setup", args, deadline)["setup_s"] for _ in range(count)]

            setups = setup_probes(SETUP_PROBES // 2)
            out = run_child("measure", args, deadline)
            setups += [out["setup_s"]] + setup_probes(SETUP_PROBES - SETUP_PROBES // 2)
            values = end_to_end(out, setups)
            out["named"].update(
                setup_s={"value": values["setup_s"], "unit": "s", "samples": len(setups)},
                peak_rss_mb={"value": out["peak_rss_mb"], "unit": "MB", "samples": 1},
                failed_frac={
                    "value": out["failed"] / out["attempted"],
                    "unit": "fraction",
                    "samples": out["attempted"],
                },
            )
            out["detail"]["setup_s_samples"] = setups
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": out["environment"],
        "problems": out["problems"],
        "metrics": out.get("named", {}),
        "detail": out["detail"],
    }
    if args.trace:
        report["spans"] = out["spans"]
    print(json.dumps({"report": report}))
    print(json.dumps(result_line(spec, args.trace, out, values)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
