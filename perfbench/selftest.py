"""Self-test of the benchmark at tiny sizes (a few seconds).

    python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)

Runs each workload's measurement and traced replay in-process on shrunken
grids, then checks that every metric BENCHMARK.json names comes out with
its unit, that the traced replay reproduces the untraced run_bench report
exactly, and that the N = 512 chirp config is valid.  The shrunken runs
are too small for the output checks' MSE bands, so their `correct` flag is
not asserted.
"""

import dataclasses
import math
import os
import shutil
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import child  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402

TINY_N = 16
TINY_TRIALS = 50  # two accumulation blocks, so the 2-worker pool really runs
TINY_SECONDS = 0.5


def tiny(name):
    w = wl.WORKLOADS[name]
    trials = TINY_TRIALS if w.kind == "mc" else 0
    return dataclasses.replace(w, n=TINY_N, trials=trials, replay_trials=trials)


class BenchmarkSelfTest(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec()
        self.workdir = os.path.join(child.OUT, f"selftest-{os.getpid()}")
        os.makedirs(self.workdir, exist_ok=True)
        self.addCleanup(shutil.rmtree, self.workdir, True)

    def assert_metrics(self, line, wanted):
        names = [m["name"] for m in wanted]
        self.assertEqual(sorted(line["metrics"]), sorted(names))
        for m in wanted:
            got = line["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])

    def test_every_metric_is_printed_with_its_unit(self):
        for entry in self.spec["workloads"]:
            w = tiny(entry["name"])
            with self.subTest(workload=w.name, trace=0):
                out = child.measure(w, 1, TINY_SECONDS, self.workdir)
                out["peak_rss_mb"] = wl.peak_rss_mb()
                values = run.end_to_end(out, [0.1, 0.2, 0.3])
                self.assert_metrics(run.result_line(self.spec, 0, out, values), self.spec["end_to_end"])
            with self.subTest(workload=w.name, trace=1):
                tr, probe = Tracer(), Tracer()
                trace = child.trace_mc if w.kind == "mc" else child.trace_pipeline
                out = trace(w, 1, TINY_SECONDS, self.workdir, tr, probe)
                values, _ = child.layer_metrics(tr, probe, out)
                self.assert_metrics(run.result_line(self.spec, 1, out, values), self.spec["per_layer"])
                self.assertEqual(out["failed"] if w.kind == "pipeline" else 0, 0)

    def test_traced_replay_matches_untraced_report(self):
        for name in ("mc-tvma-n256-w1", "mc-chirp-n512-w2"):
            with self.subTest(workload=name):
                out = child.trace_mc(tiny(name), 7, TINY_SECONDS, self.workdir, Tracer(), Tracer())
                traced, untraced = out["detail"]["results_traced"], out["detail"]["results_untraced"]
                for est in untraced:
                    self.assertEqual(traced[est]["total_mse_mean"], untraced[est]["total_mse_mean"])
                self.assertNotIn("traced replay differs from the untraced run_bench report", out["problems"])

    def test_chirp_n512_config_is_valid(self):
        w = wl.WORKLOADS["mc-chirp-n512-w2"]
        wl.mc_config(w, 0, 0, w.trials).validate()


if __name__ == "__main__":
    unittest.main()
