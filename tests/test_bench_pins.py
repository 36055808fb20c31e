"""run_bench held to recorded bits.

tests/data/bench_pins.json records, for one small config per registered
process run with every estimator the process allows, the exact `results`
of run_bench (floats as repr strings) and a sha256 of each per-cell MSE
grid.  They were last written when the survivor pass and the scoring
began to read only the tau >= 0 rows of a conjugate-symmetric grid (a
rounding-only re-baseline: no survivor and no spread moved, and twelve
repr strings of totals and their standard deviations moved in their last
digit), so they catch a drift that moves the fused pass and the public
path together.  Rewrite them only on purpose:

    PYTHONPATH=src python tests/test_bench_pins.py > tests/data/bench_pins.json
"""

import hashlib
import json
import os
import sys

import numpy as np
import pytest

from afkit.bench import MCConfig, run_bench
from afkit.sigcore import PROCESSES
from afkit.thresholding import ThresholdConfig

PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "bench_pins.json")


def pin_config(name: str) -> MCConfig:
    cls = PROCESSES[name]
    return MCConfig(cls(), n=32, trials=30, base_seed=12, estimators=cls.estimators,
                    threshold=ThresholdConfig())


def pin(cfg: MCConfig) -> dict:
    report = run_bench(cfg, threads=1)
    return {
        "config": {"process": vars(cfg.process), "n": cfg.n, "trials": cfg.trials,
                   "base_seed": cfg.base_seed, "estimators": list(cfg.estimators),
                   "threshold": vars(cfg.threshold)},
        "results": {
            name: {
                **{key: repr(value) for key, value in stats.to_dict().items()},
                "mse_grid_sha256": hashlib.sha256(
                    np.ascontiguousarray(stats.mse_grid, dtype="<f8").tobytes()
                ).hexdigest(),
            }
            for name, stats in report.per_estimator.items()
        },
    }


def _jsonable(pins: dict) -> dict:
    return json.loads(json.dumps(pins))  # tuples become lists, as in the file


@pytest.mark.parametrize("name", list(PROCESSES))
def test_run_bench_matches_its_pins(name):
    with open(PINS) as fh:
        pinned = json.load(fh)
    assert sorted(pinned) == sorted(PROCESSES)
    got = _jsonable(pin(pin_config(name)))
    assert got["config"] == pinned[name]["config"]
    for estimator, stats in pinned[name]["results"].items():
        assert got["results"][estimator] == stats, (name, estimator)
    assert sorted(got["results"]) == sorted(pinned[name]["results"])


if __name__ == "__main__":
    json.dump({name: pin(pin_config(name)) for name in PROCESSES}, sys.stdout, indent=1)
    sys.stdout.write("\n")
