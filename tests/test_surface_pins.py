"""Public surfaces held to recorded bits.

tests/data/surface_pins.json records one sha256 per surface and case:

* naf_for_process (the support cells and values) of every registered
  process at its default parameters, at each N in {5, 16, 33, 256} where
  the spec is valid, and of one other MA and time-varying MA spec at N = 33;
* ma_analytic_autocorr at lags -7..7, ma_dual_time_table (N = 16, T = 6)
  and ma_analytic_spectrum of the default MA process;
* compute_emaf of a uniformly modulated record at N in {5, 32, 33, 65}
  (below, at and past one 32-row tile, odd N included);
* bias_correct, and the grid and `--meta` JSON of lbteaf through
  threshold_with_details, on the EMAF of a chirp in noise and on that EMAF
  with one tau < 0 cell moved off its mirror (the full-plane path), at
  N in {16, 33, 64};
* the grid and `--meta` JSON of teaf and lteaf through
  threshold_with_details on the EMAF of a uniformly modulated record and
  on that EMAF with one tau < 0 cell moved off its mirror, at N in {16, 64}.

A change that keeps every bit leaves this file as it is; a change that
moves a surface on purpose rewrites it, and the diff of the file is its
list of moved pins.  Rewrite it only on purpose:

    PYTHONPATH=src python tests/test_surface_pins.py > tests/data/surface_pins.json
"""

import hashlib
import json
import os
import sys

import numpy as np

from afkit.emaf import compute_emaf
from afkit.moments import ma_analytic_autocorr, ma_analytic_spectrum, ma_dual_time_table, naf_for_process
from afkit.sigcore import (DEFAULT_MA_WEIGHTS, PROCESSES, ChirpInNoise, MovingAverage, TimeVaryingMA,
                           UniformlyModulated, generate)
from afkit.thresholding import ThresholdConfig, bias_correct, threshold_with_details

PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "surface_pins.json")


def _sha(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes) else np.ascontiguousarray(part).tobytes())
    return digest.hexdigest()


def _emaf_cases(spec, sizes):
    """(name, raw grid): the EMAF of spec, and the same with one tau < 0 cell moved."""
    for n in sizes:
        raw = compute_emaf(generate(spec, n, 3))
        yield f"{spec.name}/N={n}", raw
        moved = compute_emaf(generate(spec, n, 3))
        moved.values[1, 7] += 1.0
        yield f"{spec.name}-moved/N={n}", moved


def pins() -> dict:
    out = {}
    for name, cls in PROCESSES.items():
        for n in (5, 16, 33, 256):
            try:
                cls().validate(n)
            except ValueError:
                continue
            ref = naf_for_process(cls(), n)
            out[f"naf_for_process/{name}/N={n}"] = _sha(ref.cells, ref.values)
    for spec in (MovingAverage((1.0, -0.4, 0.2), 2.5), TimeVaryingMA((1.0, 0.5), 0.11)):
        ref = naf_for_process(spec, 33)
        out[f"naf_for_process/{spec}/N=33"] = _sha(ref.cells, ref.values)
    out["ma_analytic_autocorr/lags=-7..7"] = _sha(ma_analytic_autocorr(DEFAULT_MA_WEIGHTS, 1.0, np.arange(-7, 8)))
    out["ma_dual_time_table/N=16/T=6"] = _sha(ma_dual_time_table(DEFAULT_MA_WEIGHTS, 1.0, 16, 6))
    out["ma_analytic_spectrum"] = _sha(ma_analytic_spectrum(DEFAULT_MA_WEIGHTS, 1.0).values)
    for n in (5, 32, 33, 65):
        out[f"compute_emaf/um/N={n}"] = _sha(compute_emaf(generate(UniformlyModulated(), n, 3)).values)
    cases = [(("lbteaf",), case) for case in _emaf_cases(ChirpInNoise(), (16, 33, 64))]
    cases += [(("teaf", "lteaf"), case) for case in _emaf_cases(UniformlyModulated(), (16, 64))]
    for methods, (name, raw) in cases:
        if methods == ("lbteaf",):
            out[f"bias_correct/{name}"] = _sha(bias_correct(raw, 0.6).values)
        for method in methods:
            est, meta = threshold_with_details(raw, ThresholdConfig(method=method))
            out[f"{method}/grid/{name}"] = _sha(est.values)
            out[f"{method}/meta/{name}"] = _sha(json.dumps(meta, indent=2, allow_nan=False).encode())
    return out


def test_every_surface_matches_its_pin():
    with open(PINS) as fh:
        pinned = json.load(fh)
    got = pins()
    assert sorted(got) == sorted(pinned)
    moved = [case for case in pinned if got[case] != pinned[case]]
    assert not moved, moved


if __name__ == "__main__":
    json.dump(pins(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
