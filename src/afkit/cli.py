"""Command-line driver.

Subcommands: gen, emaf, threshold, naf, spread, moments, bench.
Exit codes: 0 success, 2 usage/config error, 1 runtime error.  Errors print
a one-line cause on stderr; no partial output files are left behind on
validation failures (parse, validate, then execute).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import gridio
from .bench import MCConfig, run_bench
from .emaf import compute_emaf, to_db
from .moments import (
    ma_analytic_autocorr,
    ma_analytic_spectrum,
    ma_dual_time_table,
    naf_for_process,
    prop1_moments,
    prop2_moments,
    prop3_moments,
    um_modulation_spectrum,
    underspread_relation,
    underspread_variance,
)
from .sigcore import PROCESSES, ChirpInNoise, MovingAverage, UniformlyModulated, generate
from .spread import indicator, lag_band, total_spread
from .thresholding import ThresholdConfig, threshold_with_details

__all__ = ["main"]

# Flags that set process spec fields, with their types: a flag sets the field
# of its own name; _FIELD_FLAGS names the flag of a field named otherwise.
_PROCESS_FLAGS = {
    "alpha": float, "beta": float, "noise_psd": float, "weights": str, "xi_var": float, "f0": float,
}
_FIELD_FLAGS = {"psd": "noise_psd"}

# The process whose moments each `moments --prop` evaluates.
_PROP_PROCESS = {"1": ChirpInNoise, "2": MovingAverage, "3": UniformlyModulated, "thm1": MovingAverage}

# Keys a bench config file may set, the bench settings and the process flags,
# with the types of their flags; int and float values are cast to them.
_BENCH_KEYS = {
    "process": str, "n": int, **_PROCESS_FLAGS, "trials": int, "seed": int, "estimators": str,
    "c": float, "regions": int, "rim": float,
}


class UsageError(Exception):
    pass


def _parse_weights(value) -> tuple:
    if isinstance(value, list):  # a bracketed list in a bench config
        value = ",".join(str(w) for w in value)
    try:
        return tuple(float(w) for w in str(value).split(","))
    except ValueError as exc:
        raise UsageError(f"bad weights list: {exc}") from None


def _process_spec(name: str, flags: dict):
    """Spec of the named process: each field takes its flag's value, or the
    dataclass default where the flag is unset (None).  A set flag that is
    no field of the process is a usage error."""
    cls, fields = PROCESSES.get(str(name)), {}
    if cls is None:  # a bench config's process key; argparse checks the flag
        raise UsageError(f"unknown process {name!r}")
    own = {_FIELD_FLAGS.get(f.name, f.name): f.name for f in dataclasses.fields(cls)}
    for flag in _PROCESS_FLAGS:
        value = flags.get(flag)
        if value is None:
            continue
        if flag not in own:
            raise UsageError(f"{flag} is not a parameter of the {name} process")
        fields[own[flag]] = _parse_weights(value) if flag == "weights" else value
    return cls(**fields)


def _emit(text: str, path) -> None:
    """text and a newline into the file at path, or onto stdout without one."""
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _add_process_flags(p: argparse.ArgumentParser, process=MovingAverage.name, n=256) -> None:
    p.add_argument("--process", choices=tuple(PROCESSES), default=process)
    p.add_argument("--n", type=int, default=n)
    for dest, kind in _PROCESS_FLAGS.items():
        p.add_argument("--" + dest.replace("_", "-"), type=kind, default=None, dest=dest)


def _cmd_gen(args) -> int:
    x = generate(_process_spec(args.process, vars(args)), args.n, args.seed)
    gridio.write_signal(args.output, x, process=args.process)
    return 0


def _cmd_emaf(args) -> int:
    x, process = gridio.load_signal(args.input)
    grid = compute_emaf(x)
    gridio.write_grid(args.output, grid, process=process)
    if args.db:
        gridio.write_real_grid(args.db, to_db(grid, "amplitude"), grid.n)
    return 0


def _cmd_threshold(args) -> int:
    grid, process = gridio.load_grid(args.input)
    if grid.kind != "raw":
        raise UsageError(f"thresholding needs a raw grid, got kind={grid.kind}")
    if process and args.process and args.process != process:
        raise UsageError(f"--process {args.process} contradicts process={process} in {args.input}")
    process = process or args.process
    if process and args.method not in PROCESSES[process].estimators:  # pairing
        raise UsageError(f"method {args.method} is not defined for {process} grids")
    cfg = ThresholdConfig(args.c, args.regions, args.rim, args.method)
    est, meta = threshold_with_details(grid, cfg)
    sidecar = json.dumps(meta, indent=2, allow_nan=False)  # strict JSON, before any output
    gridio.write_grid(args.output, est, process=process)
    if args.meta:
        _emit(sidecar, args.meta)
    return 0


def _cmd_naf(args) -> int:
    ref = naf_for_process(_process_spec(args.process, vars(args)), args.n)
    gridio.write_grid(args.output, ref.grid, process=args.process)
    if args.mask:
        gridio.write_mask(args.mask, ref.support_mask, args.n)
    return 0


def _cmd_spread(args) -> int:
    grid, _ = gridio.load_grid(args.input)
    mask = indicator(grid)
    region = "all" if args.tau is None else lag_band(grid.n, args.tau)
    report = total_spread(mask, region)
    if args.tau is not None:
        report = dataclasses.replace(report, region_desc=f"tau={args.tau}")
    _emit(json.dumps(report.to_dict(), indent=2), args.output)
    return 0


def _cmd_moments(args) -> int:
    name = _PROP_PROCESS[args.prop].name
    if args.process not in (None, name):
        raise UsageError(f"--prop {args.prop} is for the {name} process, not {args.process}")
    n, nu, tau = args.n, args.nu, args.tau
    spec = _process_spec(name, vars(args))
    spec.validate(n)
    if args.prop == "thm1":
        table = ma_dual_time_table(spec.weights, spec.xi_var, n, args.t_spread)
        result = {
            "variance": underspread_variance(table, args.t_spread, nu, tau),
            "relation": underspread_relation(table, args.t_spread, nu, tau),
        }
    else:
        if args.prop == "1":
            triple = prop1_moments(spec.chirp(n), spec.noise_psd, nu, tau, n)
        elif args.prop == "2":
            auto = {tau: 2.0 * ma_analytic_autocorr(spec.weights, spec.xi_var, tau)}
            spectrum = ma_analytic_spectrum(spec.weights, spec.xi_var)
            triple = prop2_moments(auto, spectrum, nu, tau, n)
        else:
            triple = prop3_moments(um_modulation_spectrum(spec.f0, n), nu, tau, n)
        result = {"mean": triple.mean, "variance": triple.variance, "relation": triple.relation}
    payload = {"prop": args.prop, "nu": nu, "tau": tau, "n": n}
    for key, value in result.items():
        payload[key] = {"re": value.real, "im": value.imag} if isinstance(value, complex) else value
    _emit(json.dumps(payload, indent=2), args.output)
    return 0


def _load_bench_config(path) -> dict:
    """Flat key = value config file; # starts a comment, values are quoted
    strings, bare words or comma lists in brackets, all kept as text:
    _cmd_bench casts each with the type of its flag."""

    def parse_scalar(token: str) -> str:
        token = token.strip()
        return token[1:-1] if token.startswith('"') and token.endswith('"') else token

    out = {}
    with open(path) as fh:
        for raw_line in fh:
            line = raw_line.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise UsageError(f"bad config line: {raw_line.strip()!r}")
            value = value.strip()
            if value.startswith("[") and value.endswith("]"):
                items = [parse_scalar(v) for v in value[1:-1].split(",") if v.strip()]
                out[key.strip()] = items
            else:
                out[key.strip()] = parse_scalar(value)
    return out


def _cmd_bench(args) -> int:
    cfg_file = _load_bench_config(args.config) if args.config else {}
    for key in cfg_file:
        if key not in _BENCH_KEYS:
            raise UsageError(f"unknown key {key!r} in {args.config}")

    def pick(key, default=None):
        flag_value = getattr(args, key)
        if flag_value is not None:  # argparse has typed it
            return flag_value
        value, kind = cfg_file.get(key, default), _BENCH_KEYS[key]
        if value is None or kind not in (int, float):
            return value
        try:
            return kind(value)
        except (TypeError, ValueError):
            raise UsageError(f"{key} = {value!r} in {args.config} is not {kind.__name__}") from None

    spec = _process_spec(pick("process", MovingAverage.name), {k: pick(k) for k in _PROCESS_FLAGS})
    estimators = pick("estimators", "emaf,teaf")
    if isinstance(estimators, str):
        estimators = tuple(e.strip() for e in estimators.split(",") if e.strip())
    else:
        estimators = tuple(estimators)
    threshold = ThresholdConfig(
        c_exponent=pick("c", 1.0), region_count=pick("regions", 8), rim_fraction=pick("rim", 0.1)
    )
    mc = MCConfig(
        process=spec,
        n=pick("n", 256),
        trials=pick("trials", 500),
        base_seed=pick("seed", 0),
        estimators=estimators,
        threshold=threshold,
    )
    try:
        mc.validate()
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    report = run_bench(mc, threads=args.threads)
    _emit(json.dumps(report.to_dict(), indent=2), args.output)
    if args.mse_grids:
        os.makedirs(args.mse_grids, exist_ok=True)
        for name, stats in report.per_estimator.items():
            gridio.write_real_grid(
                os.path.join(args.mse_grids, f"mse_{name}.csv"), stats.mse_grid, mc.n
            )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="afkit",
        description="Ambiguity-function estimation: generation, thresholding, "
        "moments, spread and Monte Carlo benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a process realization")
    _add_process_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("emaf", help="empirical ambiguity function of a signal file")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--db", default=None, help="also write an amplitude-dB grid")
    p.set_defaults(func=_cmd_emaf)

    p = sub.add_parser("threshold", help="hard-threshold a raw grid")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--method", choices=("teaf", "lteaf", "lbteaf"), default="teaf")
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--regions", type=int, default=8)
    p.add_argument("--rim", type=float, default=0.1)
    p.add_argument("--process", choices=tuple(PROCESSES), default=None)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--meta", default=None, help="JSON sidecar with estimator details")
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("naf", help="reference (expected, support-limited) grid")
    _add_process_flags(p)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--mask", default=None, help="also write the support mask CSV")
    p.set_defaults(func=_cmd_naf)

    p = sub.add_parser("spread", help="total spread of a thresholded/reference grid")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--tau", type=int, default=None, help="restrict to one lag row")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_spread)

    p = sub.add_parser("moments", help="closed-form EMAF moments at one cell")
    p.add_argument("--prop", choices=tuple(_PROP_PROCESS), required=True)
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--tau", type=int, required=True)
    _add_process_flags(p, process=None)
    p.add_argument("--t-spread", type=int, default=12, dest="t_spread")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("bench", help="Monte Carlo MSE/spread benchmark")
    p.add_argument("--config", default=None, help="flat key = value config file")
    _add_process_flags(p, process=None, n=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--estimators", default=None, help="comma list from emaf,teaf,lteaf,lbteaf")
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--regions", type=int, default=None)
    p.add_argument("--rim", type=float, default=None)
    p.add_argument(
        "--threads",
        type=int,
        default=None,
        help="worker processes (default: AFKIT_THREADS, else 1); never changes numeric output",
    )
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--mse-grids", default=None, help="directory for per-cell MSE CSVs")
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"afkit: {exc}", file=sys.stderr)
        return 2
    except gridio.FileFormatError as exc:
        print(f"afkit: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # Parameter/invariant violations from inner modules are user input
        # problems at this level.
        print(f"afkit: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # IO failures and other runtime errors
        print(f"afkit: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
