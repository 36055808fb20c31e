"""Command-line driver.

Subcommands: gen, emaf, threshold, naf, spread, moments, bench.
Exit codes: 0 success, 2 usage/config error, 1 runtime error.  Errors print
a one-line cause on stderr; no partial output files are left behind on
validation failures (parse, validate, then execute).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

from . import gridio
from .bench import MCConfig, run_bench
from .emaf import compute_emaf, to_db
from .moments import (
    _check_cell,
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
from .thresholding import METHODS, ThresholdConfig, threshold_with_details

__all__ = ["main"]

# Flags named otherwise than the dataclass field they set.  Every other
# field with a plain default, of a registered process, ThresholdConfig or
# MCConfig, is set by the flag of its own name.
_FLAG_NAMES = {
    "psd": "noise_psd", "c_exponent": "c", "region_count": "regions", "rim_fraction": "rim",
    "base_seed": "seed",
}

# The process whose moments each `moments --prop` evaluates.
_PROP_PROCESS = {"1": ChirpInNoise, "2": MovingAverage, "3": UniformlyModulated, "thm1": MovingAverage}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a one-line cause, like every other usage error
        raise UsageError(message)


def _flags(*classes, skip=()) -> dict:
    """Flag name -> default of each field of classes with a plain default,
    but the fields named in skip; of two fields with one flag, the first."""
    flags = {}
    for cls in classes:
        for f in dataclasses.fields(cls):
            if f.default is not dataclasses.MISSING and f.name not in skip:
                flags.setdefault(_FLAG_NAMES.get(f.name, f.name), f.default)
    return flags


def _bench_flags() -> dict:
    flags = _flags(*PROCESSES.values(), MCConfig, ThresholdConfig, skip=("method",))
    return {"process": MovingAverage.name, **flags}


def _cast(default):
    """Type of the flag of a field with this default: its type, or for a tuple
    a comma list of its items' type (empty names skipped, empty numbers not)."""
    if not isinstance(default, tuple):
        return type(default)
    kind = type(default[0])

    def cast(text: str) -> tuple:
        items = [item.strip() for item in text.split(",")]
        return tuple(kind(item) for item in items if item or kind is not str)

    cast.__name__ = f"{kind.__name__} list"
    return cast


def _kwargs(cls, values: dict) -> dict:
    """The fields of cls whose flags are set (not None) in values."""
    names = {_FLAG_NAMES.get(f.name, f.name): f.name for f in dataclasses.fields(cls)}
    return {names[flag]: values[flag] for flag in _flags(cls) if values.get(flag) is not None}


def _process_spec(name: str, values: dict):
    """Spec of the named process from the flag values.  A set flag that is
    no field of the process is a usage error."""
    cls = PROCESSES.get(str(name))
    if cls is None:  # a bench config's process key; argparse checks the flag
        raise UsageError(f"unknown process {name!r}")
    for flag in _flags(*PROCESSES.values()):
        if values.get(flag) is not None and flag not in _flags(cls):
            raise UsageError(f"{flag} is not a parameter of the {name} process")
    return cls(**_kwargs(cls, values))


def _emit(text: str, path) -> None:
    """text and a newline into the file at path, or onto stdout without one."""
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _add_flags(p: argparse.ArgumentParser, flags: dict, **choices) -> None:
    """A flag, unset by default, for each entry of flags (name -> field default)."""
    for key, default in flags.items():
        p.add_argument(f"--{key.replace('_', '-')}", type=_cast(default), choices=choices.get(key))


def _add_process_flags(p: argparse.ArgumentParser, process=MovingAverage.name) -> None:
    p.add_argument("--process", choices=tuple(PROCESSES), default=process)
    p.add_argument("--n", type=int, default=MCConfig.n)  # a record as long as a bench's
    _add_flags(p, _flags(*PROCESSES.values()))


def _cmd_gen(args) -> int:
    x = generate(_process_spec(args.process, vars(args)), args.n, args.seed)
    gridio.write_signal(args.output, x, process=args.process)
    return 0


def _cmd_emaf(args) -> int:
    x, process = gridio.load_signal(args.input)
    grid = compute_emaf(x)
    gridio.write_grid(args.output, grid, process=process)
    if args.db:
        gridio.write_real_grid(args.db, to_db(grid), grid.n, "db")
    return 0


def _cmd_threshold(args) -> int:
    grid, process = gridio.load_grid(args.input)
    if grid.kind != "raw":
        raise UsageError(f"thresholding needs a raw grid, got kind={grid.kind}")
    if process and args.process and args.process != process:
        raise UsageError(f"--process {args.process} contradicts process={process} in {args.input}")
    process = process or args.process
    cfg = ThresholdConfig(**_kwargs(ThresholdConfig, vars(args)))
    if process and cfg.method not in PROCESSES[process].estimators:  # pairing
        raise UsageError(f"method {cfg.method} is not defined for {process} grids")
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
    _check_cell(nu, tau, n)
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
    _emit(json.dumps(payload, indent=2, allow_nan=False), args.output)
    return 0


def _load_bench_config(path, flags: dict) -> dict:
    """Key -> text of a flat key = value config file; each key is a bench
    flag (a key of flags, name -> default), given once.  # starts a comment;
    a value is a quoted string or a bare word, or for a list flag a list in
    brackets, which reads as comma text."""

    def unquote(token: str) -> str:
        token = token.strip()
        return token[1:-1] if token.startswith('"') and token.endswith('"') else token

    out = {}
    with open(path) as fh:
        for raw_line in fh:
            line = raw_line.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = (part.strip() for part in line.partition("="))
            if not sep:
                raise UsageError(f"bad config line: {raw_line.strip()!r}")
            if key not in flags:
                raise UsageError(f"unknown key {key!r} in {path}")
            if key in out:
                raise UsageError(f"key {key!r} is given twice in {path}")
            out[key] = unquote(value)
            if isinstance(flags[key], tuple) and value.startswith("[") and value.endswith("]"):
                out[key] = ",".join(unquote(v) for v in value[1:-1].split(",") if v.strip())
    return out


def _cmd_bench(args) -> int:
    flags = _bench_flags()  # name -> default
    values = {k: v for k, v in vars(args).items() if k in flags and v is not None}
    config = _load_bench_config(args.config, flags) if args.config else {}
    for key, text in config.items():
        if key in values:  # a flag overrides the file
            continue
        cast = _cast(flags[key])
        try:
            values[key] = cast(text)
        except ValueError:
            raise UsageError(f"{key} = {text!r} in {args.config} is not {cast.__name__}") from None
    spec = _process_spec(values.get("process", flags["process"]), values)
    threshold = ThresholdConfig(**_kwargs(ThresholdConfig, values))
    mc = MCConfig(spec, threshold=threshold, **_kwargs(MCConfig, values))
    mc.validate()
    report = run_bench(mc, threads=args.threads)
    _emit(json.dumps(report.to_dict(), indent=2), args.output)
    if args.mse_grids:
        os.makedirs(args.mse_grids, exist_ok=True)
        for name, stats in report.per_estimator.items():
            path = os.path.join(args.mse_grids, f"mse_{name}.csv")
            gridio.write_real_grid(path, stats.mse_grid, mc.n, "mse")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="afkit",
        description="Ambiguity-function estimation: generation, thresholding, "
        "moments, spread and Monte Carlo benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a process realization")
    _add_process_flags(p)
    p.add_argument("--seed", type=int, default=MCConfig.base_seed)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("emaf", help="empirical ambiguity function of a signal file")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--db", default=None, help="also write an amplitude-dB grid")
    p.set_defaults(func=_cmd_emaf)

    p = sub.add_parser("threshold", help="hard-threshold a raw grid")
    p.add_argument("-i", "--input", required=True)
    _add_flags(p, _flags(ThresholdConfig), method=METHODS)
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
    _add_flags(p, _bench_flags(), process=tuple(PROCESSES))
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


@functools.lru_cache(maxsize=1)
def _parser(processes: tuple) -> argparse.ArgumentParser:
    """_build_parser's tree, built once per state of the process registry:
    processes is tuple(PROCESSES.items()), which a registration changes."""
    return _build_parser()


def main(argv=None) -> int:
    try:
        args = _parser(tuple(PROCESSES.items())).parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (UsageError, ValueError) as exc:
        # Parameter/invariant violations from inner modules are user input
        # problems at this level.
        print(f"afkit: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # file format, IO and other runtime errors
        print(f"afkit: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
