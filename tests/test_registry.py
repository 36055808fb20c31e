"""The process registry: every per-process fact is read from sigcore.PROCESSES."""

import dataclasses
import importlib
import json
import pkgutil
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import pytest

import afkit
from afkit import gridio, sigcore
from afkit.bench import ESTIMATORS, MCConfig, run_bench
from afkit.cli import _build_parser, _flags, main
from afkit.emaf import compute_emaf
from afkit.moments import naf_for_process
from afkit.sigcore import PROCESSES, generate
from afkit.thresholding import ThresholdConfig

METHODS = ("teaf", "lteaf", "lbteaf")  # the `afkit threshold --method` choices


def _subparser(command):
    (sub,) = [a for a in _build_parser()._actions if a.dest == "command"]
    return sub.choices[command]


def _option(command, flag):
    return _subparser(command)._option_string_actions[flag]


@pytest.mark.parametrize("command", ["gen", "threshold", "naf", "moments", "bench"])
def test_process_choices_are_the_registry(command):
    assert tuple(_option(command, "--process").choices) == tuple(PROCESSES)


@pytest.mark.parametrize("name", list(PROCESSES))
def test_registry_entry(tmp_path, name):
    cls = PROCESSES[name]
    assert cls.name == name
    assert cls.estimators and set(cls.estimators) <= set(ESTIMATORS)
    path = tmp_path / "g.csv"
    x = generate(cls(), 16, 1)
    gridio.write_grid(path, compute_emaf(x), process=name)
    assert gridio.load_grid(path)[1] == name  # the provenance check accepts the name
    assert naf_for_process(cls(), 16).grid.n == 16


@pytest.mark.parametrize("name", list(PROCESSES))
def test_cli_pairing_follows_estimators(tmp_path, name, capsys):
    sig, raw = str(tmp_path / "s.csv"), str(tmp_path / "raw.csv")
    assert main(["gen", "--process", name, "--n", "16", "--seed", "1", "-o", sig]) == 0
    assert main(["emaf", "-i", sig, "-o", raw]) == 0
    assert main(["naf", "--process", name, "--n", "16", "-o", str(tmp_path / "naf.csv")]) == 0
    allowed = PROCESSES[name].estimators
    for method in METHODS:
        out, report = tmp_path / f"{method}.csv", tmp_path / f"{method}.json"
        code = main(["threshold", "-i", raw, "--method", method, "-o", str(out)])
        if method in allowed:
            assert code == 0 and gridio.load_grid(out)[1] == name
            continue
        assert code == 2 and not out.exists()
        code = main(["bench", "--process", name, "--n", "16", "--trials", "2",
                     "--estimators", f"emaf,{method}", "-o", str(report)])
        assert code == 2 and not report.exists()
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 2 and all(method in line and name in line for line in err), err


@dataclass(frozen=True)
class _Toy:
    """A process added by one class: scaled circular complex white noise."""

    name: ClassVar[str] = "toy"
    estimators: ClassVar[tuple] = ("emaf", "teaf")

    level: float = 1.0

    def validate(self, n):
        if self.level <= 0:
            raise ValueError("level must be positive")

    def _draw(self, n, rng):
        return self.level * (rng.standard_normal(n) + 1j * rng.standard_normal(n))

    def reference_lines(self, n):
        return sigcore.AnalyticWhiteNoise(4.0 * self.level**2).reference_lines(n)


@dataclass(frozen=True)
class _NanToy(_Toy):
    name: ClassVar[str] = "nantoy"

    def reference_lines(self, n):
        return 0, 0.0, float("nan")  # the origin, on the tau = 0 row


def test_non_finite_reference_stops_a_bench_before_any_trial(monkeypatch):
    # the NaN used to reach every total, and a bench reported nan
    monkeypatch.setitem(sigcore.PROCESSES, _NanToy.name, _NanToy)
    drawn = []
    monkeypatch.setattr("afkit.bench.generate", lambda *args: drawn.append(args))
    with pytest.raises(ValueError, match="non-finite"):
        run_bench(MCConfig(_NanToy(), n=16, trials=3, estimators=("emaf", "teaf")), threads=1)
    assert not drawn


@dataclass(frozen=True)
class _OffPlaneToy(_Toy):
    name: ClassVar[str] = "offplanetoy"
    line_lag: int = 0

    def reference_lines(self, n):
        return self.line_lag, 0.125, 5.0


@pytest.mark.parametrize("tau", [-2, 16])
def test_off_plane_reference_line_exits_2(tmp_path, monkeypatch, capsys, tau):
    # a line at tau < 0 used to vanish under the mirror (an all-zero
    # reference), one at tau >= N failed inside numpy
    monkeypatch.setitem(sigcore.PROCESSES, _OffPlaneToy.name, _OffPlaneToy)
    out = tmp_path / "naf.csv"
    assert main(["naf", "--process", "offplanetoy", "--n", "16", f"--line-lag={tau}", "-o", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["afkit: a reference line needs 0 <= tau < N = 16"] and not out.exists()


@dataclass(frozen=True)
class _NonFiniteLineToy(_Toy):
    name: ClassVar[str] = "nonfinitelinetoy"
    line_tau: float = 1.0
    line_nu: float = 0.125

    def reference_lines(self, n):
        return self.line_tau, self.line_nu, 5.0


@pytest.mark.parametrize("flag", ["line-tau", "line-nu"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_reference_line_exits_2(tmp_path, monkeypatch, capsys, flag, value):
    # a NaN nu used to land silently on the nu = 0 cell of its row (flat cell
    # 48 at tau = 1, N = 16), with only a RuntimeWarning from the int cast
    monkeypatch.setitem(sigcore.PROCESSES, _NonFiniteLineToy.name, _NonFiniteLineToy)
    out = tmp_path / "naf.csv"
    argv = ["naf", "--process", "nonfinitelinetoy", "--n", "16", f"--{flag}={value}", "-o", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["afkit: a reference line needs a finite tau and nu"] and not out.exists()


def test_new_process_needs_one_class(tmp_path, monkeypatch):
    monkeypatch.setitem(sigcore.PROCESSES, _Toy.name, _Toy)
    x = generate(_Toy(2.0), 16, 5)
    np.testing.assert_array_equal(x, generate(_Toy(2.0), 16, 5))
    with pytest.raises(ValueError):
        generate(_Toy(-1.0), 16, 5)
    assert naf_for_process(_Toy(), 16).cells_nonzero == 1
    cfg = MCConfig(_Toy(), n=16, trials=3, estimators=("emaf", "teaf"))
    cfg.validate()
    assert set(run_bench(cfg, threads=1).per_estimator) == {"emaf", "teaf"}
    with pytest.raises(ValueError, match="lteaf"):
        MCConfig(_Toy(), n=16, estimators=("emaf", "lteaf")).validate()

    sig, raw = str(tmp_path / "s.csv"), str(tmp_path / "raw.csv")
    assert main(["gen", "--process", "toy", "--level", "2", "--n", "16", "--seed", "5",
                 "-o", sig]) == 0
    np.testing.assert_array_equal(gridio.load_signal(sig)[0], generate(_Toy(2.0), 16, 5))
    assert main(["emaf", "-i", sig, "-o", raw]) == 0
    assert gridio.load_grid(raw)[1] == "toy"
    assert main(["threshold", "-i", raw, "--method", "teaf", "-o", str(tmp_path / "t.csv")]) == 0
    assert main(["threshold", "-i", raw, "--method", "lteaf", "-o", str(tmp_path / "l.csv")]) == 2
    report = tmp_path / "r.json"
    assert main(["bench", "--process", "toy", "--level", "2", "--n", "16", "--trials", "3",
                 "-o", str(report)]) == 0
    expected = run_bench(MCConfig(_Toy(2.0), n=16, trials=3), threads=1).to_dict()["results"]
    assert json.loads(report.read_text())["results"] == expected


@pytest.mark.parametrize("cls", [*PROCESSES.values(), ThresholdConfig, MCConfig],
                         ids=lambda cls: cls.__name__)
def test_settable_fields_follow_the_flag_convention(cls):
    # afkit.cli types the flag of each field with a plain default by that default
    for f in dataclasses.fields(cls):
        if f.default is dataclasses.MISSING:
            continue
        items = f.default if isinstance(f.default, tuple) else (f.default,)
        assert items and {type(item) for item in items} in ({int}, {float}, {str}), f.name
        if f.type in ("float", float):
            assert type(f.default) is float, f.name


def _float_flags(cls) -> list:
    """The flags of the fields of cls whose default is a float or a tuple of floats."""
    return [flag for flag, default in _flags(cls).items()
            if type(default if not isinstance(default, tuple) else default[0]) is float]


_NON_FINITE_CASES = [
    *[(command, name, flag) for name, cls in PROCESSES.items() for flag in _float_flags(cls)
      for command in ("gen", "naf", "bench")],
    *[(command, "ma", flag) for flag in _float_flags(ThresholdConfig)
      for command in ("threshold", "bench")],
]


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command, name, flag", _NON_FINITE_CASES,
                         ids=["-".join(case) for case in _NON_FINITE_CASES])
def test_non_finite_parameter_exits_2(tmp_path, capsys, command, name, flag, value):
    # gen --process chirp --noise-psd nan used to write a noise-free chirp, and
    # bench --c nan to report a teaf spread of 0
    out, meta = tmp_path / "out", tmp_path / "meta.json"
    setting = f"--{flag.replace('_', '-')}={value}"
    if command == "threshold":
        sig, raw = str(tmp_path / "s.csv"), str(tmp_path / "raw.csv")
        assert main(["gen", "--process", name, "--n", "16", "-o", sig]) == 0
        assert main(["emaf", "-i", sig, "-o", raw]) == 0
        argv = ["threshold", "-i", raw, setting, "--meta", str(meta)]
    else:
        argv = [command, "--process", name, "--n", "16", setting]
        argv += ["--trials", "2"] if command == "bench" else []
    capsys.readouterr()
    assert main(argv + ["-o", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1, err
    assert not out.exists() and not meta.exists()


@pytest.mark.parametrize("command", ["gen", "naf"])
def test_negative_noise_psd_exits_2(tmp_path, capsys, command):
    # naf validated the chirp with a zero noise PSD, so --noise-psd -1 exited 0
    out = tmp_path / "out"
    assert main([command, "--process", "chirp", "--n", "64", "--noise-psd", "-1", "-o", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "PSD" in err[0], err
    assert not out.exists()


def test_every_exported_name_resolves():
    modules = [m.name for m in pkgutil.iter_modules(afkit.__path__) if m.name != "__main__"]
    for module in modules:
        mod = importlib.import_module(f"afkit.{module}")
        assert hasattr(mod, "__all__"), module
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert not missing, (module, missing)
