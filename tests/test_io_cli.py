import json
import struct

import numpy as np
import pytest

from afkit import gridio
from afkit.cli import main
from afkit.emaf import compute_emaf
from afkit.moments import naf_um
from afkit.sigcore import MovingAverage, generate
from afkit.thresholding import ThresholdConfig, teaf, threshold_with_details


class TestSignalCsv:
    def test_round_trip(self, tmp_path, rng):
        x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        path = tmp_path / "sig.csv"
        gridio.write_signal(path, x, process="ma")
        back, process = gridio.load_signal(path)
        np.testing.assert_array_equal(back, x)
        assert process == "ma"

    def test_header_format(self, tmp_path):
        path = tmp_path / "sig.csv"
        gridio.write_signal(path, np.zeros(4, dtype=complex))
        first = path.read_text().splitlines()[0]
        assert first.startswith("# afkit-signal v1, n=4")

    def test_rejects_other_files(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("hello\n1,2,3\n")
        with pytest.raises(gridio.FileFormatError):
            gridio.load_signal(path)


class TestGridCsv:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        g = compute_emaf(x)
        path = tmp_path / "grid.csv"
        gridio.write_grid(path, g, process="ma")
        back, process = gridio.load_grid(path)
        np.testing.assert_array_equal(back.values, g.values)
        assert back.n == g.n and back.kind == "raw" and process == "ma"

    def test_header_kind(self, tmp_path):
        g = compute_emaf(np.ones(8, dtype=complex))
        path = tmp_path / "grid.csv"
        gridio.write_grid(path, teaf(g))
        first = path.read_text().splitlines()[0]
        assert first.startswith("# afkit-grid v1, n=8, kind=thresholded")

    def test_binary_round_trip(self, tmp_path, rng):
        x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        g = compute_emaf(x)
        path = tmp_path / "grid.bin"
        gridio.write_grid_binary(path, g)
        back = gridio.load_grid_binary(path)
        np.testing.assert_array_equal(back.values, g.values)
        assert back.kind == g.kind and back.n == g.n
        assert path.read_bytes()[:8] == b"AFKITGRD"

    def test_binary_rejects_garbage(self, tmp_path):
        valid = tmp_path / "valid.bin"
        gridio.write_grid_binary(valid, compute_emaf(np.ones(8, dtype=complex)))
        truncated = valid.read_bytes()[:-16]  # one cell short
        path = tmp_path / "x.bin"
        for data in (b"NOTAGRID" + b"\x00" * 64, truncated):
            path.write_bytes(data)
            with pytest.raises(gridio.FileFormatError):
                gridio.load_grid_binary(path)

    def test_binary_rejects_small_n(self, tmp_path):
        # n = 0 used to fail in numpy's reshape (exit 2), n = 1 loaded a 1x2 grid
        path = tmp_path / "x.bin"
        for n in (0, 1):
            header = (b"AFKITGRD" + struct.pack("<III", 1, n, 0)).ljust(32, b"\x00")
            path.write_bytes(header + b"\x00" * 16 * (2 * n - 1) * 2 * n)
            with pytest.raises(gridio.FileFormatError, match="n >= 2"):
                gridio.load_grid_binary(path)

    def test_rejects_duplicated_row(self, tmp_path):
        path = tmp_path / "grid.csv"
        gridio.write_grid(path, compute_emaf(np.ones(8, dtype=complex)))
        lines = path.read_text().splitlines()
        lines[2] = lines[1]  # one cell twice, its neighbour missing
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(gridio.FileFormatError):
            gridio.load_grid(path)

    def test_rejects_non_finite_values(self, tmp_path):
        g = compute_emaf(np.ones(8, dtype=complex))
        g.values[3, 4] = np.nan
        csv, binary = tmp_path / "grid.csv", tmp_path / "grid.bin"
        gridio.write_grid(csv, g)
        gridio.write_grid_binary(binary, g)
        with pytest.raises(gridio.FileFormatError):
            gridio.load_grid(csv)
        with pytest.raises(gridio.FileFormatError):
            gridio.load_grid_binary(binary)

    def test_mask_rows(self, tmp_path):
        ref = naf_um(0.09, 8)
        path = tmp_path / "mask.csv"
        gridio.write_mask(path, ref.support_mask, 8)
        lines = path.read_text().splitlines()
        assert lines[0] == "# afkit-mask v1, n=8"
        assert len(lines) - 1 == 15 * 16
        ones = [ln for ln in lines[1:] if ln.endswith(",1")]
        assert len(ones) == ref.cells_nonzero


class TestCliPipeline:
    def test_gen_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["gen", "--process", "um", "--n", "64", "--f0", "0.09", "--seed", "7"]
        assert main(argv + ["-o", str(a)]) == 0
        assert main(argv + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_round_trip_pipeline_matches_memory(self, tmp_path):
        sig = tmp_path / "sig.csv"
        grid = tmp_path / "grid.csv"
        est = tmp_path / "est.csv"
        meta = tmp_path / "est.json"
        assert main(["gen", "--process", "ma", "--n", "64", "--seed", "3",
                     "-o", str(sig)]) == 0
        assert main(["emaf", "-i", str(sig), "-o", str(grid)]) == 0
        assert main(["threshold", "-i", str(grid), "--method", "teaf",
                     "-o", str(est), "--meta", str(meta)]) == 0

        x = generate(MovingAverage(), 64, 3)
        expected, details = threshold_with_details(compute_emaf(x), ThresholdConfig())
        back, process = gridio.load_grid(est)
        np.testing.assert_array_equal(back.values, expected.values)
        assert process == "ma"
        side = json.loads(meta.read_text())
        assert side["method"] == "teaf"
        assert side["lambda2"] == pytest.approx(details["lambda2"])

    def test_naf_spread_um(self, tmp_path, capsys):
        naf = tmp_path / "naf.csv"
        out = tmp_path / "spread.json"
        assert main(["naf", "--process", "um", "--n", "256", "--f0", "0.09",
                     "-o", str(naf)]) == 0
        assert main(["spread", "-i", str(naf), "-o", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["total_spread"] == pytest.approx(1.1466e-5, rel=1e-3)
        assert rep["nonzero_cells"] == 3

    def test_spread_lag_band(self, tmp_path):
        naf = tmp_path / "naf.csv"
        out = tmp_path / "spread.json"
        main(["naf", "--process", "chirp", "--n", "64", "-o", str(naf)])
        assert main(["spread", "-i", str(naf), "--tau", "0", "-o", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["total_spread"] == pytest.approx(1.0 / 128.0)
        assert rep["region_desc"] == "tau=0"

    def test_pairing_violation_exits_2(self, tmp_path):
        sig = tmp_path / "sig.csv"
        grid = tmp_path / "grid.csv"
        est = tmp_path / "est.csv"
        main(["gen", "--process", "ma", "--n", "32", "--seed", "1", "-o", str(sig)])
        main(["emaf", "-i", str(sig), "-o", str(grid)])
        code = main(["threshold", "-i", str(grid), "--method", "lbteaf",
                     "-o", str(est)])
        assert code == 2
        assert not est.exists()

    def test_wrong_kind_exits_2(self, tmp_path):
        sig = tmp_path / "sig.csv"
        grid = tmp_path / "grid.csv"
        est = tmp_path / "est.csv"
        est2 = tmp_path / "est2.csv"
        main(["gen", "--process", "ma", "--n", "32", "--seed", "1", "-o", str(sig)])
        main(["emaf", "-i", str(sig), "-o", str(grid)])
        main(["threshold", "-i", str(grid), "-o", str(est)])
        assert main(["threshold", "-i", str(est), "-o", str(est2)]) == 2

    def test_nan_signal_exits_1(self, tmp_path, capsys):
        sig = tmp_path / "sig.csv"
        grid = tmp_path / "grid.csv"
        x = np.ones(16, dtype=complex)
        x[5] = np.nan
        gridio.write_signal(sig, x, process="chirp")
        assert main(["emaf", "-i", str(sig), "-o", str(grid)]) == 1
        assert not grid.exists()
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    def test_nan_grid_exits_1(self, tmp_path):
        grid = tmp_path / "grid.csv"
        est = tmp_path / "est.csv"
        meta = tmp_path / "est.json"
        g = compute_emaf(generate(MovingAverage(), 16, 1))
        g.values[10, 3] = np.nan
        gridio.write_grid(grid, g, process="chirp")
        code = main(["threshold", "-i", str(grid), "--method", "lbteaf",
                     "-o", str(est), "--meta", str(meta)])
        assert code == 1
        assert not est.exists() and not meta.exists()

    def test_unknown_provenance_exits_1(self, tmp_path, capsys):
        # process=bogus used to slip past the method/process pairing check
        sig, grid = tmp_path / "sig.csv", tmp_path / "grid.csv"
        est, meta = tmp_path / "est.csv", tmp_path / "est.json"
        x = generate(MovingAverage(), 16, 1)
        gridio.write_signal(sig, x, process="bogus")
        assert main(["emaf", "-i", str(sig), "-o", str(grid)]) == 1
        assert not grid.exists()
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        gridio.write_grid(grid, compute_emaf(x), process="bogus")
        code = main(["threshold", "-i", str(grid), "--method", "lbteaf",
                     "-o", str(est), "--meta", str(meta)])
        assert code == 1
        assert not est.exists() and not meta.exists()
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "bogus" in err

    def test_missing_file_exits_1(self, tmp_path):
        code = main(["emaf", "-i", str(tmp_path / "nope.csv"),
                     "-o", str(tmp_path / "out.csv")])
        assert code == 1

    def test_unknown_flag_exits_2(self):
        assert main(["gen", "--bogus", "1", "-o", "x.csv"]) == 2

    def test_invalid_process_parameter_exits_2(self, tmp_path):
        code = main(["gen", "--process", "um", "--f0", "0.4", "--n", "64",
                     "-o", str(tmp_path / "s.csv")])
        assert code == 2

    def test_moments_command(self, tmp_path, capsys):
        assert main(["moments", "--prop", "2", "--process", "ma", "--n", "64",
                     "--nu", "0.0", "--tau", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["prop"] == "2"
        assert payload["variance"] > 0
        assert set(payload["mean"]) == {"re", "im"}

    def test_moments_thm1(self, capsys):
        assert main(["moments", "--prop", "thm1", "--process", "ma", "--n", "64",
                     "--nu", "0.1", "--tau", "2", "--t-spread", "8"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["variance"] > 0

    def test_emaf_db_export(self, tmp_path):
        sig = tmp_path / "sig.csv"
        grid = tmp_path / "grid.csv"
        db = tmp_path / "db.csv"
        main(["gen", "--process", "noise", "--n", "32", "--seed", "2", "-o", str(sig)])
        assert main(["emaf", "-i", str(sig), "-o", str(grid), "--db", str(db)]) == 0
        assert db.read_text().splitlines()[0].startswith("# afkit-grid v1, n=32")


class TestCliBench:
    def test_config_file_with_overrides(self, tmp_path):
        cfgfile = tmp_path / "bench.cfg"
        cfgfile.write_text(
            "# benchmark manifest\n"
            "process = ma\n"
            "n = 48\n"
            "trials = 4\n"
            "seed = 5\n"
            'estimators = [emaf, teaf]\n'
            "c = 1.0\n"
        )
        out = tmp_path / "report.json"
        grids = tmp_path / "grids"
        assert main(["bench", "--config", str(cfgfile), "--trials", "6",
                     "-o", str(out), "--mse-grids", str(grids)]) == 0
        rep = json.loads(out.read_text())
        assert rep["metadata"]["trials"] == 6  # flag overrides file
        assert rep["metadata"]["n"] == 48
        assert set(rep["results"]) == {"emaf", "teaf"}
        assert (grids / "mse_emaf.csv").exists()

    def test_threads_do_not_change_output(self, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        base = ["bench", "--process", "um", "--n", "48", "--trials", "52",
                "--seed", "3", "--estimators", "emaf,teaf"]
        assert main(base + ["--threads", "1", "-o", str(out1)]) == 0
        assert main(base + ["--threads", "2", "-o", str(out2)]) == 0
        r1 = json.loads(out1.read_text())
        r2 = json.loads(out2.read_text())
        assert r1["results"] == r2["results"]

    def test_bad_threads_env_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("AFKIT_THREADS", "abc")
        out = tmp_path / "r.json"
        assert main(["bench", "--process", "um", "--n", "16", "--trials", "2",
                     "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "AFKIT_THREADS" in err
        assert not out.exists()

    def test_threads_below_one_exits_2(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "r.json"
        args = ["bench", "--process", "um", "--n", "16", "--trials", "2", "-o", str(out)]
        assert main(args + ["--threads", "0"]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "threads" in err
        monkeypatch.setenv("AFKIT_THREADS", "-1")
        assert main(args) == 2
        assert "AFKIT_THREADS" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_estimator_exits_2(self, tmp_path):
        assert main(["bench", "--estimators", "nope", "--trials", "2",
                     "-o", str(tmp_path / "r.json")]) == 2

    def test_pairing_enforced(self, tmp_path):
        assert main(["bench", "--process", "ma", "--estimators", "emaf,lbteaf",
                     "--trials", "2", "-o", str(tmp_path / "r.json")]) == 2
