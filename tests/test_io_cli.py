import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from afkit import gridio
from afkit.cli import _parser, main
from afkit.emaf import AmbiguityGrid, _conjugate_symmetric, _mirror_lags, compute_emaf, lattice
from afkit.moments import naf_um
from afkit.sigcore import MovingAverage, UniformlyModulated, generate
from afkit.thresholding import ThresholdConfig, teaf, threshold_with_details

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
DATA = Path(__file__).resolve().parent / "data"


class TestSignalCsv:
    def test_round_trip(self, tmp_path, rng):
        x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        path = tmp_path / "sig.csv"
        gridio.write_signal(path, x, process="ma")
        back, process = gridio.load_signal(path)
        np.testing.assert_array_equal(back, x)
        assert process == "ma"

    def test_round_trip_keeps_signed_zeros(self, tmp_path, rng):
        # the loader used to build re + 1j * im, which turns an imaginary -0.0 into +0.0
        x = _finite_special_values(rng, 64)
        path = tmp_path / "sig.csv"
        gridio.write_signal(path, x)
        back, _ = gridio.load_signal(path)
        np.testing.assert_array_equal(_bits(back), _bits(x))

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
        assert first == "# afkit-grid v3, n=8, kind=thresholded, cells=2, mirror=0"

    def test_rejects_duplicated_row(self, tmp_path):
        path = tmp_path / "grid.csv"
        gridio.write_grid(path, compute_emaf(np.ones(8, dtype=complex)))
        lines = path.read_text().splitlines()
        lines[2] = lines[1]  # one cell twice, its neighbour missing
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(gridio.FileFormatError):
            gridio.load_grid(path)

    @pytest.mark.parametrize("values", ["random", "special", "zero", "one-cell", "raw-emaf"])
    @pytest.mark.parametrize("n", [2, 3, 16])
    def test_v2_round_trip_bit_for_bit(self, tmp_path, rng, values, n):
        # the sparse rows of v2, as v3 writes them: every cell that is not +0+0j
        # of the rows written, which are the tau >= 0 rows of a mirrored grid only
        shape = lattice(n).shape
        kind = "thresholded"
        if values == "random":
            v = np.where(rng.random(shape) < 0.7, 0, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        elif values == "special":  # -0.0 parts, subnormals and extremes in both parts
            v = _finite_special_values(rng, shape)
        elif values == "zero":
            v = np.zeros(shape, dtype=complex)
        elif values == "one-cell":
            v = np.zeros(shape, dtype=complex)
            v[n - 1, n] = complex(-0.0, 0.0)  # the centre, kept because its real part is -0.0
        else:
            v, kind = compute_emaf(rng.standard_normal(n) + 1j * rng.standard_normal(n)).values, "raw"
        grid = AmbiguityGrid(v, n, kind)
        path = tmp_path / "grid.csv"
        gridio.write_grid(path, grid, process="um")
        lines = path.read_text().splitlines()
        mirror = _is_mirrored(v)
        assert mirror == (values == "raw-emaf") or values in ("zero", "one-cell")
        first = n - 1 if mirror else 0
        cells = sum(not (_is_plus_zero(c.real) and _is_plus_zero(c.imag)) for c in v[first:].ravel())
        assert lines[0] == f"# afkit-grid v3, n={n}, kind={kind}, cells={cells}, mirror={int(mirror)}, process=um"
        assert len(lines) == 1 + cells
        assert cells == {"zero": 0, "one-cell": 1, "raw-emaf": n * 2 * n}.get(values, cells)
        back, process = gridio.load_grid(path)
        np.testing.assert_array_equal(_bits(back.values), _bits(v))
        assert (back.n, back.kind, process) == (n, kind, "um")

    @pytest.mark.parametrize("n", [2, 3, 16, 128])
    def test_v3_mirrored_round_trip_bit_for_bit(self, tmp_path, rng, n):
        # an EMAF is written as its tau >= 0 rows, and the loader rebuilds the rest exactly
        grid = compute_emaf(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        path = tmp_path / "grid.csv"
        gridio.write_grid(path, grid, process="tvma")
        lines = path.read_text().splitlines()
        assert lines[0] == f"# afkit-grid v3, n={n}, kind=raw, cells={n * 2 * n}, mirror=1, process=tvma"
        assert all(int(line.split(",")[0]) >= 0 for line in lines[1:])
        back, process = gridio.load_grid(path)
        np.testing.assert_array_equal(_bits(back.values), _bits(grid.values))
        assert (back.kind, process) == ("raw", "tvma")

    def test_one_edited_negative_lag_cell_is_written_whole(self, tmp_path, rng):
        n = 16
        grid = compute_emaf(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        grid.values.view(np.uint64)[n - 3, 7] ^= 1  # one bit of one tau < 0 cell
        path = tmp_path / "grid.csv"
        gridio.write_grid(path, grid)
        lines = path.read_text().splitlines()
        assert lines[0] == f"# afkit-grid v3, n={n}, kind=raw, cells={grid.values.size}, mirror=0"
        np.testing.assert_array_equal(_bits(gridio.load_grid(path)[0].values), _bits(grid.values))

    @pytest.mark.parametrize("n", [2, 3, 16])
    def test_v2_files_still_load_bit_for_bit(self, tmp_path, rng, n):
        # a file as the v2 writer wrote it: both halves, no mirror= field
        v = _finite_special_values(rng, lattice(n).shape)
        v[rng.random(v.shape) < 0.5] = 0
        path = tmp_path / "grid.csv"
        for kind, process in (("raw", "chirp"), ("thresholded", None)):
            _oracle_grid_v2(path, AmbiguityGrid(v, n, kind), process=process)
            assert path.read_text().startswith(f"# afkit-grid v2, n={n}, kind={kind}, cells=")
            back, got = gridio.load_grid(path)
            np.testing.assert_array_equal(_bits(back.values), _bits(v))
            assert (back.n, back.kind, got) == (n, kind, process)

    @pytest.mark.parametrize("method", ["teaf", "lteaf"])
    def test_committed_v2_raw_grid_thresholds_to_its_recorded_bits(self, tmp_path, method):
        # tests/data/raw_v2_n16.csv and its thresholded grids were written by the
        # v2 writer: `afkit gen --process um --n 16 --seed 3`, `afkit emaf`, then
        # `afkit threshold --method <method>`
        raw = DATA / "raw_v2_n16.csv"
        assert raw.read_text().startswith("# afkit-grid v2, n=16, kind=raw, cells=992, process=um")
        grid, process = gridio.load_grid(raw)
        rows = np.loadtxt(raw, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(_bits(grid.values.ravel()), _bits(rows[:, 2:].copy().view(complex)[:, 0]))
        assert process == "um"
        out = tmp_path / "est.csv"
        assert main(["threshold", "-i", str(raw), "--method", method, "-o", str(out)]) == 0
        want, _ = gridio.load_grid(DATA / f"raw_v2_n16_{method}.csv")
        np.testing.assert_array_equal(_bits(gridio.load_grid(out)[0].values), _bits(want.values))

    def test_committed_v2_raw_grid_takes_the_full_plane(self):
        # written by the full-plane EMAF, its tau < 0 rows are within rounding
        # of their mirrors but not equal, so every estimator decides on all
        # 2N - 1 rows, as when it was written
        grid, _ = gridio.load_grid(DATA / "raw_v2_n16.csv")
        mirror = _mirror_lags(grid.values, np.empty((15, 32), dtype=complex))
        assert not np.array_equal(mirror, grid.values[:15])
        assert not _conjugate_symmetric(grid.values)

    @pytest.mark.parametrize("n", [2, 3, 16])
    def test_v1_files_still_load_bit_for_bit(self, tmp_path, rng, n):
        # a file as every earlier afkit version wrote it: no cells= field, every cell once
        v = _finite_special_values(rng, lattice(n).shape)
        path = tmp_path / "grid.csv"
        for kind, process in (("raw", "chirp"), ("thresholded", None)):
            _oracle_grid(path, AmbiguityGrid(v, n, kind), process=process)
            assert path.read_text().startswith(f"# afkit-grid v1, n={n}, kind={kind}")
            back, got = gridio.load_grid(path)
            np.testing.assert_array_equal(_bits(back.values), _bits(v))
            assert (back.n, back.kind, got) == (n, kind, process)

    def test_rejects_non_finite_values(self, tmp_path):
        g = compute_emaf(np.ones(8, dtype=complex))
        g.values[3, 4] = np.nan
        csv = tmp_path / "grid.csv"
        gridio.write_grid(csv, g)
        with pytest.raises(gridio.FileFormatError):
            gridio.load_grid(csv)

    def test_mask_rows(self, tmp_path):
        ref = naf_um(0.09, 8)
        path = tmp_path / "mask.csv"
        gridio.write_mask(path, ref.support_mask, 8)
        lines = path.read_text().splitlines()
        assert lines[0] == "# afkit-mask v1, n=8"
        assert len(lines) - 1 == 15 * 16
        ones = [ln for ln in lines[1:] if ln.endswith(",1")]
        assert len(ones) == ref.cells_nonzero


def _bits(values):
    """uint64 view of the parts: an equality on it tells -0.0 from +0.0."""
    return np.ascontiguousarray(values).view(np.uint64)


def _is_plus_zero(x):
    return x == 0 and math.copysign(1.0, x) > 0


def _is_mirrored(values):
    """Whether the tau < 0 rows are, bit for bit, the mirror of the tau > 0 rows."""
    n = values.shape[1] // 2
    with np.errstate(all="ignore"):
        mirrored = _mirror_lags(values, np.empty((n - 1, 2 * n), dtype=complex))
    return np.array_equal(_bits(mirrored), _bits(values[: n - 1]))


# Per-cell writers, the byte oracles of the row-template writers.  _oracle_grid
# writes grid CSV v1, as earlier afkit versions did: the compatibility fixture.
def _oracle_signal(path, x, process=None):
    x = np.asarray(x, dtype=complex)
    header = f"# afkit-signal v1, n={x.size}"
    if process:
        header += f", process={process}"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for t, v in enumerate(x):
            fh.write(f"{t},{v.real:.17g},{v.imag:.17g}\n")


def _oracle_grid(path, grid, process=None):
    header = f"# afkit-grid v1, n={grid.n}, kind={grid.kind}"
    if process:
        header += f", process={process}"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for m, tau in enumerate(lattice(grid.n).taus):
            row = grid.values[m]
            for k, nu in enumerate(lattice(grid.n).nus):
                fh.write(f"{tau},{nu:.17g},{row[k].real:.17g},{row[k].imag:.17g}\n")


def _oracle_grid_v2(path, grid, process=None, version="v2"):
    """Per-cell v2 writer: every cell but those whose parts are both +0.0.
    With version="v3", the v3 writer: the same rows, of the tau >= 0 rows
    only when the grid is mirrored, and the mirror= field."""
    lat = lattice(grid.n)
    mirror = version == "v3" and _is_mirrored(grid.values)
    lines = [
        f"{tau},{nu:.17g},{v.real:.17g},{v.imag:.17g}\n"
        for tau, row in zip(lat.taus, grid.values)
        for nu, v in zip(lat.nus, row)
        if not (_is_plus_zero(v.real) and _is_plus_zero(v.imag)) and (tau >= 0 or not mirror)
    ]
    header = f"# afkit-grid {version}, n={grid.n}, kind={grid.kind}, cells={len(lines)}"
    if version == "v3":
        header += f", mirror={int(mirror)}"
    if process:
        header += f", process={process}"
    with open(path, "w") as fh:
        fh.write(header + "\n" + "".join(lines))


def _oracle_mask(path, mask, n):
    taus = np.arange(-(n - 1), n)
    nus = (np.arange(2 * n) - n) / (2.0 * n)
    with open(path, "w") as fh:
        fh.write(f"# afkit-mask v1, n={n}\n")
        for m, tau in enumerate(taus):
            for k, nu in enumerate(nus):
                fh.write(f"{tau},{nu:.17g},{int(mask[m, k])}\n")


_SPECIALS = (0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 3.0, -7.0, 2.0**53,
             np.nan, -np.nan, np.inf, -np.inf, 0.1, 1 / 3)


def _special_values(rng, shape, dtype=complex):
    """Random doubles over the whole exponent range with every special value
    planted in both the real and the imaginary parts."""
    v = np.empty(shape, dtype)
    for part in (v.real, v.imag) if dtype is complex else (v,):
        part[...] = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
        part.reshape(-1)[rng.permutation(v.size)[: len(_SPECIALS)]] = _SPECIALS[: v.size]
    return v


def _finite_special_values(rng, shape):
    """_special_values with every NaN or infinite part set to -0.0."""
    v = _special_values(rng, shape)
    for part in (v.real, v.imag):
        part[~np.isfinite(part)] = -0.0
    return v


class TestCsvWriterBytes:
    @pytest.mark.parametrize("n", [2, 3, 16, 64])
    def test_signal_matches_per_cell_writer(self, tmp_path, rng, n):
        x = _special_values(rng, n)
        for process in (None, "chirp"):
            new, old = tmp_path / "new.csv", tmp_path / "old.csv"
            gridio.write_signal(new, x, process=process)
            _oracle_signal(old, x, process=process)
            assert new.read_bytes() == old.read_bytes()

    @pytest.mark.parametrize("n", [2, 3, 16, 64])
    def test_grids_match_per_cell_writer(self, tmp_path, rng, n):
        shape = (2 * n - 1, 2 * n)
        raw = _special_values(rng, shape)
        thresholded = np.where(rng.random(shape) < 0.9, 0, raw)
        half_zero, z = raw.copy(), rng.random(shape)  # one part +0.0, both, or a -0.0 part
        half_zero.real[z < 0.3] = 0.0
        half_zero.imag[(z > 0.2) & (z < 0.5)] = 0.0
        half_zero.real[(z > 0.5) & (z < 0.6)], half_zero.imag[(z > 0.5) & (z < 0.6)] = -0.0, 0.0
        half_zero.imag[z > 0.8] = -0.0
        emaf = compute_emaf(rng.standard_normal(n) + 1j * rng.standard_normal(n)).values
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        for values, kind in ((raw, "raw"), (thresholded, "thresholded"), (half_zero, "thresholded"),
                             (np.zeros(shape, dtype=complex), "reference"), (emaf, "raw")):
            grid = AmbiguityGrid(values, n, kind)
            gridio.write_grid(new, grid, process="ma")
            _oracle_grid_v2(old, grid, process="ma", version="v3")
            assert new.read_bytes() == old.read_bytes()
        assert ", mirror=1," in new.read_text().splitlines()[0]  # the EMAF, written last
        real = _special_values(rng, shape, float)
        gridio.write_real_grid(new, real, n)
        _oracle_grid_v2(old, AmbiguityGrid(real + 0j, n, "reference"), version="v3")
        assert new.read_bytes() == old.read_bytes()

    @pytest.mark.parametrize("n", [2, 3, 16, 64])
    def test_mask_matches_per_cell_writer(self, tmp_path, rng, n):
        mask = rng.random((2 * n - 1, 2 * n)) < 0.3
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        for m in (mask, mask.astype(np.int8)):
            gridio.write_mask(new, m, n)
            _oracle_mask(old, m, n)
            assert new.read_bytes() == old.read_bytes()


def _run_cli(argv, capsys):
    """Exit code, stderr lines and warnings raised of one in-process CLI run."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    return code, capsys.readouterr().err.strip().splitlines(), caught


def _csv_lines(kind, n, tmp_path):
    """Lines of a valid signal, raw grid (v3, mirrored, or as earlier versions
    wrote it, v2 or v1) or sparse thresholded grid CSV file of size n."""
    path = tmp_path / "valid.csv"
    x = np.exp(2j * np.pi * 0.1 * np.arange(n)) + 0.5
    if kind == "signal":
        gridio.write_signal(path, x, process="chirp")
    elif kind == "sparse":  # four cells in three lattice rows
        grid = AmbiguityGrid(np.zeros(lattice(n).shape, dtype=complex), n, "thresholded")
        grid.values[[0, n - 1, n - 1, 2 * n - 2], [0, n, n + 1, 2 * n - 1]] = [1 + 2j, 3, -0.5j, 4]
        gridio.write_grid(path, grid, process="chirp")
    elif kind == "v1":
        _oracle_grid(path, compute_emaf(x), process="chirp")
    elif kind == "v2":
        _oracle_grid_v2(path, compute_emaf(x), process="chirp")
    else:
        gridio.write_grid(path, compute_emaf(x), process="chirp")
    lines = path.read_text().splitlines()
    path.unlink()
    return lines


def _command(kind, path, tmp_path):
    out = str(tmp_path / "out.csv")
    if kind == "signal":
        return ["emaf", "-i", str(path), "-o", out, "--db", str(tmp_path / "db.csv")]
    if kind == "sparse":
        return ["spread", "-i", str(path), "-o", str(tmp_path / "out.json")]
    return ["threshold", "-i", str(path), "-o", out, "--meta", str(tmp_path / "out.json")]


class TestCsvLoaderRejects:
    """Each bad CSV exits 1 with a one-line cause and leaves no output."""

    def _assert_rejected(self, kind, lines, tmp_path, capsys, cause):
        path = tmp_path / "in.csv"
        path.write_text("\n".join(lines) + "\n")
        code, err, caught = _run_cli(_command(kind, path, tmp_path), capsys)
        assert code == 1
        assert len(err) == 1 and cause in err[0], err
        assert not caught, [str(w.message) for w in caught]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv"]

    @pytest.mark.parametrize("kind", ["signal", "grid"])
    @pytest.mark.parametrize(
        "field, rows_of, cause",
        [("n=1,", 1, "n >= 2"), ("n=abc,", 4, "non-integer n"), ("", 4, "no n= field"),
         ("n=-3,", 0, "n >= 2")],
        ids=["n1", "non-integer", "missing", "negative-empty-body"],
    )
    def test_bad_n_field(self, tmp_path, capsys, kind, field, rows_of, cause):
        # n=1 used to exit 0 (grid) or 2 (signal), n=abc exit 2, a missing n
        # gave the cause 'n', and n=-3 over an empty body a numpy warning.
        # The body holds the rows of a file of size rows_of.
        lines = _csv_lines(kind, 4, tmp_path)
        rows = rows_of if kind == "signal" else (2 * rows_of - 1) * 2 * rows_of
        header = lines[0].replace("n=4,", field)
        self._assert_rejected(kind, [header] + lines[1 : 1 + rows], tmp_path, capsys, cause)

    @pytest.mark.parametrize("kind", ["signal", "grid"])
    @pytest.mark.parametrize(
        "row", ["{0},x,{2}", "{0},{1}"], ids=["non-numeric-cell", "missing-column"]
    )
    def test_malformed_body(self, tmp_path, capsys, kind, row):
        # np.loadtxt's ValueError used to exit 2, as if a usage error
        lines = _csv_lines(kind, 6, tmp_path)
        lines[4] = row.format(*lines[4].split(","))
        self._assert_rejected(kind, lines, tmp_path, capsys, f"afkit-{kind} file")

    @pytest.mark.parametrize("t", ["0", "7.5", "-1", "6"])
    def test_signal_t_column_covers_each_sample_once(self, tmp_path, capsys, t):
        # a repeated t=0 or a t=7.5 row used to go through emaf with exit 0
        lines = _csv_lines("signal", 8, tmp_path)
        lines[3] = ",".join([t] + lines[3].split(",")[1:])
        self._assert_rejected("signal", lines, tmp_path, capsys, "t column")

    @pytest.mark.parametrize(
        "tau, nu", [("-2.6", "-0.5"), ("-3", "-0.47"), ("-2.6", "-0.47"), ("-3", "-0.49999999999999994")],
        ids=["tau", "nu", "both", "nu-one-ulp"],
    )
    def test_grid_coordinates_on_the_lattice(self, tmp_path, capsys, tau, nu):
        # an off-lattice first row used to be rounded to cell (-3, -0.5) with exit 0
        lines = _csv_lines("v2", 4, tmp_path)
        assert lines[1].startswith("-3,-0.5,")
        lines[1] = ",".join([tau, nu] + lines[1].split(",")[2:])
        self._assert_rejected("grid", lines, tmp_path, capsys, "off the lattice")


    @pytest.mark.parametrize("delta", [-1, 1])
    def test_sparse_cells_count_must_match_the_body(self, tmp_path, capsys, delta):
        lines = _csv_lines("sparse", 4, tmp_path)
        assert len(lines) == 5 and ", cells=4," in lines[0]
        lines[0] = lines[0].replace("cells=4", f"cells={4 + delta}")
        self._assert_rejected("sparse", lines, tmp_path, capsys, "wrong number of rows")

    def test_sparse_row_repeated(self, tmp_path, capsys):
        lines = _csv_lines("sparse", 4, tmp_path)
        lines[3] = lines[2]
        self._assert_rejected("sparse", lines, tmp_path, capsys, "more than once")

    @pytest.mark.parametrize(
        "tau, nu, cause",
        [("0.5", "0", "off the lattice"), ("0", "0.0625", "off the lattice"),
         ("4", "0", "out of range"), ("0", "0.5", "out of range")],
        ids=["tau", "nu", "tau-beyond", "nu-beyond"],
    )
    def test_sparse_row_off_the_lattice(self, tmp_path, capsys, tau, nu, cause):
        lines = _csv_lines("sparse", 4, tmp_path)
        assert lines[2].startswith("0,0,")
        lines[2] = ",".join([tau, nu] + lines[2].split(",")[2:])
        self._assert_rejected("sparse", lines, tmp_path, capsys, cause)

    @pytest.mark.parametrize(
        "kind, old, new, cause",
        [("v1", "v1,", "v12,", "known version"), ("v1", "v1,", "v1x,", "known version"),
         ("v2", "v2,", "v21,", "known version"), ("v2", "v2,", "v2 ,", "known version"),
         ("signal", "v1,", "v19,", "known version"),
         ("v1", "process=chirp", "process=chirp, process=ma", "'process' twice"),
         ("v2", "process=chirp", "process=chirp, process=ma", "'process' twice"),
         ("signal", "process=chirp", "process=chirp, process=ma", "'process' twice"),
         ("v1", "kind=raw", "kind=raw, kind=thresholded", "'kind' twice"),
         ("v2", "kind=raw", "kind=raw, kind=thresholded", "'kind' twice"),
         ("v2", "n=4,", "n=4, n=4,", "'n' twice"),
         ("v1", "kind=raw", "kind=raw, cells=56", "v1 defines no such field"),
         ("signal", "n=4", "n=4, kind=raw", "v1 defines no such field"),
         ("v2", "kind=raw", "kind=raw, color=red", "v2 defines no such field"),
         ("v2", ", cells=56", "", "no cells= field"),
         ("v2", "cells=56", "cells=many", "non-integer cells"),
         ("v2", "cells=56", "cells=-1", "cells >= 0"),
         ("grid", "v3,", "v4,", "known version"),
         ("grid", "mirror=1", "mirror=2", "0 <= mirror <= 1"),
         ("grid", "mirror=1", "mirror=-1", "0 <= mirror <= 1"),
         ("grid", "mirror=1", "mirror=1, mirror=1", "'mirror' twice"),
         ("grid", "mirror=1", "mirror=yes", "non-integer mirror"),
         ("grid", ", mirror=1", "", "no mirror= field"),
         ("v2", "cells=56", "cells=56, mirror=0", "v2 defines no such field"),
         ("grid", "kind=raw", "kind=raw, color=red", "v3 defines no such field")],
        ids=["v12", "v1x", "v21", "v2-space", "signal-v19", "v1-process-twice", "v2-process-twice",
             "signal-process-twice", "v1-kind-twice", "v2-kind-twice", "n-twice", "v1-cells",
             "signal-kind", "unknown-field", "v2-no-cells", "non-integer-cells", "negative-cells",
             "v4", "mirror-2", "mirror-negative", "mirror-twice", "non-integer-mirror",
             "v3-no-mirror", "v2-mirror", "v3-unknown-field"],
    )
    def test_strict_header(self, tmp_path, capsys, kind, old, new, cause):
        # Every v1 case here used to load: the version was a prefix match, a repeated
        # field kept its last value and a field the version does not define was ignored.
        lines = _csv_lines(kind, 4, tmp_path)
        assert old in lines[0]
        lines[0] = lines[0].replace(old, new)
        self._assert_rejected("signal" if kind == "signal" else "grid", lines, tmp_path, capsys, cause)


    @pytest.mark.parametrize("extra", [False, True], ids=["in-place-of-a-row", "added"])
    def test_mirrored_body_holds_no_negative_lag(self, tmp_path, capsys, extra):
        # a tau < 0 row in a mirror=1 body would be overwritten by the mirror
        lines = _csv_lines("grid", 4, tmp_path)
        assert ", cells=32, mirror=1," in lines[0]
        row = ",".join(["-1"] + lines[-1].split(",")[1:])
        if extra:
            lines = [lines[0].replace("cells=32", "cells=33")] + lines[1:] + [row]
        else:
            lines[-1] = row
        self._assert_rejected("grid", lines, tmp_path, capsys, "mirror=1 holds a tau < 0 cell")

    def test_mirrored_body_whose_mirror_overflows(self, tmp_path, capsys):
        # every value in the file is finite, but the cell (tau, nu) = (-1, 1/8) it
        # rebuilds is e^{j pi/4} conj(1.5e308 - 1.5e308j), whose imaginary part overflows
        lines = _csv_lines("grid", 4, tmp_path)
        row = next(i for i, line in enumerate(lines) if line.startswith("1,-0.125,"))
        lines[row] = "1,-0.125,1.5e308,-1.5e308"
        self._assert_rejected("grid", lines, tmp_path, capsys, "rebuilds a non-finite tau < 0 cell")


_FUZZ_TOKENS = ("x", "", "nan", "-inf", "1e999", "0x10", "1.0.0", "--1", "1,2", "\u00e9")


def _corrupt(lines, rng):
    """One random change that makes a valid CSV file invalid."""
    header, body = lines[0], lines[1:]
    n = int(header.split("n=")[1].split(",")[0])
    # A sparse grid lists only some cells, so another n may hold all of them (an empty
    # body fits every n): it gets only an n= that no file may carry.
    sparse = "cells=" in header and len(body) < (2 * n - 1) * 2 * n
    what = rng.integers(7) if body else (0, 1, 6)[rng.integers(3)]  # 2-5 need a row
    if what == 0:  # a wrong, non-integer, too small or missing n= field
        bad = [] if sparse else [f"n={n + d}" for d in (-2, -1, 1, 3)]
        bad += ["n=abc", "n=", "n=2.5", "n=1", "n=-3", "n=0", ""]
        header = header.replace(f"n={n}", bad[rng.integers(len(bad))])
    elif what == 1:  # a wrong tag, version, kind or provenance
        bad = [("v1", "v2"), ("v2", "v1"), ("afkit-", "afkit_"), ("process=chirp", "process=bogus"),
               ("kind=raw", "kind=bogus"), ("signal", "grid"), ("grid", "signal")]
        old, new = bad[rng.integers(len(bad))]
        header = header.replace(old, new) if old in header else "# " + header
    elif what == 2:  # truncated: rows dropped from the tail or anywhere
        k = int(rng.integers(1, len(body) + 1))
        body = body[:-k] if rng.random() < 0.5 else list(np.delete(body, rng.permutation(len(body))[:k]))
    elif what == 3:  # a row duplicated over another row, or appended
        if len(body) > 1 and rng.random() < 0.5:
            i, j = rng.permutation(len(body))[:2]
            body[j] = body[i]
        else:
            body.append(body[rng.integers(len(body))])
    elif what == 4:  # a bad token in one cell
        i = rng.integers(len(body))
        cells = body[i].split(",")
        cells[rng.integers(len(cells))] = _FUZZ_TOKENS[rng.integers(len(_FUZZ_TOKENS))]
        body[i] = ",".join(cells)
    elif what == 5:  # a cell dropped from one row
        i = rng.integers(len(body))
        body[i] = ",".join(np.delete(body[i].split(","), rng.integers(3)))
    elif "cells=" in header:  # a cells= count one off
        cells = int(header.split("cells=")[1].split(",")[0])
        header = header.replace(f"cells={cells}", f"cells={cells + (-1, 1)[rng.integers(2)]}")
    else:  # a cells= field where the version defines none
        header += f", cells={len(body)}"
    return [header] + body


def _sparse_grid(rng, n, kind):
    """A grid of the kind with 0, 1 or 2 nonzero cells at random places."""
    values = np.zeros(lattice(n).shape, dtype=complex)
    cells = rng.permutation(values.size)[: rng.integers(3)]
    values.reshape(-1)[cells] = rng.standard_normal(cells.size) + 1j
    return AmbiguityGrid(values, n, kind)


class TestCsvFuzz:
    def test_corrupted_round_trips_rejected(self, tmp_path, capsys):
        """Seeded fuzz over signal, grid (v2, dense and sparse, and v1) and mask
        files: every corrupted file exits 1 or 2 with a one-line cause, no
        traceback and no output."""
        rng = np.random.default_rng(20261018)
        work = tmp_path / "work"
        kinds = ("signal", "raw", "thresholded", "mask", "sparse-thresholded", "reference", "v1")
        drawn = {kind: 0 for kind in kinds}
        bodies = set()
        for case in range(300):
            n = int(rng.integers(2, 25))
            kind = kinds[rng.integers(len(kinds))]
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            work.mkdir()
            path = work / "in.csv"
            if kind == "signal":
                gridio.write_signal(path, x, process="chirp")
            elif kind == "raw":
                gridio.write_grid(path, compute_emaf(x), process="chirp")
            elif kind == "thresholded":
                gridio.write_grid(path, teaf(compute_emaf(x)), process="chirp")
            elif kind == "sparse-thresholded":
                gridio.write_grid(path, _sparse_grid(rng, n, "thresholded"), process="chirp")
            elif kind == "reference":
                ref = naf_um(0.09, n).grid if rng.random() < 0.5 else _sparse_grid(rng, n, "reference")
                gridio.write_grid(path, ref, process="um")
            elif kind == "v1":
                _oracle_grid(path, compute_emaf(x), process="chirp")
            else:
                gridio.write_mask(path, rng.random((2 * n - 1, 2 * n)) < 0.5, n)
            valid = path.read_text().splitlines()
            lines = _corrupt(valid, rng)
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            if kind in ("signal", "raw", "v1"):
                argv = _command("signal" if kind == "signal" else "grid", path, work)
            else:
                argv = ["spread", "-i", str(path), "-o", str(work / "out.json")]
            code, err, caught = _run_cli(argv, capsys)
            context = (case, kind, n, lines[0], code, err)
            assert code in (1, 2), context
            assert len(err) == 1 and "Traceback" not in err[0], context
            assert not caught, context
            assert [p.name for p in work.iterdir()] == ["in.csv"], context
            drawn[kind] += 1
            bodies.add(len(valid) - 1)
            path.unlink()
            work.rmdir()
        assert min(drawn.values()) >= 20, drawn
        assert {0, 1, 2} <= bodies  # sparse files with an empty, one-row and two-row body


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

    def test_commands_back_to_back_through_one_parser(self, tmp_path):
        # main builds its argparse tree once per registry state; no flag value or
        # default of one command leaks into the next
        _parser.cache_clear()
        sig, sig2, grid = tmp_path / "s.csv", tmp_path / "s2.csv", tmp_path / "g.csv"
        assert main(["gen", "--process", "um", "--f0", "0.1", "--n", "32", "--seed", "2",
                     "-o", str(sig)]) == 0
        assert main(["emaf", "-i", str(sig), "-o", str(grid)]) == 0
        assert main(["gen", "--n", "32", "-o", str(sig2)]) == 0
        assert (_parser.cache_info().misses, _parser.cache_info().hits) == (1, 2)
        x = generate(UniformlyModulated(0.1), 32, 2)
        np.testing.assert_array_equal(gridio.load_grid(grid)[0].values, compute_emaf(x).values)
        np.testing.assert_array_equal(gridio.load_signal(sig2)[0], generate(MovingAverage(), 32, 0))
        assert gridio.load_signal(sig2)[1] == "ma"

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

    def test_process_flag_contradicting_header_exits_2(self, tmp_path, capsys):
        # --process chirp used to relabel an ma grid and get lbteaf past the pairing check
        sig, grid = tmp_path / "sig.csv", tmp_path / "grid.csv"
        est, meta = tmp_path / "est.csv", tmp_path / "est.json"
        main(["gen", "--process", "ma", "--n", "32", "--seed", "1", "-o", str(sig)])
        main(["emaf", "-i", str(sig), "-o", str(grid)])
        capsys.readouterr()
        for method in ("lbteaf", "teaf"):
            code = main(["threshold", "-i", str(grid), "--process", "chirp", "--method", method,
                         "-o", str(est), "--meta", str(meta)])
            assert code == 2
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and "process=ma" in err[0], err
            assert not est.exists() and not meta.exists()
        assert main(["threshold", "-i", str(grid), "--process", "ma", "-o", str(est)]) == 0
        assert gridio.load_grid(est)[1] == "ma"

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

    def test_invalid_process_parameter_exits_2(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = main(["gen", "--process", "um", "--f0", "0.4", "--n", "64", "-o", str(out)])
        assert code == 2
        capsys.readouterr()
        # naf --n 1 used to write a grid that load_grid rejects; --n 0 and -3 exited
        # with numpy's text
        for process in ("um", "chirp", "noise"):
            for n in ("1", "0", "-3"):
                code = main(["naf", "--process", process, "--n", n, "-o", str(out)])
                assert code == 2 and not out.exists(), (process, n)
                err = capsys.readouterr().err.strip().splitlines()
                assert len(err) == 1 and "two samples" in err[0], err

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

    def test_moments_defaults_follow_the_proposition(self, capsys):
        # --prop 3 used to take the tvma f0 = 0.042 because --process defaulted to ma
        base = ["moments", "--prop", "3", "--n", "64", "--nu", "0.18", "--tau", "0"]
        assert main(base) == 0
        plain = json.loads(capsys.readouterr().out)
        assert main(base + ["--process", "um", "--f0", "0.09"]) == 0
        assert json.loads(capsys.readouterr().out) == plain
        assert plain["mean"]["re"] == pytest.approx(-19.93, abs=0.01)

    @pytest.mark.parametrize(
        "argv",
        [["--prop", "3", "--process", "ma"], ["--prop", "1", "--process", "noise"],
         ["--prop", "thm1", "--process", "tvma"], ["--prop", "2", "--weights", "0,1"],
         ["--prop", "thm1", "--xi-var", "-1"], ["--prop", "3", "--f0", "0.3"],
         ["--prop", "1", "--noise-psd", "-1"], ["--prop", "3", "--n", "1", "--tau", "0"],
         ["--prop", "1", "--n", "1", "--tau", "0"]],
        ids=["prop3-ma", "prop1-noise", "thm1-tvma", "zero-lead-weight", "xi-var", "um-f0",
             "noise-psd", "prop3-n1", "prop1-n1"],
    )
    def test_moments_rejects_bad_process(self, argv, capsys):
        assert main(["moments", "--n", "64", "--nu", "0.1", "--tau", "1"] + argv) == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    @pytest.mark.parametrize("prop", ["1", "2", "3"])
    @pytest.mark.parametrize("nu", ["0.5", "-0.5", "0.7"])
    def test_moments_rejects_nu_off_the_plane(self, prop, nu, capsys):
        # nu = 0.7 used to exit 0 with meaningless numbers, and --prop 2 at nu = 0.5
        # to exit 1 with a division by zero
        assert main(["moments", "--prop", prop, "--n", "64", "--nu", nu, "--tau", "1"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "nu" in err[0], err

    @pytest.mark.parametrize("prop", ["1", "2", "3", "thm1"])
    @pytest.mark.parametrize("nu", ["nan", "inf", "-inf"])
    def test_moments_rejects_non_finite_nu(self, prop, nu, tmp_path, capsys):
        # thm1 used to exit 0 and print NaN / Infinity, which is not JSON
        out = tmp_path / "m.json"
        assert main(["moments", "--prop", prop, "--n", "64", f"--nu={nu}", "--tau", "1",
                     "-o", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "nu" in err[0], err
        assert not out.exists()

    def test_list_flags(self, tmp_path, capsys):
        # a float list takes spaces but no empty item; a name list skips empty items
        sig, out = tmp_path / "s.csv", tmp_path / "r.json"
        assert main(["gen", "--weights", " 1, 0.5", "--n", "16", "--seed", "4",
                     "-o", str(sig)]) == 0
        np.testing.assert_array_equal(
            gridio.load_signal(sig)[0], generate(MovingAverage((1.0, 0.5)), 16, 4)
        )
        for weights in ("1,,2", "1,2,"):
            assert main(["gen", "--weights", weights, "-o", str(tmp_path / "x.csv")]) == 2
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and "--weights" in err[0], err
        assert main(["bench", "--process", "um", "--n", "16", "--trials", "2",
                     "--estimators", "emaf, teaf,", "-o", str(out)]) == 0
        assert set(json.loads(out.read_text())["results"]) == {"emaf", "teaf"}
        assert not (tmp_path / "x.csv").exists()

    def test_emaf_db_export(self, tmp_path):
        sig = tmp_path / "sig.csv"
        grid = tmp_path / "grid.csv"
        db = tmp_path / "db.csv"
        main(["gen", "--process", "noise", "--n", "32", "--seed", "2", "-o", str(sig)])
        assert main(["emaf", "-i", str(sig), "-o", str(grid), "--db", str(db)]) == 0
        assert db.read_text().splitlines()[0].startswith("# afkit-grid v3, n=32, kind=reference, cells=")


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

    @pytest.mark.parametrize("cfg", sorted(BENCHMARKS.glob("*.cfg")), ids=lambda p: p.stem)
    def test_desk_config_equals_its_flags(self, tmp_path, cfg):
        # a config key is the bench flag of its name; bracket lists read as comma text
        flags = []
        for line in cfg.read_text().splitlines():
            key, sep, value = line.split("#", 1)[0].partition("=")
            if sep:
                flags += ["--" + key.strip().replace("_", "-"), value.strip().strip("[]")]
        small = ["--n", "32", "--trials", "4", "--threads", "1"]
        by_file, by_flags = tmp_path / "file.json", tmp_path / "flags.json"
        assert main(["bench", "--config", str(cfg), *small, "-o", str(by_file)]) == 0
        assert main(["bench", *flags, *small, "-o", str(by_flags)]) == 0
        file_report, flag_report = (json.loads(p.read_text()) for p in (by_file, by_flags))
        assert file_report["results"] == flag_report["results"]
        assert file_report["metadata"]["trials"] == 4

    def test_config_repeated_key_exits_2(self, tmp_path, capsys):
        # the last value used to win: n = 16 then n = 32 ran at n = 32 with exit 0
        cfgfile, out = tmp_path / "bench.cfg", tmp_path / "r.json"
        cfgfile.write_text("process = um\nn = 16\nn = 32\ntrials = 2\n")
        assert main(["bench", "--config", str(cfgfile), "-o", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "'n'" in err[0] and str(cfgfile) in err[0], err
        assert not out.exists()

    def test_flag_overrides_a_file_value_its_type_rejects(self, tmp_path):
        cfgfile, out = tmp_path / "bench.cfg", tmp_path / "r.json"
        cfgfile.write_text("process = um\nn = 3.5\ntrials = 2\n")
        assert main(["bench", "--config", str(cfgfile), "--n", "16", "-o", str(out)]) == 0
        assert json.loads(out.read_text())["metadata"]["n"] == 16

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

    def test_config_rejects_unknown_key(self, tmp_path, capsys):
        # a typo key used to be ignored: the run took the default f0 and exited 0
        cfgfile, out = tmp_path / "bench.cfg", tmp_path / "r.json"
        cfgfile.write_text("process = um\nfO = 0.2\nn = 16\ntrials = 2\n")
        assert main(["bench", "--config", str(cfgfile), "-o", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "'fO'" in err[0], err
        assert not out.exists()

    def test_pairing_enforced(self, tmp_path):
        assert main(["bench", "--process", "ma", "--estimators", "emaf,lbteaf",
                     "--trials", "2", "-o", str(tmp_path / "r.json")]) == 2

    @pytest.mark.parametrize(
        "process, key",
        [("um", "f0"), ("chirp", "alpha"), ("chirp", "beta"), ("chirp", "noise_psd"),
         ("ma", "xi_var")],
    )
    def test_config_value_of_wrong_type_exits_2(self, tmp_path, capsys, process, key):
        # f0 = abc used to reach validate() as a string and exit 1 with a TypeError text
        cfgfile, out = tmp_path / "bench.cfg", tmp_path / "r.json"
        cfgfile.write_text(f"process = {process}\n{key} = abc\nn = 16\ntrials = 2\n")
        assert main(["bench", "--config", str(cfgfile), "-o", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and key in err[0], err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["gen", "--process", "um", "--alpha", "0.3"],
         ["gen", "--process", "chirp", "--f0", "0.1"],
         ["naf", "--process", "ma", "--noise-psd", "1"],
         ["moments", "--prop", "3", "--weights", "1,2", "--nu", "0.1", "--tau", "0"],
         ["bench", "--process", "um", "--weights", "1,2", "--trials", "2"]],
        ids=["gen-um-alpha", "gen-chirp-f0", "naf-ma-noise-psd", "moments-um-weights",
             "bench-um-weights"],
    )
    def test_flag_of_another_process_exits_2(self, tmp_path, capsys, argv):
        # such a flag used to be ignored silently, with exit 0
        out = tmp_path / "out"
        assert main(argv + ["--n", "16", "-o", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "not a parameter" in err[0], err
        assert not out.exists()

    def test_config_key_of_another_process_exits_2(self, tmp_path, capsys):
        cfgfile, out = tmp_path / "bench.cfg", tmp_path / "r.json"
        cfgfile.write_text("process = um\nalpha = 0.3\nn = 16\ntrials = 2\n")
        assert main(["bench", "--config", str(cfgfile), "-o", str(out)]) == 2
        assert "alpha is not a parameter of the um process" in capsys.readouterr().err
        assert not out.exists()
