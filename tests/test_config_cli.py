import collections
import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tcm_entangle import (analysis, cli, entanglement, figures, hamiltonian, numtext,
                          propagator, verify)
from tcm_entangle.analysis import TracePath, concurrence_trace
from tcm_entangle.config import (MAX_N_POINTS, NUMBER_FORMAT, ConfigError, RunConfig, fmt,
                                 parse_angle, parse_config)
from tcm_entangle.model import Basis, Family, InitialStateSpec, ModelParams, require_grid


class TestParseAngle:
    @pytest.mark.parametrize("token,expected", [
        ("pi", math.pi),
        ("pi/8", math.pi / 8),
        ("3*pi/16", 3 * math.pi / 16),
        ("2*pi", 2 * math.pi),
        ("0.5", 0.5),
        (" pi / 4 ", math.pi / 4),
    ])
    def test_accepted(self, token, expected):
        assert parse_angle(token) == pytest.approx(expected, abs=0.0)

    @pytest.mark.parametrize("token", ["", "tau", "pi/", "pi*2", "1/2pi"])
    def test_rejected(self, token):
        with pytest.raises(ConfigError):
            parse_angle(token)


class TestParseConfig:
    def test_full_file(self):
        cfg = parse_config("""
            # concurrence run
            family = PHI
            alpha = pi/12, pi/8   # grid angles
            epsilon = 0, 2
            T_max = 12.5
            n_points = 500
            path = BOTH
            output_dir = results
            emit_svg = yes
            zero_threshold = 1e-8
        """)
        assert cfg.family is Family.PHI
        assert cfg.alpha_list == (math.pi / 12, math.pi / 8)
        assert cfg.epsilon_list == (0.0, 2.0)
        assert cfg.T_max == 12.5 and cfg.n_points == 500
        assert cfg.path is TracePath.BOTH and cfg.output_dir == "results"
        assert cfg.emit_svg and cfg.zero_threshold == 1e-8

    def test_empty_text_gives_defaults(self):
        cfg = parse_config("")
        assert cfg == RunConfig()

    def test_overrides_win(self):
        cfg = parse_config("T_max = 5", T_max=9.0)
        assert cfg.T_max == 9.0

    @pytest.mark.parametrize("text,fragment", [
        ("bogus_key = 1", "line 1"),
        ("family PHI", "key = value"),
        ("\nn_points = many", "line 2"),
        ("alpha = pi/0.. ", "angle"),
        ("emit_svg = maybe", "boolean"),
        ("path = sideways", "line 1"),
    ])
    def test_errors_carry_line_numbers(self, text, fragment):
        with pytest.raises(ConfigError, match=fragment):
            parse_config(text)

    @pytest.mark.parametrize("kwargs", [
        dict(n_points=1), dict(T_max=0.0),
        dict(alpha_list=(2.0,)), dict(epsilon_list=(-1.0,)),
        dict(zero_threshold=0.0),
        dict(T_max=math.nan), dict(T_max=math.inf), dict(zero_threshold=math.nan),
        dict(epsilon_list=(math.inf,)), dict(epsilon_list=(0.0, math.nan)),
        dict(alpha_list=(0.3, 0.30000000000000004)), dict(epsilon_list=(1.0, 1.0)),
        dict(n_points=MAX_N_POINTS + 1), dict(n_points=10**15),
        dict(epsilon_list=(0.0, -0.0)), dict(alpha_list=(-0.0, 0.0)),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            RunConfig(**kwargs)

    @settings(max_examples=200, deadline=None)
    @given(T_max=st.one_of(st.floats(5e-324, 1e-318), st.floats(5e-324, 1e308)),
           n_points=st.one_of(st.integers(2, 50), st.integers(2, 20_000)))
    @example(T_max=1e-321, n_points=1000)
    def test_grid_accepted_exactly_when_ascending(self, T_max, n_points):
        # RunConfig takes the pairs whose grid model.require_grid takes, and
        # keeps that grid, read-only, for figures.run
        grid = np.linspace(0.0, T_max, n_points)
        try:
            require_grid(grid)
        except ValueError:
            with pytest.raises(ConfigError, match=r"^T_max = .* and n_points = \d+ give a "
                                                  r"time grid that is not strictly ascending$"):
                RunConfig(T_max=T_max, n_points=n_points)
        else:
            cfg = RunConfig(T_max=T_max, n_points=n_points)
            assert cfg.grid.tobytes() == grid.tobytes() and not cfg.grid.flags.writeable

    def test_signed_zeros_read_as_zero(self):
        cfg = RunConfig(alpha_list=(-0.0, 0.5), epsilon_list=(-0.0,), n_points=MAX_N_POINTS)
        assert [math.copysign(1.0, v) for v in cfg.alpha_list + cfg.epsilon_list] == [1.0] * 3
        assert cfg.alpha_list == (0.0, 0.5)

    def test_lists_take_any_iterable_of_reals(self):
        # a numpy array used to fail the emptiness test as an ambiguous truth value
        cfg = RunConfig(alpha_list=np.array([0.1, 0.2]), epsilon_list=iter([0, 2]))
        assert cfg.alpha_list == (0.1, 0.2) and cfg.epsilon_list == (0.0, 2.0)


def _read_csv(path: Path):
    """Parse one of the emitted CSVs back into (header, columns of floats)."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, [data[:, j] for j in range(data.shape[1])]


def _one_call_writer(path: Path, header: list[str], columns: list):
    """Reference: the writer that formatted every number with NUMBER_FORMAT
    in one %-call, before numbers in (0, 1) were written from integers."""
    n, k = len(columns[0]), len(columns)
    text = [len(c) > 0 and isinstance(c[0], str) for c in columns]
    cells = [None] * (n * k)
    for j, column in enumerate(columns):
        cells[j::k] = column if text[j] else np.asarray(column, dtype=float).tolist()
    row = ",".join(["%s" if t else NUMBER_FORMAT for t in text]) + "\n"
    body = row * n % tuple(cells)
    path.write_text(",".join(header) + "\n" + body, encoding="utf-8", newline="\n")


def _near(values):
    """``values`` or a neighbouring double, of either sign."""
    return st.builds(lambda v, to, sign: sign * (float(np.nextafter(v, to * math.inf)) if to
                                                 else v),
                     values, st.sampled_from([-1, 0, 1]), st.sampled_from([-1.0, 1.0]))


def _decimal(suffix=""):
    """A random 15-digit significand (then ``suffix``) at 10^-1 .. 10^-4."""
    return st.builds(lambda d, zeros: float(f"0.{'0' * zeros}{d}{suffix}"),
                     st.integers(10**14, 10**15 - 1), st.integers(0, 3))


# the numbers where digit-exact output is hardest: ties of the 15th digit,
# exact (N / 2^16, N odd) or not (16-digit decimals ending in 5, whose
# product with 10^(14 - X) can round onto the tie), decimal neighbours,
# decade edges, zeros, trailing zeros and numbers outside [1e-4, 1)
_CELL = st.one_of(
    _near(st.integers(0, 2**15 - 1).map(lambda m: (2 * m + 1) / 2**16)),
    _near(_decimal()),
    _near(_decimal("5")),
    _near(st.sampled_from([1e-4, 1e-3, 1e-2, 0.1, 1.0])),
    st.sampled_from([0.0, -0.0]),
    _near(st.sampled_from([0.5, 0.25, 0.125])
          | st.builds(round, st.floats(-1.0, 1.0), st.integers(1, 15))),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),
    st.sampled_from([5e-324, -5e-324, 1e300, -1e300, 0, 1]),
)


@st.composite
def _mixed_columns(draw):
    """(columns for write_csv, the same as numbers): each column is numbers
    or their bytes from `figures._number_text`."""
    n, k = draw(st.integers(0, 300)), draw(st.integers(1, 7))
    columns, reference = [], []
    for _ in range(k):   # rows cycle through a drawn pool: drawing each cell is slow
        values = (draw(st.lists(_CELL, min_size=1, max_size=40)) * n)[:n]
        columns.append(figures._number_text(np.array(values, dtype=float))
                       if draw(st.booleans()) else values)
        reference.append(values)
    return columns, reference


# every kind of number %.15g writes in fixed notation, 1e-4 <= |v| < 1e15,
# of either sign: 15-digit decimals at each decimal exponent X, integers,
# significands ending in 1 to 14 zeros, zeros, powers of ten and their
# neighbours, and exact ties of the 15th digit at X >= 0, (2m + 1) / 2^(15 - X)
_FIXED = st.builds(lambda v, sign: sign * v, st.one_of(
    st.builds(lambda d, x: float(f"{d}e{x - 14}"), st.integers(10**14, 10**15 - 1),
              st.integers(-4, 14)),
    st.integers(0, 10**15).map(float),
    st.builds(lambda d, zeros, x: float(f"{d // 10**zeros * 10**zeros}e{x - 14}"),
              st.integers(10**14, 10**15 - 1), st.integers(1, 14), st.integers(-4, 14)),
    st.just(0.0),
    _near(st.sampled_from([10.0**k for k in range(-5, 17)])),
    st.integers(0, 14).flatmap(lambda x: st.integers(10**x * 2**(14 - x),
                                                     10**(x + 1) * 2**(14 - x) - 1)
                               .map(lambda m: (2 * m + 1) / 2**(15 - x))),
), st.sampled_from([1.0, -1.0]))

#: the T column of a benchmark sweep
_GRID = np.linspace(0.0, 40.0, 4000)
#: text cells that are not ASCII
_UTF8 = ["0.5", "\u00e9t\u00e9", "\u03b1 = \u03c0/4"]


@st.composite
def _fixed_columns(draw):
    """(columns for write_csv, the same as numbers): each column is numbers
    or their bytes from `figures._number_text`."""
    n, k = draw(st.integers(0, 300)), draw(st.integers(1, 5))
    columns, reference = [], []
    for _ in range(k):
        values = np.array((draw(st.lists(_FIXED, min_size=1, max_size=40)) * n)[:n])
        columns.append(figures._number_text(values) if draw(st.booleans()) else values)
        reference.append(values)
    return columns, reference


class TestCsvRoundTrip:
    def test_values_survive(self, tmp_path):
        path = tmp_path / "t.csv"
        cols = [np.array([0.0, 1.0 / 3.0, math.pi]), np.array([1e-15, -2.5, 0.0])]
        figures.write_csv(path, ["a", "b"], cols)
        header, back = _read_csv(path)
        assert header == ["a", "b"]
        for src, dst in zip(cols, back):
            np.testing.assert_allclose(dst, src, rtol=1e-14, atol=1e-300)

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "t.csv"
        figures.write_csv(path, ["a"], [np.array([1.0, 2.0])])
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(0, 300), k=st.integers(1, 7))
    def test_matches_row_at_a_time_writer(self, data, n, k):
        # reference: the writer that made one %-call per row
        values = st.floats(allow_nan=False, allow_infinity=False, width=64)
        cols = [np.array(data.draw(st.lists(values, min_size=n, max_size=n)))
                for _ in range(k)]
        row = ",".join(["%.15g"] * k)
        expected = "\n".join([",".join(f"c{j}" for j in range(k))]
                             + [row % r for r in zip(*(c.tolist() for c in cols))]) + "\n"
        shared = data.draw(st.booleans())   # first column preformatted, as in run()
        columns = [figures._number_text(cols[0]) if shared else cols[0], *cols[1:]]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            figures.write_csv(path, [f"c{j}" for j in range(k)], columns)
            assert path.read_text(encoding="utf-8") == expected

    @settings(max_examples=150, deadline=None)
    @given(case=_mixed_columns())
    @example(case=([[], figures._number_text(np.array([])), []], [[], [], []]))
    # ties of the 15th digit: the low part takes 387606570384453.5 down to
    # ...453 (rint alone gives ...454); 24691/2^16 is exact, rounded to even
    @example(case=([[0.003876065703844535, -0.003876065703844535]],) * 2)
    @example(case=([[0.3767547607421875, -0.3767547607421875]],) * 2)
    # bytes cells of text that is not ASCII or is wider than a number's
    # 24-byte slot; r = 10^15 after rounding, which %.15g writes as "1"
    @example(case=([np.array([t.encode("utf-8") for t in _UTF8]), [0.25, 1e-3, -0.5]],
                   [_UTF8, [0.25, 1e-3, -0.5]]))
    @example(case=([np.array([b"x" * 23, b"y" * 24, b"z" * 40]), [0.1, 0.2, 0.3]],
                   [["x" * 23, "y" * 24, "z" * 40], [0.1, 0.2, 0.3]]))
    @example(case=([[0.9999999999999999, -0.9999999999999999, 0.99999999999999994]],) * 2)
    def test_matches_one_call_writer(self, case):
        columns, reference_columns = case
        header = [f"c{j}" for j in range(len(columns))]
        with tempfile.TemporaryDirectory() as tmp:
            path, reference = Path(tmp) / "t.csv", Path(tmp) / "reference.csv"
            figures.write_csv(path, header, columns)
            _one_call_writer(reference, header, reference_columns)
            assert path.read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize("column,error,message", [
        # text is handed over as numpy bytes, never as str or mixed cells
        (["a\0b", "c\0", "d"], TypeError, "^columns must be numbers or numpy bytes arrays"),
        (["a", 1.5, None], TypeError, "^columns must be numbers or numpy bytes arrays"),
        (["0.5", "\u00e9t\u00e9", "x"], TypeError, "^columns must be numbers or numpy bytes"),
        (np.array(["0.5", "1.5", "2"]), TypeError, "^columns must be numbers or numpy bytes"),
        # a text slot ends at its first NUL, so a bytes cell cannot hold one
        (np.array([b"a\0b", b"c", b"\xc3\xa9"]), ValueError,
         "^columns must hold no NUL in a bytes cell, got one in column 1"),
        (np.array([b"a", b"\0c", b"d"]), ValueError, "^columns must hold no NUL"),
    ])
    def test_text_is_bytes_without_nul(self, tmp_path, column, error, message):
        with pytest.raises(error, match=message):
            figures.write_csv(tmp_path / "t.csv", ["a", "b"], [[0.5, 0.25, 0.125], column])
        assert not (tmp_path / "t.csv").exists()

    @settings(max_examples=150, deadline=None)
    @given(case=_fixed_columns())
    # the T column of a run, as numbers and as the bytes every file copies
    @example(case=([_GRID, figures._number_text(_GRID)], [_GRID, _GRID]))
    # the largest numbers below 10^15 and 1; 15 nines, whose log10 rounds
    # up to the next decade; and a UTF-8 bytes cell, copied as it is
    @example(case=([[9.999999999999999e14, 0.99999999999999994, -9.999999999999999e14]],
                   [[9.999999999999999e14, 0.99999999999999994, -9.999999999999999e14]]))
    @example(case=([[99999.9999999999, 0.0999999999999999]],
                   [[99999.9999999999, 0.0999999999999999]]))
    @example(case=([np.array([b"ab", b"c", b"\xc3\xa9"]), [0.5, 1.5, 0.0]],
                   [["ab", "c", "\u00e9"], [0.5, 1.5, 0.0]]))
    def test_fixed_notation_matches_one_call_writer(self, case):
        columns, reference_columns = case
        header = [f"c{j}" for j in range(len(columns))]
        with tempfile.TemporaryDirectory() as tmp:
            path, reference = Path(tmp) / "t.csv", Path(tmp) / "reference.csv"
            figures.write_csv(path, header, columns)
            _one_call_writer(reference, header, reference_columns)
            assert path.read_bytes() == reference.read_bytes()

    def test_long_columns_cross_blocks(self, tmp_path):
        # 200,001 rows are written in blocks of numtext.BLOCK_ROWS rows; the
        # blocks must join into the one-call writer's bytes
        rng = np.random.default_rng(27)
        n = 200_001
        assert n > 6 * numtext.BLOCK_ROWS
        grid = np.linspace(0.0, 40.0, n)
        values = rng.random(n) * 10.0 ** rng.integers(-6, 2, n) * rng.choice([-1.0, 1.0], n)
        flags = (rng.random(n) < 0.5).astype(np.intp)
        columns = [figures._number_text(grid), values, np.abs(np.sin(grid)),
                   figures._FLAG_TEXT[flags]]
        figures.write_csv(tmp_path / "t.csv", ["T", "v", "s", "f"], columns)
        _one_call_writer(tmp_path / "reference.csv", ["T", "v", "s", "f"],
                         [grid, values, np.abs(np.sin(grid)), flags])
        assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_header_names_every_column(self, tmp_path):
        # a short header used to give rows with more cells than names
        x = np.array([1.0, 2.0])
        with pytest.raises(ValueError, match="^header must name each of the 2 columns, got 1"):
            figures.write_csv(tmp_path / "t.csv", ["a"], [x, x])
        assert not (tmp_path / "t.csv").exists()

    def test_columns_have_equal_lengths(self, tmp_path):
        for header, columns, message in [
                (["a", "b"], [np.zeros(3), figures._number_text(np.array([1.0, 2.0]))],
                 r"^columns must have equal lengths, got \[3, 2\]"),
                (["a"], [np.zeros((3, 2))], r"^columns must be 1-d, got shape \(3, 2\) in column 0"),
                ([], [], "^columns must hold at least one column, got none")]:
            with pytest.raises(ValueError, match=message):
                figures.write_csv(tmp_path / "t.csv", header, columns)
            assert not (tmp_path / "t.csv").exists()

    def test_no_runtime_warning(self, tmp_path):
        # the significand arithmetic must not run on numbers out of range
        column = np.array([5e-324, 1e308, -1e308, -0.0, 1e-5, math.inf, -math.inf, math.nan])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            figures.write_csv(tmp_path / "t.csv", ["a"], [column])
        _one_call_writer(tmp_path / "reference.csv", ["a"], [column])
        assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def _run(argv):
    return cli.main(argv)


class TestCliDefaults:
    """A flag left out gives ``RunConfig``'s default, written once in config."""

    def test_sweep(self):
        args = cli.build_parser().parse_args(
            ["sweep", "--family", "PSI", "--alpha", "0.3", "--epsilon", "0"])
        default = RunConfig()
        assert (args.tmax, args.points, args.out) == (default.T_max, default.n_points,
                                                      default.output_dir)

    @pytest.mark.parametrize("command,family", [("fig1", Family.PSI), ("fig2", Family.PHI)])
    def test_figures_output_dir(self, command, family):
        args = cli.build_parser().parse_args([command])
        assert cli._figure_config(args, family).output_dir == RunConfig().output_dir


class TestCliFigures:
    def test_fig1_default_outputs(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert _run(["fig1", "--out", str(out), "--svg"]) == 0
        csvs = sorted(p.name for p in out.glob("fig1_*.csv"))
        assert len(csvs) == 6      # 3 alpha x 2 epsilon
        assert len(list(out.glob("fig1_*.svg"))) == 2
        assert (out / "run_metadata.txt").exists()
        header, cols = _read_csv(next(iter(sorted(out.glob("fig1_*.csv")))))
        assert header == ["T", "C", "signed_C", "x1_abs", "x2_abs", "x3_abs"]
        assert len(cols[0]) == 2000
        printed = capsys.readouterr().out.splitlines()
        assert str(out / csvs[0]) in printed

    def test_fig2_intervals_table(self, tmp_path):
        out = tmp_path / "o"
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("family = PHI\nalpha = pi/6\nepsilon = 0\n"
                       "T_max = 6.283185307179586\nn_points = 3000\n")
        assert _run(["fig2", "--config", str(cfg), "--out", str(out)]) == 0
        header, cols = _read_csv(out / "intervals.csv")
        assert header == ["alpha", "epsilon", "T_start", "T_end", "length", "refined"]
        lo = math.asin(math.sqrt(math.tan(math.pi / 6)))
        assert len(cols[0]) == 2
        assert cols[2][0] == pytest.approx(lo, abs=1e-6)
        assert cols[3][0] == pytest.approx(math.pi - lo, abs=1e-6)
        assert cols[5][0] == 1.0

    def test_fig_family_mismatch_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("family = PHI\n")
        assert _run(["fig1", "--config", str(cfg)]) == 2
        assert "family" in capsys.readouterr().err

    def test_byte_identical_across_runs(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert _run(["fig1", "--out", str(out)]) == 0
            outs.append(out)
        files_a = sorted(p.name for p in outs[0].iterdir())
        files_b = sorted(p.name for p in outs[1].iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_sweep_oracle_free_choice(self, tmp_path):
        out = tmp_path / "o"
        assert _run(["sweep", "--family", "psi", "--alpha", "pi/8",
                     "--epsilon", "0,2", "--tmax", "10", "--points", "200",
                     "--out", str(out)]) == 0
        assert len(list(out.glob("fig1_*.csv"))) == 2

    def test_bad_config_path(self, tmp_path, capsys):
        assert _run(["fig1", "--config", str(tmp_path / "missing.txt")]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,field", [
        (["--epsilon", "inf"], "epsilon"),
        (["--epsilon", "0,nan"], "epsilon"),
        (["--tmax", "nan"], "T_max"),
        (["--tmax", "inf"], "T_max"),
    ])
    def test_sweep_rejects_non_finite(self, tmp_path, capsys, flags, field):
        argv = ["sweep", "--family", "PSI", "--alpha", "pi/8", "--epsilon", "0",
                "--points", "50", "--out", str(tmp_path / "o")]
        assert _run(argv + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err
        assert not (tmp_path / "o").exists()

    # these used to print the reader's message without the flag it came from
    @pytest.mark.parametrize("argv,message", [
        (["sweep", "--family", "PSI", "--alpha", "pi/8", "--epsilon", "1,x"],
         "--epsilon: could not convert string to float: 'x'"),
        (["sweep", "--family", "PSI", "--alpha", ",", "--epsilon", "0"],
         "--alpha: cannot parse angle ''"),
        (["verify", "--dump-hamiltonian", "H.csv", "--epsilon", "-1"],
         "--epsilon: epsilon must be >= 0, got -1.0"),
        (["verify", "--dump-hamiltonian", "H.csv", "--epsilon", "nan"],
         "--epsilon: epsilon must be finite, got nan"),
        (["verify", "--epsilon", "nan"], "--epsilon: epsilon must be finite, got nan"),
        (["verify", "--epsilon", "-5"], "--epsilon: epsilon must be >= 0, got -5.0"),
    ])
    def test_flag_errors_name_the_flag(self, tmp_path, capsys, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        if argv[0] == "sweep":
            argv = argv + ["--out", "o"]
        assert _run(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    # values equal to 15 digits share a file name: the second CSV used to
    # overwrite the first while intervals.csv kept rows of both, exit 0
    @pytest.mark.parametrize("flags,field", [
        (["--alpha", "0.3,0.30000000000000004", "--epsilon", "0"], "alpha_list"),
        (["--alpha", "pi/8,pi/8", "--epsilon", "0"], "alpha_list"),
        (["--alpha", "pi/8", "--epsilon", "0.5,0.5000000000000001"], "epsilon_list"),
        (["--alpha", "pi/8", "--epsilon", "0,-0"], "epsilon_list"),
        (["--alpha=-0,0", "--epsilon", "0"], "alpha_list"),
    ])
    def test_sweep_rejects_colliding_file_tags(self, tmp_path, capsys, flags, field):
        argv = ["sweep", "--family", "PHI", "--tmax", "10", "--points", "200",
                "--out", str(tmp_path / "o")]
        assert _run(argv + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err and "file tag" in err
        assert not (tmp_path / "o").exists()

    def test_signed_zero_written_as_zero(self, tmp_path):
        # --alpha -0 used to write fig2_alpham0_eps0.csv
        out = tmp_path / "o"
        assert _run(["sweep", "--family", "PHI", "--alpha", "-0", "--epsilon", "-0.0",
                     "--tmax", "5", "--points", "50", "--out", str(out)]) == 0
        assert sorted(p.name for p in out.glob("*.csv")) == [
            "fig2_alpha0_eps0.csv", "intervals.csv"]

    # sizes that fail before any array is allocated; 10**15 points used to
    # end in a numpy allocation traceback and exit 1
    @pytest.mark.parametrize("points", [MAX_N_POINTS + 1, 10**15, 10**30])
    def test_sweep_rejects_oversized_points(self, tmp_path, capsys, points):
        argv = ["sweep", "--family", "PHI", "--alpha", "pi/8", "--epsilon", "0",
                "--points", str(points), "--out", str(tmp_path / "o")]
        assert _run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "n_points" in err
        assert not (tmp_path / "o").exists()

    def test_memory_error_exits_2(self, tmp_path, capsys, monkeypatch):
        def run(config):
            raise MemoryError("Unable to allocate 7.1 PiB for an array")
        monkeypatch.setattr(figures, "run", run)
        assert _run(["fig2", "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: out of memory: Unable to allocate")

    @pytest.mark.parametrize("line,field", [
        ("zero_threshold = nan", "zero_threshold"),
        ("T_max = inf", "T_max"),
        ("epsilon = 0, inf", "epsilon"),
    ])
    def test_config_rejects_non_finite(self, tmp_path, capsys, line, field):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"family = PHI\nalpha = pi/8\n{line}\n")
        assert _run(["fig2", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err

    # a grid whose steps underflow used to fail inside the trace with a
    # message that named no flag, after the output directory was made
    @pytest.mark.parametrize("command", ["sweep", "fig2"])
    def test_grid_that_does_not_ascend_exits_2(self, tmp_path, capsys, command):
        out = tmp_path / "o"
        if command == "sweep":
            argv = ["sweep", "--family", "PSI", "--alpha", "0.3", "--epsilon", "1",
                    "--tmax", "1e-321", "--points", "1000", "--out", str(out)]
        else:
            cfg = tmp_path / "cfg.txt"
            cfg.write_text("family = PHI\nalpha = pi/8\nT_max = 1e-321\nn_points = 1000\n")
            argv = ["fig2", "--config", str(cfg), "--out", str(out)]
        assert _run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: T_max = 1e-321 and n_points = 1000 give a time grid "
                              "that is not strictly ascending")
        assert not out.exists()

    def test_both_disagreement_exits_2(self, tmp_path, capsys):
        # at T ~ 1e8 the oracle phases lose ~1e-8 to round-off, above the
        # 1e-9 agreement tolerance of path BOTH
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("family = PHI\nalpha = pi/8\nepsilon = 2\npath = BOTH\n"
                       "T_max = 1e8\nn_points = 200\n")
        assert _run(["fig2", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: analytic/oracle traces disagree")
        assert "alpha = 0.392699081698724" in err and "epsilon = 2" in err
        assert "T = " in err


_FIG2_DEFAULTS = "family = PHI\nalpha = pi/12, pi/8, pi/4\nepsilon = 0, 2\n"


def _all_points_disagreement(config: RunConfig):
    """The BOTH gate as it was before certification: the oracle C at every
    point, compared with the analytic C; returns the error text or None."""
    grid = np.linspace(0.0, config.T_max, config.n_points)
    for eps in config.epsilon_list:
        params = ModelParams(epsilon=eps)
        for alpha in config.alpha_list:
            spec = InitialStateSpec(config.family, alpha)
            gaps = np.abs(concurrence_trace(spec, params, grid).C
                          - concurrence_trace(spec, params, grid, TracePath.ORACLE).C)
            worst = int(np.argmax(gaps))
            if gaps[worst] > analysis.TRACE_AGREEMENT_TOL:
                return (f"analytic/oracle traces disagree by {gaps[worst]:.3e} "
                        f"(tolerance 1e-09) at alpha = {fmt(alpha)}, "
                        f"epsilon = {fmt(eps)}, T = {fmt(grid[worst])}")
    return None


class TestBothGate:
    @pytest.mark.parametrize("path,states", [("BOTH", 0), ("ORACLE", 6 * 2000)])
    def test_decomposes_each_epsilon_once(self, tmp_path, monkeypatch, path, states):
        # one Jacobi decomposition per epsilon, shared by its three alphas;
        # at the default lambda = 2 BOTH certifies every point without the
        # oracle's concurrence.  The states are counted in the core that
        # pure_concurrence and the ORACLE path share
        calls, concurrence_states = [], []
        jacobi_eigh, block_concurrence = propagator.jacobi_eigh, entanglement._block_concurrence
        monkeypatch.setattr(propagator, "jacobi_eigh",
                            lambda A: calls.append(A.shape) or jacobi_eigh(A))
        monkeypatch.setattr(entanglement, "_block_concurrence", lambda B: (
            concurrence_states.append(len(B)) or block_concurrence(B)))
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(_FIG2_DEFAULTS + f"path = {path}\n")
        assert _run(["fig2", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert calls == [(36, 36)] * 2
        assert sum(concurrence_states) == states

    @pytest.mark.parametrize("defect,message", [
        (lambda psis: psis * (1.0 + 1e-9), "state norm"),
        (lambda psis: np.where(np.arange(len(psis))[:, None] == 7, np.nan, psis),
         "concurrence trace is not finite at alpha = 0.261799387799149, epsilon = 0, T = "),
    ], ids=["norm", "finite"])
    def test_every_state_checked(self, tmp_path, capsys, monkeypatch, defect, message):
        evolve_grid = propagator.evolve_grid
        monkeypatch.setattr(propagator, "evolve_grid",
                            lambda *args: defect(evolve_grid(*args)))
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(_FIG2_DEFAULTS + "path = BOTH\n")
        assert _run(["fig2", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_leak_outside_the_occupied_rows_is_seen(self, tmp_path, capsys, monkeypatch):
        # the certificate reads the columns nonzero in the states, so amplitude
        # that a defective evolve_grid adds still reaches the norm check: 1e-4
        # on column 1 of the block it returns, which for the certificate's
        # evolved rows (|e e 0 0>, |e g 1 1>, |g e 1 1>, |g g 0 0>, |g g 2 2>) is
        # |e g 1 1>, an occupied ket: the leak adds to its amplitude and makes
        # that norm 1 - 4.8e-7
        evolve_grid = propagator.evolve_grid

        def leaky(*args):
            psis = evolve_grid(*args)
            psis[5, 1] += 1e-4
            return psis

        monkeypatch.setattr(propagator, "evolve_grid", leaky)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(_FIG2_DEFAULTS + "path = BOTH\n")
        assert _run(["fig2", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: state norm ")

    def test_leak_in_an_occupied_eigenvector_is_seen(self, tmp_path, capsys, monkeypatch):
        # the certificate evolves the rows where the occupied eigenvectors
        # are nonzero, read from the decomposition: 1e-4 on |e e 0 1>, outside
        # PHI's support kets, in an eigenvector |e e 0 0> occupies, puts that
        # ket in the evolved block, and its amplitude breaks the unit norm
        jacobi_eigh = propagator.jacobi_eigh
        leak = Basis(2).index("e", "e", 0, 1)

        def leaky(A):
            w, V = jacobi_eigh(A)
            V = V.copy()
            V[leak, np.flatnonzero(V[0])[0]] += 1e-4
            return propagator.SpectralDecomposition(w, V)

        monkeypatch.setattr(propagator, "jacobi_eigh", leaky)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(_FIG2_DEFAULTS + "path = BOTH\n")
        assert _run(["fig2", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: state norm ")

    @settings(max_examples=40, deadline=None)
    @given(family=st.sampled_from(list(Family)),
           alphas=st.lists(st.sampled_from(["0", "pi/12", "pi/8", "pi/4", "pi/2"]),
                           min_size=1, max_size=2, unique=True),
           epsilons=st.lists(st.sampled_from([0.0, 0.5, 2.0, 4.5]), min_size=1, max_size=2,
                             unique=True),
           log_tmax=st.floats(0.0, 9.0), points=st.integers(2, 300))
    def test_same_verdict_as_all_points_gate(self, family, alphas, epsilons, log_tmax, points):
        # the oracle phases drift as T grows, so runs with a large T_max
        # fail; certification must fail the same runs with the same gap at
        # the same alpha, epsilon and T
        with tempfile.TemporaryDirectory() as tmp:
            config = RunConfig(family=family, alpha_list=tuple(map(parse_angle, alphas)),
                               epsilon_list=tuple(epsilons), T_max=10.0 ** log_tmax,
                               n_points=points, path=TracePath.BOTH, output_dir=tmp)
            expected = _all_points_disagreement(config)
            try:
                figures.run(config)
                got = None
            except analysis.TraceDisagreement as exc:
                got = str(exc)
        assert got == expected


class TestCliVerify:
    def test_verify_passes(self, capsys):
        assert _run(["verify"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        assert len(lines) >= 9
        assert all(l.endswith("PASS") for l in lines)
        names = [l.split(",")[0] for l in lines]
        assert "fidelity" in names and "trace_agreement" in names

    def test_injected_fault_detected(self, capsys):
        assert _run(["verify", "--inject-fault"]) == 1
        out = capsys.readouterr().out
        assert any(l.endswith("FAIL") for l in out.splitlines())

    def test_decomposes_each_model_once(self, capsys, monkeypatch):
        # one Jacobi decomposition per epsilon of the suites, shared by all
        calls = []
        jacobi_eigh = propagator.jacobi_eigh
        monkeypatch.setattr(propagator, "jacobi_eigh",
                            lambda A: calls.append(A.shape) or jacobi_eigh(A))
        assert _run(["verify"]) == 0
        assert len(calls) == len(verify._EPSILONS) == 3
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 9 and all(l.endswith("PASS") for l in lines)

    def test_builds_each_hamiltonian_once(self, capsys, monkeypatch):
        # 3 epsilons at n_max 2, 3 and 4: the conservation suite reads the
        # n_max 2 models that every other suite reads
        calls = []
        build = hamiltonian.build_hamiltonian
        monkeypatch.setattr(hamiltonian, "build_hamiltonian",
                            lambda params: calls.append(params) or build(params))
        assert _run(["verify"]) == 0
        assert len(calls) == len(set(calls)) == 9
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 9 and all(l.endswith("PASS") for l in lines)

    def test_propagates_each_state_once(self, capsys, monkeypatch):
        # the _T_GRID states are propagated once and shared by six suites
        sizes = []
        evolve_grid = propagator.evolve_grid
        monkeypatch.setattr(propagator, "evolve_grid",
                            lambda psi0, decomp, T: sizes.append(len(T))
                            or evolve_grid(psi0, decomp, T))
        assert _run(["verify"]) == 0
        assert collections.Counter(sizes) == {len(verify._T_GRID): 30}
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 9 and all(l.endswith("PASS") for l in lines)

    def test_runs_only_shipped_kernels(self, monkeypatch):
        # every suite runs kernels a figure command runs; the side kernels
        # no command calls must not drift back in
        def refuse(*args, **kwargs):
            raise AssertionError("verify called a kernel no command runs")

        monkeypatch.setattr(propagator, "evolve", refuse)
        monkeypatch.setattr(entanglement, "wootters_concurrence", refuse)
        monkeypatch.setattr(entanglement, "xstate_concurrence", refuse)
        results = verify.run_all()
        assert len(results) == 9 and all(r.passed for r in results)

    def test_json_document(self, capsys):
        # one JSON document, sorted keys, the plain lines' values per suite
        assert _run(["verify", "--json"]) == 0
        out = capsys.readouterr().out
        document = json.loads(out)
        assert document["passed"] is True
        assert out == json.dumps(document, indent=1, sort_keys=True) + "\n"
        suites = document["suites"]
        assert [s["name"] for s in suites] == [
            "hermiticity", "conservation", "unitarity", "energy_conservation",
            "sector_confinement", "fidelity", "trace_agreement", "density_matrix",
            "local_unitary_invariance"]
        for suite in suites:
            assert sorted(suite) == ["elapsed_s", "name", "passed", "residual", "threshold"]
            assert suite["passed"] is True and suite["residual"] <= suite["threshold"]
            assert 0.0 < suite["elapsed_s"] < 60.0
        assert _run(["verify"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [verify.SuiteResult(s["name"], s["residual"], s["threshold"]).line()
                         for s in suites]

    def test_json_injected_fault(self, capsys):
        assert _run(["verify", "--inject-fault", "--json"]) == 1
        document = json.loads(capsys.readouterr().out)
        failed = [s["name"] for s in document["suites"] if not s["passed"]]
        assert document["passed"] is False and failed == ["conservation"]

    def test_json_bad_input_exits_2(self, tmp_path, capsys):
        argv = ["verify", "--json", "--epsilon", "-1",
                "--dump-hamiltonian", str(tmp_path / "h.csv")]
        assert _run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: --epsilon: epsilon")

    def test_json_with_a_dumped_hamiltonian_stays_one_document(self, tmp_path, capsys):
        path = tmp_path / "h.csv"
        assert _run(["verify", "--json", "--dump-hamiltonian", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True
        assert len(path.read_text(encoding="utf-8").splitlines()) == 36

    def test_generator_is_made_before_any_suite_is_timed(self, monkeypatch):
        # the first np.random call of a process imports numpy.random, which
        # no suite's elapsed_s may include
        events = []
        default_rng, timed = np.random.default_rng, verify._timed
        monkeypatch.setattr(np.random, "default_rng",
                            lambda *args: events.append("rng") or default_rng(*args))
        monkeypatch.setattr(verify, "_timed",
                            lambda *args, **kwargs: events.append("suite")
                            or timed(*args, **kwargs))
        results = verify.run_all()
        assert all(r.passed for r in results)
        assert events == ["rng"] + ["suite"] * 9

    def test_haar_products_are_the_pair_by_pair_draws(self):
        # one draw and one stacked QR give the bytes of the loop that drew
        # each 2x2 unitary alone, over two evolutions of one generator
        def haar(rng):
            z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            q, r = np.linalg.qr(z)
            return q * (np.diag(r) / np.abs(np.diag(r)))

        loop, batched = np.random.default_rng(20260823), np.random.default_rng(20260823)
        for _ in range(2):
            expected = np.stack([np.kron(haar(loop), haar(loop)) for _ in range(20)])
            found = verify._haar_products(batched, 20)
            assert found.shape == (20, 4, 4)
            assert found.tobytes() == expected.tobytes()
            assert np.max(np.abs(found @ found.conj().swapaxes(-1, -2) - np.eye(4))) < 1e-14

    def test_energies_match_the_full_sum(self):
        # the energy suite sums over the entries nonzero somewhere in each
        # evolution; the bytes are those of the sum over all 36 entries
        models = [ModelParams(epsilon=eps) for eps in verify._EPSILONS]
        rows = list(verify._evolutions(models))
        assert len(rows) == 30
        for _, params, psis in rows:
            H = params.hamiltonian
            assert np.count_nonzero(np.any(psis, axis=0)) < psis.shape[1]
            full = np.real(np.einsum("ti,ij,tj->t", psis.conj(), H, psis))
            assert verify._energies(H, psis).tobytes() == full.tobytes()

    def test_dump_hamiltonian(self, tmp_path, capsys):
        path = tmp_path / "H.csv"
        assert _run(["verify", "--dump-hamiltonian", str(path),
                     "--epsilon", "2.0"]) == 0
        rows = path.read_text().splitlines()
        assert len(rows) == 36
        assert all(len(r.split(",")) == 36 for r in rows)


@pytest.mark.parametrize("suite,raised", [
    ("conservation", None), ("unitarity", None), ("energy_conservation", None),
    ("sector_confinement", None), ("fidelity", None),
    ("density_matrix", "Eigenvalues did not converge"),
    ("trace_agreement", "state norm nan"), ("local_unitary_invariance", "state norm nan"),
])
def test_a_nan_residual_fails_its_suite(suite, raised):
    # max(worst, nan) is worst, so a suite that reduced its cases that way
    # passed a NaN; each suite reports the NaN and fails, or raises where a
    # kernel it runs rejects the NaN state first
    models = [ModelParams(epsilon=eps) for eps in verify._EPSILONS]
    at_pi_8 = [e for e in verify._evolutions(models) if e[0].alpha == math.pi / 8]
    for *_, psis in at_pi_8:
        # rows 10 and 13: density_matrix reads every tenth row, and
        # local_unitary_invariance row 13 of the epsilon = 2 evolutions
        psis[[10, 13]] = complex(np.nan, np.nan)
    corrupt = ModelParams()
    H = corrupt.hamiltonian.copy()
    H[0, 1] = np.nan   # the entry --inject-fault corrupts, between two sectors
    vars(corrupt)["hamiltonian"] = H   # the slot the cached property reads
    args = {"conservation": ([corrupt],),
            "local_unitary_invariance": (at_pi_8, np.random.default_rng(20260823))
            }.get(suite, (at_pi_8,))
    run = getattr(verify, f"suite_{suite}")
    if raised:
        with pytest.raises(ValueError, match=raised):
            run(*args)
    else:
        result = run(*args)
        assert math.isnan(result.max_residual) and not result.passed
        assert result.line() == f"{suite},nan,{result.threshold:.1e},FAIL"


def _nan_row_10(monkeypatch):
    """Row 10 of every evolution that ``verify`` propagates set to NaN."""
    evolve_grid = propagator.evolve_grid

    def corrupted(psi0, decomposition, T):
        psis = evolve_grid(psi0, decomposition, T)
        psis[10] = np.nan
        return psis
    monkeypatch.setattr(propagator, "evolve_grid", corrupted)


#: the messages of the two suites whose kernels reject a NaN state
_NAN_ERRORS = {"trace_agreement": "state norm nan differs from 1",
               "density_matrix": "Eigenvalues did not converge"}


class TestVerifyRunsEverySuite:
    """A suite stopped by an error is a failed NaN row, and the rest still run."""

    def test_plain_lines(self, capsys, monkeypatch):
        _nan_row_10(monkeypatch)
        assert _run(["verify"]) == 1
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert [line.split(",")[0] for line in lines] == [
            "hermiticity", "conservation", "unitarity", "energy_conservation",
            "sector_confinement", "fidelity", "trace_agreement", "density_matrix",
            "local_unitary_invariance"]
        assert "trace_agreement,nan,1.0e-09,FAIL" in lines
        assert "density_matrix,nan,1.0e-10,FAIL" in lines
        assert lines[-1].startswith("local_unitary_invariance,") and lines[-1].endswith(",PASS")
        assert captured.err.splitlines() == [f"error: {name}: {message}"
                                             for name, message in _NAN_ERRORS.items()]

    def test_strict_json(self, capsys, monkeypatch):
        _nan_row_10(monkeypatch)
        assert _run(["verify", "--json"]) == 1
        captured = capsys.readouterr()

        def refuse(token):
            raise AssertionError(f"{token} is not JSON")
        document = json.loads(captured.out, parse_constant=refuse)
        assert document["passed"] is False and document["errors"] == _NAN_ERRORS
        residuals = {s["name"]: s["residual"] for s in document["suites"]}
        assert residuals["trace_agreement"] is None and residuals["unitarity"] is None
        assert residuals["hermiticity"] == 0.0 and captured.err == ""

    def test_passing_run_has_no_errors(self, capsys):
        assert _run(["verify", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["errors"] == {}


#: number text as a user might type it: plain, huge, non-finite, negative
_NUMBER_TEXT = st.one_of(
    st.sampled_from(["0", "-0", "-0.0", "0.5", "3", "1e10", "1e200", "1e300", "1e308",
                     "inf", "-inf", "nan", "-1"]),
    st.floats(min_value=0.0, max_value=1e308).map(repr),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
#: `N*pi/D` as a user might type it, D = 0 and 0.0 included
_PI_TEXT = st.builds("{}*pi/{}".format,
                     st.sampled_from(["0", "1", "3", "0.5", "2.0"]) | st.integers(0, 99).map(str),
                     st.sampled_from(["0", "0.0", "00", "8", "16", "2.5"])
                     | st.integers(0, 99).map(str))
_ANGLE_TEXT = st.one_of(st.sampled_from(["0", "pi/24", "pi/8", "pi/6", "pi/4", "pi/2",
                                         "pi/0", "pi/0.0", "0*pi/0"]),
                        _PI_TEXT, _NUMBER_TEXT)
_LIST_TEXT = lambda items: st.lists(items, min_size=1, max_size=2).map(",".join)
#: point counts: small, or above the cap, which fails before any allocation
_POINTS = st.one_of(st.integers(0, 50), st.integers(MAX_N_POINTS + 1, 10**18))


def _finite_output_or_exit_2(argv, out: Path):
    """Either every CSV value written is finite and the exit status is 0, or
    nothing but an `error:` line explains exit status 2; returns the status."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code == 2:
        assert err.getvalue().startswith("error:")
        return code
    assert code == 0
    assert not [p.name for p in out.iterdir() if "alpham" in p.name or "epsm" in p.name]
    for path in out.glob("*.csv"):
        lines = path.read_text(encoding="utf-8").splitlines()[1:]
        values = [float(v) for line in lines for v in line.split(",")]
        assert np.all(np.isfinite(values)), path.name
    return code


def _oracle_argv(tmp_path, family, epsilon, tmax):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"family = {family}\nalpha = pi/8\nepsilon = {epsilon}\n"
                   f"T_max = {tmax}\nn_points = 50\npath = ORACLE\n")
    command = "fig1" if family == "PSI" else "fig2"
    return [command, "--config", str(cfg), "--out", str(tmp_path / "o")]


class TestAnyInputGivesFiniteOutputOrExit2:
    # overflowing phases (epsilon * T beyond 1.8e308, or epsilon**2 beyond
    # it) used to write `nan` rows and exit 0
    @pytest.mark.parametrize("family,alpha,epsilon,tmax", [
        ("PSI", "pi/4", "1e200", "10"),
        ("PHI", "pi/8", "1e10", "1e300"),
        ("PSI", "pi/8", "3", "1e308"),
    ])
    def test_overflow_exits_2(self, tmp_path, capsys, family, alpha, epsilon, tmax):
        assert _run(["sweep", "--family", family, "--alpha", alpha, "--epsilon", epsilon,
                     "--tmax", tmax, "--points", "10", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not finite" in err
        assert f"epsilon = {float(epsilon):.15g}" in err and "T = " in err

    # with path ORACLE, epsilon = 1e200 overflowed ||H||_F so Jacobi ran no
    # rotation and wrong C was written with exit 0, and T_max = 1e308 ended
    # in `SVD did not converge` after RuntimeWarnings from the propagator.
    # At epsilon = 0 the PSI phases stay finite up to T = 1e308 and only the
    # phases of sectors PSI does not occupy overflow; they still end the run
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("family", ["PSI", "PHI"])
    @pytest.mark.parametrize("epsilon,tmax,message", [
        ("1e200", "10", "norm of H is not finite"),
        ("2", "1e308", "concurrence trace is not finite at alpha = 0.392699081698724, "
                       "epsilon = 2, T = "),
        ("0", "1e308", "error: concurrence trace is not finite at alpha = 0.392699081698724, "
                       "epsilon = 0, T = 3.06122448979592e+307: epsilon or T is too large "
                       "for double precision\n"),
    ], ids=["epsilon-1e200", "T_max-1e308", "unoccupied-T_max-1e308"])
    def test_oracle_overflow_exits_2(self, tmp_path, capsys, family, epsilon, tmax, message):
        assert _run(_oracle_argv(tmp_path, family, epsilon, tmax)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_huge_tmax_writes_no_warning(self, tmp_path, capsys):
        # a bisection bracket wider than about 1.8e298 overflowed the quotient
        # that sets its walk depth, and numpy's RuntimeWarning reached stderr
        argv = ["sweep", "--family", "PHI", "--alpha", "0.3", "--epsilon", "2",
                "--tmax", "1e300", "--points", "50", "--out", str(tmp_path / "o")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert _run(argv) == 0
        assert [str(w.message) for w in caught] == []
        assert "Warning" not in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("family", ["PSI", "PHI"])
    def test_oracle_largest_epsilon_runs(self, tmp_path, family):
        # ||H||_F stays finite at epsilon = 1e153
        argv = _oracle_argv(tmp_path, family, "1e153", "10")
        assert _finite_output_or_exit_2(argv, tmp_path / "o") == 0

    @settings(max_examples=80, deadline=None)
    @given(family=st.sampled_from(["PSI", "PHI"]), alpha=_LIST_TEXT(_ANGLE_TEXT),
           epsilon=_LIST_TEXT(_NUMBER_TEXT), tmax=_NUMBER_TEXT, points=_POINTS)
    def test_sweep(self, family, alpha, epsilon, tmax, points):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "o"
            code = _finite_output_or_exit_2(
                ["sweep", f"--family={family}", f"--alpha={alpha}", f"--epsilon={epsilon}",
                 f"--tmax={tmax}", f"--points={points}", f"--out={out}"], out)
            assert code == 2 or points <= MAX_N_POINTS

    @settings(max_examples=80, deadline=None)
    @given(family=st.sampled_from(["PSI", "PHI"]), alpha=_LIST_TEXT(_ANGLE_TEXT),
           epsilon=_LIST_TEXT(_NUMBER_TEXT), tmax=_NUMBER_TEXT, points=_POINTS,
           path=st.sampled_from(["ANALYTIC", "ORACLE", "BOTH"]),
           threshold=st.one_of(st.just("1e-9"), _NUMBER_TEXT))
    def test_config(self, family, alpha, epsilon, tmax, points, path, threshold):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "o"
            cfg = Path(tmp) / "cfg.txt"
            cfg.write_text(f"family = {family}\nalpha = {alpha}\nepsilon = {epsilon}\n"
                           f"T_max = {tmax}\nn_points = {points}\npath = {path}\n"
                           f"zero_threshold = {threshold}\n", encoding="utf-8")
            command = "fig1" if family == "PSI" else "fig2"
            code = _finite_output_or_exit_2([command, "--config", str(cfg), "--out", str(out)],
                                            out)
            assert code == 2 or points <= MAX_N_POINTS
