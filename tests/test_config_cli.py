import contextlib
import io
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tcm_entangle import cli, figures
from tcm_entangle.config import ConfigError, RunConfig, parse_angle, parse_config
from tcm_entangle.model import Family


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
        assert cfg.path == "BOTH" and cfg.output_dir == "results"
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
    ])
    def test_errors_carry_line_numbers(self, text, fragment):
        with pytest.raises(ConfigError, match=fragment):
            parse_config(text)

    @pytest.mark.parametrize("kwargs", [
        dict(n_points=1), dict(T_max=0.0), dict(path="SIDEWAYS"),
        dict(alpha_list=(2.0,)), dict(epsilon_list=(-1.0,)),
        dict(zero_threshold=0.0),
        dict(T_max=math.nan), dict(T_max=math.inf), dict(zero_threshold=math.nan),
        dict(epsilon_list=(math.inf,)), dict(epsilon_list=(0.0, math.nan)),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            RunConfig(**kwargs)


def _read_csv(path: Path):
    """Parse one of the emitted CSVs back into (header, columns of floats)."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, [data[:, j] for j in range(data.shape[1])]


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


def _run(argv):
    return cli.main(argv)


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

    def test_dump_hamiltonian(self, tmp_path, capsys):
        path = tmp_path / "H.csv"
        assert _run(["verify", "--dump-hamiltonian", str(path),
                     "--epsilon", "2.0"]) == 0
        rows = path.read_text().splitlines()
        assert len(rows) == 36
        assert all(len(r.split(",")) == 36 for r in rows)


#: number text as a user might type it: plain, huge, non-finite, negative
_NUMBER_TEXT = st.one_of(
    st.sampled_from(["0", "0.5", "3", "1e10", "1e200", "1e300", "1e308",
                     "inf", "-inf", "nan", "-1"]),
    st.floats(min_value=0.0, max_value=1e308).map(repr),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
_ANGLE_TEXT = st.one_of(st.sampled_from(["0", "pi/24", "pi/8", "pi/6", "pi/4", "pi/2"]),
                        _NUMBER_TEXT)
_LIST_TEXT = lambda items: st.lists(items, min_size=1, max_size=2).map(",".join)


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
    # in `SVD did not converge` after RuntimeWarnings from the propagator
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("family", ["PSI", "PHI"])
    @pytest.mark.parametrize("epsilon,tmax,message", [
        ("1e200", "10", "norm of H is not finite"),
        ("2", "1e308", "concurrence trace is not finite at alpha = 0.392699081698724, "
                       "epsilon = 2, T = "),
    ], ids=["epsilon-1e200", "T_max-1e308"])
    def test_oracle_overflow_exits_2(self, tmp_path, capsys, family, epsilon, tmax, message):
        assert _run(_oracle_argv(tmp_path, family, epsilon, tmax)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("family", ["PSI", "PHI"])
    def test_oracle_largest_epsilon_runs(self, tmp_path, family):
        # ||H||_F stays finite at epsilon = 1e153
        argv = _oracle_argv(tmp_path, family, "1e153", "10")
        assert _finite_output_or_exit_2(argv, tmp_path / "o") == 0

    @settings(max_examples=80, deadline=None)
    @given(family=st.sampled_from(["PSI", "PHI"]), alpha=_LIST_TEXT(_ANGLE_TEXT),
           epsilon=_LIST_TEXT(_NUMBER_TEXT), tmax=_NUMBER_TEXT, points=st.integers(0, 50))
    def test_sweep(self, family, alpha, epsilon, tmax, points):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "o"
            _finite_output_or_exit_2(
                ["sweep", f"--family={family}", f"--alpha={alpha}", f"--epsilon={epsilon}",
                 f"--tmax={tmax}", f"--points={points}", f"--out={out}"], out)

    @settings(max_examples=80, deadline=None)
    @given(family=st.sampled_from(["PSI", "PHI"]), alpha=_LIST_TEXT(_ANGLE_TEXT),
           epsilon=_LIST_TEXT(_NUMBER_TEXT), tmax=_NUMBER_TEXT, points=st.integers(0, 50),
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
            _finite_output_or_exit_2([command, "--config", str(cfg), "--out", str(out)], out)
