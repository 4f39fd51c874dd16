"""Command-line interface: flags, config files, exit codes, output."""

import pathlib
import re
import shutil
import subprocess

import pytest

import gradedload.cli as cli
import gradedload.driver as driver
from gradedload import ConfigError, RealnessError, RunConfig
from gradedload.cli import main, parse_config_file
from gradedload.system import MAX_CELLS


def test_single_case_report(capsys):
    assert main(["--n", "25"]) == 0
    out = capsys.readouterr().out
    assert "determinant: delta_plus=" in out
    assert "point xi=-1 y=0" in out


def test_supersonic_exit_code(capsys):
    assert main(["--speed-ratio", "1.2"]) == 2
    err = capsys.readouterr().err
    assert "SubsonicViolation" in err


def test_slow_load_exit_codes(capsys):
    # r rounds below 1 at V/c_s = 1e-6 and the case still solves; below
    # about 1e-151, (c_d/V)**2 leaves the float range and the config is refused
    assert main(["--n", "25", "--speed-ratio", "1e-6"]) == 0
    assert "l=0 " in capsys.readouterr().out
    for speed in ("1e-154", "1e-160", "1e-300"):
        assert main(["--n", "25", "--speed-ratio", speed]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"ConfigError: speed_ratio = {speed} is too slow")
    # a sweep's range passes the config's gates, but a value too slow for
    # the solve ends the sweep the same way, with no CSV
    argv = ["--n", "25", "--sweep", "speed", "--sweep-range", "1e-200:0.3:0.2",
            "--xi", "-1", "--y", "0"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ConfigError: speed_ratio = 1e-200 is too slow")


def test_bad_sweep_range(capsys, monkeypatch):
    # refused while the config is built; the sweep itself, which has no
    # grid count for a NaN bound, must not be reached
    monkeypatch.setattr(cli, "run_sweep", lambda rc: pytest.fail("sweep reached"))
    assert main(["--sweep", "nu", "--sweep-range", "a:b:c"]) == 2
    assert "sweep range" in capsys.readouterr().err
    assert main(["--sweep", "nu", "--sweep-range", "0.1:nan:0.1"]) == 2
    assert "ConfigError: sweep range must be finite" in capsys.readouterr().err
    assert main(["--sweep", "nu", "--sweep-range", "0.1:0.5"]) == 2
    assert "ConfigError: sweep range must be A:B:STEP, got '0.1:0.5'" in capsys.readouterr().err


def test_oversized_sweep_refused(capsys, monkeypatch):
    # a finite but tiny step would build its whole grid before any solve
    monkeypatch.setattr(cli, "run_sweep", lambda rc: pytest.fail("sweep reached"))
    assert main(["--sweep", "nu", "--sweep-range", "0.1:0.5:1e-12"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ConfigError: sweep range") and "cap of 10000" in err


def test_non_finite_query_point_exit_code(capsys, monkeypatch):
    # a single case and a sweep both refuse the point by name while the
    # config is built, before any solve; a sweep, which evaluates only its
    # first point, refuses a bad later point too
    monkeypatch.setattr(driver, "solve_system", lambda *args, **kw: pytest.fail("solve reached"))
    assert main(["--n", "1600", "--xi", "nan"]) == 2
    assert "ConfigError: query coordinate xi must be finite, got nan" in capsys.readouterr().err
    assert main(["--n", "1600", "--y", "inf"]) == 2
    assert "ConfigError: query coordinate y must be finite, got inf" in capsys.readouterr().err
    sweep = ["--n", "25", "--sweep", "nu", "--sweep-range", "0.1:0.3:0.1"]
    for points in (["--xi", "nan"], ["--xi", "-1", "--xi", "nan", "--y", "0"]):
        assert main(sweep + points) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "ConfigError: query coordinate xi must be finite, got nan" in captured.err


def test_sweep_gap_point_refused_before_solve(capsys, monkeypatch):
    # a sweep evaluates only its first point; one between the expansion
    # ranges is refused while the config is built, where a single case
    # reports it out-of-range
    monkeypatch.setattr(
        driver, "solve_system", lambda *args, **kw: pytest.fail("solve reached")
    )
    argv = ["--n", "1600", "--sweep", "nu", "--sweep-range", "0.1:0.3:0.1",
            "--xi", "-1", "--y", "1.5"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "ExpansionRangeError: eta = 1.500 falls between the near range (<= 1.0) "
        "and the deep range (>= 2.0)\n"
    )


def _exit_code(argv):
    # argparse exits by itself on a flag value that its type refuses
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_cell_count_refused_before_solve(tmp_path, capsys, monkeypatch):
    # as a flag or a config key, a size that is no integer in [2, MAX_CELLS]
    # exits 2 before any solve
    monkeypatch.setattr(driver, "solve_system", lambda *args, **kw: pytest.fail("solve reached"))
    cfg = tmp_path / "run.cfg"
    for n in ("1" + "0" * 5000, str(2**62), str(MAX_CELLS + 1), "abc", "-5"):
        assert _exit_code([f"--n={n}"]) == 2
        cfg.write_text(f"n={n}\n")
        assert main(["--config", str(cfg)]) == 2
        assert "ConfigError" in capsys.readouterr().err
    # an integer that parses reaches the rule, which names the range and n
    for n in (2**62, MAX_CELLS + 1, -5):
        assert main([f"--n={n}"]) == 2
        assert capsys.readouterr().err == (
            f"ConfigError: number of cells must lie in [2, {MAX_CELLS}], got n = {n}\n"
        )


def test_sweep_inputs_without_sweep_refused(tmp_path, capsys, monkeypatch):
    # a sweep range and --out apply to sweeps only; without --sweep each is
    # refused by name before any solve, as a flag or a config key, and no
    # file is written
    monkeypatch.setattr(driver, "solve_system", lambda *args, **kw: pytest.fail("solve reached"))
    path = tmp_path / "x.csv"
    cfg = tmp_path / "run.cfg"
    for argv, text, message in (
        (["--sweep-range", "0.1:0.5:0.1", "--out", str(path)],
         f"out={path}\nsweep_range=0.1:0.5:0.1\n", "sweep_range given without a sweep axis"),
        (["--out", str(path)], f"out={path}\n", "out given without a sweep"),
    ):
        cfg.write_text(text)
        for args in (argv, ["--config", str(cfg)]):
            assert main(args) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"ConfigError: {message}")
    assert not path.exists()


def test_unrepresentable_point_exit_code(capsys):
    # a field that leaves the float range near the load is a typed error
    # (exit 2, like the load point itself), not a traceback or an inf
    for args, dist in (
        (["--nu", "0.9", "--xi=-1e-300", "--y", "0"], "1.000e-300"),
        (["--xi=-1e-300", "--y", "1e-299"], "1.000e-300"),
        (["--nu", "0.9", "--h1", "-1000", "--h2", "-1000", "--xi=-1e-162", "--y", "0"],
         "1.000e-162"),
    ):
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"SingularPointError: fields at |xi - xi0| = {dist}")
        assert "inf" not in captured.out
    # an eta that overflows is refused with the config, before any solve
    assert main(["--xi=-1e-300", "--y", "1e300"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("SingularPointError: eta at |xi - xi0| = 1.000e-300")


def test_overflowing_load_exit_code(capsys):
    # loads near the float limit overflow the expansion coefficients; the
    # case is refused by its loads (exit 2) whatever the query point, with
    # no NaN field printed and no numpy warning
    for points in ([], ["--xi", "-1", "--y", "0.3"]):
        for h in ("1e308", "-1e308"):
            assert main([f"--h1={h}", f"--h2={h}", *points]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"ConfigError: loads h1 = {float(h)}, h2 = {float(h)} are too large: "
                "the expansion coefficients are not finite\n"
            )
    # a load a little smaller still solves, with every field finite
    assert main(["--h1", "3e307", "--h2", "3e307", "--xi", "-1", "--y", "0.3"]) == 0
    assert re.search(r"\b(nan|inf)\b", capsys.readouterr().out) is None


def test_underflowing_strip_offset_exit_code(capsys):
    # at nu = 5e-324, sigma = nu/4 underflows to 0, so at x_n = 1 the gamma
    # argument (s - nu)/2 in kernel_g is -0, a pole; from nu = 1e-308 down a
    # gamma product is inf * 0.  The solve's D_a gate refuses the non-finite
    # diagonal, and the typed error is the only output: numpy warns nothing,
    # which the suite's warnings-as-errors would turn into a failure
    for nu in ("1e-307", "1e-308", "1e-310", "5e-324"):
        assert main(["--nu", nu]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("SingularMatrixError: diagonal block D_a: |entry 99| = ")
        assert captured.err.count("\n") == 1


def test_residual_gate_exit_code(capsys):
    # near the incompressible limit the solve keeps a residual of 2e-9 or
    # more, far above the 1e-10 gate: the case is refused (exit 3), not reported, and
    # each sweep row names the error
    assert main(["--nu-p", "0.4999"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "SingularMatrixError: load component m = 1: relative solve residual "
    )
    assert main(["--nu-p", "0.4999", "--sweep", "nu", "--sweep-range", "0.2:0.3:0.1"]) == 3
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[-1] for row in rows] == ["SingularMatrixError"] * 2


def test_build_run_config_keeps_class_defaults():
    assert cli._build_run_config({}) == RunConfig()


def test_gap_point_marked_not_fatal(capsys):
    assert main(["--n", "25", "--xi", "-1", "--y", "1.5"]) == 0
    assert "[out-of-range]" in capsys.readouterr().out


def test_sweep_to_stdout(capsys):
    assert main(["--n", "25", "--sweep", "nu", "--sweep-range", "0.1:0.3:0.1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("sweep_value,u1,u2,")
    assert "\r\n" in out
    assert out.count("\n") == 4  # header + three values


def test_sweep_to_file_deterministic(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    argv = ["--n", "25", "--sweep", "nu", "--sweep-range", "0.1:0.2:0.1",
            "--out", str(path)]
    assert main(argv) == 0
    assert f"wrote 2 rows to {path}" in capsys.readouterr().out
    first = path.read_bytes()
    assert main(argv) == 0
    assert path.read_bytes() == first


def test_sweep_to_unwritable_file(tmp_path, capsys):
    path = tmp_path / "absent" / "sweep.csv"
    argv = ["--n", "25", "--sweep", "nu", "--sweep-range", "0.1:0.2:0.1",
            "--out", str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"ConfigError: cannot write sweep CSV {path}: ")
    assert not path.exists()


# the README's command-line examples at n = 100, and the files holding
# their output as first published; a change that moves the numbers on
# purpose regenerates the files
README_RUNS = (
    (["--nu", "0.3", "--speed-ratio", "0.2", "--n", "100", "--xi", "-1",
      "--y", "0", "--y", "0.3"], "readme_single_case.txt"),
    (["--sweep", "nu", "--sweep-range", "0.1:0.5:0.05", "--n", "100"],
     "readme_sweep_nu.csv"),
    (["--sweep", "speed", "--sweep-range", "0.1:0.9:0.1", "--nu", "0.3"],
     "readme_sweep_speed.csv"),
)


@pytest.mark.parametrize("argv, name", README_RUNS, ids=[name for _, name in README_RUNS])
def test_readme_outputs_unchanged(argv, name, tmp_path, capsysbinary):
    expected = (pathlib.Path(__file__).parent / "data" / name).read_bytes()
    assert main(argv) == 0
    assert capsysbinary.readouterr().out == expected
    if "--sweep" in argv:
        path = tmp_path / name
        assert main(argv + ["--out", str(path)]) == 0
        assert capsysbinary.readouterr().out == f"wrote 9 rows to {path}\n".encode()
        assert path.read_bytes() == expected


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# sample configuration\nnu = 0.3\nn = 25\nspeed-ratio = 0.4\n")
    assert main(["--config", str(cfg), "--nu", "0.2"]) == 0
    out = capsys.readouterr().out
    assert "config: nu=0.2" in out  # flag wins over file
    assert "speed_ratio=0.4" in out
    assert "grid: n=25" in out


def test_config_file_errors(tmp_path):
    missing = tmp_path / "absent.cfg"
    with pytest.raises(ConfigError):
        parse_config_file(str(missing))

    bad_line = tmp_path / "bad.cfg"
    bad_line.write_text("nu\n")
    with pytest.raises(ConfigError):
        parse_config_file(str(bad_line))

    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("viscosity=2\n")
    with pytest.raises(ConfigError):
        parse_config_file(str(unknown))

    bad_value = tmp_path / "value.cfg"
    bad_value.write_text("nu=fast\n")
    with pytest.raises(ConfigError):
        parse_config_file(str(bad_value))


def test_config_file_exit_code(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "absent.cfg")]) == 2
    assert "ConfigError" in capsys.readouterr().err


def test_point_broadcast_and_mismatch(tmp_path, capsys):
    argv = ["--n", "25", "--xi", "-1", "--y", "0", "--y", "0.3", "--y", "0.5"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.count("point xi=-1") == 3
    # a config file gives a list as comma-separated values
    cfg = tmp_path / "points.cfg"
    cfg.write_text("xi = -1, 1\ny = 0.3\nn = 25\n")
    assert parse_config_file(str(cfg)) == {"xi": [-1.0, 1.0], "y": [0.3], "n": 25}
    assert main(["--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "point xi=-1 y=0.3 eta=0.3 [near]" in out
    assert "point xi=1 y=0.3 eta=0.3 [near]" in out

    argv = ["--xi", "-1", "--xi", "-2", "--y", "0", "--y", "0.1", "--y", "0.2"]
    assert main(argv) == 2
    assert "counts differ" in capsys.readouterr().err


def test_numerical_gate_exit_code(monkeypatch, capsys):
    def explode(rc):
        raise RealnessError("synthetic residue breach")

    monkeypatch.setattr(cli, "run_case", explode)
    assert main(["--n", "25"]) == 3
    assert "RealnessError" in capsys.readouterr().err
    # a sweep writes a row per failed value, and exits 3 when every value
    # failed a gate
    argv = ["--n", "25", "--sweep", "nu", "--sweep-range", "0.5:0.7:0.2",
            "--speed-ratio", "0.9", "--nu-p", "0.4", "--xi", "-1", "--y", "0"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    rows = captured.out.splitlines()[1:]
    assert [row.split(",")[-1] for row in rows] == ["RealnessError", "RealnessError"]
    assert captured.err == "every sweep value failed a numerical gate\n"


@pytest.mark.skipif(
    shutil.which("gradedload") is None,
    reason="no gradedload executable on PATH; install with `pip install -e .`",
)
def test_console_script_installed():
    exe = shutil.which("gradedload")
    assert exe is not None
    proc = subprocess.run(
        [exe, "--n", "25"], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0
    assert "determinant:" in proc.stdout
