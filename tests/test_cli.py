"""Command-line interface: flags, config files, exit codes, output."""

import pathlib
import shutil
import subprocess

import pytest

import gradedload.cli as cli
import gradedload.driver as driver
from gradedload import ConfigError, RealnessError, RunConfig
from gradedload.cli import main, parse_config_file


def test_single_case_report(capsys):
    assert main(["--n", "25"]) == 0
    out = capsys.readouterr().out
    assert "determinant: delta_plus=" in out
    assert "point xi=-1 y=0" in out


def test_supersonic_exit_code(capsys):
    assert main(["--speed-ratio", "1.2"]) == 2
    err = capsys.readouterr().err
    assert "SubsonicViolation" in err


def test_bad_sweep_range(capsys, monkeypatch):
    # refused while the config is built; the sweep itself, which has no
    # grid count for a NaN bound, must not be reached
    monkeypatch.setattr(cli, "run_sweep", lambda rc: pytest.fail("sweep reached"))
    assert main(["--sweep", "nu", "--sweep-range", "a:b:c"]) == 2
    assert "sweep range" in capsys.readouterr().err
    assert main(["--sweep", "nu", "--sweep-range", "0.1:nan:0.1"]) == 2
    assert "ConfigError: sweep range must be finite" in capsys.readouterr().err


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
    # ranges is refused while the config is built, as a single case's
    # evaluate_point would refuse it
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


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_underflowing_strip_offset_exit_code(capsys):
    # at nu = 5e-324, sigma = nu/4 underflows to 0, so at x_n = 1 the gamma
    # argument (s - nu)/2 in kernel_g is -0, a pole; the solve's D_a gate
    # refuses the non-finite diagonal
    assert main(["--nu", "5e-324"]) == 3
    assert capsys.readouterr().err.startswith("SingularMatrixError: diagonal block D_a")


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


def test_point_broadcast_and_mismatch(capsys):
    argv = ["--n", "25", "--xi", "-1", "--y", "0", "--y", "0.3", "--y", "0.5"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.count("point xi=-1") == 3

    argv = ["--xi", "-1", "--xi", "-2", "--y", "0", "--y", "0.1", "--y", "0.2"]
    assert main(argv) == 2
    assert "counts differ" in capsys.readouterr().err


def test_numerical_gate_exit_code(monkeypatch, capsys):
    def explode(rc):
        raise RealnessError("synthetic residue breach")

    monkeypatch.setattr(cli, "run_case", explode)
    assert main(["--n", "25"]) == 3
    assert "RealnessError" in capsys.readouterr().err


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
