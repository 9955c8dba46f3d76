"""Command line behavior: routing, overrides and exit codes."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wdmlink
import wdmlink.cli as cli
import wdmlink.experiments as experiments
import wdmlink.numerical as numerical
from wdmlink.config import PARAMETERS
from wdmlink.geometry import replace

from conftest import read_csv_columns


def test_pattern_writes_csv_and_default_svg(tmp_path):
    out = tmp_path / "cut.csv"
    rc = cli.main(["pattern", "--out", str(out), "--step", "5"])
    assert rc == 0
    assert out.exists()
    svg = tmp_path / "cut.svg"
    assert svg.read_text().startswith("<svg")
    cols = read_csv_columns(str(out))
    assert len(cols["theta_deg"]) == 37


def test_no_svg_flag_suppresses_plot(tmp_path):
    out = tmp_path / "cut.csv"
    rc = cli.main(["pattern", "--out", str(out), "--step", "5", "--no-svg"])
    assert rc == 0
    assert not (tmp_path / "cut.svg").exists()


def test_mode_offset_override_selects_columns(tmp_path):
    out = tmp_path / "cut.csv"
    rc = cli.main(
        ["pattern", "--out", str(out), "--step", "10", "--mode-offsets", "0,5"]
    )
    assert rc == 0
    cols = read_csv_columns(str(out))
    assert list(cols) == ["theta_deg", "mode_11", "mode_16", "error"]


def test_sweep_count_override(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = cli.main(["sweep", "--out", str(out), "--count", "2", "--no-svg"])
    assert rc == 0
    cols = read_csv_columns(str(out))
    assert cols["value"] == ["0", "2"]


def test_dump_channel_honors_geometry_flags(tmp_path):
    out = tmp_path / "link.wdmch"
    rc = cli.main(["dump-channel", "--out", str(out), "--dx", "3.0"])
    assert rc == 0
    with np.load(out) as data:
        assert "geometry.d_x = 3.0" in str(data["header"])


@pytest.mark.parametrize(
    "argv, line",
    [
        (["pattern", "--step", "10", "--out", "{d}/p.csv"], "wrote {d}/p.csv and {d}/p.svg"),
        (["pattern", "--step", "10", "--out", "{d}/p.csv", "--no-svg"], "wrote {d}/p.csv"),
        (["field", "--grid-points", "5", "--out", "{d}/f.csv"], "wrote {d}/f.csv and {d}/f.svg"),
        (["field", "--grid-points", "5", "--out", "{d}/f.csv", "--no-svg"], "wrote {d}/f.csv"),
        (["sweep", "--count", "2", "--out", "{d}/s.csv"], "wrote {d}/s.csv: 2 points"),
        # so far out that the power budget rounds away against every mode's
        # 1/chi, and water-filling flags every point
        (["sweep", "--parameter", "d_x", "--start", "1e16", "--stop", "2e16", "--count", "3",
          "--out", "{d}/s.csv"],
         "wrote {d}/s.csv: 3 points, 3 flagged"),
        (["avg-sweep", "--count", "1", "--draws", "1", "--out", "{d}/a.csv", "--no-svg"],
         "wrote {d}/a.csv: 1 points"),
        (["avg-sweep", "--start", "1e16", "--stop", "2e16", "--count", "2", "--draws", "1",
          "--out", "{d}/a.csv"],
         "wrote {d}/a.csv: 2 points, 2 flagged"),
        (["dump-channel", "--out", "{d}/link.wdmch"], "wrote {d}/link.wdmch"),
    ],
)
def test_each_command_reports_one_line(tmp_path, capsys, argv, line):
    d = str(tmp_path)
    assert cli.main([arg.format(d=d) for arg in argv]) == 0
    assert capsys.readouterr().out == line.format(d=d) + "\n"


@pytest.mark.parametrize("command", list(cli._COMMANDS))
@pytest.mark.parametrize(
    "source, message",
    [("file", "n_modes = 21 exceeds the usable maximum 9 for L_s = 0.2 m at wavelength 0.05 m"),
     ("flag", "n_modes = 23 exceeds the usable maximum 21 for L_s = 0.2 m at wavelength 0.02 m")],
    ids=["file", "flag"],
)
def test_mode_count_above_the_maximum_exits_1(tmp_path, capsys, command, source, message):
    # rejected with the configuration, before any command writes a file
    cfg_file = tmp_path / "coarse.cfg"
    cfg_file.write_text("[wdm]\nwavelength = 0.05\n")
    given = ["--config", str(cfg_file)] if source == "file" else ["--n-modes", "23"]
    out = tmp_path / "out.csv"
    assert cli.main([command, "--out", str(out), *given]) == 1
    assert message in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["coarse.cfg"]


def test_zero_source_power_exits_1(tmp_path, capsys):
    cfg_file = tmp_path / "dark.cfg"
    cfg_file.write_text("[wdm]\nsource_power = 0\n")
    rc = cli.main(["sweep", "--count", "2", "--out", str(tmp_path / "s.csv"),
                   "--config", str(cfg_file)])
    assert rc == 1
    assert "source_power must be positive, got 0.0" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--theta", "200"],
         "theta_s must lie in [0, pi] rad, got 3.490658503988659 rad (200 degrees)"),
        (["--phi", "360"],
         "phi_s must lie in [0, 2*pi) rad, got 6.283185307179586 rad (360 degrees)"),
        # the grid's stop, checked with the configuration before any point
        (["--parameter", "theta_s", "--start", "0", "--stop", "190"],
         "theta_s must lie in [0, pi] rad, got 3.3161255787892263 rad (190 degrees)"),
    ],
)
def test_out_of_range_angle_is_reported_in_degrees(tmp_path, capsys, flags, message):
    rc = cli.main(["sweep", "--out", str(tmp_path / "s.csv"), *flags])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_unknown_profile_exits_1(tmp_path, capsys):
    rc = cli.main(["sweep", "--profile", "bogus", "--out", str(tmp_path / "s.csv")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_invalid_sweep_grid_exits_1(tmp_path):
    rc = cli.main(["sweep", "--out", str(tmp_path / "s.csv"), "--count", "-3"])
    assert rc == 1


@pytest.mark.parametrize(
    "flags, key",
    [
        (["--dx", "wide"], "d_x"),
        (["--count", "2.5"], "count"),
        (["--parameter", "L_s"], "parameter"),
        (["--n-modes", "many"], "n_modes"),
    ],
)
def test_malformed_flag_value_exits_1_naming_the_key(tmp_path, capsys, flags, key):
    rc = cli.main(["sweep", "--out", str(tmp_path / "s.csv"), *flags])
    assert rc == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("command", ["sweep", "avg-sweep"])
@pytest.mark.parametrize("source", ["flag", "file"])
def test_negative_seed_exits_1_naming_the_key(tmp_path, capsys, command, source):
    cfg_file = tmp_path / "seed.cfg"
    cfg_file.write_text("[sweep]\nseed = -3\n")
    given = ["--seed", "-3"] if source == "flag" else ["--config", str(cfg_file)]
    rc = cli.main([command, "--out", str(tmp_path / "s.csv"), *given])
    assert rc == 1
    assert "[sweep] seed" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_empty_mode_offsets_flag_exits_1(tmp_path, capsys):
    rc = cli.main(["field", "--out", str(tmp_path / "f.csv"), "--mode-offsets="])
    assert rc == 1
    assert "mode_offsets" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, key, raw",
    [("quadrature", "max_panels", "4096"), ("quadrature", "rel_tol", "1e-6"),
     ("wdm", "mmse_form", "table"), ("quadrature", "points_per_wavelength", "4"),
     ("quadrature", "nodes_per_panel", "16")],
)
def test_fixed_quadrature_settings_are_unknown_keys(tmp_path, capsys, section, key, raw):
    # the panel cap and selfcheck's tolerance change no result, every run
    # uses the one converged rule and MMSE has one filter, so no config
    # file sets them
    cfg_file = tmp_path / "fixed.cfg"
    cfg_file.write_text(f"[{section}]\n{key} = {raw}\n")
    rc = cli.main(["sweep", "--out", str(tmp_path / "s.csv"), "--config", str(cfg_file)])
    assert rc == 1
    assert f"unknown key [{section}] {key}" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("command", ["avg-sweep", "selfcheck"])
def test_quadrature_rule_from_a_file_exits_1(tmp_path, capsys, command):
    # a coarser rule would print unconverged digits with exit 0
    cfg_file = tmp_path / "coarse.cfg"
    cfg_file.write_text("[quadrature]\npoints_per_wavelength = 2\nnodes_per_panel = 4\n")
    rc = cli.main([command, "--out", str(tmp_path / "s.csv"), "--config", str(cfg_file)])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert ("unknown key [quadrature] points_per_wavelength; "
            "unknown key [quadrature] nodes_per_panel") in err
    assert os.listdir(tmp_path) == ["coarse.cfg"]


_GRIDS = {
    "sweep": {"parameter": "theta_s", "start": "-30", "stop": "30", "count": "3"},
    "avg-sweep": {"start": "-1", "stop": "3", "count": "3"},
}


@pytest.mark.parametrize(
    "command, message",
    [("sweep", "[sweep] start: theta_s must lie in [0, pi] rad, got -0.5235987755982988 rad "
               "(-30 degrees)"),
     ("avg-sweep", "[sweep] start: d_x must be positive, got -1.0")],
)
@pytest.mark.parametrize("source", ["file", "flags"])
def test_grid_end_outside_its_range_names_the_key(tmp_path, capsys, command, message, source):
    grid = _GRIDS[command]
    if source == "file":
        cfg_file = tmp_path / "grid.cfg"
        cfg_file.write_text("[sweep]\n" + "".join(f"{k} = {v}\n" for k, v in grid.items()))
        given = ["--config", str(cfg_file)]
        prefix = f"invalid config file {cfg_file} with the command line: "
    else:
        given = [f"--{k}={v}" for k, v in grid.items()]
        prefix = "invalid command line: "
    rc = cli.main([command, "--out", str(tmp_path / "s.csv"), *given])
    assert rc == 1
    assert prefix + message in capsys.readouterr().err
    assert os.listdir(tmp_path) == (["grid.cfg"] if source == "file" else [])


@pytest.mark.parametrize("command", ["pattern", "field", "dump-channel", "selfcheck"])
def test_grid_end_outside_its_range_fails_every_command(tmp_path, capsys, command):
    # the [sweep] section is checked with the rest of the configuration
    cfg_file = tmp_path / "grid.cfg"
    cfg_file.write_text("[sweep]\nparameter = theta_s\nstart = -30\nstop = 30\ncount = 3\n")
    rc = cli.main([command, "--out", str(tmp_path / "out"), "--config", str(cfg_file)])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == "" and "[sweep] start: theta_s must lie in [0, pi]" in err
    assert os.listdir(tmp_path) == ["grid.cfg"]


@pytest.mark.parametrize(
    "key, raw",
    [("sigma2_hdw", "nan"), ("sigma2_hdw", "inf"), ("snr_emi_db", "nan"),
     ("snr_emi_db", "-inf"), ("snr_emi_db", "-4000"), ("snr_emi_db", "4000")],
)
def test_noise_setting_out_of_range_exits_1(tmp_path, capsys, key, raw):
    cfg_file = tmp_path / "noise.cfg"
    cfg_file.write_text(f"[wdm]\n{key} = {raw}\n")
    rc = cli.main(["sweep", "--count", "2", "--out", str(tmp_path / "s.csv"), "--no-svg",
                   "--config", str(cfg_file)])
    assert rc == 1
    assert "invalid config file" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_percent_in_a_config_value_is_a_character(tmp_path):
    cfg_file = tmp_path / "percent.cfg"
    cfg_file.write_text(f"[output]\ncsv = {tmp_path / 'out%.csv'}\n")
    rc = cli.main(["sweep", "--count", "2", "--no-svg", "--config", str(cfg_file)])
    assert rc == 0
    assert (tmp_path / "out%.csv").exists()


def test_unknown_flag_exits_1(tmp_path, capsys):
    rc = cli.main(["sweep", "--out", str(tmp_path / "s.csv"), "--bogus", "1"])
    assert rc == 1
    assert "--bogus" in capsys.readouterr().err


def test_numerical_failure_exits_2(tmp_path, monkeypatch, capsys):
    def blow_up(cfg, csv_path, svg_path=None):
        raise np.linalg.LinAlgError("factorization failed")

    monkeypatch.setattr(experiments, "run_sweep", blow_up)
    rc = cli.main(["sweep", "--out", str(tmp_path / "s.csv"), "--no-svg"])
    assert rc == 2
    assert "numerical failure" in capsys.readouterr().err


def test_io_failure_exits_3(tmp_path, capsys):
    missing = tmp_path / "no_such_dir" / "cut.csv"
    rc = cli.main(["pattern", "--out", str(missing), "--step", "10", "--no-svg"])
    assert rc == 3
    assert "i/o failure" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["1", "2"])
def test_failed_cache_write_exits_3(tmp_path, capsys, workers):
    # a point whose SE was computed but cannot be stored is an i/o failure
    # of the run, not a flagged row
    argv = ["sweep", "--count", "2", "--cache-dir", str(tmp_path / "cache"),
            "--workers", workers, "--out", str(tmp_path / "s.csv"), "--no-svg"]
    cfg = cli._resolve_config(cli._build_parser().parse_args(argv))
    geom = replace(cfg.geometry, d_z=cfg.sweep.values()[0])
    os.makedirs(experiments._entry_path(cfg.output.cache_dir, geom, cfg.wdm))
    assert cli.main(argv) == 3
    assert "i/o failure" in capsys.readouterr().err


def test_worker_dying_without_a_result_exits_2(tmp_path, monkeypatch, capsys):
    # a child that ends without sending its slice (here a bare os._exit,
    # as a signal would) fails the run; no CSV is written and no child
    # is left running or unreaped
    parent, real = os.getpid(), numerical.evaluate_points
    argv = ["sweep", "--count", "4", "--workers", "2", "--out", str(tmp_path / "s.csv"),
            "--no-svg"]
    second = cli._resolve_config(cli._build_parser().parse_args(argv)).sweep.values()[1]

    def dies(wdm, geoms):
        if os.getpid() != parent and geoms[0].d_z == second:
            os._exit(7)
        return real(wdm, geoms)

    monkeypatch.setattr(numerical, "evaluate_points", dies)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err and "ended without a result" in err
    assert not (tmp_path / "s.csv").exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_selfcheck_reports_through_exit_code(monkeypatch):
    monkeypatch.setattr(numerical, "run_selfcheck", lambda cfg: True)
    assert cli.main(["selfcheck"]) == 0
    monkeypatch.setattr(numerical, "run_selfcheck", lambda cfg: False)
    assert cli.main(["selfcheck"]) == 2


def _readme_commands():
    """Arguments of every ``wdmlink`` command in the README's sh blocks."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", readme.read_text(encoding="utf-8"), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["wdmlink"]:
                commands.append(words[1:])
    return commands


def test_readme_shows_every_command():
    assert sorted(argv[0] for argv in _readme_commands()) == sorted(cli._COMMANDS)


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: argv[0])
def test_readme_command_parses_and_resolves(argv):
    cli._resolve_config(cli._build_parser().parse_args(argv))


# A valid raw value for every table entry that has a flag.
FLAG_SAMPLES = {
    ("geometry", "d_x"): "3.5",
    ("geometry", "d_z"): "0.25",
    ("geometry", "theta_s"): "12.5",
    ("geometry", "phi_s"): "40",
    ("wdm", "n_modes"): "9",
    ("sweep", "parameter"): "theta_s",
    ("sweep", "start"): "0.5",
    ("sweep", "stop"): "1.5",
    ("sweep", "count"): "3",
    ("sweep", "seed"): "7",
    ("sweep", "draws_per_phi"): "3",
    ("field", "mode_offsets"): "-1,0,2",
    ("field", "grid_points"): "11",
    ("pattern", "mode_offsets"): "-3,1",
    ("pattern", "step_deg"): "2",
    ("output", "csv"): "x.csv",
    ("output", "svg"): "x.svg",
    ("output", "cache_dir"): "cache",
    ("output", "workers"): "2",
}


def _first_command_setting(parser, param, raw):
    """(command, parsed args) of the first subcommand whose flag sets ``param``."""
    for command in cli._COMMANDS:
        args, _ = parser.parse_known_args([command, f"{param.flag}={raw}"])
        if getattr(args, f"{param.section}.{param.key}", None) == raw:
            return command, args
    raise AssertionError(f"no subcommand sets [{param.section}] {param.key}")


def test_each_flag_equals_its_config_key(tmp_path):
    parser = cli._build_parser()
    flagged = [p for p in PARAMETERS if p.flag]
    assert {(p.section, p.key) for p in flagged} == set(FLAG_SAMPLES)
    for param in flagged:
        raw = FLAG_SAMPLES[(param.section, param.key)]
        command, args = _first_command_setting(parser, param, raw)
        cfg_file = tmp_path / "one.cfg"
        cfg_file.write_text(f"[{param.section}]\n{param.key} = {raw}\n")
        from_file = cli._resolve_config(
            parser.parse_args([command, "--config", str(cfg_file)])
        )
        assert cli._resolve_config(args) == from_file, param.flag


def _resolved_range(*argv):
    cfg = cli._resolve_config(cli._build_parser().parse_args(list(argv)))
    return cfg.sweep.parameter, cfg.sweep.start, cfg.sweep.stop


def test_avg_sweep_keeps_the_config_file_range(tmp_path):
    cfg_file = tmp_path / "range.cfg"
    cfg_file.write_text("[sweep]\nparameter = theta_s\nstart = 2\nstop = 9\n")
    assert _resolved_range("avg-sweep", "--config", str(cfg_file)) == ("d_x", 2.0, 9.0)


@pytest.mark.parametrize(
    "argv, expected",
    [
        ((), ("d_x", 5.0, 15.0)),
        (("--stop", "9"), ("d_x", 5.0, 9.0)),
        (("--start", "1", "--stop", "4"), ("d_x", 1.0, 4.0)),
        (("--profile", "full", "--start", "3"), ("d_x", 3.0, 5.0)),
    ],
)
def test_avg_sweep_default_range_without_config(argv, expected):
    assert _resolved_range("avg-sweep", *argv) == expected


def test_avg_sweep_stop_from_file_equals_stop_flag(tmp_path):
    cfg_file = tmp_path / "stop.cfg"
    cfg_file.write_text("[sweep]\nstop = 9\n")
    assert _resolved_range("avg-sweep", "--config", str(cfg_file)) == _resolved_range(
        "avg-sweep", "--stop", "9"
    )


def test_sweep_over_d_x_defaults_to_the_lateral_range(tmp_path, capsys):
    # the profiles sweep d_z from 0; a d_x grid from 0 would fail at once
    out = tmp_path / "sweep.csv"
    rc = cli.main(["sweep", "--parameter", "d_x", "--count", "3", "--out", str(out), "--no-svg"])
    assert rc == 0, capsys.readouterr().err
    cols = read_csv_columns(str(out))
    assert cols["value"] == ["5", "10", "15"] and cols["error"] == ["", "", ""]
    assert _resolved_range("sweep", "--parameter", "d_x", "--stop", "9") == ("d_x", 5.0, 9.0)


def test_avg_sweep_file_naming_only_d_x_keeps_the_lateral_range(tmp_path, capsys):
    # the same run as without the file, which sweeps d_x over 5..15 m
    cfg_file = tmp_path / "dx.cfg"
    cfg_file.write_text("[sweep]\nparameter = d_x\n")
    out = tmp_path / "avg.csv"
    rc = cli.main(["avg-sweep", "--config", str(cfg_file), "--count", "2", "--draws", "1",
                   "--out", str(out), "--no-svg"])
    assert rc == 0, capsys.readouterr().err
    assert read_csv_columns(str(out))["value"] == ["5", "15"]
    assert _resolved_range("avg-sweep", "--config", str(cfg_file)) == _resolved_range("avg-sweep")


def test_config_file_may_rely_on_its_flags(tmp_path, capsys):
    # the file and the flags are checked once, as one config: start 5 from
    # the file alone would be past the profile's stop of 2
    cfg_file = tmp_path / "start.cfg"
    cfg_file.write_text("[sweep]\nstart = 5\n")
    out = tmp_path / "sweep.csv"
    rc = cli.main(["sweep", "--config", str(cfg_file), "--stop", "15", "--count", "2",
                   "--out", str(out), "--no-svg"])
    assert rc == 0, capsys.readouterr().err
    cols = read_csv_columns(str(out))
    assert cols["value"] == ["5", "15"] and cols["error"] == ["", ""]


def test_wavelength_from_a_file_takes_its_mode_count_from_a_flag(tmp_path, capsys):
    # 0.05 m leaves desk at most 9 modes, fewer than the profile's 21
    cfg_file = tmp_path / "wavelength.cfg"
    cfg_file.write_text("[wdm]\nwavelength = 0.05\n")
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--config", str(cfg_file), "--n-modes", "9", "--count", "2",
            "--out", str(out), "--no-svg"]
    assert cli._resolve_config(cli._build_parser().parse_args(argv)).wdm.n_modes == 9
    assert cli.main(argv) == 0, capsys.readouterr().err
    assert read_csv_columns(str(out))["error"] == ["", ""]


def test_config_file_invalid_with_its_flags_exits_1(tmp_path, capsys):
    cfg_file = tmp_path / "start.cfg"
    cfg_file.write_text("[sweep]\nstart = 5\n")
    out = tmp_path / "sweep.csv"
    rc = cli.main(["sweep", "--config", str(cfg_file), "--stop", "3", "--count", "2",
                   "--out", str(out), "--no-svg"])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"invalid config file {cfg_file} with the command line: sweep needs stop" in err
    assert not out.exists()


def test_malformed_flag_without_a_file_names_the_command_line(tmp_path, capsys):
    rc = cli.main(["sweep", "--count", "two", "--out", str(tmp_path / "s.csv")])
    assert rc == 1
    assert "invalid command line: [sweep] count = 'two'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text", ["[DEFAULT]\ncount = 3\n", "[DEFAULT]\ncount = 3\n\n[sweep]\nstop = 1\n"]
)
def test_keys_under_default_are_unknown(tmp_path, capsys, text):
    cfg_file = tmp_path / "default.cfg"
    cfg_file.write_text(text)
    out = tmp_path / "sweep.csv"
    rc = cli.main(["sweep", "--config", str(cfg_file), "--out", str(out)])
    assert rc == 1
    assert "unknown key [DEFAULT] count" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "sweep.svg").exists()


# modules a serial, uncached run without a config file never needs; numpy
# is the only numerical library, so scipy is never needed at all, the
# tilt ensemble is drawn without numpy.random and the Gauss-Legendre rule
# is built without numpy.polynomial; numpy itself loads only when a point
# has to be computed
_IMPORT_BUDGET = frozenset(
    (
        "numpy",
        "concurrent.futures.process",
        "multiprocessing",
        "hashlib",
        "_hashlib",
        "configparser",
        "scipy",
        "numpy.random",
        "numpy.polynomial",
        "dataclasses",
    )
)

_NEW_MODULES = (
    "import sys\n"
    "before = set(sys.modules)\n"
    "import wdmlink.cli\n"
    "try:\n"
    "    rc = wdmlink.cli.main(sys.argv[1:])\n"
    "except SystemExit as exc:  # --help\n"
    "    rc = exc.code\n"
    "assert rc == 0, rc\n"
    "print(*sorted(set(sys.modules) - before))\n"
)


def _python(tmp_path, *args):
    """stdout of ``python args`` run in ``tmp_path`` with this checkout's src importable."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(wdmlink.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=tmp_path,
        check=True,
    )
    return done.stdout


_SWEEP = ("sweep", "--profile", "desk", "--count", "2", "--no-svg", "--out", "sweep.csv")
_AVG_SWEEP = ("avg-sweep", "--profile", "desk", "--count", "1", "--draws", "2",
              "--no-svg", "--out", "avg.csv")
_CACHE = ("--cache-dir", "cache")
_PAIR = ("--workers", "2")
_NUMPY = {"numpy"}


@pytest.mark.parametrize(
    "argv, warm, loads",
    [
        (_SWEEP, False, _NUMPY),
        (_SWEEP + _PAIR, False, _NUMPY),
        (_SWEEP + _CACHE, False, _NUMPY),
        (_SWEEP + ("--config", "two.cfg"), False, {"configparser"} | _NUMPY),
        (_AVG_SWEEP, False, _NUMPY),
        (_AVG_SWEEP + _PAIR, False, _NUMPY),
        (("selfcheck", "--profile", "desk"), False, _NUMPY),
        (_SWEEP + _CACHE, True, set()),
        (_SWEEP + _CACHE + _PAIR, True, set()),
        (_AVG_SWEEP + _CACHE + _PAIR, True, set()),
        (("--help",), False, set()),
    ],
    ids=["serial", "pool", "cache", "config", "avg-serial", "avg-pool", "selfcheck",
         "warm", "warm-pool", "avg-warm-pool", "help"],
)
def test_run_loads_only_what_its_command_uses(tmp_path, argv, warm, loads):
    # a 2-point desk sweep imports the INI parser only when its flags ask
    # for it, forks its workers without concurrent.futures or
    # multiprocessing, and a cached one names its files without hashlib
    # (OpenSSL); averaged sweeps and the self-check draw their random
    # numbers without numpy.random, and no command loads
    # numpy.polynomial.  No command loads dataclasses: the records are
    # named tuples.  A sweep whose every point is cached (the same
    # command run once before) loads no numpy, and the command line
    # alone loads none; a run without numpy loads no inspect either,
    # which numpy imports for itself.
    (tmp_path / "two.cfg").write_text("[sweep]\ncount = 2\n")
    if warm:
        _python(tmp_path, "-c", _NEW_MODULES, *argv)
    stdout = _python(tmp_path, "-c", _NEW_MODULES, *argv)
    # the command's own report comes first, the new modules on the last line
    new = set(stdout.splitlines()[-1].split())
    assert loads <= new
    assert not new & (_IMPORT_BUDGET - loads)
    if "numpy" not in loads:
        assert "inspect" not in new


_FORK_AFTER_NUMPY = (
    "import os, sys\n"
    "seen, fork = [], os.fork\n"
    "def recorded():\n"
    "    seen.append('numpy' in sys.modules)\n"
    "    return fork()\n"
    "os.fork = recorded\n"
    "import wdmlink.cli\n"
    "assert 'numpy' not in sys.modules\n"
    "assert wdmlink.cli.main(sys.argv[1:]) == 0\n"
    "print(*seen)\n"
)


@pytest.mark.parametrize("argv", [_SWEEP + _PAIR, _AVG_SWEEP + _CACHE + _PAIR],
                         ids=["sweep", "avg-sweep"])
def test_cold_pool_starts_after_numpy_loads(tmp_path, argv):
    # the parent imports the numerical layer at the first point not found
    # in the cache, before it forks the workers, so each of the two
    # inherits numpy instead of importing it again
    stdout = _python(tmp_path, "-c", _FORK_AFTER_NUMPY, *argv)
    assert stdout.splitlines()[-1].split() == ["True", "True"]


@pytest.mark.parametrize("preset, seen", [(None, "1"), ("2", "2")])
def test_import_defaults_openblas_to_one_thread(preset, seen, tmp_path, monkeypatch):
    # the CLI loads no numpy; the numerical layer, imported after it as a
    # run's first cache miss does, finds the OpenBLAS thread count the
    # package set, and a value the user set is kept
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    if preset is not None:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset)
    code = (
        "import os, sys, wdmlink.cli\n"
        "assert 'numpy' not in sys.modules\n"
        "import wdmlink.numerical\n"
        "print('numpy' in sys.modules, os.environ['OPENBLAS_NUM_THREADS'])\n"
    )
    assert _python(tmp_path, "-c", code).split() == ["True", seen]


_IMPORT_EFFECTS = (
    "import os, sys\n"
    "modules, environ = set(sys.modules), dict(os.environ)\n"
    "import wdmlink\n"
    "print(*sorted(set(sys.modules) - modules))\n"
    "names = {*environ, *os.environ}\n"
    "print(*sorted(k for k in names if environ.get(k) != os.environ.get(k)))\n"
)


def test_import_touches_only_the_blas_default():
    # importing the package alone loads no other module (no numpy, no
    # ctypes) and sets no environment variable but the OpenBLAS thread
    # count; the allocator is left to glibc and the user
    src = os.path.dirname(os.path.dirname(os.path.abspath(wdmlink.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_EFFECTS],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert done.stdout.splitlines() == ["wdmlink", "OPENBLAS_NUM_THREADS"]
