import configparser
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wdmlink.config import (
    PARAMETERS,
    FieldSettings,
    OutputSettings,
    PatternSettings,
    QuadratureSpec,
    RunConfig,
    SweepSettings,
    apply_entries,
    desk_profile,
    full_profile,
    profile_by_name,
    read_config_entries,
    total_power,
)
from wdmlink.geometry import replace


class TestSweepSettings:
    def test_grid(self):
        s = SweepSettings(start=0.0, stop=2.0, count=5)
        assert np.allclose(s.values(), [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_single_point_grid(self):
        s = SweepSettings(start=1.5, stop=1.5, count=1)
        assert np.array_equal(s.values(), [1.5])
        # one point is the start, wherever stop lies
        s = SweepSettings(start=0.3, stop=0.1, count=1)
        assert np.array_equal(s.values(), [0.3])

    @given(
        start=st.floats(-1e3, 1e3),
        span=st.floats(0.0, 1e3, exclude_min=True),
        count=st.integers(1, 300),
    )
    @example(start=0.0, span=1.0, count=1)
    @example(start=-0.0, span=2.0, count=1)
    @example(start=-0.0, span=2.0, count=5)
    @example(start=0.0, span=5e-324 * 3, count=10)  # the step underflows to zero
    @example(start=-1e-320, span=1e-320, count=7)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_grid_is_linspace_bit_for_bit(self, start, span, count):
        # the grid is computed without numpy, in numpy's order of operations
        stop = start + span
        if not stop > start:
            stop = start if count == 1 else math.nextafter(start, math.inf)
        ours = SweepSettings(start=start, stop=stop, count=count).values()
        assert all(type(v) is float for v in ours)
        assert np.array(ours).tobytes() == np.linspace(start, stop, count).tobytes()

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepSettings(parameter="L_s")
        with pytest.raises(ValueError):
            SweepSettings(count=0)
        with pytest.raises(ValueError):
            SweepSettings(start=2.0, stop=1.0, count=3)
        for start, stop in ((0.0, math.inf), (0.0, math.nan), (-math.inf, 1.0)):
            with pytest.raises(ValueError, match="finite"):
                SweepSettings(start=start, stop=stop, count=1)
        with pytest.raises(ValueError, match=r"\[sweep\] seed"):
            SweepSettings(seed=-1)
        with pytest.raises(ValueError):
            SweepSettings(draws_per_phi=0)
        with pytest.raises(ValueError):
            SweepSettings(theta_max_deg=200.0)

    def test_other_settings_validation(self):
        with pytest.raises(ValueError):
            FieldSettings(grid_points=1)
        with pytest.raises(ValueError):
            PatternSettings(step_deg=0.0)
        with pytest.raises(ValueError):
            OutputSettings(workers=0)


class TestProfiles:
    def test_desk(self):
        cfg = desk_profile()
        assert cfg.geometry.L_r == 1.0
        assert cfg.geometry.d_x == 2.0
        assert cfg.wdm.wavelength == 0.02
        assert cfg.wdm.n_modes == 21
        # EMI level sits 90 dB below the power budget
        assert total_power(cfg.wdm) / cfg.wdm.sigma2_emi == pytest.approx(1e9, rel=1e-12)

    def test_full_profile(self):
        cfg = full_profile()
        assert cfg.geometry.L_r == 3.0
        assert cfg.geometry.d_x == 5.0
        assert cfg.wdm.wavelength == 0.01
        assert cfg.wdm.n_modes == 41
        assert cfg.sweep.stop == 5.0
        assert cfg.pattern.mode_offsets == (-17, -10, -5, 0, 5, 10, 17)

    def test_lookup(self):
        assert profile_by_name("desk").wdm.n_modes == 21
        with pytest.raises(ValueError):
            profile_by_name("bench")


class TestLoadConfig:
    def write(self, tmp_path, text):
        p = tmp_path / "run.cfg"
        p.write_text(text)
        return str(p)

    def test_full_override(self, tmp_path):
        path = self.write(
            tmp_path,
            """
            [geometry]
            L_s = 0.2
            L_r = 0.5
            d_x = 1.0
            d_z = 0.25
            theta_s = 30
            phi_s = 90

            [wdm]
            wavelength = 0.1
            n_modes = 3
            source_power = 2e-7
            snr_emi_db = 80
            sigma2_hdw = 0.5

            [quadrature]
            points_per_wavelength = 24
            nodes_per_panel = 6

            [sweep]
            parameter = theta_s
            start = 0
            stop = 45
            count = 7
            seed = 11
            draws_per_phi = 4
            phi_set = 0, 45, 90
            theta_max = 20

            [field]
            mode_offsets = -1, 0, 1
            grid_points = 101

            [pattern]
            mode_offsets = 0, 1
            step_deg = 0.5

            [output]
            csv = out.csv
            svg = out.svg
            cache_dir = cache
            workers = 3
            """,
        )
        cfg = apply_entries(desk_profile(), read_config_entries(path), path)
        assert cfg.geometry.L_r == 0.5
        assert cfg.geometry.theta_s == pytest.approx(math.radians(30.0))
        assert cfg.geometry.phi_s == pytest.approx(math.radians(90.0))
        assert cfg.wdm.n_modes == 3
        assert cfg.wdm.source_power == 2e-7
        assert total_power(cfg.wdm) / cfg.wdm.sigma2_emi == pytest.approx(1e8, rel=1e-12)
        assert cfg.wdm.sigma2_hdw == 0.5
        assert cfg.wdm.quadrature.points_per_wavelength == 24.0
        assert cfg.wdm.quadrature.nodes_per_panel == 6
        assert cfg.sweep.parameter == "theta_s"
        assert cfg.sweep.count == 7
        assert cfg.sweep.phi_set_deg == (0.0, 45.0, 90.0)
        assert cfg.sweep.theta_max_deg == 20.0
        assert cfg.field.mode_offsets == (-1, 0, 1)
        assert cfg.pattern.step_deg == 0.5
        assert cfg.output.csv_path == "out.csv"
        assert cfg.output.workers == 3

    def test_partial_override_keeps_base(self, tmp_path):
        path = self.write(tmp_path, "[sweep]\ncount = 5\n")
        cfg = apply_entries(desk_profile(), read_config_entries(path), path)
        base = desk_profile()
        assert cfg.sweep.count == 5
        assert cfg.wdm == base.wdm
        assert cfg.geometry == base.geometry

    def test_n_modes_max_keyword(self, tmp_path):
        path = self.write(tmp_path, "[wdm]\nwavelength = 0.01\nn_modes = max\n")
        cfg = apply_entries(desk_profile(), read_config_entries(path), path)
        assert cfg.wdm.n_modes == 41

    @pytest.mark.parametrize(
        "text", ["[wdm]\nwavelength = 0.05\n", "[wdm]\nn_modes = 23\n", "[geometry]\nL_s = 0.1\n"]
    )
    def test_mode_count_above_the_maximum_rejected(self, tmp_path, text):
        path = self.write(tmp_path, text)
        with pytest.raises(ValueError, match=rf"^invalid {re.escape(path)}: n_modes = \d+ exceeds"):
            apply_entries(desk_profile(), read_config_entries(path), path)

    def test_wavelength_change_rederives_emi_level(self, tmp_path):
        path = self.write(tmp_path, "[wdm]\nwavelength = 0.01\n")
        cfg = apply_entries(desk_profile(), read_config_entries(path), path)
        assert cfg.wdm.sigma2_emi == pytest.approx(total_power(cfg.wdm) * 1e-9, rel=1e-12)

    def test_values_are_read_raw(self, tmp_path):
        # a "%" is a character: no interpolation, so none can fail either
        path = self.write(tmp_path, "[output]\ncsv = out%.csv\nsvg = %(csv)s.svg\n")
        cfg = apply_entries(desk_profile(), read_config_entries(path), path)
        assert (cfg.output.csv_path, cfg.output.svg_path) == ("out%.csv", "%(csv)s.svg")

    def test_unknown_entries_all_reported(self, tmp_path):
        path = self.write(
            tmp_path,
            "[geometry]\nL_q = 1\n\n[nonsense]\nx = 1\n",
        )
        with pytest.raises(ValueError) as err:
            apply_entries(desk_profile(), read_config_entries(path), path)
        assert "L_q" in str(err.value)
        assert "nonsense" in str(err.value)

    def test_malformed_value_reported(self, tmp_path):
        path = self.write(tmp_path, "[geometry]\nd_x = wide\n")
        with pytest.raises(ValueError, match="d_x"):
            apply_entries(desk_profile(), read_config_entries(path), path)

    @pytest.mark.parametrize(
        "section, key",
        [("field", "mode_offsets"), ("pattern", "mode_offsets"), ("sweep", "phi_set")],
    )
    def test_empty_list_rejected(self, tmp_path, section, key):
        path = self.write(tmp_path, f"[{section}]\n{key} =\n")
        with pytest.raises(ValueError, match=key):
            apply_entries(desk_profile(), read_config_entries(path), path)

    def test_explicit_base(self, tmp_path):
        path = self.write(tmp_path, "[geometry]\nd_z = 1.0\n")
        cfg = apply_entries(full_profile(), read_config_entries(path), path)
        assert cfg.wdm.n_modes == 41
        assert cfg.geometry.d_z == 1.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_config_entries(str(tmp_path / "absent.cfg"))

    def test_out_of_range_value_rejected(self, tmp_path):
        path = self.write(tmp_path, "[sweep]\ncount = -2\n")
        with pytest.raises(ValueError):
            apply_entries(desk_profile(), read_config_entries(path), path)

    @pytest.mark.parametrize("phi_set", ["0, 360", "-22.5, 45", "90, nan"])
    def test_azimuth_outside_one_turn_rejected(self, tmp_path, phi_set):
        # rejected as the file is applied, naming the key and the file, by
        # the range LinkGeometry holds phi_s to, not at the first point
        path = self.write(tmp_path, f"[sweep]\nphi_set = {phi_set}\n")
        with pytest.raises(ValueError, match=rf"^invalid {re.escape(path)}: phi_set values"):
            apply_entries(desk_profile(), read_config_entries(path), path)

    def test_azimuth_just_below_one_turn_accepted(self, tmp_path):
        path = self.write(tmp_path, "[sweep]\nphi_set = 0, 359.9\n")
        cfg = apply_entries(desk_profile(), read_config_entries(path), path)
        assert cfg.sweep.phi_set_deg == (0.0, 359.9)

    def test_default_section_is_an_ordinary_section(self, tmp_path):
        # configparser would otherwise drop [DEFAULT] or copy its keys into
        # every other section
        path = self.write(tmp_path, "[DEFAULT]\ncount = 3\n\n[sweep]\nstop = 1\n")
        entries = read_config_entries(path)
        assert entries == [("DEFAULT", "count", "3"), ("sweep", "stop", "1")]
        with pytest.raises(ValueError, match=r"unknown key \[DEFAULT\] count"):
            apply_entries(desk_profile(), entries, path)


ON_D_X = replace(desk_profile(), sweep=SweepSettings(parameter="d_x", start=1.0, stop=2.0))


@pytest.mark.parametrize(
    "base, entries, expected",
    [
        # a switch to a d_x grid that names no start sweeps 5..15 m
        (desk_profile(), {"parameter": "d_x"}, ("d_x", 5.0, 15.0)),
        (desk_profile(), {"parameter": "d_x", "start": "1"}, ("d_x", 1.0, 2.0)),
        (full_profile(), {"stop": "9", "parameter": "d_x"}, ("d_x", 5.0, 9.0)),
        # a base already on d_x keeps its range
        (ON_D_X, {"parameter": "d_x"}, ("d_x", 1.0, 2.0)),
        (ON_D_X, {"count": "3"}, ("d_x", 1.0, 2.0)),
        (desk_profile(), {"parameter": "theta_s"}, ("theta_s", 0.0, 2.0)),
    ],
    ids=["d_x", "d_x-start", "d_x-stop", "on-d_x", "on-d_x-count", "theta_s"],
)
def test_lateral_range_of_a_d_x_sweep(base, entries, expected):
    sweep = apply_entries(base, [("sweep", k, raw) for k, raw in entries.items()], "test").sweep
    assert (sweep.parameter, sweep.start, sweep.stop) == expected


def test_every_parameter_names_a_record_field():
    records = {part: type(record) for part, record in zip(RunConfig._fields, desk_profile())}
    records["quadrature"] = QuadratureSpec
    for param in PARAMETERS:
        part, name = param.field.split(".")
        assert name in records[part]._fields, param


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_config_example_matches_the_table(tmp_path):
    example = re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)
    path = tmp_path / "readme.cfg"
    path.write_text(example)
    cfg = apply_entries(desk_profile(), read_config_entries(str(path)), str(path))
    assert cfg.wdm.n_modes == 41
    assert cfg.sweep.phi_set_deg == (0.0, 22.5, 45.0, 77.5, 90.0)
    assert cfg.output.cache_dir == ".channels"
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.optionxform = str
    parser.read_string(example)
    documented = {(section, key) for section in parser.sections() for key in parser[section]}
    assert documented == {(p.section, p.key) for p in PARAMETERS}
