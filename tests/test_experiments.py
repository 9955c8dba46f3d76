"""Runner-level tests: CSV output, determinism, caching, worker handling."""

import math
import os
from dataclasses import replace

import numpy as np
import pytest

import wdmlink.experiments as experiments
from wdmlink.channel import channel_cache_key, load_matching_channel_set
from wdmlink.config import FieldSettings, SweepSettings
from wdmlink.experiments import (
    run_avg_sweep,
    run_channel_dump,
    run_field,
    run_pattern,
    run_selfcheck,
    run_sweep,
)

from conftest import read_csv_columns

SWEEP_HEADER = ["value", "se_svd", "se_mmse", "se_mr", "se_plain", "error"]


def small_sweep(cfg, **overrides):
    return replace(cfg, sweep=replace(cfg.sweep, **overrides))


# ---------------------------------------------------------------------------
# Radiation pattern runner


class TestRunPattern:
    def test_desk_csv_structure(self, desk, tmp_path):
        path = str(tmp_path / "pattern.csv")
        run_pattern(desk, path)
        cols = read_csv_columns(path)
        # desk multiplex has 21 modes, center 11, offsets -9..9
        assert list(cols) == [
            "theta_deg", "mode_2", "mode_6", "mode_11", "mode_16", "mode_20", "error",
        ]
        assert len(cols["theta_deg"]) == 1801
        assert cols["theta_deg"][0] == "0"
        assert cols["theta_deg"][-1] == "180"
        assert all(cell == "" for cell in cols["error"])

    def test_full_profile_values_at_known_angles(self, full_scale, tmp_path):
        values = run_pattern(full_scale, str(tmp_path / "pattern.csv"))
        assert sorted(values) == [4, 11, 16, 21, 26, 31, 38]
        theta_deg = np.linspace(0.0, 180.0, 1801)
        # mode 31 propagates at gamma = 0.5: its cone sits at 60 degrees
        # where the longitudinal projection leaves sin^2(60) = 3/4.
        i60 = int(np.argmin(np.abs(theta_deg - 60.0)))
        assert values[31][i60] == pytest.approx(0.75, abs=1e-12)
        # the center mode radiates broadside at full strength
        i90 = int(np.argmin(np.abs(theta_deg - 90.0)))
        assert values[21][i90] == pytest.approx(1.0, abs=1e-12)
        for pattern in values.values():
            assert pattern.min() >= 0.0
            assert pattern.max() <= 1.0 + 1e-12

    def test_svg_written_and_deterministic(self, desk, tmp_path):
        svg_a = tmp_path / "a.svg"
        svg_b = tmp_path / "b.svg"
        run_pattern(desk, str(tmp_path / "a.csv"), str(svg_a))
        run_pattern(desk, str(tmp_path / "b.csv"), str(svg_b))
        text = svg_a.read_text()
        assert text.startswith("<svg")
        assert "</svg>" in text
        assert svg_a.read_bytes() == svg_b.read_bytes()


# ---------------------------------------------------------------------------
# Field profile runner


class TestRunField:
    def test_full_scale_profiles(self, full_scale, tmp_path):
        path = str(tmp_path / "field.csv")
        profiles = run_field(full_scale, path)
        cols = read_csv_columns(path)
        assert list(cols) == ["r_offset", "mode_19", "mode_21", "mode_26", "error"]
        assert len(cols["r_offset"]) == 1201
        assert all(cell == "" for cell in cols["error"])
        grid = np.linspace(-1.5, 1.5, 1201)
        # center mode: the normalization reference IS its own peak
        i21 = int(np.argmax(profiles[21]))
        assert grid[i21] == 0.0
        assert profiles[21][i21] == pytest.approx(1.0, abs=1e-9)
        # off-center modes focus where the cone crosses the segment,
        # r = d_x * gamma / sqrt(1 - gamma^2)
        for n, gamma in ((19, -0.1), (26, 0.25)):
            expected = 5.0 * gamma / math.sqrt(1.0 - gamma**2)
            got = grid[int(np.argmax(profiles[n]))]
            assert abs(got - expected) < 0.06

    def test_vertical_offset_shifts_peaks_left(self, full_scale, tmp_path):
        centered = run_field(full_scale, str(tmp_path / "c.csv"))
        lifted = replace(full_scale, geometry=replace(full_scale.geometry, d_z=1.0))
        shifted = run_field(lifted, str(tmp_path / "s.csv"))
        for n in (19, 21, 26):
            assert np.argmax(shifted[n]) < np.argmax(centered[n])

    def test_mode_offset_outside_multiplex_rejected(self, desk, tmp_path):
        bad = replace(desk, field=FieldSettings(mode_offsets=(-11,), grid_points=11))
        with pytest.raises(ValueError, match="mode offset"):
            run_field(bad, str(tmp_path / "field.csv"))


# ---------------------------------------------------------------------------
# Spectral-efficiency sweeps


class TestRunSweep:
    def test_csv_structure_and_scheme_ordering(self, desk, tmp_path):
        cfg = small_sweep(desk, count=5)
        path = str(tmp_path / "sweep.csv")
        records = run_sweep(cfg, path)
        cols = read_csv_columns(path)
        assert list(cols) == SWEEP_HEADER
        assert cols["value"] == ["0", "0.5", "1", "1.5", "2"]
        assert all(cell == "" for cell in cols["error"])
        for rec in records:
            assert rec.se_svd > rec.se_mmse > rec.se_mr > 0.0
            assert rec.se_plain > 0.0
        # regression anchors for the desk link at 90 dB EMI SNR
        assert records[0].se_svd == pytest.approx(111.5609, rel=1e-3)
        assert records[-1].se_svd == pytest.approx(51.928, rel=1e-3)

    def test_moving_receiver_away_costs_rate(self, desk, tmp_path):
        cfg = small_sweep(desk, count=5)
        records = run_sweep(cfg, str(tmp_path / "sweep.csv"))
        first, last = records[0], records[-1]
        assert last.se_svd < first.se_svd
        assert last.se_mmse < first.se_mmse
        assert last.se_mr < first.se_mr
        assert last.se_plain < first.se_plain

    def test_serial_and_parallel_runs_are_byte_identical(self, desk, tmp_path):
        cfg = small_sweep(desk, count=5)
        paths = [tmp_path / name for name in ("a.csv", "b.csv", "p.csv")]
        run_sweep(cfg, str(paths[0]))
        run_sweep(cfg, str(paths[1]))
        two_workers = replace(cfg, output=replace(cfg.output, workers=2))
        run_sweep(two_workers, str(paths[2]))
        ref = paths[0].read_bytes()
        assert paths[1].read_bytes() == ref
        assert paths[2].read_bytes() == ref

    def test_chunked_pool_run_matches_serial_bytes(self, desk, tmp_path, monkeypatch):
        # 19 points on two workers go out in chunks of 2, the last one ragged
        chunksizes = []

        class RecordingPool(experiments.ProcessPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                chunksizes.append(kwargs.get("chunksize", 1))
                return super().map(fn, *iterables, **kwargs)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
        cfg = small_sweep(desk, count=19)
        serial, pooled = tmp_path / "serial.csv", tmp_path / "pooled.csv"
        run_sweep(cfg, str(serial))
        run_sweep(replace(cfg, output=replace(cfg.output, workers=2)), str(pooled))
        assert chunksizes == [2]
        assert pooled.read_bytes() == serial.read_bytes()

    def test_channel_cache_reuse_matches_fresh_assembly(self, desk, tmp_path):
        cache = tmp_path / "cache"
        cfg = small_sweep(desk, count=5)
        cached = replace(cfg, output=replace(cfg.output, cache_dir=str(cache)))
        cold = tmp_path / "cold.csv"
        warm = tmp_path / "warm.csv"
        plain = tmp_path / "plain.csv"
        run_sweep(cached, str(cold))
        stored = sorted(os.listdir(cache))
        assert len(stored) == 5
        assert all(name.endswith(".wdmch") for name in stored)
        run_sweep(cached, str(warm))
        assert sorted(os.listdir(cache)) == stored
        run_sweep(cfg, str(plain))
        assert warm.read_bytes() == cold.read_bytes() == plain.read_bytes()

    def test_truncated_cache_entry_is_recomputed(self, desk, tmp_path):
        cache = tmp_path / "cache"
        cfg = small_sweep(desk, count=5)
        cached = replace(cfg, output=replace(cfg.output, cache_dir=str(cache)))
        cold = tmp_path / "cold.csv"
        rerun = tmp_path / "rerun.csv"
        run_sweep(cached, str(cold))
        task = experiments._sweep_tasks(cfg)[2]
        victim = cache / (channel_cache_key(task.geometry, task.wdm) + ".wdmch")
        victim.write_bytes(victim.read_bytes()[:100])
        records = run_sweep(cached, str(rerun))
        assert [rec.error for rec in records] == [""] * 5
        assert rerun.read_bytes() == cold.read_bytes()
        assert len(os.listdir(cache)) == 5
        loaded = load_matching_channel_set(str(victim), task.geometry, task.wdm)
        fresh = experiments._channel_for(task.geometry, task.wdm, cache_dir="")
        assert np.array_equal(loaded.H_tilde, fresh.H_tilde)

    def test_tilt_sweep_reports_degrees(self, desk, tmp_path):
        tilt = small_sweep(desk, parameter="theta_s", start=0.0, stop=30.0, count=3)
        tilt_path = str(tmp_path / "tilt.csv")
        run_sweep(tilt, tilt_path)
        tilt_cols = read_csv_columns(tilt_path)
        assert tilt_cols["value"] == ["0", "15", "30"]
        base_path = str(tmp_path / "base.csv")
        run_sweep(small_sweep(desk, count=1), base_path)
        base_cols = read_csv_columns(base_path)
        # theta_s = 0 is the same physical point as the d_z = 0 baseline
        for col in ("se_svd", "se_mmse", "se_mr", "se_plain"):
            assert tilt_cols[col][0] == base_cols[col][0]
        # tilting away from broadside in the x-plane costs every scheme
        assert float(tilt_cols["se_svd"][2]) < float(tilt_cols["se_svd"][0])
        assert float(tilt_cols["se_plain"][2]) < float(tilt_cols["se_plain"][0])

    def test_failed_point_flags_row_without_aborting(self, desk, tmp_path, monkeypatch):
        cfg = small_sweep(desk, count=3)
        real = experiments._channel_for

        def sabotaged(geom, wdm, cache_dir):
            if geom.d_z == 1.0:
                raise RuntimeError("synthetic failure")
            return real(geom, wdm, cache_dir)

        monkeypatch.setattr(experiments, "_channel_for", sabotaged)
        path = str(tmp_path / "sweep.csv")
        records = run_sweep(cfg, path)
        assert [rec.error for rec in records] == [
            "", "RuntimeError: synthetic failure", "",
        ]
        assert math.isnan(records[1].se_svd)
        cols = read_csv_columns(path)
        assert len(cols["value"]) == 3
        assert cols["value"][1] == "1"
        for col in ("se_svd", "se_mmse", "se_mr", "se_plain"):
            assert cols[col][1] == ""
            assert cols[col][0] != "" and cols[col][2] != ""
        assert cols["error"][1] == "RuntimeError: synthetic failure"

    def test_svg_smoke(self, desk, tmp_path):
        cfg = small_sweep(desk, count=3)
        svg = tmp_path / "sweep.svg"
        run_sweep(cfg, str(tmp_path / "sweep.csv"), str(svg))
        text = svg.read_text()
        assert text.startswith("<svg")
        assert "</svg>" in text


# ---------------------------------------------------------------------------
# Orientation-averaged sweeps


class TestRunAvgSweep:
    DEGENERATE = dict(
        parameter="d_x", start=2.0, stop=3.0, count=2,
        draws_per_phi=1, phi_set_deg=(0.0,), theta_max_deg=0.0,
    )

    def test_single_orientation_reduces_to_plain_sweep(self, desk, tmp_path):
        avg_path = str(tmp_path / "avg.csv")
        run_avg_sweep(small_sweep(desk, **self.DEGENERATE), avg_path)
        avg = read_csv_columns(avg_path)
        plain_path = str(tmp_path / "plain.csv")
        run_sweep(small_sweep(desk, parameter="d_x", start=2.0, stop=3.0, count=2),
                  plain_path)
        plain = read_csv_columns(plain_path)
        assert avg["value"] == plain["value"]
        for scheme in ("svd", "mmse", "mr", "plain"):
            assert avg[f"se_{scheme}_mean"] == plain[f"se_{scheme}"]
            assert avg[f"se_{scheme}_stderr"] == ["0", "0"]

    def test_header_and_determinism(self, desk, tmp_path):
        cfg = small_sweep(
            desk, parameter="d_x", start=2.0, stop=3.0, count=2,
            draws_per_phi=2, phi_set_deg=(0.0, 90.0), seed=11,
        )
        path_a = tmp_path / "a.csv"
        path_b = tmp_path / "b.csv"
        records = run_avg_sweep(cfg, str(path_a))
        run_avg_sweep(cfg, str(path_b))
        assert path_a.read_bytes() == path_b.read_bytes()
        cols = read_csv_columns(str(path_a))
        assert list(cols) == (
            ["value"]
            + [f"se_{s}_mean" for s in ("svd", "mmse", "mr", "plain")]
            + [f"se_{s}_stderr" for s in ("svd", "mmse", "mr", "plain")]
            + ["error"]
        )
        for rec in records:
            assert all(m > 0.0 for m in rec.mean)
            assert all(s >= 0.0 for s in rec.stderr)

    def test_requires_distance_parameter(self, desk, tmp_path):
        with pytest.raises(ValueError, match="d_x"):
            run_avg_sweep(small_sweep(desk, parameter="d_z"),
                          str(tmp_path / "avg.csv"))

    def test_averaged_svd_rate_flat_over_lateral_range(self, desk, tmp_path):
        # With the receiver held well off the source plane, the longer
        # path at large d_x is offset by better alignment with the tilt
        # ensemble, so the averaged SVD rate barely moves while d_x
        # triples.  At d_z = 0 the same sweep loses about half its rate.
        cfg = replace(
            desk,
            geometry=replace(desk.geometry, d_z=5.0),
            sweep=replace(
                desk.sweep, parameter="d_x", start=5.0, stop=15.0, count=3,
                seed=3, draws_per_phi=4,
            ),
        )
        records = run_avg_sweep(cfg, str(tmp_path / "avg.csv"))
        svd = [rec.mean[0] for rec in records]
        assert (max(svd) - min(svd)) / max(svd) < 0.25


# ---------------------------------------------------------------------------
# Channel dump and self-check


def test_channel_dump_roundtrip(desk, desk_channel, tmp_path):
    path = str(tmp_path / "link.wdmch")
    assert run_channel_dump(desk, path) == path
    loaded = load_matching_channel_set(path, desk.geometry, desk.wdm)
    assert np.array_equal(loaded.H, desk_channel.H)
    assert np.array_equal(loaded.R, desk_channel.R)
    assert np.array_equal(loaded.H_tilde, desk_channel.H_tilde)


def test_selfcheck_passes_on_desk_link(desk, capsys):
    assert run_selfcheck(desk) is True
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 5
    assert "[FAIL]" not in out


def test_selfcheck_passes_on_full_link(full_scale, capsys):
    # node doubling of H and R at full scale, which the desk link does not reach
    assert run_selfcheck(full_scale) is True
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 5
    assert "[FAIL]" not in out
