"""Runner-level tests: CSV output, determinism, caching, worker handling."""

import collections
import math
import os
import re
import threading
import time
import warnings

import numpy as np
import pytest

import wdmlink.experiments as experiments
import wdmlink.numerical as numerical
from wdmlink import channel
from wdmlink.cache import FORMAT_VERSION, channel_cache_key, channel_header
from wdmlink.channel import assemble_H, load_matching_channel_set, noise_factor, whiten
from wdmlink.config import FieldSettings, total_power
from wdmlink.em_field import NearFieldWarning
from wdmlink.experiments import run_avg_sweep, run_sweep
from wdmlink.geometry import LinkGeometry, replace
from wdmlink.numerical import run_channel_dump, run_field, run_pattern, run_selfcheck
from wdmlink.receivers import spectral_efficiency

from conftest import read_csv_columns

SWEEP_HEADER = ["value", "se_svd", "se_mmse", "se_mr", "se_plain", "error"]


def small_sweep(cfg, **overrides):
    return replace(cfg, sweep=replace(cfg.sweep, **overrides))


def quiet(cfg, snr_emi_db):
    """``cfg`` with the interference ``snr_emi_db`` below the power budget."""
    return replace(cfg, wdm=replace(cfg.wdm, snr_emi_db=snr_emi_db))


def with_cache(cfg, cache, workers=1):
    return replace(cfg, output=replace(cfg.output, cache_dir=str(cache), workers=workers))


def cache_entry(cache, geom, wdm):
    """Where a sweep keeps the point's entry: one directory per format."""
    return cache / FORMAT_VERSION / (channel_cache_key(geom, wdm) + ".wdmch")


def fresh_se(geom, wdm):
    """The four SE values of the point, computed without a cache."""
    H_tilde = whiten(assemble_H(geom, wdm), geom, wdm, noise_factor(geom, wdm))
    return np.array([r.se_total for r in spectral_efficiency(H_tilde, total_power(wdm)).values()])


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

    @pytest.mark.filterwarnings("ignore::wdmlink.em_field.NearFieldWarning")
    @pytest.mark.parametrize("profile", ["desk", "full_scale"])
    def test_near_source_d_x_sweep_never_takes_the_direct_sum(
        self, request, tmp_path, monkeypatch, profile
    ):
        # from 0.2 m the receive segment is sampled piece by piece; the
        # direct sum over every node pair is only the tests' reference
        def direct_sum(*args):
            raise AssertionError("the direct sum is not a production form of H")

        monkeypatch.setattr(channel, "_direct_H", direct_sum)
        cfg = small_sweep(request.getfixturevalue(profile), parameter="d_x", start=0.2, stop=2.0,
                          count=5)
        path = str(tmp_path / "sweep.csv")
        records = run_sweep(cfg, path)
        assert read_csv_columns(path)["error"] == [""] * 5
        assert all(rec.se_svd > rec.se_mmse > 0.0 for rec in records)

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
        # 19 points on two workers: each child takes every second point,
        # 10 and a ragged 9, and the parent interleaves them back
        log = tmp_path / "slices.log"
        real = numerical.evaluate_points

        def logged(wdm, geoms):
            # runs in a child, so it reports through a file
            with open(log, "a", encoding="ascii") as out:
                out.write(" ".join(repr(geom.d_z) for geom in geoms) + "\n")
            return real(wdm, geoms)

        cfg = small_sweep(desk, count=19)
        serial, pooled = tmp_path / "serial.csv", tmp_path / "pooled.csv"
        run_sweep(cfg, str(serial))
        monkeypatch.setattr(numerical, "evaluate_points", logged)
        run_sweep(replace(cfg, output=replace(cfg.output, workers=2)), str(pooled))
        values = [repr(v) for v in cfg.sweep.values()]
        slices = sorted(line.split() for line in log.read_text().splitlines())
        assert slices == [values[0::2], values[1::2]]
        assert [len(part) for part in slices] == [10, 9]
        assert pooled.read_bytes() == serial.read_bytes()

    def test_pool_starts_no_more_workers_than_chunks(self, desk, tmp_path, monkeypatch):
        # one child per point at most: 3 points asked onto 64 workers fork
        # 3, each from a parent with no other thread (fork copies only the
        # calling thread, and Python 3.12+ warns on a fork with threads)
        forks = []
        real = os.fork

        def counted():
            forks.append((os.getpid(), threading.active_count()))
            return real()

        monkeypatch.setattr(os, "fork", counted)
        cfg = small_sweep(desk, count=3)
        serial, pooled = tmp_path / "serial.csv", tmp_path / "pooled.csv"
        run_sweep(cfg, str(serial))
        assert forks == []
        run_sweep(replace(cfg, output=replace(cfg.output, workers=64)), str(pooled))
        assert forks == [(os.getpid(), 1)] * 3
        assert pooled.read_bytes() == serial.read_bytes()

    @pytest.mark.parametrize("workers", [2, 3])
    def test_run_without_fork_is_serial(self, desk, tmp_path, monkeypatch, workers):
        # where os.fork does not exist (Windows) workers run in the caller
        cfg = small_sweep(desk, count=5)
        serial, pooled = tmp_path / "serial.csv", tmp_path / "pooled.csv"
        run_sweep(cfg, str(serial))
        monkeypatch.delattr(os, "fork")
        calls = _count_calls(monkeypatch)
        run_sweep(replace(cfg, output=replace(cfg.output, workers=workers)), str(pooled))
        assert calls["noise_factor"] == 1 and calls["assemble_H"] == 5
        assert pooled.read_bytes() == serial.read_bytes()

    @pytest.mark.parametrize("workers", [2, 3])
    def test_strided_avg_run_matches_serial_bytes(self, desk, tmp_path, workers):
        # 2 d_x values x 20 orientations: every slice crosses the change of
        # d_x, and 40 points on 3 workers split 14, 13, 13
        cfg = small_sweep(desk, parameter="d_x", start=5.0, stop=15.0, count=2,
                          draws_per_phi=4, seed=3)
        serial, pooled = tmp_path / "serial.csv", tmp_path / "pooled.csv"
        run_avg_sweep(cfg, str(serial))
        run_avg_sweep(replace(cfg, output=replace(cfg.output, workers=workers)), str(pooled))
        assert pooled.read_bytes() == serial.read_bytes()

    def test_failed_slice_stops_every_child(self, desk, tmp_path, monkeypatch):
        # a slice's exception reaches the caller as it was raised, and the
        # other child, still busy, is killed and reaped rather than awaited
        parent = os.getpid()
        real = numerical.evaluate_points

        def one_fails_one_hangs(wdm, geoms):
            assert os.getpid() != parent
            if geoms[0].d_z == 0.0:
                raise OSError(28, "synthetic full disk")
            time.sleep(60)
            return real(wdm, geoms)

        monkeypatch.setattr(numerical, "evaluate_points", one_fails_one_hangs)
        cfg = small_sweep(desk, start=0.0, stop=1.0, count=4)
        started = time.monotonic()
        with pytest.raises(OSError, match="synthetic full disk"):
            run_sweep(replace(cfg, output=replace(cfg.output, workers=2)),
                      str(tmp_path / "s.csv"))
        assert time.monotonic() - started < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert not (tmp_path / "s.csv").exists()

    def test_channel_cache_reuse_matches_fresh_assembly(self, desk, tmp_path):
        cache = tmp_path / "cache"
        cfg = small_sweep(desk, count=5)
        cached = with_cache(cfg, cache)
        cold = tmp_path / "cold.csv"
        warm = tmp_path / "warm.csv"
        plain = tmp_path / "plain.csv"
        run_sweep(cached, str(cold))
        # entries live in one directory per format
        assert os.listdir(cache) == [FORMAT_VERSION]
        stored = sorted(os.listdir(cache / FORMAT_VERSION))
        assert len(stored) == 5
        assert all(name.endswith(".wdmch") for name in stored)
        run_sweep(cached, str(warm))
        assert sorted(os.listdir(cache / FORMAT_VERSION)) == stored
        run_sweep(cfg, str(plain))
        assert warm.read_bytes() == cold.read_bytes() == plain.read_bytes()

    def test_truncated_cache_entry_is_recomputed(self, desk, tmp_path):
        cache = tmp_path / "cache"
        cfg = small_sweep(desk, count=5)
        cached = with_cache(cfg, cache)
        cold = tmp_path / "cold.csv"
        rerun = tmp_path / "rerun.csv"
        run_sweep(cached, str(cold))
        geom = replace(cfg.geometry, d_z=float(cfg.sweep.values()[2]))
        victim = cache_entry(cache, geom, cfg.wdm)
        victim.write_bytes(victim.read_bytes()[:100])
        records = run_sweep(cached, str(rerun))
        assert [rec.error for rec in records] == [""] * 5
        assert rerun.read_bytes() == cold.read_bytes()
        assert len(os.listdir(cache / FORMAT_VERSION)) == 5
        # an entry holds the point's four SE values only, as computed afresh
        loaded = load_matching_channel_set(str(victim), geom, cfg.wdm)
        assert np.array_equal(loaded, fresh_se(geom, cfg.wdm))

        def plant_npz_entry():
            # the previous format: an npz archive of the header and the values
            with open(victim, "wb") as out:
                np.savez(out, header=np.array(channel_header(geom, cfg.wdm)),
                         se=fresh_se(geom, cfg.wdm))

        # a channel dump, or an npz entry as the previous format wrote
        # them, sits under the entry's name but is no text entry, so it is
        # replaced as well
        for plant in (
            lambda: run_channel_dump(replace(cfg, geometry=geom), str(victim)),
            plant_npz_entry,
        ):
            plant()
            assert run_sweep(cached, str(rerun))[2].error == ""
            assert rerun.read_bytes() == cold.read_bytes()
            loaded = load_matching_channel_set(str(victim), geom, cfg.wdm)
            assert np.array_equal(loaded, fresh_se(geom, cfg.wdm))

    @pytest.mark.parametrize(
        "planted",
        [
            "".join(f"{v.hex()}\n" for v in (9.0, 8.0, 7.0)),
            "".join(f"{v.hex()} {v.hex()}\n" for v in (9.0, 8.0)),
            "9\n8\n7\n6\n",
            "(9+0j)\n(8+0j)\n(7+0j)\n(6+0j)\n",
        ],
        ids=["three-values", "two-by-two", "integers", "complex"],
    )
    def test_misshaped_se_entry_is_recomputed(self, desk, tmp_path, planted):
        # an entry whose header is followed by anything but four float.hex
        # lines is a miss: recomputed and rewritten, never a flagged row
        cache = tmp_path / "cache"
        cfg = small_sweep(desk, count=3)
        cached = with_cache(cfg, cache)
        cold, rerun = tmp_path / "cold.csv", tmp_path / "rerun.csv"
        run_sweep(cached, str(cold))
        geom = replace(cfg.geometry, d_z=float(cfg.sweep.values()[1]))
        victim = cache_entry(cache, geom, cfg.wdm)
        victim.write_text(channel_header(geom, cfg.wdm) + planted, encoding="ascii")
        records = run_sweep(cached, str(rerun))
        assert [rec.error for rec in records] == [""] * 3
        assert rerun.read_bytes() == cold.read_bytes()
        loaded = load_matching_channel_set(str(victim), geom, cfg.wdm)
        assert np.array_equal(loaded, fresh_se(geom, cfg.wdm))

    def test_colliding_cache_keys_only_cost_a_recompute(self, desk, tmp_path, monkeypatch):
        # every channel set of two different tilt sweeps lands in one file;
        # the stored header tells the entries apart, so each point either
        # loads its own set or recomputes and overwrites the other's
        monkeypatch.setattr(experiments, "channel_cache_key", lambda geom, cfg: "same")
        cache = tmp_path / "cache"
        for i, (start, stop) in enumerate(((0.0, 30.0), (40.0, 70.0))):
            cfg = small_sweep(desk, parameter="theta_s", start=start, stop=stop, count=3)
            cached = with_cache(cfg, cache)
            plain = tmp_path / f"plain{i}.csv"
            run_sweep(cfg, str(plain))
            for rerun in range(2):
                out = tmp_path / f"cached{i}_{rerun}.csv"
                run_sweep(cached, str(out))
                assert out.read_bytes() == plain.read_bytes()
        assert os.listdir(cache / FORMAT_VERSION) == ["same.wdmch"]

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
        # each d_z has its own receive segment, so each point is a stack of one
        cfg = small_sweep(desk, count=3)
        real = numerical.assemble_H

        def sabotaged(geoms, wdm, projection):
            if any(geom.d_z == 1.0 for geom in geoms):
                raise RuntimeError("synthetic failure")
            return real(geoms, wdm, projection)

        monkeypatch.setattr(numerical, "assemble_H", sabotaged)
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

    def test_failed_point_in_a_stack_flags_only_its_row(self, desk, tmp_path, monkeypatch):
        # at -130 dB the five orientations share one receive segment and pass
        # once, as one stack; at 45, 90 and 135 degrees the budget rounds
        # away against the strongest mode's 1/chi, so water-filling fails
        # those rows alone, each with its own message, and rows 0 and 180
        # keep the bits they get alone (MMSE's +0 written as 0, not -0)
        cfg = small_sweep(quiet(desk, -130.0), parameter="theta_s", start=0.0, stop=180.0,
                          count=5)
        real = numerical.assemble_H
        stacks = []

        def recorded(geoms, wdm, projection):
            stacks.append(list(geoms))
            return real(geoms, wdm, projection)

        monkeypatch.setattr(numerical, "assemble_H", recorded)
        path = tmp_path / "sweep.csv"
        records = run_sweep(cfg, str(path))
        assert [[round(math.degrees(g.theta_s)) for g in stack] for stack in stacks] == [
            [0, 45, 90, 135, 180]
        ]
        failed = (
            "ValueError: water-filling found no active mode: power 1400.75 + 1/chi rounds to 1/chi = "
        )
        assert [rec.error for rec in records] == [
            "", failed + "1.22803e+22", failed + "1.248e+20", failed + "2.63083e+21", "",
        ]
        assert all(math.isnan(se) for rec in records[1:4] for se in rec[1:5])
        monkeypatch.setattr(numerical, "assemble_H", real)
        for k in (0, 4):
            alone = numerical.evaluate_points(cfg.wdm, [stacks[0][k]])[0]
            assert [se.hex() for se in records[k][1:5]] == [se.hex() for se in alone]
        rows = path.read_text().splitlines()
        assert rows[1] == "0,3.2034265e-16,0,3.2034265e-16,3.2034265e-16,"
        assert rows[5] == "180,3.2034265e-16,0,3.2034265e-16,3.2034265e-16,"

    def test_failed_noise_factor_flags_every_row(self, desk, tmp_path, monkeypatch):
        # an indefinite covariance fails the factor; each point tries it
        # again, is flagged with its message, and the CSV stays complete
        monkeypatch.setattr(
            channel, "assemble_R", lambda geom, wdm: -np.eye(wdm.n_modes, dtype=complex)
        )
        cfg = small_sweep(desk, count=3)
        path = str(tmp_path / "sweep.csv")
        records = run_sweep(cfg, path)
        with pytest.raises(np.linalg.LinAlgError) as failure:
            noise_factor(cfg.geometry, cfg.wdm)
        message = f"LinAlgError: {failure.value}"
        assert "not positive definite" in message
        assert [rec.error for rec in records] == [message] * 3
        assert all(math.isnan(rec.se_svd) for rec in records)
        cols = read_csv_columns(path)
        assert cols["value"] == ["0", "1", "2"]
        assert cols["error"] == [message] * 3
        for col in ("se_svd", "se_mmse", "se_mr", "se_plain"):
            assert cols[col] == ["", "", ""]

    def test_svg_smoke(self, desk, tmp_path):
        cfg = small_sweep(desk, count=3)
        svg = tmp_path / "sweep.svg"
        run_sweep(cfg, str(tmp_path / "sweep.csv"), str(svg))
        text = svg.read_text()
        assert text.startswith("<svg")
        assert "</svg>" in text


# ---------------------------------------------------------------------------
# One noise factor per run


def _count_calls(monkeypatch):
    """Count what a sweep makes here: calls and "points".

    The calls of H, R, the noise factor, the receive projection and the
    receivers; H and the receivers run once per stack of points, and
    "points" counts the geometries H evaluates over all stacks.
    """
    calls = collections.Counter()
    for module, name in (
        (numerical, "assemble_H"),
        (channel, "assemble_R"),
        (numerical, "noise_factor"),
        (numerical, "ReceiveProjection"),
        (numerical, "spectral_efficiency"),
    ):

        def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            if _name == "assemble_H":
                geom = args[0]
                calls["points"] += 1 if isinstance(geom, LinkGeometry) else len(geom)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


class TestNoiseFactorPerRun:
    def test_cold_serial_sweep_factors_once(self, desk, tmp_path, monkeypatch):
        calls = _count_calls(monkeypatch)
        run_sweep(small_sweep(desk, count=5), str(tmp_path / "sweep.csv"))
        # each d_z is a receive segment of its own: five stacks of one
        assert calls == {
            "assemble_H": 5, "points": 5, "assemble_R": 1, "noise_factor": 1,
            "ReceiveProjection": 5, "spectral_efficiency": 5,
        }

    def test_orientations_of_one_segment_share_stacks(self, desk, tmp_path, monkeypatch):
        # 41 orientations of one receive segment: one projection, and stacks
        # of at most stack_size (18 on desk), each point evaluated once
        cfg = small_sweep(desk, parameter="theta_s", start=0.0, stop=40.0, count=41)
        assert channel.stack_size(cfg.wdm) == 18
        calls = _count_calls(monkeypatch)
        run_sweep(cfg, str(tmp_path / "sweep.csv"))
        assert calls == {
            "assemble_H": 3, "points": 41, "assemble_R": 1, "noise_factor": 1,
            "ReceiveProjection": 1, "spectral_efficiency": 3,
        }

    def test_warm_sweep_assembles_nothing(self, desk, tmp_path, monkeypatch):
        # a warm point reads its SE values: no H, R, noise factor or receiver
        cfg = small_sweep(desk, count=5)
        cached = with_cache(cfg, tmp_path / "cache")
        cold, warm = tmp_path / "cold.csv", tmp_path / "warm.csv"
        run_sweep(cached, str(cold))
        calls = _count_calls(monkeypatch)
        run_sweep(cached, str(warm))
        assert calls == {}
        assert warm.read_bytes() == cold.read_bytes()

    def test_first_cache_miss_builds_the_factor(self, desk, tmp_path, monkeypatch):
        cfg = small_sweep(desk, count=5)
        cache = tmp_path / "cache"
        cached = with_cache(cfg, cache)
        cold, rerun = tmp_path / "cold.csv", tmp_path / "rerun.csv"
        run_sweep(cached, str(cold))
        for value in (cfg.sweep.values()[1], cfg.sweep.values()[3]):
            geom = replace(cfg.geometry, d_z=float(value))
            os.remove(cache_entry(cache, geom, cfg.wdm))
        calls = _count_calls(monkeypatch)
        run_sweep(cached, str(rerun))
        assert calls == {
            "assemble_H": 2, "points": 2, "assemble_R": 1, "noise_factor": 1,
            "ReceiveProjection": 2, "spectral_efficiency": 2,
        }
        assert rerun.read_bytes() == cold.read_bytes()

    def test_pool_parent_never_factors(self, desk, tmp_path, monkeypatch):
        # each child factors once for its slice; the parent only waits, so
        # it assembles, factors and evaluates nothing and its peak memory
        # holds no R and no H (the counts here are the parent's own)
        cfg = small_sweep(desk, count=5)
        serial, pooled = tmp_path / "serial.csv", tmp_path / "pooled.csv"
        run_sweep(cfg, str(serial))
        calls = _count_calls(monkeypatch)
        run_sweep(replace(cfg, output=replace(cfg.output, workers=2)), str(pooled))
        assert calls == {}
        assert pooled.read_bytes() == serial.read_bytes()


# ---------------------------------------------------------------------------
# Stacks of points that share a receive segment


def _missed_points(monkeypatch, run, cfg, tmp_path):
    """The geometries a run hands to the numerical layer."""
    points, real = [], experiments._compute

    def capture(cfg, missed):
        points.extend(missed)
        return real(cfg, missed)

    monkeypatch.setattr(experiments, "_compute", capture)
    run(cfg, str(tmp_path / "run.csv"))
    monkeypatch.setattr(experiments, "_compute", real)
    return points


def _hex_outcomes(outcomes):
    """Each outcome's SE values in ``float.hex``, a failure message as it is."""
    return [se if isinstance(se, str) else [value.hex() for value in se] for se in outcomes]


class TestStackInvariance:
    """A point's four SE values do not depend on the stack it is evaluated in.

    Each point is evaluated alone, in either strided half (as each of two
    workers takes it), in either contiguous half, cut one point past the
    middle so that the second starts inside a run of one receive segment,
    and in the whole list, and every SE value must have the same bits.
    """

    @staticmethod
    def _check(wdm, points, failing=()):
        whole = _hex_outcomes(numerical.evaluate_points(wdm, points))
        alone = [_hex_outcomes(numerical.evaluate_points(wdm, [point]))[0] for point in points]
        halves = [_hex_outcomes(numerical.evaluate_points(wdm, points[i::2])) for i in (0, 1)]
        cut = len(points) // 2 + 1
        first, second = (
            _hex_outcomes(numerical.evaluate_points(wdm, part))
            for part in (points[:cut], points[cut:])
        )
        assert whole == alone
        assert halves[0] == whole[0::2] and halves[1] == whole[1::2]
        assert first + second == whole
        assert [isinstance(se, str) for se in whole] == [k in failing for k in range(len(whole))]
        assert all(len(se) == 4 for se in whole if not isinstance(se, str))

    def test_averaged_desk_sweep(self, desk, tmp_path, monkeypatch):
        # the shape of the benchmark's pooled desk workload: 3 d_x x 20
        # orientations, stacks of 18 and 2 per d_x, or of 10 in each half
        cfg = small_sweep(desk, parameter="d_x", start=5.0, stop=15.0, count=3,
                          draws_per_phi=4, seed=17)
        points = _missed_points(monkeypatch, run_avg_sweep, cfg, tmp_path)
        assert len(points) == 60
        self._check(desk.wdm, points)

    def test_full_theta_sweep(self, full_scale, tmp_path, monkeypatch):
        # 41 orientations of one full-scale receive segment, stacks of 4
        cfg = small_sweep(full_scale, parameter="theta_s", start=0.0, stop=180.0, count=41)
        points = _missed_points(monkeypatch, run_sweep, cfg, tmp_path)
        assert len(points) == 41 and channel.stack_size(full_scale.wdm) == 4
        self._check(full_scale.wdm, points)

    def test_stacks_with_failed_rows(self, desk):
        # at -100 dB water-filling fails the 14 desk orientations from 58.5
        # to 117 degrees, across the first two stacks of 18 and the cut
        # between the halves: each keeps its own message in every stack
        wdm = quiet(desk, -100.0).wdm
        points = [replace(desk.geometry, theta_s=math.radians(4.5 * k)) for k in range(41)]
        self._check(wdm, points, failing=range(13, 27))

    @pytest.mark.filterwarnings("ignore::wdmlink.em_field.NearFieldWarning")
    def test_near_source_desk_stack(self, desk):
        # at d_x = 0.2 m and d_z = 0.4 the segment is sampled in three
        # pieces, and on the first some orientations double their samples
        # once and others do not (at d_x = 0.3 m no orientation of a
        # 31 x 12 grid doubles, so 0.2 m is taken)
        geom = replace(desk.geometry, d_x=0.2, d_z=0.4)
        rng = np.random.default_rng(30)
        geoms = [
            replace(geom, theta_s=float(theta), phi_s=float(phi))
            for theta, phi in zip(rng.uniform(0.0, math.pi, 24), rng.uniform(0.0, 2 * math.pi, 24))
        ]
        projection = channel.ReceiveProjection(geom, desk.wdm)
        _, sizes, _ = channel._form_H(geoms, desk.wdm, projection, keep=False)
        assert len(projection.pieces) > 1
        assert len({tuple(size) for size in sizes}) > 1  # tails double at different counts
        self._check(desk.wdm, geoms)


def test_near_source_sweep_shows_each_warning_once(desk, tmp_path):
    # under the default filter a NearFieldWarning repeated with the same
    # text from the same line is shown once: 41 orientations at d_x =
    # 0.25 m show 13 distinct ones, whatever stacks they are evaluated in
    near = replace(desk, geometry=replace(desk.geometry, d_x=0.25))
    cfg = small_sweep(near, parameter="theta_s", start=0.0, stop=180.0, count=41)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default", NearFieldWarning)
        run_sweep(cfg, str(tmp_path / "sweep.csv"))
    assert all(w.category is NearFieldWarning for w in caught)
    messages = [str(w.message) for w in caught]
    assert len(set(messages)) == len(messages) == 13


def test_near_source_stack_with_failed_rows_shows_each_warning_once(desk, tmp_path):
    # at -120 dB water-filling fails 8 of 41 orientations at d_x = 0.25 m;
    # the stacks are evaluated once, so under an "always" filter the sweep
    # shows exactly the NearFieldWarnings that its points show alone
    near = replace(quiet(desk, -120.0), geometry=replace(desk.geometry, d_x=0.25))
    cfg = small_sweep(near, parameter="theta_s", start=0.0, stop=180.0, count=41)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", NearFieldWarning)
        records = run_sweep(cfg, str(tmp_path / "sweep.csv"))
        swept = [str(w.message) for w in caught]
        del caught[:]
        for k in range(41):
            geom = replace(near.geometry, theta_s=math.radians(4.5 * k))
            numerical.evaluate_points(near.wdm, [geom])
    assert sum(bool(rec.error) for rec in records) == 8
    assert swept == [str(w.message) for w in caught]
    assert len(swept) == 27 and len(set(swept)) == 13


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

    @pytest.mark.parametrize("workers", [1, 2])
    def test_reused_projection_matches_one_per_point(self, desk, tmp_path, monkeypatch, workers):
        # 3 d_x values x 20 orientations: two workers take every second
        # point, 30 each, and each builds one projection per d_x; one
        # worker takes all 60 and builds one projection per d_x
        cfg = small_sweep(desk, parameter="d_x", start=5.0, stop=15.0, count=3,
                          draws_per_phi=4, seed=3)
        cfg = replace(cfg, output=replace(cfg.output, workers=workers))
        built = []

        class Counted(channel.ReceiveProjection):
            def __init__(self, geom, wdm):
                built.append(geom.d_x)
                super().__init__(geom, wdm)

        monkeypatch.setattr(numerical, "ReceiveProjection", Counted)
        reused = tmp_path / "reused.csv"
        run_avg_sweep(cfg, str(reused))
        if workers == 1:
            assert built == [5.0, 10.0, 15.0]
        real = numerical.assemble_H

        def fresh_projection(geom, wdm, projection):
            return real(geom, wdm)  # assemble_H builds its own

        monkeypatch.setattr(numerical, "assemble_H", fresh_projection)
        rebuilt = tmp_path / "rebuilt.csv"
        run_avg_sweep(cfg, str(rebuilt))
        assert reused.read_bytes() == rebuilt.read_bytes()

    def test_failed_orientation_flags_its_grid_point(self, desk, tmp_path, monkeypatch):
        cfg = small_sweep(
            desk, parameter="d_x", start=2.0, stop=4.0, count=3,
            draws_per_phi=2, phi_set_deg=(0.0, 90.0), seed=5,
        )
        real = numerical.assemble_H
        stacks = []

        def sabotaged(geoms, wdm, projection):
            # the orientations at phi = 90 degrees fail at d_x = 3, and the
            # exception flags their stack of four, which is evaluated once
            stacks.append(len(geoms))
            if any(geom.d_x == 3.0 and geom.phi_s > 0.0 for geom in geoms):
                raise RuntimeError("synthetic failure")
            return real(geoms, wdm, projection)

        monkeypatch.setattr(numerical, "assemble_H", sabotaged)
        path = str(tmp_path / "avg.csv")
        svg = tmp_path / "avg.svg"
        records = run_avg_sweep(cfg, path, str(svg))
        assert stacks == [4, 4, 4]
        assert [rec.error for rec in records] == ["", "RuntimeError: synthetic failure", ""]
        assert all(math.isnan(m) for m in records[1].mean)
        for rec in (records[0], records[2]):
            assert all(m > 0.0 for m in rec.mean)
        cols = read_csv_columns(path)
        assert cols["value"] == ["2", "3", "4"]
        se_columns = [name for name in cols if name.startswith("se_")]
        assert len(se_columns) == 8
        for col in se_columns:
            assert cols[col][1] == ""
            assert cols[col][0] != "" and cols[col][2] != ""
        assert cols["error"] == ["", "RuntimeError: synthetic failure", ""]
        text = svg.read_text()
        assert text.startswith("<svg")
        assert "</svg>" in text

    def test_pooled_warm_run_reads_a_serial_fill(self, desk, tmp_path):
        # the pool's workers read the entries a serial cold run wrote, give
        # the same bytes and rewrite none of them (a rewrite is a rename,
        # so it would change the inode as well as the modification time)
        cfg = small_sweep(
            desk, parameter="d_x", start=2.0, stop=3.0, count=2,
            draws_per_phi=2, phi_set_deg=(0.0, 90.0), seed=7,
        )
        cache = tmp_path / "cache"
        cold, warm = tmp_path / "cold.csv", tmp_path / "warm.csv"
        run_avg_sweep(with_cache(cfg, cache), str(cold))

        def stamps():
            return {
                e.name: (e.stat().st_ino, e.stat().st_mtime_ns)
                for e in os.scandir(cache / FORMAT_VERSION)
            }

        filled = stamps()
        assert len(filled) == 8
        run_avg_sweep(with_cache(cfg, cache, workers=2), str(warm))
        assert stamps() == filled
        assert warm.read_bytes() == cold.read_bytes()

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
# Table format shared by every CSV-writing runner


class TestTableFormat:
    """The CSV cells every runner writes: the grid column first, values at
    9 significant digits, blank value cells and the error on a flagged
    row, and the ``error`` column last."""

    @staticmethod
    def fixed_outcomes(monkeypatch, outcomes):
        def evaluate(wdm, geoms):
            assert len(geoms) == len(outcomes)
            return list(outcomes)

        monkeypatch.setattr(numerical, "evaluate_points", evaluate)

    def test_sweep_csv_text(self, desk, tmp_path, monkeypatch):
        self.fixed_outcomes(
            monkeypatch,
            [
                [1.0 / 3.0, 2.0, 0.5, 1e-3],
                "LinAlgError: not positive definite, at d_z = 1",
                [10.0, 1.25, 3.0, 123456789.125],
            ],
        )
        path = tmp_path / "sweep.csv"
        run_sweep(small_sweep(desk, count=3), str(path))
        assert path.read_text(encoding="ascii") == (
            "value,se_svd,se_mmse,se_mr,se_plain,error\n"
            "0,0.333333333,2,0.5,0.001,\n"
            '1,,,,,"LinAlgError: not positive definite, at d_z = 1"\n'
            "2,10,1.25,3,123456789,\n"
        )

    def test_avg_sweep_csv_text(self, desk, tmp_path, monkeypatch):
        # two orientations per grid point; the second point's both fail
        self.fixed_outcomes(
            monkeypatch,
            [
                [0.0, 1.0 / 3.0, 1.0, 4.0],
                [2.0, 1.0 / 3.0, 3.0, 4.0],
                "RuntimeError: first",
                "RuntimeError: second",
            ],
        )
        cfg = small_sweep(
            desk, parameter="d_x", start=2.0, stop=3.0, count=2,
            draws_per_phi=2, phi_set_deg=(0.0,),
        )
        path = tmp_path / "avg.csv"
        run_avg_sweep(cfg, str(path))
        assert path.read_text(encoding="ascii") == (
            "value,se_svd_mean,se_mmse_mean,se_mr_mean,se_plain_mean,"
            "se_svd_stderr,se_mmse_stderr,se_mr_stderr,se_plain_stderr,error\n"
            "2,1,0.333333333,2,4,1,0,1,0,\n"
            "3,,,,,,,,,RuntimeError: first\n"
        )

    def test_pattern_header_and_error_column(self, desk, tmp_path):
        cfg = replace(desk, pattern=replace(desk.pattern, mode_offsets=(-1, 0), step_deg=10.0))
        path = str(tmp_path / "pattern.csv")
        run_pattern(cfg, path)
        cols = read_csv_columns(path)
        assert list(cols) == ["theta_deg", "mode_10", "mode_11", "error"]
        assert cols["theta_deg"] == [str(10 * i) for i in range(19)]
        assert cols["error"] == [""] * 19

    def test_field_header_and_error_column(self, desk, tmp_path):
        cfg = replace(desk, field=FieldSettings(mode_offsets=(0,), grid_points=5))
        path = str(tmp_path / "field.csv")
        run_field(cfg, path)
        cols = read_csv_columns(path)
        assert list(cols) == ["r_offset", "mode_11", "error"]
        assert cols["error"] == [""] * 5


@pytest.mark.parametrize("size", [1, 2, 3, 7, 8, 9, 16, 100, 129, 1000])
def test_ensemble_statistics_are_numpy_bit_for_bit(size):
    # the averaged sweep's mean and standard error, computed without
    # numpy, against numpy's mean and std(ddof=1) over the ensemble axis of
    # an (orientations, schemes) table, as the averaged runner computed
    # them before; a NaN (a failed orientation) spreads to its column
    draws = np.random.default_rng(20261019 + size)
    for trial in range(20):
        table = draws.uniform(0.0, 120.0, (size, 4)) * 10.0 ** draws.integers(-3, 3, 4)
        if trial % 5 == 4:
            table[draws.integers(size), 1] = math.nan
        mean = table.mean(axis=0)
        stderr = table.std(axis=0, ddof=1) / math.sqrt(size) if size > 1 else 0 * mean
        ours = [experiments._mean_stderr(table[:, j].tolist()) for j in range(4)]
        assert np.array([m for m, _ in ours]).tobytes() == mean.tobytes(), (size, trial)
        assert np.array([e for _, e in ours]).tobytes() == stderr.tobytes(), (size, trial)


# The tilt ensemble's stream against numpy's Generator


_NAMED_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 10**30, 10**50]
_RANDOM_SEEDS = [
    int(s) for s in np.random.default_rng(20261018).integers(0, 2**64, 100, dtype=np.uint64)
]


@pytest.mark.parametrize(
    "seeds",
    [[s] for s in _NAMED_SEEDS] + [_RANDOM_SEEDS],
    ids=[f"seed={s}" for s in _NAMED_SEEDS] + ["100-random-64-bit-seeds"],
)
def test_uniform_stream_is_numpy_default_rng(seeds):
    # one stream per (size, range), so each starts at the seed's first draw
    for seed in seeds:
        for size in (1, 4, 20, 257):
            for low, high in ((0.0, math.radians(30.0)), (-1.0, 1.0), (0.1, 10.0)):
                ours = experiments._UniformStream(seed).uniform(low, high, size)
                theirs = np.random.default_rng(seed).uniform(low, high, size)
                assert all(type(x) is float for x in ours)
                assert np.array(ours).tobytes() == theirs.tobytes(), (seed, size, low, high)


@pytest.mark.parametrize("profile", ["desk", "full_scale"])
def test_uniform_stream_follows_selfcheck_call_sequence(profile, request):
    # interleaved vector and scalar calls consume one stream, as run_selfcheck does
    n_modes = request.getfixturevalue(profile).wdm.n_modes
    ours = experiments._UniformStream(202404)
    theirs = np.random.default_rng(202404)
    for _ in range(200):
        vector = np.array(ours.uniform(-1.0, 1.0, 3))
        assert vector.tobytes() == theirs.uniform(-1.0, 1.0, 3).tobytes()
        for high in (math.pi, 2.0 * math.pi):
            a, b = ours.uniform(0.0, high), theirs.uniform(0.0, high)
            assert type(a) is type(b) is float and a == b
    chi = np.array(ours.uniform(0.1, 10.0, n_modes))
    assert chi.tobytes() == theirs.uniform(0.1, 10.0, n_modes).tobytes()


# ---------------------------------------------------------------------------
# Channel dump and self-check


def test_channel_dump_roundtrip(desk, desk_channel, tmp_path):
    # a dump holds its header and H and R as assembled, not whitened
    path = str(tmp_path / "link.wdmch")
    assert run_channel_dump(desk, path) == path
    with np.load(path) as data:
        assert sorted(data.files) == ["H", "R", "header"]
        header = channel_header(desk.geometry, desk.wdm)
        assert str(data["header"]) == header
        assert np.array_equal(data["H"], desk_channel.H)
        assert np.array_equal(data["R"], desk_channel.R)


def test_channel_dump_needs_no_positive_definite_covariance(desk, tmp_path, monkeypatch):
    indefinite = -np.eye(desk.wdm.n_modes, dtype=complex)
    monkeypatch.setattr(numerical, "assemble_R", lambda geom, wdm: indefinite)
    path = str(tmp_path / "link.wdmch")
    assert run_channel_dump(desk, path) == path
    with np.load(path) as data:
        assert np.array_equal(data["R"], indefinite)


def test_selfcheck_passes_on_desk_link(desk, capsys):
    assert run_selfcheck(desk) is True
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 5
    assert "under node doubling (tolerance 1e-06)" in out
    # the run's rule, the one every CLI run uses, and its doubling
    assert re.search(r"\[PASS\] H quadrature convergence: relative drift \S+ at 4 -> 8 points "
                     r"per period, 16-node panels, under node doubling", out)
    assert re.search(r"\[PASS\] H reduced field vs direct sum: relative gap \S+ with "
                     r"1 piece, 40 Chebyshev samples, largest tail \S+ \(tolerance 1e-06\)", out)
    assert re.search(r"\[PASS\] noise factorization: whitened covariance off I by \S+ "
                     r"\(relative to C\) at d_z = 0 and 0.05 m", out)
    assert "[FAIL]" not in out


def test_selfcheck_checks_the_runs_whitening(desk, capsys, monkeypatch):
    # a whiten that moves the factor by conj(D) is exact at d_z = 0, where
    # D = I, so only the second height, d_z + L_s/4, shows it
    def conjugated(H, geom, wdm, L0):
        return np.linalg.solve(L0, channel._dz_phase(geom, wdm).conj()[:, None] * H)

    monkeypatch.setattr(numerical, "whiten", conjugated)
    assert run_selfcheck(desk) is False
    out = capsys.readouterr().out
    assert "[FAIL] noise factorization" in out
    assert out.count("[PASS]") == 4


def test_selfcheck_names_the_pieces_near_the_source(desk, capsys):
    # at 15 wavelengths the desk segment is sampled in four pieces, and H
    # from them is still compared with the direct sum over every node pair
    near = replace(desk, geometry=replace(desk.geometry, d_x=0.3))
    assert run_selfcheck(near) is True
    out = capsys.readouterr().out
    assert re.search(r"\[PASS\] H reduced field vs direct sum: relative gap \S+ with "
                     r"4 pieces, 182 Chebyshev samples, largest tail \S+", out)
    assert "[FAIL]" not in out


def test_selfcheck_passes_on_full_link(full_scale, capsys):
    # node doubling of H at full scale, which the desk link does not reach
    assert run_selfcheck(full_scale) is True
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 5
    assert "[FAIL]" not in out
