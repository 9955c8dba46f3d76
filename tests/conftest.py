"""Shared fixtures: small reference configurations and prebuilt channel sets."""

import numpy as np
import pytest

from wdmlink.config import desk_profile, full_profile

import oracles


@pytest.fixture(scope="session")
def desk():
    return desk_profile()


@pytest.fixture(scope="session")
def full_scale():
    return full_profile()


@pytest.fixture(scope="session")
def desk_channel(desk):
    """Desk-scale H, R, C, L and H_tilde at broadside, assembled once per session."""
    return oracles.channel_set(desk.geometry, desk.wdm)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260818)


def read_csv_columns(path):
    """Parse one of our CSV outputs into {column: list of strings}."""
    import csv

    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: [r[i] for r in body] for i, name in enumerate(header)}


def pytest_runtest_logreport(report):
    # One visible verdict line per acceptance criterion, independent of -v.
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if not name.startswith("test_c"):
        return
    label = name[5:].replace("_", " ")
    verdict = "PASS" if report.passed else "FAIL"
    print(f"\n[{verdict}] acceptance {label}")
