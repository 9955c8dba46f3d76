"""The package's records: immutable named tuples, checked whenever one is built."""

import math
import pickle

import pytest

from wdmlink.config import (
    FieldSettings,
    OutputSettings,
    PatternSettings,
    QuadratureSpec,
    SweepSettings,
    desk_profile,
)
from wdmlink.experiments import AvgSweepRecord, SweepRecord
from wdmlink.geometry import replace

from test_geometry import INVALID_GEOMETRY

DESK = desk_profile()

# (a valid record, changes its constructor rejects)
REJECTED = [
    *((DESK.geometry, kwargs) for kwargs in INVALID_GEOMETRY),
    (QuadratureSpec(), dict(points_per_wavelength=1.5)),
    (QuadratureSpec(), dict(nodes_per_panel=65)),
    (DESK.wdm, dict(wavelength=0.0)),
    (DESK.wdm, dict(n_modes=0)),
    (DESK.wdm, dict(source_power=0.0)),
    # sigma2_emi underflows to zero, and there is no hardware noise
    (DESK.wdm, dict(source_power=1e-300, snr_emi_db=3080.0)),
    # sigma2_emi overflows
    (DESK.wdm, dict(snr_emi_db=-3080.0)),
    (DESK.wdm, dict(snr_emi_db=math.nan)),
    *((DESK.wdm, dict(sigma2_hdw=value)) for value in (math.nan, math.inf, -1.0)),
    (SweepSettings(), dict(count=0)),
    (SweepSettings(), dict(phi_set_deg=(0.0, 360.0))),
    (FieldSettings(), dict(grid_points=1)),
    (PatternSettings(), dict(step_deg=0.0)),
    (OutputSettings(), dict(workers=0)),
]

# every validating record, the run config holding them and the sweep
# records a forked worker pickles back to its parent
RECORDS = [
    DESK.geometry,
    DESK.wdm.quadrature,
    DESK.wdm,
    DESK.sweep,
    DESK.field,
    DESK.pattern,
    DESK.output,
    DESK,
    SweepRecord(0.5, 11.0, 10.5, 9.0, 8.25),
    AvgSweepRecord(0.5, (11.0, 10.5, 9.0, 8.25), (0.1, 0.2, 0.3, 0.4)),
]


def _changes_id(case):
    record, changes = case
    return f"{type(record).__name__}:" + ",".join(f"{k}={v}" for k, v in changes.items())


@pytest.mark.parametrize("record, changes", REJECTED, ids=map(_changes_id, REJECTED))
def test_replace_rejects_what_the_constructor_rejects(record, changes):
    with pytest.raises(ValueError) as built:
        type(record)(**{**record._asdict(), **changes})
    with pytest.raises(ValueError) as replaced:
        replace(record, **changes)
    assert str(replaced.value) == str(built.value)


# ratios in dB whose 10^(snr / 10) is not finite or leaves the float range
REJECTED_SNR_DB = [math.nan, math.inf, -math.inf, -4000.0, 4000.0]


@pytest.mark.parametrize("snr_db", REJECTED_SNR_DB)
def test_emi_variance_rejects_a_ratio_outside_the_float_range(snr_db):
    # sigma2_emi is derived from snr_emi_db, which WdmConfig checks
    with pytest.raises(ValueError, match="snr_emi_db"):
        replace(DESK.wdm, snr_emi_db=snr_db)


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: type(record).__name__)
class TestRecord:
    def test_replace_builds_the_same_kind(self, record):
        name = record._fields[-1]
        changed = replace(record, **{name: getattr(record, name)})
        assert type(changed) is type(record) and changed == record
        with pytest.raises(TypeError):
            replace(record, no_such_field=1)

    def test_fields_cannot_be_assigned(self, record):
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            record.no_such_field = 1

    def test_pickle_round_trip(self, record):
        back = pickle.loads(pickle.dumps(record))
        assert type(back) is type(record) and back == record

    def test_repr_names_every_field(self, record):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(record._fields, record))
        assert repr(record) == f"{type(record).__name__}({fields})"


def test_geometry_repr():
    assert repr(DESK.geometry) == (
        "LinkGeometry(L_s=0.2, L_r=1.0, d_x=2.0, d_z=0.0, theta_s=0.0, phi_s=0.0)"
    )
