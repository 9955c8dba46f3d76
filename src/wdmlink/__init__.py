"""Line-of-sight wavenumber-division multiplexing link simulator.

Models the coupling between two linear segments with arbitrary relative
orientation and position: mode radiation patterns, received field
profiles, the wavenumber-domain channel and interference matrices, and
the spectral efficiency of four linear transceiver architectures.
"""

import os

# H is contracted in many small BLAS calls; between them OpenBLAS helper
# threads busy-wait on the other cores, doubling CPU time and starving pool
# workers.  Parallelism comes from the process pool instead.  This must run
# before numpy loads OpenBLAS; a value already in the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .channel import (
    ChannelSet,
    WdmConfig,
    assemble_channel_set,
    assemble_H,
    assemble_R,
    emi_variance,
    load_matching_channel_set,
    max_modes,
    save_channel_set,
    spatial_frequency,
    total_power,
    tx_basis,
    rx_basis,
    whiten,
)
from .em_field import (
    EmConstants,
    FieldPeak,
    ModeIndex,
    NearFieldWarning,
    boresight_reference_peak,
    green_dyadic_ff,
    gz_kernel,
    peak_location_boresight,
    peak_locations_general,
    radiation_pattern,
    received_field_profile,
)
from .geometry import LinkGeometry, receive_point, rotation_matrix, source_direction, source_point
from .quadrature import QuadratureSpec, composite_gauss_nodes, integrate_1d, integrate_2d
from .receivers import Scheme, SchemeResult, scheme_matrices, sinr, spectral_efficiency, waterfill

__version__ = "0.1.0"

__all__ = [
    "ChannelSet",
    "EmConstants",
    "FieldPeak",
    "LinkGeometry",
    "ModeIndex",
    "NearFieldWarning",
    "QuadratureSpec",
    "Scheme",
    "SchemeResult",
    "WdmConfig",
    "assemble_channel_set",
    "assemble_H",
    "assemble_R",
    "boresight_reference_peak",
    "composite_gauss_nodes",
    "emi_variance",
    "green_dyadic_ff",
    "gz_kernel",
    "integrate_1d",
    "integrate_2d",
    "load_matching_channel_set",
    "max_modes",
    "peak_location_boresight",
    "peak_locations_general",
    "radiation_pattern",
    "receive_point",
    "received_field_profile",
    "rotation_matrix",
    "save_channel_set",
    "scheme_matrices",
    "sinr",
    "source_direction",
    "source_point",
    "spatial_frequency",
    "spectral_efficiency",
    "total_power",
    "tx_basis",
    "rx_basis",
    "waterfill",
    "whiten",
]
