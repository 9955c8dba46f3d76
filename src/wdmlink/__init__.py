"""Line-of-sight wavenumber-division multiplexing link simulator.

Models the coupling between two linear segments with arbitrary relative
orientation and position: mode radiation patterns, received field
profiles, the wavenumber-domain channel and interference matrices, and
the spectral efficiency of four linear transceiver architectures.
"""

import os

# H is contracted in many small BLAS calls; between them OpenBLAS helper
# threads busy-wait on the other cores, doubling CPU time and starving the
# forked sweep workers.  Parallelism comes from those workers instead.  This
# must run before numpy loads OpenBLAS; a value already in the environment
# wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
