"""Line-of-sight wavenumber-division multiplexing link simulator.

Models the coupling between two linear segments with arbitrary relative
orientation and position: mode radiation patterns, received field
profiles, the wavenumber-domain channel and interference matrices, and
the spectral efficiency of four linear transceiver architectures.
"""

import ctypes
import os

# H is contracted in many small BLAS calls; between them OpenBLAS helper
# threads busy-wait on the other cores, doubling CPU time and starving pool
# workers.  Parallelism comes from the process pool instead.  This must run
# before numpy loads OpenBLAS; a value already in the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# glibc's trim and mmap thresholds [bytes].  With its defaults, glibc maps
# each block of 128 KiB or more afresh and hands free heap above 128 KiB at
# the top back to the OS (raising both limits only as mapped blocks are
# freed), so temporaries of that size are page-faulted in again at every
# point, at ~3-4 us a fault.  em_field._kernel_blocks writes its blocks in
# place into three arrays of at most 128 KiB and R sums its lag tones in
# blocks of that size, so little of a point reaches those limits any more.
# Faults of a repeated desk assemble_H / cold full-scale point (noise
# factor and whitened channel) after two warm-up calls, 2-core Xeon,
# glibc 2.36, the ranges over import-time allocations: defaults 0 / 0-77;
# glibc's 128 KiB set in the environment, which stops the raising,
# 16 / 51-274; 1 to 8 MiB 0 / 0.  With twice the kernel block
# (em_field._BLOCK_PAIRS = 2**14) the defaults give 0 / 241 and 1 MiB 0 / 0;
# with four times it the defaults 250 / 554, 1 MiB 300 / 643 and 2 MiB
# 0 / 0; with eight times it 2 MiB 0 / 759 and 4 MiB 0 / 0; with sixteen
# times it 4 MiB 0 / 1515 and 8 MiB 0 / 0, so 8 MiB keeps ample headroom
# for the block size.
_MALLOC_THRESHOLD = 8 << 20
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap_resident() -> None:
    """Raise glibc's trim and mmap thresholds to ``_MALLOC_THRESHOLD``.

    Pool workers started by spawn or forkserver import this package but not
    the CLI, and forked ones inherit the setting.  A threshold already set
    in the environment wins, and nothing happens off glibc.
    """
    if any(
        name in os.environ
        for name in ("MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_", "GLIBC_TUNABLES")
    ):
        return
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        # no confstr (Windows), a name the platform lacks (macOS) or one
        # its libc rejects (musl)
        return
    if not glibc:
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, _MALLOC_THRESHOLD)
    mallopt(_M_MMAP_THRESHOLD, _MALLOC_THRESHOLD)


_keep_freed_heap_resident()

__version__ = "0.1.0"
