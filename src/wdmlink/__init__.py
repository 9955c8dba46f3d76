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
# freed), so the temporaries of each em_field._kernel_blocks block
# (130-260 KB) are page-faulted in again at every point, at ~3-4 us a
# fault.  Faults of a repeated desk assemble_H / cold full-scale point
# (noise factor, with R's ~1.8 MB lag-tone table, and whitened channel)
# after two warm-up calls, 2-core Xeon, glibc 2.36: defaults 379 / 0;
# glibc's 128 KiB set in the environment, which stops the raising,
# 471-522 / 5222-5440; 1 MiB 332-364 / 813-879; 2 MiB 1 / 459-492; 4 and
# 8 MiB 1 / 0.  With twice the kernel block (em_field._BLOCK_PAIRS =
# 2**15) 4 and 8 MiB give 0 / 0; with four times it 4 MiB gives 0 / 1638
# and 8 MiB 0 / 0, so 8 MiB keeps that headroom for the block size.
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
