"""The canonical channel header and the sweep cache's entries.

Every (geometry, config) pair has one :func:`channel_header`.  A sweep
with ``[output] cache_dir`` keeps each point's four spectral
efficiencies (SVD, MMSE, MR, plain) in a text file named by
:func:`channel_cache_key` under ``<cache_dir>/<FORMAT_VERSION>/``: the
header, then one line per value as ``float.hex`` writes it, so a value
reads back bit for bit.  Reading and writing an entry take no numpy, so
a sweep whose every point is cached never loads it.
"""

from __future__ import annotations

import contextlib
import os
import zlib
from typing import BinaryIO, Iterator, Sequence, Tuple

from .config import Scheme, WdmConfig
from .geometry import LinkGeometry

__all__ = [
    "FORMAT_VERSION",
    "channel_header",
    "channel_cache_key",
    "replacing",
    "save_channel_set",
    "load_matching_channel_set",
]

# A sweep's cache keeps its entries in a directory of this name, so a
# format change leaves the old entries in one directory to delete.
FORMAT_VERSION = "v13"
_FORMAT_TAG = f"wdmlink-channel-set {FORMAT_VERSION}"


def channel_header(geom: LinkGeometry, cfg: WdmConfig) -> str:
    """Canonical header describing one (geometry, config) pair.

    The format tag, then one ``section.name = repr(value)`` line per
    parameter, so two runs produce the same header exactly when every
    parameter matches.  A sweep's cache entry and a ``dump-channel`` file
    of H and R both start with it.
    """
    # the config's rule is named field by field, after the config's own fields
    records = (("geometry", geom), ("wdm", cfg), ("quadrature", cfg.quadrature))
    lines = [_FORMAT_TAG] + [
        f"{part}.{name} = {value!r}"
        for part, record in records
        for name, value in zip(record._fields, record)
        if name != "quadrature"
    ]
    return "\n".join(lines) + "\n"


def channel_cache_key(geom: LinkGeometry, cfg: WdmConfig) -> str:
    """Stable 16-hex-digit digest of the header, a cache file stem.

    The header's CRC-32 and Adler-32, which depend on its bytes alone, not
    on process, platform or Python version.  zlib is a small extension
    module, where a cryptographic hash would load OpenSSL (~3.5 MB).  A
    collision can only cost a recompute: :func:`load_matching_channel_set`
    rejects an entry whose stored header differs.
    """
    header = channel_header(geom, cfg).encode()
    return f"{zlib.crc32(header):08x}{zlib.adler32(header):08x}"


@contextlib.contextmanager
def replacing(path: str) -> Iterator[BinaryIO]:
    """A binary file that takes the place of ``path`` once it is complete.

    It is a per-process temporary file next to ``path``, renamed into
    place when the block ends and removed if it raises, so a crash never
    leaves a partial file under ``path``.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as out:
            yield out
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def save_channel_set(path: str, geom: LinkGeometry, cfg: WdmConfig, se: Sequence[float]) -> None:
    """Write the cache entry of one point's SE values, in Scheme order, to ``path``.

    Equal inputs give equal bytes.
    """
    body = "".join(f"{float(value).hex()}\n" for value in se)
    with replacing(path) as out:
        out.write((channel_header(geom, cfg) + body).encode("ascii"))


def load_matching_channel_set(path: str, geom: LinkGeometry, cfg: WdmConfig) -> Tuple[float, ...]:
    """The SE values :func:`save_channel_set` stored at ``path``.

    Raises:
        ValueError: If the stored header differs from
            ``channel_header(geom, cfg)`` or what follows it is not one
            value per scheme as ``float.hex`` writes them.
        OSError: On an unreadable file.
    """
    with open(path, encoding="ascii", newline="") as fh:
        text = fh.read()
    header = channel_header(geom, cfg)
    if not text.startswith(header):
        raise ValueError(f"{path}: stored header does not match the requested geometry/config")
    body = text[len(header):]
    se = tuple(float.fromhex(line) for line in body.split("\n")[:-1])
    if len(se) != len(Scheme) or "".join(f"{value.hex()}\n" for value in se) != body:
        raise ValueError(f"{path}: holds no {len(Scheme)} SE values as float.hex writes them")
    return se
