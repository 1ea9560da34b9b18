"""A deterministic file system on the dictionary (Section 1.2).

"Note that this implementation gives random access to any position in a
file" — the paper's motivating application, packaged: file names map
through :class:`~repro.workloads.names.NameCodec` into the dictionary
universe (no inode translation step), each (name, block) key holds one
file block, and every operation reports its parallel-I/O cost with the
dictionary's worst-case guarantees behind it.

:mod:`repro.fs.blockfile` is the other half of this package: the durable
per-disk block log beneath the file-backed executor
(:mod:`repro.pdm.executors`) — append-only CRC-framed records with
fsync-before-acknowledge ordering and typed
:class:`~repro.pdm.errors.DiskFailure` / BlockCorruption errors.
"""

from repro.fs.blockfile import BlockLogFile, decode_frame, encode_frame
from repro.fs.filesystem import DeterministicFileSystem, FileStat

__all__ = [
    "BlockLogFile",
    "DeterministicFileSystem",
    "FileStat",
    "decode_frame",
    "encode_frame",
]
