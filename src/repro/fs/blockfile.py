"""Durable per-disk block storage: an append-only frame log.

One :class:`BlockLogFile` is the physical image of one simulated disk for
the real-file executors (:mod:`repro.pdm.executors`).  Each write appends
a self-describing *frame* — header, pickled payload, CRC — and updates an
in-memory index ``block_index -> (offset, length)``; the newest frame for
an index shadows every older one, so overwrites never rewrite the file.
Reads use ``os.pread`` on a raw descriptor: no shared file position, so
one worker thread per disk can serve a round's transfers
concurrently without locking.

Durability contract (the gap this module closes):

* every OS-level error (``OSError`` from open/pread/pwrite/fsync) is
  wrapped into a typed :class:`~repro.pdm.errors.DiskFailure` — callers
  above the PDM layer never see a raw ``OSError``;
* a frame that fails its CRC, or was torn by a crash mid-write
  (``truncate`` through the middle of a frame models this), surfaces as
  :class:`~repro.pdm.errors.BlockCorruption` on read — detected, never
  silently decoded;
* with ``fsync=True`` every append is ``fsync``-ed *before* the index
  learns about the new frame, so an acknowledged write is on the medium
  (the in-memory index never points past what a crash could replay).

The frame layout is fixed-endian (``<``) and versioned::

    magic "RBLK" | version u8 | flags u8 | reserved u16
    block_index i64 | used_bits i64 | checksum u64 | payload_len u32
    body (payload_len bytes)
    crc32 u32   # over header + body

``flags`` bit 0 records whether the block carried a seal
(:attr:`repro.pdm.block.Block.checksum` is ``None`` otherwise); the
64-bit seal itself rides in the header so verify-on-read above the
executor sees exactly what the logical block carried.

``flags`` bit 1 selects the body.  A bucket payload — a non-empty list
of ``(key, t, fragment)`` tuples of plain ``int`` values, each fitting
``uint64``, every key below the ``2**64 - 1`` key-column pad — is
written *columnar*: three little-endian ``uint64`` lanes of ``n`` slots
each::

    keys  u64[n] | tags  u64[n] | fragments  u64[n]     # 24 n bytes

so the key lane, padded with ``2**64 - 1``, already *is* the block's key
column (:meth:`repro.kernels.base.Kernel.store_column`) and a read needs
no decode before the kernel matches keys (:class:`ItemLanes`).  Every
other payload is pickled (bit 1 clear), which is also what every frame
written before columnar bodies existed holds, so those still decode.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.pdm.errors import BlockCorruption, DiskFailure

MAGIC = b"RBLK"
VERSION = 1
_HEADER = struct.Struct("<4sBBHqqQI")
HEADER_SIZE = _HEADER.size
_CRC = struct.Struct("<I")
CRC_SIZE = _CRC.size
_FLAG_SEALED = 0x01
_FLAG_COLUMNAR = 0x02
#: pinned pickle protocol: frames written by one interpreter must decode
#: in later sessions too.
PICKLE_PROTOCOL = 4

#: the key-column pad (:meth:`repro.kernels.base.Kernel.store_column`):
#: a key equal to it has no columnar form
_PAD_KEY = (1 << 64) - 1
_PAD_SLOT = _PAD_KEY.to_bytes(8, "little")
#: bytes per item of a columnar body: one slot in each of three lanes
ITEM_BYTES = 24
_U64 = struct.Struct("<Q")
_INTS_ONLY = {int}

#: index sentinel for a frame whose tail was torn off (crash mid-write):
#: the header survived, so we know *which* block is damaged and raise
#: BlockCorruption on its read instead of resurrecting the older frame.
_TORN = (-1, -1)


class ItemLanes:
    """The undecoded body of a columnar frame: ``count`` bucket items as
    key, tag and fragment lanes of little-endian ``uint64`` slots.

    :meth:`key_column` is a byte slice of the frame, :meth:`item` decodes
    one slot, and :meth:`items` decodes the whole payload exactly as it
    was written: a list of ``(key, t, fragment)`` tuples of ``int``.
    """

    __slots__ = ("_data", "_start", "_count")

    def __init__(self, data: bytes, start: int, count: int):
        self._data = data
        self._start = start
        self._count = count

    def key_column(self, width: int) -> Optional[bytes]:
        """The key lane padded with ``2**64 - 1`` to ``width`` slots —
        byte-identical to ``store_column(self.items(), width)`` — or
        ``None`` when the lane holds more than ``width`` keys."""
        count = self._count
        if count > width:
            return None
        start = self._start
        return self._data[start : start + 8 * count] + _PAD_SLOT * (
            width - count
        )

    def item(self, slot: int) -> Tuple[int, int, int]:
        """The ``(key, t, fragment)`` item in ``slot``."""
        count = self._count
        if not 0 <= slot < count:
            raise IndexError(f"slot {slot} of a {count}-item frame")
        data = self._data
        offset = self._start + 8 * slot
        lane = 8 * count
        unpack = _U64.unpack_from
        return (
            unpack(data, offset)[0],
            unpack(data, offset + lane)[0],
            unpack(data, offset + 2 * lane)[0],
        )

    def items(self) -> List[Tuple[int, int, int]]:
        count = self._count
        values = struct.unpack_from(f"<{3 * count}Q", self._data, self._start)
        return list(
            zip(values[:count], values[count : 2 * count], values[2 * count :])
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ItemLanes({self.items()!r})"


def _columnar_body(payload: Any) -> Optional[bytes]:
    """The three-lane body of a bucket payload, or ``None`` when the
    payload has no columnar form and is pickled instead."""
    if type(payload) is not list or not payload:
        return None
    for item in payload:
        if type(item) is not tuple or len(item) != 3:
            return None
    keys, tags, fragments = zip(*payload)
    values = keys + tags + fragments
    # ``type is int`` keeps bools (and other int subclasses) pickled, so a
    # decoded payload matches the written one type for type.
    if set(map(type, values)) != _INTS_ONLY or _PAD_KEY in keys:
        return None
    try:
        return struct.pack(f"<{len(values)}Q", *values)
    except struct.error:  # a value below 0 or above 2**64 - 1
        return None


def encode_frame(
    block_index: int, payload: Any, used_bits: int, checksum: Optional[int]
) -> bytes:
    """One self-describing frame for ``block_index``: a columnar body for
    a bucket payload of ``uint64`` items, a pickled one otherwise."""
    flags = 0 if checksum is None else _FLAG_SEALED
    body = _columnar_body(payload)
    if body is None:
        body = pickle.dumps(payload, protocol=PICKLE_PROTOCOL)
    else:
        flags |= _FLAG_COLUMNAR
    header = _HEADER.pack(
        MAGIC, VERSION, flags, 0, block_index, used_bits,
        checksum if checksum is not None else 0, len(body),
    )
    return header + body + _CRC.pack(zlib.crc32(header + body))


def _where(path: str, block_index: Optional[int]) -> str:
    return f"block {block_index} of {path}" if block_index is not None else path


def decode_frame(
    data: bytes, *, path: str = "?", block_index: Optional[int] = None
) -> Tuple[Any, int, Optional[int]]:
    """``(payload, used_bits, checksum)`` of one frame, CRC-verified.

    The payload of a columnar frame comes back undecoded, as
    :class:`ItemLanes`; a pickled frame's payload comes back as the
    object that was written.  Raises
    :class:`~repro.pdm.errors.BlockCorruption` for anything that is not a
    bit-exact frame: short reads, bad magic, CRC mismatch, a columnar
    body that is not a whole number of items, or a pickled body that no
    longer unpickles.
    """
    if len(data) < HEADER_SIZE + CRC_SIZE:
        raise BlockCorruption(
            f"torn frame at {_where(path, block_index)}: {len(data)} bytes "
            f"is shorter than a frame header"
        )
    magic, version, flags, _, index, used_bits, checksum, payload_len = (
        _HEADER.unpack_from(data)
    )
    if magic != MAGIC or version != VERSION:
        raise BlockCorruption(
            f"bad frame magic/version at {_where(path, block_index)}: "
            f"{magic!r} v{version}"
        )
    end = HEADER_SIZE + payload_len
    if len(data) < end + CRC_SIZE:
        raise BlockCorruption(
            f"torn frame at {_where(path, block_index)}: header claims "
            f"{payload_len} payload bytes but only "
            f"{len(data) - HEADER_SIZE - CRC_SIZE} are present"
        )
    (crc,) = _CRC.unpack_from(data, end)
    if crc != zlib.crc32(data[:end]):
        raise BlockCorruption(
            f"frame CRC mismatch at {_where(path, block_index)}"
        )
    seal = checksum if flags & _FLAG_SEALED else None
    if flags & _FLAG_COLUMNAR:
        count, ragged = divmod(payload_len, ITEM_BYTES)
        if ragged or not count:
            raise BlockCorruption(
                f"columnar frame at {_where(path, block_index)} holds "
                f"{payload_len} body bytes, not a positive whole number of "
                f"{ITEM_BYTES}-byte items"
            )
        return ItemLanes(data, HEADER_SIZE, count), used_bits, seal
    try:
        payload = pickle.loads(data[HEADER_SIZE:end])
    except Exception as exc:
        raise BlockCorruption(
            f"frame payload at {_where(path, block_index)} no longer "
            f"unpickles: {exc!r}"
        ) from exc
    return payload, used_bits, seal


class BlockLogFile:
    """Append-only frame log holding one disk's blocks.

    Single-writer, many-reader: appends come from the owning executor
    lane; reads are position-less ``os.pread`` calls and may run from any
    thread holding the path and an extent.
    """

    def __init__(self, path: str, *, fsync: bool = False):
        self.path = str(path)
        self.fsync = fsync
        self._fd: Optional[int] = None
        # Newest frame per block: block_index -> (offset, frame_length),
        # or the _TORN sentinel for a frame damaged mid-write.  Owned by
        # the disk's executor lane; see Disk._blocks for the same contract.
        self._index: Dict[int, Tuple[int, int]] = {}  # detlint: guarded(disk-lane) -- one BlockLogFile per disk, owned by that disk's worker lane
        self._tail = 0
        try:
            self._fd = os.open(
                self.path, os.O_RDWR | os.O_CREAT, 0o644
            )
        except OSError as exc:
            raise DiskFailure(
                f"cannot open block log {self.path}: {exc}"
            ) from exc
        self._scan()

    # -- lifecycle ---------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._fd is None

    def close(self) -> None:
        if self._fd is None:
            return
        fd, self._fd = self._fd, None
        try:
            os.close(fd)
        except OSError as exc:
            raise DiskFailure(
                f"cannot close block log {self.path}: {exc}"
            ) from exc

    def __enter__(self) -> "BlockLogFile":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _require_open(self) -> int:
        if self._fd is None:
            raise DiskFailure(f"block log {self.path} is closed")
        return self._fd

    # -- recovery scan -----------------------------------------------------

    def _scan(self) -> None:
        """Rebuild the index from the frames on disk.

        Walks headers only (CRCs are verified on read).  A final frame cut
        short by a crash is recorded as torn when its header survived —
        its block then raises :class:`BlockCorruption` on read — and
        silently ends the scan when even the header is gone (nothing
        identifies a block, so there is nothing to mark).
        """
        fd = self._require_open()
        try:
            size = os.fstat(fd).st_size
        except OSError as exc:
            raise DiskFailure(
                f"cannot stat block log {self.path}: {exc}"
            ) from exc
        offset = 0
        while offset < size:
            header = self._pread(HEADER_SIZE, offset)
            if len(header) < HEADER_SIZE:
                break  # torn inside the header: no index to blame
            magic, version, _, _, index, _, _, payload_len = (
                _HEADER.unpack_from(header)
            )
            if magic != MAGIC or version != VERSION:
                raise BlockCorruption(
                    f"bad frame magic at offset {offset} of {self.path}; "
                    f"the log is not recoverable past this point"
                )
            length = HEADER_SIZE + payload_len + CRC_SIZE
            if offset + length > size:
                self._index[index] = _TORN
                break
            self._index[index] = (offset, length)
            offset += length
        self._tail = offset

    # -- reads -------------------------------------------------------------

    def _pread(self, length: int, offset: int) -> bytes:
        fd = self._require_open()
        try:
            return os.pread(fd, length, offset)
        except OSError as exc:
            raise DiskFailure(
                f"read of {self.path} failed at offset {offset}: {exc}"
            ) from exc

    def frame_extent(self, block_index: int) -> Optional[Tuple[int, int]]:
        """``(offset, length)`` of the newest frame for ``block_index``,
        ``None`` if never written.  Raises for a torn frame."""
        extent = self._index.get(block_index)
        if extent is None:
            return None
        if extent == _TORN:
            raise BlockCorruption(
                f"block {block_index} of {self.path} was torn by an "
                f"interrupted write"
            )
        return extent

    def read_block(
        self, block_index: int
    ) -> Optional[Tuple[Any, int, Optional[int]]]:
        """``(payload, used_bits, checksum)`` or ``None`` if never written;
        a columnar frame's payload is its :class:`ItemLanes`
        (:func:`decode_frame`)."""
        extent = self.frame_extent(block_index)
        if extent is None:
            return None
        offset, length = extent
        data = self._pread(length, offset)
        return decode_frame(data, path=self.path, block_index=block_index)

    @property
    def block_indices(self) -> List[int]:
        return sorted(self._index)

    # -- writes ------------------------------------------------------------

    def append_block(
        self,
        block_index: int,
        payload: Any,
        used_bits: int,
        checksum: Optional[int],
    ) -> None:
        self.append_many([(block_index, payload, used_bits, checksum)])

    def append_many(
        self, entries: Iterable[Tuple[int, Any, int, Optional[int]]]
    ) -> None:
        """Append one frame per entry, then (under ``fsync=True``) make
        them durable *before* the index acknowledges them."""
        fd = self._require_open()
        staged: List[Tuple[int, int, int]] = []
        offset = self._tail
        for block_index, payload, used_bits, checksum in entries:
            frame = encode_frame(block_index, payload, used_bits, checksum)
            try:
                written = os.pwrite(fd, frame, offset)
            except OSError as exc:
                raise DiskFailure(
                    f"write of block {block_index} to {self.path} failed: "
                    f"{exc}"
                ) from exc
            if written != len(frame):
                # A short pwrite is a torn frame on the medium: fail the
                # write loudly; the frame is not indexed, so the previous
                # version of the block stays authoritative.
                raise DiskFailure(
                    f"short write of block {block_index} to {self.path}: "
                    f"{written} of {len(frame)} bytes"
                )
            staged.append((block_index, offset, len(frame)))
            offset += len(frame)
        if not staged:
            return
        if self.fsync:
            self.sync()
        for block_index, off, length in staged:
            self._index[block_index] = (off, length)
        self._tail = offset

    def sync(self) -> None:
        """Durability barrier: flush the log to the medium."""
        fd = self._require_open()
        try:
            os.fsync(fd)
        except OSError as exc:
            raise DiskFailure(
                f"fsync of {self.path} failed: {exc}"
            ) from exc

    def reset(self) -> None:
        """Truncate to empty (a rebuilt disk's slate is rewritten whole)."""
        fd = self._require_open()
        try:
            os.ftruncate(fd, 0)
        except OSError as exc:
            raise DiskFailure(
                f"truncate of {self.path} failed: {exc}"
            ) from exc
        self._index.clear()
        self._tail = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BlockLogFile({self.path!r}, blocks={len(self._index)}, "
            f"tail={self._tail})"
        )
