"""Durability tests for the per-disk block log (`repro.fs.blockfile`).

The regression surface this file pins down:

* torn writes — a crash that truncates the log mid-frame must surface as
  a typed :class:`BlockCorruption` on the damaged block's read, never
  silently resurrect the older frame or leak a raw ``OSError``;
* fsync-before-acknowledge ordering — a failed durability barrier must
  leave the index un-updated, so acknowledged reads only ever serve
  frames that reached the medium;
* every OS-level failure is wrapped into :class:`DiskFailure`.
"""

import os

import pytest

from repro.fs.blockfile import (
    CRC_SIZE,
    HEADER_SIZE,
    ITEM_BYTES,
    MAGIC,
    BlockLogFile,
    ItemLanes,
    decode_frame,
    encode_frame,
)
from repro.pdm.errors import BlockCorruption, DiskFailure, IOFault


@pytest.fixture
def log_path(tmp_path):
    return str(tmp_path / "disk-000.blk")


def _fill(log, items):
    log.append_many(
        (index, payload, bits, seal) for index, payload, bits, seal in items
    )


class TestRoundTrip:
    def test_append_read(self, log_path):
        with BlockLogFile(log_path) as log:
            log.append_block(3, ["a", "b"], 16, 12345)
            assert log.read_block(3) == (["a", "b"], 16, 12345)
            assert log.read_block(4) is None

    def test_unsealed_checksum_is_none(self, log_path):
        with BlockLogFile(log_path) as log:
            log.append_block(0, [1], 8, None)
            payload, bits, seal = log.read_block(0)
            assert (payload, bits, seal) == ([1], 8, None)

    def test_newest_frame_shadows(self, log_path):
        with BlockLogFile(log_path) as log:
            log.append_block(7, ["old"], 8, None)
            log.append_block(7, ["new"], 8, None)
            assert log.read_block(7)[0] == ["new"]
            assert log.block_indices == [7]

    def test_reopen_rebuilds_index(self, log_path):
        with BlockLogFile(log_path) as log:
            _fill(log, [(i, [i * 11], 8, i) for i in range(5)])
            log.append_block(2, ["latest"], 8, None)
        with BlockLogFile(log_path) as log:
            assert log.block_indices == [0, 1, 2, 3, 4]
            assert log.read_block(2) == (["latest"], 8, None)
            assert log.read_block(4) == ([44], 8, 4)

    def test_append_after_reopen_extends(self, log_path):
        with BlockLogFile(log_path) as log:
            log.append_block(0, ["first"], 8, None)
        with BlockLogFile(log_path) as log:
            log.append_block(1, ["second"], 8, None)
            assert log.read_block(0)[0] == ["first"]
            assert log.read_block(1)[0] == ["second"]

    def test_reset_truncates(self, log_path):
        with BlockLogFile(log_path) as log:
            log.append_block(0, ["x"], 8, None)
            log.reset()
            assert log.block_indices == []
            assert log.read_block(0) is None
        assert os.path.getsize(log_path) == 0


class TestTornWrites:
    """Crash-mid-write modeled as truncating the log, then reopening."""

    def _write_two_versions(self, log_path):
        """Block 5 twice (second frame last in the file), plus block 1."""
        with BlockLogFile(log_path) as log:
            log.append_block(1, ["keep"], 8, 99)
            log.append_block(5, ["v1"], 8, None)
            log.append_block(5, ["v2-to-tear"], 8, None)
            extent = log.frame_extent(5)
        return extent

    def test_truncate_mid_frame_detected(self, log_path):
        offset, length = self._write_two_versions(log_path)
        # Tear through the middle of the final frame: header survives.
        os.truncate(log_path, offset + HEADER_SIZE + 2)
        with BlockLogFile(log_path) as log:
            with pytest.raises(BlockCorruption):
                log.read_block(5)
            # Undamaged blocks are still served.
            assert log.read_block(1) == (["keep"], 8, 99)

    def test_torn_frame_does_not_resurrect_older(self, log_path):
        """The damaged block must NOT silently fall back to its stale v1."""
        offset, _ = self._write_two_versions(log_path)
        os.truncate(log_path, offset + HEADER_SIZE + 2)
        with BlockLogFile(log_path) as log:
            with pytest.raises(BlockCorruption):
                log.frame_extent(5)

    def test_torn_header_ends_scan(self, log_path):
        """Header itself cut: nothing identifies the frame, so the scan
        stops and the previous acknowledged state stays authoritative."""
        offset, _ = self._write_two_versions(log_path)
        os.truncate(log_path, offset + 3)
        with BlockLogFile(log_path) as log:
            # The torn v2 frame was never identifiable; v1 (acknowledged
            # and intact) is the newest surviving frame.
            assert log.read_block(5)[0] == ["v1"]
            assert log.read_block(1)[0] == ["keep"]

    def test_crc_mismatch_detected(self, log_path):
        with BlockLogFile(log_path) as log:
            log.append_block(2, ["payload"], 8, None)
            offset, length = log.frame_extent(2)
        with open(log_path, "r+b") as handle:
            handle.seek(offset + HEADER_SIZE + 1)
            byte = handle.read(1)
            handle.seek(offset + HEADER_SIZE + 1)
            handle.write(bytes([byte[0] ^ 0xFF]))
        with BlockLogFile(log_path) as log:
            with pytest.raises(BlockCorruption):
                log.read_block(2)

    def test_bad_magic_mid_log_is_unrecoverable(self, log_path):
        with BlockLogFile(log_path) as log:
            log.append_block(0, ["x"], 8, None)
        with open(log_path, "r+b") as handle:
            handle.seek(0)
            handle.write(b"JUNK")
        with pytest.raises(BlockCorruption):
            BlockLogFile(log_path)


class TestTypedErrors:
    """No raw OSError ever escapes; everything is DiskFailure/IOFault."""

    def test_open_failure_is_disk_failure(self, tmp_path):
        with pytest.raises(DiskFailure):
            BlockLogFile(str(tmp_path))  # a directory is not a log

    def test_closed_log_raises_disk_failure(self, log_path):
        log = BlockLogFile(log_path)
        log.append_block(0, ["x"], 8, None)
        log.close()
        log.close()  # idempotent
        with pytest.raises(DiskFailure):
            log.read_block(0)
        with pytest.raises(DiskFailure):
            log.append_block(0, ["x"], 8, None)
        with pytest.raises(DiskFailure):
            log.sync()

    def test_all_typed_errors_are_iofaults(self, log_path):
        try:
            BlockLogFile(log_path + "/not-a-dir/x")
        except DiskFailure as exc:
            assert isinstance(exc, IOFault)
        else:  # pragma: no cover - the open must fail
            pytest.fail("expected DiskFailure")

    def test_short_pwrite_fails_without_acknowledge(self, log_path, monkeypatch):
        with BlockLogFile(log_path) as log:
            log.append_block(0, ["good"], 8, None)
            real_pwrite = os.pwrite
            monkeypatch.setattr(
                os, "pwrite", lambda fd, data, off: real_pwrite(
                    fd, data[: len(data) // 2], off
                )
            )
            with pytest.raises(DiskFailure):
                log.append_block(0, ["torn"], 8, None)
            monkeypatch.undo()
            # The half-written frame was never indexed: the previous
            # version of the block stays authoritative.
            assert log.read_block(0)[0] == ["good"]


class TestFsyncOrdering:
    def test_fsync_runs_before_acknowledge(self, log_path, monkeypatch):
        """A failed durability barrier must leave the index unchanged —
        the write is not acknowledged, so reads keep serving the previous
        frame."""
        with BlockLogFile(log_path, fsync=True) as log:
            log.append_block(4, ["durable"], 8, None)

            def broken_fsync(fd):
                raise OSError("simulated medium failure")

            monkeypatch.setattr(os, "fsync", broken_fsync)
            with pytest.raises(DiskFailure):
                log.append_block(4, ["lost"], 8, None)
            monkeypatch.undo()
            assert log.read_block(4)[0] == ["durable"]

    def test_fsync_true_appends_are_durable(self, log_path):
        with BlockLogFile(log_path, fsync=True) as log:
            _fill(log, [(i, [i], 8, None) for i in range(8)])
        with BlockLogFile(log_path) as log:
            assert log.block_indices == list(range(8))


class TestFrameCodec:
    def test_round_trip(self):
        frame = encode_frame(9, {"k": [1, 2]}, 24, 777)
        assert decode_frame(frame) == ({"k": [1, 2]}, 24, 777)

    def test_short_data_raises(self):
        frame = encode_frame(0, ["x"], 8, None)
        with pytest.raises(BlockCorruption):
            decode_frame(frame[: HEADER_SIZE - 4])
        with pytest.raises(BlockCorruption):
            decode_frame(frame[:-CRC_SIZE])

    def test_bad_magic_raises(self):
        frame = encode_frame(0, ["x"], 8, None)
        with pytest.raises(BlockCorruption):
            decode_frame(b"XXXX" + frame[len(MAGIC):])

    def test_unpicklable_payload_region_raises(self):
        frame = bytearray(encode_frame(0, ["x"], 8, None))
        # Scramble the payload but re-stamp a valid CRC: only the
        # unpickle step can catch this one.
        import zlib

        frame[HEADER_SIZE] ^= 0xFF
        body = bytes(frame[:-CRC_SIZE])
        frame[-CRC_SIZE:] = zlib.crc32(body).to_bytes(4, "little")
        with pytest.raises(BlockCorruption):
            decode_frame(bytes(frame))


def _columnar(payload):
    """Whether ``encode_frame`` chose the columnar body for ``payload``."""
    decoded = decode_frame(encode_frame(0, payload, 8, None))[0]
    return isinstance(decoded, ItemLanes)


class TestColumnarFrames:
    """Bucket payloads of uint64 triples take the three-lane body; every
    other payload stays pickled, and both decode to what was written."""

    TOP_KEY = (1 << 64) - 2  # the largest key below the column pad
    TOP = (1 << 64) - 1

    @pytest.mark.parametrize(
        "payload",
        [
            [(1, 0, 2)],
            [(0, 0, 0)],
            [(5, 0, (1 << 64) - 1), (6, 1, 0)],
            [((1 << 64) - 2, 3, 9)],
            [(k, k % 3, k * 1_000_003) for k in range(32)],
        ],
    )
    def test_int_triples_are_columnar_and_round_trip(self, payload):
        frame = encode_frame(4, payload, 64 * len(payload), 31)
        lanes, bits, seal = decode_frame(frame)
        assert isinstance(lanes, ItemLanes)
        assert (bits, seal) == (64 * len(payload), 31)
        items = lanes.items()
        assert items == payload
        assert [type(v) for it in items for v in it] == [int] * (
            3 * len(payload)
        )
        assert all(type(it) is tuple for it in items)
        assert [lanes.item(s) for s in range(len(payload))] == payload
        with pytest.raises(IndexError):
            lanes.item(len(payload))

    def test_body_is_three_lanes(self):
        frame = encode_frame(0, [(1, 2, 3), (4, 5, 6)], 16, None)
        body = frame[HEADER_SIZE:-CRC_SIZE]
        assert len(body) == 2 * ITEM_BYTES
        assert body == b"".join(
            v.to_bytes(8, "little") for v in (1, 4, 2, 5, 3, 6)
        )

    @pytest.mark.parametrize(
        "payload",
        [
            [(True, 0, 1)],
            [(1, False, 1)],
            [(1, 0, True)],
            [(-1, 0, 1)],
            [(1, 0, -5)],
            [(1, 0, 1 << 64)],
            [(1 << 64, 0, 1)],
            [((1 << 64) - 1, 0, 1)],  # the pad key itself
            [[1, 0, 1]],
            [(1, 0)],
            [(1, 0, 1, 2)],
            [(1, 0, "x")],
            [(1, 0, None)],
            [(1, 0, 1), "x"],
            [],
            None,
            ("tuple", "not", "list"),
        ],
    )
    def test_everything_else_is_pickled(self, payload):
        assert not _columnar(payload)
        assert decode_frame(encode_frame(1, payload, 8, None)) == (
            payload, 8, None
        )

    def test_key_column_matches_store_column(self):
        from repro.kernels.base import PythonKernel

        payload = [(9, 0, 1), (self.TOP_KEY, 1, self.TOP), (0, 0, 0)]
        lanes = decode_frame(encode_frame(0, payload, 24, None))[0]
        kernel = PythonKernel()
        for width in (3, 4, 32):
            assert lanes.key_column(width) == kernel.store_column(
                payload, width
            )
        assert lanes.key_column(2) is None  # more keys than slots

    def test_crc_flip_raises(self):
        frame = bytearray(encode_frame(0, [(1, 0, 2), (3, 0, 4)], 16, None))
        frame[HEADER_SIZE + 9] ^= 0x01
        with pytest.raises(BlockCorruption):
            decode_frame(bytes(frame))

    def test_torn_tail_raises(self):
        frame = encode_frame(0, [(1, 0, 2), (3, 0, 4)], 16, None)
        for cut in (1, CRC_SIZE, CRC_SIZE + 8, len(frame) - HEADER_SIZE):
            with pytest.raises(BlockCorruption):
                decode_frame(frame[:-cut])

    @pytest.mark.parametrize("body_len", [0, 8, ITEM_BYTES + 1, 47])
    def test_ragged_columnar_body_raises(self, body_len):
        import struct
        import zlib

        # A columnar header over a body that is not a positive whole
        # number of items, with a valid CRC: only the lane check sees it.
        header = struct.pack(
            "<4sBBHqqQI", MAGIC, 1, 0x02, 0, 0, 8, 0, body_len
        )
        data = header + bytes(body_len)
        frame = data + zlib.crc32(data).to_bytes(4, "little")
        with pytest.raises(BlockCorruption):
            decode_frame(frame)

    def test_hand_built_pickle_frame_of_bucket_payload_decodes(self):
        """A frame in the pickle-only format (flags without the columnar
        bit) of a bucket payload still decodes to that payload."""
        import pickle
        import struct
        import zlib

        payload = [(7, 0, 70), (8, 1, 80)]
        body = pickle.dumps(payload, protocol=4)
        header = struct.pack(
            "<4sBBHqqQI", MAGIC, 1, 0x01, 0, 3, 128, 0xABC, len(body)
        )
        frame = header + body + zlib.crc32(header + body).to_bytes(4, "little")
        decoded, bits, seal = decode_frame(frame)
        assert decoded == payload and not isinstance(decoded, ItemLanes)
        assert (bits, seal) == (128, 0xABC)

    def test_log_read_block_serves_lanes(self, log_path):
        payload = [(11, 0, 5), (12, 0, 6)]
        with BlockLogFile(log_path) as log:
            log.append_block(2, payload, 128, None)
        with BlockLogFile(log_path) as log:
            lanes, bits, seal = log.read_block(2)
            assert lanes.items() == payload
            assert (bits, seal) == (128, None)
