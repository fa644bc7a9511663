"""Unit tests for the federation transport building blocks.

Covers the wire framing (DESIGN.md §14) — round-trips, incremental
decode, and the corruption → ``FrameError`` contract that drives the
tear-down-and-resend recovery path — plus address parsing, the
idempotent ``claim_once`` lease API the coordinator is built on, and
the corrupt-board regression (satellite: a scribbled ``board.json``
must raise a clear :class:`LeaseBoardError`, not a raw JSON traceback).
"""

from __future__ import annotations

import json
import socket

import pytest

from repro.parallel import FileLeaseBoard, LeaseBoardError
from repro.parallel.transport import frames
from repro.parallel.transport.coordinator import (
    Coordinator,
    TransportError,
    default_local_address,
    format_address,
    parse_address,
)

# --- framing ---------------------------------------------------------------


def test_ctrl_frame_round_trip():
    message = {"op": "claim", "seq": 3, "round": 1, "node": 0}
    decoder = frames.FrameDecoder()
    decoded = decoder.feed(frames.pack_ctrl(message))
    assert len(decoded) == 1
    ftype, payload = decoded[0]
    assert ftype == frames.FT_CTRL
    assert frames.parse_ctrl(payload) == message


def test_blob_frame_round_trip():
    meta = {"op": "push", "seq": 9, "base": 4}
    raw = bytes(range(256)) * 7
    (ftype, payload), = frames.FrameDecoder().feed(
        frames.pack_blob(meta, raw))
    assert ftype == frames.FT_BLOB
    got_meta, got_raw = frames.split_blob(payload)
    assert got_meta == meta
    assert got_raw == raw


def test_decoder_handles_byte_at_a_time_delivery():
    wire = frames.pack_ctrl({"op": "a"}) + frames.pack_ctrl({"op": "b"})
    decoder = frames.FrameDecoder()
    decoded = []
    for i in range(len(wire)):
        decoded.extend(decoder.feed(wire[i:i + 1]))
    assert [frames.parse_ctrl(p)["op"] for _, p in decoded] == ["a", "b"]


def test_decoder_handles_coalesced_frames_in_one_feed():
    wire = b"".join(frames.pack_ctrl({"op": "x", "seq": i})
                    for i in range(5))
    decoded = frames.FrameDecoder().feed(wire)
    assert [frames.parse_ctrl(p)["seq"] for _, p in decoded] == list(range(5))


def test_corrupt_payload_fails_crc():
    wire = bytearray(frames.pack_ctrl({"op": "claim", "seq": 1}))
    wire[-1] ^= 0xFF  # the node-side corrupt_frame fault does exactly this
    with pytest.raises(frames.FrameError, match="CRC"):
        frames.FrameDecoder().feed(bytes(wire))


def test_bad_magic_rejected():
    wire = b"XXXX" + frames.pack_ctrl({"op": "claim"})[4:]
    with pytest.raises(frames.FrameError, match="magic"):
        frames.FrameDecoder().feed(wire)


def test_future_version_rejected():
    wire = bytearray(frames.pack_ctrl({"op": "claim"}))
    wire[4] = 99
    with pytest.raises(frames.FrameError, match="version"):
        frames.FrameDecoder().feed(bytes(wire))


def test_unknown_frame_type_rejected():
    wire = frames.pack_frame(frames.FT_CTRL, b"{}")
    wire = wire[:5] + bytes([77]) + wire[6:]
    with pytest.raises(frames.FrameError, match="type"):
        frames.FrameDecoder().feed(wire)


def test_absurd_length_rejected_before_buffering():
    header = frames.FRAME_HEADER.pack(frames.FRAME_MAGIC,
                                      frames.FRAME_VERSION, frames.FT_CTRL,
                                      frames.MAX_PAYLOAD + 1, 0)
    with pytest.raises(frames.FrameError, match="ceiling"):
        frames.FrameDecoder().feed(header)


def test_partial_frame_is_buffered_not_an_error():
    wire = frames.pack_ctrl({"op": "claim", "seq": 1})
    decoder = frames.FrameDecoder()
    assert decoder.feed(wire[:len(wire) // 2]) == []
    (ftype, payload), = decoder.feed(wire[len(wire) // 2:])
    assert frames.parse_ctrl(payload)["op"] == "claim"


def test_ctrl_payload_must_be_an_op_object():
    with pytest.raises(frames.FrameError):
        frames.parse_ctrl(b"not json")
    with pytest.raises(frames.FrameError):
        frames.parse_ctrl(json.dumps([1, 2]).encode())
    with pytest.raises(frames.FrameError):
        frames.parse_ctrl(json.dumps({"seq": 1}).encode())


def test_blob_meta_validation():
    with pytest.raises(frames.FrameError):
        frames.split_blob(b"\x01")  # shorter than the meta-length field
    lying = frames._META_LEN.pack(1000) + b"{}"
    with pytest.raises(frames.FrameError):
        frames.split_blob(lying)


def test_encode_decode_blobs_round_trip():
    blobs = [b"", b"a", bytes(1000), b"tail"]
    assert frames.decode_blobs(frames.encode_blobs(blobs)) == blobs


def test_decode_blobs_rejects_torn_tail():
    wire = frames.encode_blobs([b"abcdef"])
    with pytest.raises(frames.FrameError):
        frames.decode_blobs(wire[:-2])
    with pytest.raises(frames.FrameError):
        frames.decode_blobs(wire + b"\x01\x00")


def test_delta_frame_round_trip():
    meta = {"op": "delta", "round": 2, "base": 7}
    raw = b"NCD1" + bytes(range(64))
    (ftype, payload), = frames.FrameDecoder().feed(
        frames.pack_delta(meta, raw))
    assert ftype == frames.FT_DELTA
    assert frames.split_blob(payload) == (meta, raw)


# --- mid-frame reconnects ---------------------------------------------------
#
# A connection can die with a frame half-delivered (the coordinator
# crashing mid-send, a node-side timeout mid-recv). Recovery discards
# the old decoder with the socket: the resent RPC arrives on a fresh
# connection with a fresh FrameDecoder, so the stale half-frame must
# never leak into the new stream — and the abandoned decoder must stay
# quietly buffered rather than erroring on the bytes it already holds.


def test_reconnect_after_partial_header():
    wire = frames.pack_ctrl({"op": "claim", "seq": 4})
    stale = frames.FrameDecoder()
    assert stale.feed(wire[:frames.FRAME_HEADER.size - 3]) == []

    fresh = frames.FrameDecoder()
    (ftype, payload), = fresh.feed(wire)
    assert frames.parse_ctrl(payload)["seq"] == 4
    # The abandoned decoder never completes, and never errors either.
    assert stale.feed(b"") == []


def test_reconnect_after_partial_blob_payload():
    wire = frames.pack_blob({"op": "push", "seq": 9}, bytes(4096))
    stale = frames.FrameDecoder()
    # Header plus half the payload delivered before the link died.
    assert stale.feed(wire[:frames.FRAME_HEADER.size + 2048]) == []

    fresh = frames.FrameDecoder()
    (ftype, payload), = fresh.feed(wire)
    assert ftype == frames.FT_BLOB
    meta, raw = frames.split_blob(payload)
    assert meta["seq"] == 9 and len(raw) == 4096


def test_stale_decoder_tail_does_not_corrupt_resent_frame():
    # The failure mode reconnect-with-a-fresh-decoder prevents: feeding
    # the resent frame into the *stale* decoder misframes the stream.
    wire = frames.pack_ctrl({"op": "claim", "seq": 1})
    stale = frames.FrameDecoder()
    stale.feed(wire[:10])
    with pytest.raises(frames.FrameError):
        # Half a header followed by a full frame is a corrupt stream.
        stale.feed(wire)


def test_reconnect_mid_multi_frame_burst():
    first = frames.pack_ctrl({"op": "claim", "seq": 1})
    second = frames.pack_blob({"op": "push", "seq": 2}, b"payload")
    stale = frames.FrameDecoder()
    # The first frame and part of the second arrived, then the link died.
    decoded = stale.feed(first + second[:8])
    assert [frames.parse_ctrl(p)["seq"] for _, p in decoded] == [1]

    # The sender resends only the unacknowledged RPC on the new link.
    fresh = frames.FrameDecoder()
    (ftype, payload), = fresh.feed(second)
    assert ftype == frames.FT_BLOB
    assert frames.split_blob(payload)[0]["seq"] == 2


# --- addresses -------------------------------------------------------------


def test_parse_address_tcp_and_unix():
    assert parse_address("127.0.0.1:9000") == ("tcp", "127.0.0.1", 9000)
    assert parse_address(":9000") == ("tcp", "127.0.0.1", 9000)
    assert parse_address("unix:/tmp/x.sock") == ("unix", "/tmp/x.sock")


@pytest.mark.parametrize("text", ["", "no-port", "host:notaport", "unix:"])
def test_parse_address_rejects_garbage(text):
    with pytest.raises(ValueError):
        parse_address(text)


def test_format_address_round_trips():
    for text in ("127.0.0.1:9000", "unix:/tmp/x.sock"):
        assert format_address(parse_address(text)) == text


def test_default_local_address_prefers_unix(tmp_path):
    address = default_local_address(tmp_path)
    if hasattr(socket, "AF_UNIX"):
        assert address[0] == "unix"
        assert address[1].startswith(str(tmp_path))
    else:  # pragma: no cover - non-POSIX CI
        assert address == ("tcp", "127.0.0.1", 0)


def test_default_local_address_falls_back_for_long_paths(tmp_path):
    deep = tmp_path / ("x" * 120)
    assert default_local_address(deep) == ("tcp", "127.0.0.1", 0)


# --- idempotent lease API --------------------------------------------------


def test_claim_once_is_idempotent(tmp_path):
    board = FileLeaseBoard.create(tmp_path, 20, 2, lease_size=8)
    first = board.claim_once(0, "0:0")
    again = board.claim_once(0, "0:0")
    assert first == again
    assert first is not None and first.size == 8
    # The repeat did not carve a second lease out of the budget.
    state = json.loads(board.state_path.read_text())
    assert state["remaining"] == 12
    assert state["next_id"] == 1


def test_claim_once_records_exhaustion_too(tmp_path):
    board = FileLeaseBoard.create(tmp_path, 8, 1, lease_size=8)
    lease = board.claim_once(0, "0:0")
    board.complete(lease.id, 0)
    assert board.claim_once(0, "1:0") is None
    assert board.claim_once(0, "1:0") is None
    state = json.loads(board.state_path.read_text())
    assert state["grants"]["1:0"] is None
    assert state["remaining"] == 0


def test_recorded_grant_reads_without_carving(tmp_path):
    board = FileLeaseBoard.create(tmp_path, 20, 2, lease_size=8)
    recorded, lease = board.recorded_grant("0:0")
    assert (recorded, lease) == (False, None)
    granted = board.claim_once(0, "0:0")
    recorded, lease = board.recorded_grant("0:0")
    assert recorded and lease == granted
    board.complete(granted.id, 0)
    board.claim_once(0, "1:0")
    board.claim_once(1, "1:1")
    assert board.recorded_grant("1:1") == (
        True, board.claim_once(1, "1:1"))


def test_claim_once_matches_plain_claim_sequence(tmp_path):
    """Grant sequence parity: keyed claims carve the same leases as the
    inline board's plain claims — the federation fingerprint contract."""
    keyed = FileLeaseBoard.create(tmp_path / "a", 50, 2, lease_size=20)
    plain = FileLeaseBoard.create(tmp_path / "b", 50, 2, lease_size=20)
    for rnd in range(3):
        for node in (0, 1):
            assert (keyed.claim_once(node, f"{rnd}:{node}")
                    == plain.claim(node))


# --- corrupt-board regression (satellite) ----------------------------------


def _scribbled_board(tmp_path, garbage: str) -> FileLeaseBoard:
    board = FileLeaseBoard.create(tmp_path, 16, 2, lease_size=8)
    board.state_path.write_text(garbage)
    return board


@pytest.mark.parametrize("garbage", ["{truncated", "", "[1, 2, 3]", "42"])
def test_corrupt_board_raises_lease_board_error(tmp_path, garbage):
    board = _scribbled_board(tmp_path, garbage)
    for operation in (lambda: board.claim(0),
                      lambda: board.claim_once(0, "0:0"),
                      board.finished,
                      board.summary,
                      lambda: board.recorded_grant("0:0")):
        with pytest.raises(LeaseBoardError) as excinfo:
            operation()
        # The message must name the file so the operator can act on it.
        assert str(board.state_path) in str(excinfo.value)


def test_corrupt_board_error_is_restartable(tmp_path):
    """A fresh create() over the scribbled file recovers the board —
    the supervisor's restart path after a LeaseBoardError death."""
    board = _scribbled_board(tmp_path, "{nope")
    with pytest.raises(LeaseBoardError):
        board.finished()
    recreated = FileLeaseBoard.create(tmp_path, 16, 2, lease_size=8)
    assert recreated.claim(0).size == 8
    assert not recreated.finished()


def test_unreadable_board_raises_lease_board_error(tmp_path):
    board = FileLeaseBoard.create(tmp_path, 16, 2)
    board.state_path.unlink()
    with pytest.raises(LeaseBoardError, match="unreadable"):
        board.finished()


# --- coord.json shape ------------------------------------------------------


@pytest.mark.parametrize("content", [
    "null", "5", "[1]", '"ab"', '{"byed": 3}', '{"expired": ["x"]}',
    '{"fetch_round": "0"}', '{"assigned": 1.5}', '{"drained_round": []}',
    '{"coverage": []}', '{"coverage": {"0": [1, 2]}}',
])
def test_misshapen_coordinator_state_raises_transport_error(tmp_path,
                                                            content):
    board = FileLeaseBoard.create(tmp_path, 16, 2, lease_size=8)
    (tmp_path / Coordinator.STATE).write_text(content)
    with pytest.raises(TransportError, match="unexpected shape"):
        Coordinator(tmp_path, board, 2)


def test_persisted_coordinator_state_loads_back(tmp_path):
    board = FileLeaseBoard.create(tmp_path, 16, 2, lease_size=8)
    (tmp_path / Coordinator.STATE).write_text(json.dumps(
        {"fetch_round": 3, "drained_round": 2, "byed": [1], "expired": [],
         "assigned": 2, "coverage": {"0": [4, 3, 120]}}))
    coordinator = Coordinator(tmp_path, board, 2)
    assert coordinator.membership() == {0}
