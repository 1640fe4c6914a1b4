"""The zero-copy buffer plane: windows, ownership, aliasing safety.

Covers the :mod:`repro.buf` primitives (PacketBuffer/BufView/CopyMeter),
the aliasing-safety properties the data path depends on (a freed view
raises ``BufError`` on every access, prepend never silently copies), and the
system-level leak invariant: every buffer allocated on the data path is
freed by the end of every chaos scenario.
"""

import pytest

from repro.buf import BufView, CopyMeter, PacketBuffer
from repro.errors import BufError
from repro.faults.catalogue import catalogue, run_case
from repro.hw.fiber import Frame
from tests.conftest import shrunk_case


# ------------------------------------------------------------- window algebra


def test_alloc_reserves_headroom_and_zeroes():
    view = PacketBuffer.alloc(8, headroom=4, tailroom=2)
    assert len(view) == 8
    assert view.offset == 4
    assert bytes(view.mv()) == b"\x00" * 8
    assert len(view.buffer.storage) == 14


def test_fill_prepend_strip_slice_round_trip():
    view = PacketBuffer.alloc(6, headroom=3)
    view.fill_from(b"packet")
    framed = view.prepend(b"hdr")
    assert bytes(framed.mv()) == b"hdrpacket"
    assert framed.buffer is view.buffer  # same storage, wider window
    stripped = framed.strip(3)
    assert bytes(stripped.mv()) == b"packet"
    window = stripped.slice(1, 4)
    assert bytes(window.mv()) == b"acke"
    assert bytes(framed.strip_back(6).mv()) == b"hdr"


def test_wrap_adopts_storage_without_copying():
    storage = bytearray(b"abcdef")
    view = PacketBuffer.wrap(storage)
    storage[0] = ord("z")
    assert bytes(view.mv()) == b"zbcdef"
    view[1] = ord("y")
    assert storage == b"zycdef"


def test_sequence_protocol():
    view = PacketBuffer.wrap(bytearray(b"abcd")).slice(1, 2)
    assert len(view) == 2
    assert view[0] == ord("b")
    assert view[-1] == ord("c")
    assert bytes(view[0:2]) == b"bc"
    with pytest.raises(IndexError):
        view[2]
    with pytest.raises(BufError):
        view[0:2] = b"xy"  # uncounted slice writes are forbidden


def test_out_of_window_operations_raise():
    view = PacketBuffer.alloc(4, headroom=2)
    with pytest.raises(BufError):
        view.strip(5)
    with pytest.raises(BufError):
        view.strip_back(5)
    with pytest.raises(BufError):
        view.slice(2, 3)
    with pytest.raises(BufError):
        view.fill_from(b"12345")
    with pytest.raises(BufError):
        PacketBuffer.alloc(-1)
    with pytest.raises(BufError):
        PacketBuffer.wrap(42)


def test_prepend_beyond_headroom_raises_never_copies():
    view = PacketBuffer.alloc(4, headroom=2, meter=(meter := CopyMeter()))
    storage = view.buffer.storage
    with pytest.raises(BufError):
        view.prepend(b"toolong")
    # No silent reallocation-and-copy happened: same storage, no counted
    # bytes, still exactly the one allocation.
    assert view.buffer.storage is storage
    assert meter.memcpy_bytes == 0
    assert meter.buffers_allocated == 1


# ----------------------------------------------------------------- accounting


def test_meter_counts_the_three_copy_primitives():
    meter = CopyMeter()
    view = PacketBuffer.alloc(8, headroom=4, meter=meter)
    view.fill_from(b"01234567")
    framed = view.prepend(b"head")
    framed.tobytes()
    assert meter.memcpy_bytes == 8 + 4 + 12
    assert meter.memcpy_calls == 3
    framed.release()
    assert meter.buffers_allocated == 1
    assert meter.buffers_freed == 1
    assert meter.live_buffers == 0


def test_views_are_uncounted():
    meter = CopyMeter()
    view = PacketBuffer.wrap(bytearray(b"abcdefgh"), meter=meter)
    view.mv()
    view.strip(2).slice(1, 3)
    view[0], view[1] = view[1], view[0]
    assert meter.memcpy_bytes == 0
    assert meter.memcpy_calls == 0


def test_snapshot_is_sorted_and_stable():
    meter = CopyMeter()
    snapshot = meter.snapshot()
    assert list(snapshot) == sorted(snapshot)
    assert snapshot == {
        "buffers_allocated": 0,
        "buffers_freed": 0,
        "memcpy_bytes": 0,
        "memcpy_calls": 0,
    }


# ------------------------------------------------------------------ ownership


def test_refcount_retain_release():
    view = PacketBuffer.alloc(4, meter=(meter := CopyMeter()))
    other = view.retain()
    assert other is view
    view.release()
    assert not view.buffer.freed
    assert bytes(view.mv()) == b"\x00" * 4  # co-owner keeps it alive
    view.release()
    assert view.buffer.freed
    assert meter.live_buffers == 0


def test_over_release_and_retain_after_free_raise():
    view = PacketBuffer.alloc(4)
    view.release()
    with pytest.raises(BufError):
        view.release()
    with pytest.raises(BufError):
        view.retain()


def test_double_release_through_an_alias_raises():
    view = PacketBuffer.alloc(8)
    alias = view.slice(2, 4)
    view.release()
    with pytest.raises(BufError, match="double free"):
        alias.release()


@pytest.mark.parametrize(
    "derive",
    [
        lambda view: view.slice(4, 8),
        lambda view: view.strip(4),
        lambda view: view.prepend(b"hd"),
    ],
    ids=["slice", "strip", "prepend"],
)
def test_window_derived_before_the_last_release_raises_after_it(derive):
    view = PacketBuffer.alloc(16, headroom=2, label="derived")
    window = derive(view)
    view.release()
    with pytest.raises(BufError, match="derived: view of .* used after"):
        window.mv()
    with pytest.raises(BufError):
        window.tobytes()


# ----------------------------------------------------------- aliasing safety


def test_freed_view_raises_buf_error_on_every_access():
    view = PacketBuffer.alloc(32, label="stale-frame")
    view.release()
    with pytest.raises(BufError, match="stale-frame: view of 32 bytes used after"):
        view.mv()
    # Every access path through the window is guarded the same way.
    with pytest.raises(BufError):
        view[0]
    with pytest.raises(BufError):
        view[0] = 1
    with pytest.raises(BufError):
        view.fill_from(b"x")
    with pytest.raises(BufError):
        view.prepend(b"")
    with pytest.raises(BufError):
        view.tobytes()


def test_released_frame_payload_is_inaccessible():
    frame = Frame(route=(0,), payload=b"four")
    chunk = next(frame.chunks())
    frame.release()
    with pytest.raises(BufError):
        frame.chunk_bytes(chunk)
    with pytest.raises(BufError):
        frame.crc_ok()


# ------------------------------------------------------- system-level leaks


@pytest.mark.parametrize("scenario", sorted(catalogue(7)))
def test_no_buffer_leaks_after_chaos_scenario(scenario):
    """Every frame buffer allocated under faults is released: drops, CRC
    rejections, retransmissions, and deliveries all terminate ownership."""
    run = run_case(shrunk_case(scenario, 7))
    assert not run.workload.incomplete(run.system), f"{scenario}: flows incomplete"
    meter = run.system.copy_meter
    assert meter.buffers_allocated > 0
    assert meter.live_buffers == 0, (
        f"{scenario}: {meter.live_buffers} of {meter.buffers_allocated} "
        f"buffers never released"
    )


def test_fault_free_run_is_leak_free_and_deterministic():
    from repro.telemetry.observe import run_observe

    first = run_observe("rmp-stream")
    second = run_observe("rmp-stream")
    assert first.system.copy_meter.live_buffers == 0
    assert first.system.copy_meter.snapshot() == second.system.copy_meter.snapshot()
