"""Tests for bounds-checked memory regions."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MemoryFault
from repro.hw.memory import MemoryRegion


class TestMemoryRegion:
    def test_write_read_roundtrip(self):
        mem = MemoryRegion("m", 4096)
        mem.write(100, b"hello")
        assert mem.read(100, 5) == b"hello"

    def test_zero_initialized(self):
        mem = MemoryRegion("m", 64)
        assert mem.read(0, 64) == bytes(64)

    def test_out_of_bounds_read(self):
        mem = MemoryRegion("m", 64)
        with pytest.raises(MemoryFault, match="outside region"):
            mem.read(60, 8)

    def test_out_of_bounds_write(self):
        mem = MemoryRegion("m", 64)
        with pytest.raises(MemoryFault):
            mem.write(63, b"ab")

    def test_negative_address(self):
        mem = MemoryRegion("m", 64)
        with pytest.raises(MemoryFault):
            mem.read(-1, 2)

    def test_word_access_big_endian(self):
        mem = MemoryRegion("m", 64)
        mem.write_word(8, 0xDEADBEEF)
        assert mem.read(8, 4) == b"\xde\xad\xbe\xef"
        assert mem.read_word(8) == 0xDEADBEEF

    def test_fill(self):
        mem = MemoryRegion("m", 32)
        mem.fill(4, 8, 0xAA)
        assert mem.read(4, 8) == b"\xaa" * 8
        assert mem.read(0, 4) == bytes(4)

    def test_view_is_writable(self):
        mem = MemoryRegion("m", 32)
        view = mem.view(8, 4)
        view[:] = b"WXYZ"
        assert mem.read(8, 4) == b"WXYZ"

    def test_bad_size_rejected(self):
        with pytest.raises(MemoryFault):
            MemoryRegion("m", 0)

    @given(
        addr=st.integers(min_value=0, max_value=1000),
        data=st.binary(min_size=1, max_size=24),
    )
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_property(self, addr, data):
        mem = MemoryRegion("m", 1024)
        if addr + len(data) > 1024:
            with pytest.raises(MemoryFault):
                mem.write(addr, data)
        else:
            mem.write(addr, data)
            assert mem.read(addr, len(data)) == data


# -- the region against a plain-bytearray model --------------------------------

#: Sizes on both sides of 1 KB and of the 4 KB host page.
ORACLE_SIZES = (1, 1000, 1024, 4097, 1 << 20)


def _scripts(size):
    """(size, op list) for one region size."""
    addr = st.one_of(
        st.integers(-1, size), st.integers(max(0, size - 40), size + 1)
    )
    length = st.one_of(st.integers(-1, 32), st.integers(0, min(size, 5000)))
    byte = st.integers(0, 255)
    op = st.one_of(
        st.tuples(st.just("read"), addr, length),
        st.tuples(st.just("write"), addr, st.binary(max_size=64)),
        st.tuples(st.just("write_word"), addr, st.integers(0, 2**40)),
        st.tuples(st.just("fill"), addr, length, byte),
        st.tuples(st.just("view"), addr, length, byte),
        st.tuples(st.just("read_view"), addr, length),
    )
    return st.tuples(st.just(size), st.lists(op, max_size=30))


def _expected_fault(size, addr, length):
    """The ``match=`` text of the MemoryFault the access must raise, or None."""
    if length < 0:
        return "negative access size"
    if addr < 0 or addr + length > size:
        return "outside region"
    return None


class TestRegionAgainstBytearrayModel:
    @pytest.mark.parametrize("size", ORACLE_SIZES)
    def test_fresh_region_reads_all_zeros(self, size):
        mem = MemoryRegion("m", size)
        data = mem.read(0, size)
        assert type(data) is bytes and data == bytes(size)
        assert mem.read_view(0, size) == bytes(size)

    @pytest.mark.parametrize("size", ORACLE_SIZES)
    def test_views_alias_the_region_both_ways(self, size):
        mem = MemoryRegion("m", size)
        early, early_ro = mem.view(0, size), mem.read_view(0, size)
        mem.write(size - 1, b"\x7f")  # a view taken before a write sees it
        assert early[size - 1] == early_ro[size - 1] == 0x7F
        early[0] = 0x11  # a write through a view is seen by read
        assert mem.read(0, 1) == b"\x11" and early_ro[0] == 0x11
        assert early_ro.readonly and not early.readonly
        with pytest.raises(TypeError):
            early_ro[0] = 1
        with pytest.raises(TypeError):
            early_ro[:] = bytes(size)

    @given(script=st.sampled_from(ORACLE_SIZES).flatmap(_scripts))
    @settings(max_examples=250, deadline=None)
    def test_random_op_sequences_match_the_model(self, script):
        from repro.buf.accounting import CopyMeter

        size, ops = script
        mem, model = MemoryRegion("m", size), bytearray(size)
        meter = mem.copy_meter = CopyMeter()
        copied_bytes = copied_calls = 0
        held = []  # (view, addr, length): every view ever handed out

        for kind, addr, *rest in ops:
            if kind == "write":
                length = len(rest[0])
            elif kind == "write_word":
                length = 4
            else:
                length = rest[0]
            fault = _expected_fault(size, addr, length)
            if fault is not None:
                with pytest.raises(MemoryFault, match=fault):
                    getattr(mem, kind)(addr, *rest[:1])
            elif kind == "read":
                data = mem.read(addr, length)
                assert type(data) is bytes and data == model[addr : addr + length]
            elif kind == "write":
                mem.write(addr, rest[0])
                model[addr : addr + length] = rest[0]
            elif kind == "write_word":
                mem.write_word(addr, rest[0])
                model[addr : addr + 4] = (rest[0] & 0xFFFFFFFF).to_bytes(4, "big")
            elif kind == "fill":
                mem.fill(addr, length, rest[1])
                model[addr : addr + length] = bytes([rest[1]]) * length
            elif kind == "view":
                view = mem.view(addr, length)
                assert not view.readonly and len(view) == length
                view[:] = bytes([rest[1]]) * length
                model[addr : addr + length] = bytes([rest[1]]) * length
                held.append((view, addr, length))
            else:
                view = mem.read_view(addr, length)
                assert view.readonly and len(view) == length
                held.append((view, addr, length))
            # Only read/write/fill materialize or move bytes; a faulting
            # access and the view accessors count nothing.
            if fault is None and kind not in ("view", "read_view"):
                copied_bytes += length
                copied_calls += 1
            assert (meter.memcpy_bytes, meter.memcpy_calls) == (copied_bytes, copied_calls)
            for view, at, span in held:
                assert view == model[at : at + span]

        assert mem.read(0, size) == model
