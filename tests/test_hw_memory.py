"""Tests for memory regions and 1 KB-page protection domains."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MemoryFault
from repro.hw.memory import MemoryRegion, PAGE_SIZE, Perm, ProtectionDomain


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


class TestProtectionDomain:
    def test_default_allows_everything(self):
        domain = ProtectionDomain("open")
        assert domain.allows(0, 10_000, write=True)

    def test_read_only_page(self):
        domain = ProtectionDomain("ro", default=Perm.RW)
        domain.set_page(1, Perm.READ)
        assert domain.allows(PAGE_SIZE, 10, write=False)
        assert not domain.allows(PAGE_SIZE, 10, write=True)

    def test_no_access_page(self):
        domain = ProtectionDomain("locked")
        domain.set_page(0, Perm.NONE)
        assert not domain.allows(0, 1, write=False)

    def test_range_spanning_pages(self):
        domain = ProtectionDomain("d", default=Perm.NONE)
        domain.set_range(0, PAGE_SIZE * 2, Perm.RW)
        assert domain.allows(0, PAGE_SIZE * 2, write=True)
        # One byte past the granted range falls in a NONE page.
        assert not domain.allows(PAGE_SIZE * 2 - 1, 2, write=True)

    def test_region_enforces_domain(self):
        mem = MemoryRegion("m", PAGE_SIZE * 4)
        domain = ProtectionDomain("app", default=Perm.NONE)
        domain.set_range(PAGE_SIZE, PAGE_SIZE, Perm.RW)
        mem.load_domain(domain)
        mem.write(PAGE_SIZE + 10, b"ok")
        with pytest.raises(MemoryFault, match="denied"):
            mem.write(0, b"nope")
        with pytest.raises(MemoryFault, match="denied"):
            mem.read(PAGE_SIZE * 2, 4)

    def test_domain_switch_is_single_register_reload(self):
        """Paper Sec. 2.2: changing domains = reloading one register."""
        mem = MemoryRegion("m", PAGE_SIZE * 2)
        locked = ProtectionDomain("locked", default=Perm.NONE)
        open_domain = ProtectionDomain("open", default=Perm.RW)
        mem.load_domain(locked)
        with pytest.raises(MemoryFault):
            mem.read(0, 1)
        mem.load_domain(open_domain)
        assert mem.read(0, 1) == b"\x00"
        mem.load_domain(None)  # protection off
        assert mem.read(0, 1) == b"\x00"

    def test_write_spanning_into_readonly_page_denied(self):
        mem = MemoryRegion("m", PAGE_SIZE * 2)
        domain = ProtectionDomain("d", default=Perm.RW)
        domain.set_page(1, Perm.READ)
        mem.load_domain(domain)
        with pytest.raises(MemoryFault):
            mem.write(PAGE_SIZE - 2, b"abcd")


# -- the region against a plain-bytearray model --------------------------------

#: Sizes on both sides of the 1 KB protection page and the 4 KB host page.
ORACLE_SIZES = (1, 1000, 1024, 4097, 1 << 20)
_PERMS = (Perm.NONE, Perm.READ, Perm.WRITE, Perm.RW)


def _scripts(size):
    """(size, page -> perm table or None, default perm, op list) for one region size."""
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
    pages = st.integers(0, (size - 1) // PAGE_SIZE)
    table = st.none() | st.dictionaries(pages, st.sampled_from(_PERMS), max_size=6)
    return st.tuples(
        st.just(size), table, st.sampled_from((Perm.RW, Perm.RW, Perm.NONE)),
        st.lists(op, max_size=30),
    )


def _expected_fault(size, table, default, addr, length, write):
    """The ``match=`` text of the MemoryFault the access must raise, or None."""
    if length < 0:
        return "negative access size"
    if addr < 0 or addr + length > size:
        return "outside region"
    if table is None or length == 0:
        return None
    needed = Perm.WRITE if write else Perm.READ
    touched = range(addr // PAGE_SIZE, (addr + length - 1) // PAGE_SIZE + 1)
    if all(table.get(page, default) & needed for page in touched):
        return None
    return "denied by protection domain 'oracle'"


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

        size, table, default, ops = script
        mem, model = MemoryRegion("m", size), bytearray(size)
        meter = mem.copy_meter = CopyMeter()
        copied_bytes = copied_calls = 0
        if table is not None:
            domain = ProtectionDomain("oracle", default=default)
            for page, perm in table.items():
                domain.set_page(page, perm)
            mem.load_domain(domain)
        held = []  # (view, addr, length): every view ever handed out

        for kind, addr, *rest in ops:
            if kind == "write":
                length = len(rest[0])
            elif kind == "write_word":
                length = 4
            else:
                length = rest[0]
            write = kind not in ("read", "read_view")
            fault = _expected_fault(size, table, default, addr, length, write)
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

        mem.load_domain(None)
        assert mem.read(0, size) == model
