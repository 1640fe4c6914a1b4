"""Unit and property tests for the buffer heap."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import HeapExhausted, NectarError
from repro.runtime.heap import BufferHeap
from repro.sim.trace import TraceEvent, Tracer


def quiet():
    """A tracer with no sink, as every simulation's starts out."""
    return Tracer(lambda: 0)


def test_alloc_returns_distinct_blocks():
    heap = BufferHeap(base=0, size=1024, tracer=quiet())
    a = heap.alloc(100)
    b = heap.alloc(100)
    assert a != b
    assert abs(a - b) >= 100


def test_alloc_alignment():
    heap = BufferHeap(base=0, size=1024, tracer=quiet())
    addrs = [heap.alloc(13) for _ in range(5)]
    assert all(addr % 8 == 0 for addr in addrs)


def test_exhaustion_raises():
    heap = BufferHeap(base=0, size=256, tracer=quiet())
    heap.alloc(200)
    with pytest.raises(HeapExhausted):
        heap.alloc(200)


def test_try_alloc_returns_none_when_full():
    heap = BufferHeap(base=0, size=64, tracer=quiet())
    assert heap.try_alloc(64) is not None
    assert heap.try_alloc(1) is None


def test_free_then_realloc_reuses_space():
    heap = BufferHeap(base=0, size=256, tracer=quiet())
    addr = heap.alloc(256)
    heap.free(addr)
    assert heap.alloc(256) == addr


def test_coalescing_allows_large_alloc_after_frees():
    heap = BufferHeap(base=0, size=304, tracer=quiet())
    a = heap.alloc(100)  # rounds to 104
    b = heap.alloc(100)  # rounds to 104
    c = heap.alloc(96)
    heap.free(a)
    heap.free(c)
    heap.free(b)  # middle last: must coalesce all three
    assert heap.largest_free_block() == 304
    assert heap.alloc(296) is not None


def test_double_free_rejected():
    heap = BufferHeap(base=0, size=128, tracer=quiet())
    addr = heap.alloc(64)
    heap.free(addr)
    with pytest.raises(NectarError):
        heap.free(addr)


def test_free_of_unallocated_rejected():
    heap = BufferHeap(base=0, size=128, tracer=quiet())
    with pytest.raises(NectarError):
        heap.free(24)


def test_nonpositive_alloc_rejected():
    heap = BufferHeap(base=0, size=128, tracer=quiet())
    with pytest.raises(NectarError):
        heap.alloc(0)


def test_accounting():
    heap = BufferHeap(base=4096, size=1024, tracer=quiet())
    assert heap.free_bytes == 1024
    addr = heap.alloc(100)
    assert heap.allocated_bytes == 104  # aligned up
    assert heap.free_bytes == 1024 - 104
    assert heap.owns(addr)
    heap.free(addr)
    assert heap.free_bytes == 1024
    heap.check_invariants()


class CountingHeap(BufferHeap):
    """Counts every read of the live-block sum."""

    reads = 0

    @property
    def allocated_bytes(self):
        self.reads += 1
        return BufferHeap.allocated_bytes.fget(self)


def churn(heap):
    a = heap.alloc(100)
    b = heap.alloc(8)
    heap.free(a)
    heap.free(b)


def test_sinkless_tracer_never_sums_live_blocks():
    """Every simulation's heap has a Tracer; without a sink, alloc/free
    must not pay for a sample nobody receives."""
    heap = CountingHeap(base=0, size=1024, tracer=quiet())
    churn(heap)
    assert heap.reads == 0


def test_attached_sink_samples_bytes_in_use_after_every_alloc_and_free():
    tracer = Tracer(lambda: 7)
    samples = []
    tracer.sink = samples.append
    heap = CountingHeap(base=0, size=1024, tracer=tracer, name="h")
    churn(heap)
    assert samples == [
        TraceEvent(7, "heap", "bytes_in_use", value, phase="C", track="h")
        for value in (104, 112, 8, 0)
    ]
    assert heap.reads == 4


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("alloc"), st.integers(min_value=1, max_value=400)),
            st.tuples(st.just("free"), st.integers(min_value=0, max_value=30)),
        ),
        max_size=60,
    )
)
def test_heap_invariants_under_random_workload(ops):
    """No overlap, no leaks, full coalescing — under arbitrary op sequences."""
    heap = BufferHeap(base=512, size=4096, tracer=quiet())
    live: list[int] = []
    for op, arg in ops:
        if op == "alloc":
            addr = heap.try_alloc(arg)
            if addr is not None:
                live.append(addr)
        elif live:
            index = arg % len(live)
            heap.free(live.pop(index))
        heap.check_invariants()
    # Free everything: heap must return to a single free block.
    for addr in live:
        heap.free(addr)
    heap.check_invariants()
    assert heap.free_bytes == 4096
    assert heap.largest_free_block() == 4096
