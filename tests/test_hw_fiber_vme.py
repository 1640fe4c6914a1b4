"""Tests for frames, fiber endpoints, and the VME bus model."""

import pytest

from repro.cab.cpu import CPU, PRIORITY_APPLICATION
from repro.errors import CABError
from repro.hw.fiber import CHUNK_BYTES, FiberIn, FiberOut, Frame
from repro.hw.vme import VMEBus
from repro.model.costs import CostModel
from repro.sim import Simulator


class TestFrame:
    def test_chunking_covers_payload_exactly(self):
        frame = Frame(route=(1,), payload=bytearray(b"x" * (CHUNK_BYTES * 2 + 100)))
        chunks = list(frame.chunks())
        assert chunks[0].is_first and not chunks[0].is_last
        assert chunks[-1].is_last and not chunks[-1].is_first
        assert sum(c.length for c in chunks) == frame.size
        offsets = [c.offset for c in chunks]
        assert offsets == sorted(offsets)

    def test_single_chunk_frame(self):
        frame = Frame(route=(), payload=bytearray(b"tiny"))
        chunks = list(frame.chunks())
        assert len(chunks) == 1
        assert chunks[0].is_first and chunks[0].is_last

    def test_chunk_bytes_slicing(self):
        payload = bytearray(bytes(range(256)) * 3)
        frame = Frame(route=(), payload=payload)
        rebuilt = bytearray()
        for chunk in frame.chunks():
            rebuilt.extend(frame.chunk_bytes(chunk))
        assert rebuilt == payload

    def test_crc_seal_and_verify(self):
        frame = Frame(route=(), payload=bytearray(b"payload bytes"))
        frame.seal()
        assert frame.crc_ok()
        frame.payload[3] ^= 0x40
        assert not frame.crc_ok()

    def test_empty_payload_rejected(self):
        with pytest.raises(CABError):
            Frame(route=(), payload=bytearray())

    def test_unique_sequence_numbers(self):
        """The datalink numbers frames from its network's counter, so the
        numbers are unique per system and every system starts at 1."""
        from repro.sim.trace import TraceRecorder
        from repro.system import NectarSystem

        for _build in range(2):
            system = NectarSystem()
            hub = system.add_hub("hub0")
            a = system.add_node("cab-a", hub, 0)
            b = system.add_node("cab-b", hub, 1)
            recorder = TraceRecorder()
            system.tracer.sink = recorder

            def sender():
                for _ in range(3):
                    yield from a.datalink.send_raw(b.node_id, 0x77, b"x")

            a.runtime.fork_application(sender(), "s")
            system.run()
            begins = [e.span_id for e in recorder.events if e.phase == "b"]
            assert begins == [1, 2, 3]
        assert Frame(route=(), payload=bytearray(b"a")).seqno == 0


class TestFiberEndpoints:
    def test_fifo_capacity_comes_from_costs(self):
        sim = Simulator()
        out = FiberOut(sim, 8192, name="out")
        incoming = FiberIn(sim, 8192, name="in")
        assert out.fifo.capacity == 8192
        assert incoming.fifo.capacity == 8192


def _vme_rig(cpus=1):
    """A bus plus ``cpus`` host CPUs that cost nothing to switch or dispatch."""
    sim = Simulator()
    costs = CostModel()
    hosts = [
        CPU(sim, name=f"host{i}", context_switch_ns=0, dispatch_ns=0) for i in range(cpus)
    ]
    return sim, costs, VMEBus(sim, costs), hosts


def _copy_from_thread(sim, vme, cpu, *sizes):
    """Run ``vme.copy`` from a thread on ``cpu``; a list filled with the
    simulated time at which each copy finishes."""
    finished = []

    def body():
        for nbytes in sizes:
            yield from vme.copy(cpu, nbytes)
            finished.append(sim.now)

    cpu.add_thread(body(), PRIORITY_APPLICATION, "copier")
    return finished


class TestVMEBus:
    def test_pio_time_per_word(self):
        sim, costs, vme, (cpu,) = _vme_rig()
        finished = _copy_from_thread(sim, vme, cpu, 8)  # two words
        sim.run()
        assert finished == [2 * costs.vme_word_ns]
        # Programmed I/O keeps the issuing CPU busy throughout.
        assert cpu.busy_ns == 2 * costs.vme_word_ns
        assert vme.stats.value("pio_bytes") == 8

    def test_pio_rounds_up_to_words(self):
        sim, costs, vme, (cpu,) = _vme_rig()
        finished = _copy_from_thread(sim, vme, cpu, 5)  # still two words
        sim.run()
        assert finished == [2 * costs.vme_word_ns]

    def test_dma_rate(self):
        sim, costs, vme, (cpu,) = _vme_rig()
        finished = _copy_from_thread(sim, vme, cpu, 3000)
        sim.run()
        assert finished == [costs.vme_dma_setup_ns + costs.vme_dma_ns(3000)]
        # 30 Mbit/s -> 3000 bytes take 800 us.
        assert abs(costs.vme_dma_ns(3000) - 800_000) < 1_000
        # The CPU pays the setup and sleeps through the block transfer.
        assert cpu.busy_ns == costs.vme_dma_setup_ns
        assert vme.stats.value("dma_bytes") == 3000

    def test_bus_is_exclusive(self):
        sim, _costs, vme, (cpu_a, cpu_b) = _vme_rig(cpus=2)
        finish_a = _copy_from_thread(sim, vme, cpu_a, 3000)
        finish_b = _copy_from_thread(sim, vme, cpu_b, 3000)
        sim.run()
        # Serialized: second finishes a full transfer after the first.
        assert finish_b == [2 * finish_a[0]]

    def test_transfer_picks_pio_vs_dma(self):
        sim, costs, vme, (cpu,) = _vme_rig()
        threshold = costs.vme_dma_threshold_bytes
        finished = _copy_from_thread(sim, vme, cpu, threshold - 1, threshold)
        sim.run()
        assert vme.stats.value("pio_bytes") == threshold - 1
        assert vme.stats.value("dma_bytes") == threshold
        pio_ns = costs.vme_pio_ns(threshold - 1)
        dma_ns = costs.vme_dma_setup_ns + costs.vme_dma_ns(threshold)
        assert finished == [pio_ns, pio_ns + dma_ns]

    def test_interrupt_delivery_latency(self):
        sim = Simulator()
        costs = CostModel()
        vme = VMEBus(sim, costs)
        hits = []
        vme.post_interrupt(lambda: hits.append(sim.now))
        sim.run()
        assert hits == [costs.vme_interrupt_ns]

    def test_negative_sizes_rejected(self):
        _sim, _costs, vme, (cpu,) = _vme_rig()
        with pytest.raises(ValueError):
            list(vme.copy(cpu, -1))

    def test_empty_copy_takes_no_bus_time(self):
        _sim, _costs, vme, (cpu,) = _vme_rig()
        assert list(vme.copy(cpu, 0)) == []
