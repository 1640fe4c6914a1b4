"""Tests for the Sec. 5.3 network shared memory extension."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.sharedmem import PAGE_BYTES, SharedMemory
from repro.errors import NectarError
from repro.system import NectarSystem
from repro.units import seconds


# --------------------------------------------------------------- shared memory


def _dsm_rig(n_nodes=3, n_pages=6):
    system = NectarSystem()
    hub = system.add_hub("hub0")
    nodes = [system.add_node(f"cab-{i}", hub, i) for i in range(n_nodes)]
    shared = SharedMemory(nodes, n_pages)
    return system, nodes, shared


class TestSharedMemory:
    def test_initial_pages_are_zero(self):
        system, nodes, shared = _dsm_rig()
        done = system.sim.event()

        def body():
            data = yield from shared.pager(nodes[1]).read(0)
            done.succeed(data)

        nodes[1].runtime.fork_application(body(), "b")
        assert system.run_until(done, limit=seconds(10)) == bytes(PAGE_BYTES)

    def test_write_visible_to_remote_reader(self):
        system, nodes, shared = _dsm_rig()
        done = system.sim.event()

        def writer():
            yield from shared.pager(nodes[0]).write(2, 100, b"shared value")

        def reader():
            yield from nodes[1].runtime.ops.sleep(2_000_000)
            data = yield from shared.pager(nodes[1]).read(2)
            done.succeed(data[100:112])

        nodes[0].runtime.fork_application(writer(), "w")
        nodes[1].runtime.fork_application(reader(), "r")
        assert system.run_until(done, limit=seconds(30)) == b"shared value"

    def test_write_invalidates_readers(self):
        system, nodes, shared = _dsm_rig()
        done = system.sim.event()

        def body():
            pager_a, pager_b = shared.pager(nodes[0]), shared.pager(nodes[1])
            # B reads the page (SHARED copy), then A writes it, then B reads
            # again and must see the new value.
            yield from pager_b.read(1)
            yield from pager_a.write(1, 0, b"v1")
            data = yield from pager_b.read(1)
            done.succeed(data[:2])

        nodes[0].runtime.fork_application(body(), "b")
        assert system.run_until(done, limit=seconds(30)) == b"v1"
        invalidations = sum(
            node.runtime.stats.value("dsm_invalidations") for node in nodes
        )
        assert invalidations >= 1

    def test_ownership_migrates(self):
        system, nodes, shared = _dsm_rig()
        done = system.sim.event()

        def body():
            # Three nodes write the same page in turn; last write wins and
            # everyone converges on it.
            for index, node in enumerate(nodes):
                yield from shared.pager(node).write(3, 0, bytes([index + 1]) * 4)
            reads = []
            for node in nodes:
                data = yield from shared.pager(node).read(3)
                reads.append(data[:4])
            done.succeed(reads)

        nodes[0].runtime.fork_application(body(), "b")
        reads = system.run_until(done, limit=seconds(30))
        assert reads == [bytes([len(reads)]) * 4] * 3

    def test_exclusive_rereads_are_local(self):
        system, nodes, shared = _dsm_rig()
        done = system.sim.event()

        def body():
            pager = shared.pager(nodes[0])
            yield from pager.write(4, 0, b"mine")
            for _ in range(5):
                yield from pager.write(4, 0, b"mine")
            done.succeed(nodes[0].runtime.stats.value("dsm_write_hits"))

        nodes[0].runtime.fork_application(body(), "b")
        assert system.run_until(done, limit=seconds(30)) == 5

    def test_page_bounds_checked(self):
        system, nodes, shared = _dsm_rig(n_pages=2)

        def body():
            with pytest.raises(NectarError):
                yield from shared.pager(nodes[0]).read(2)
            with pytest.raises(NectarError):
                yield from shared.pager(nodes[0]).write(0, PAGE_BYTES - 1, b"xy")
            yield from nodes[0].runtime.ops.sleep(0)

        nodes[0].runtime.fork_application(body(), "b")
        system.run(until=seconds(1))

    @given(
        ops=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2),  # node
                st.integers(min_value=0, max_value=3),  # page
                st.booleans(),  # write?
                st.integers(min_value=0, max_value=255),  # value
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_coherence_property(self, ops):
        """Sequentially issued reads always see the latest write, anywhere."""
        system, nodes, shared = _dsm_rig(n_nodes=3, n_pages=4)
        expected = {page: bytes(PAGE_BYTES) for page in range(4)}
        done = system.sim.event()
        failures = []

        def body():
            for node_index, page, is_write, value in ops:
                pager = shared.pager(nodes[node_index])
                if is_write:
                    data = bytes([value]) * 8
                    yield from pager.write(page, 0, data)
                    expected[page] = data + expected[page][8:]
                else:
                    data = yield from pager.read(page)
                    if data != expected[page]:
                        failures.append((node_index, page))
            done.succeed()

        nodes[0].runtime.fork_application(body(), "b")
        system.run_until(done, limit=seconds(120))
        assert not failures
