"""Tests for the Nectarine application interface (CAB and host flavours)."""

import pytest

from repro.apps.traffic import rpc_service
from repro.host.machine import HostedNode
from repro.nectarine.api import CabNectarine, HostNectarine
from repro.nectarine.naming import MailboxAddress, NameService
from repro.nectarine.tasks import TaskRegistry
from repro.system import NectarSystem
from repro.units import seconds


@pytest.fixture
def rig():
    system = NectarSystem()
    hub = system.add_hub("hub0")
    node_a = system.add_node("cab-a", hub, 0)
    node_b = system.add_node("cab-b", hub, 1)
    names = NameService()
    tasks = TaskRegistry()
    return system, node_a, node_b, names, tasks


def test_name_service_publish_lookup():
    names = NameService()
    address = MailboxAddress(3, 77)
    names.publish("svc", address)
    assert names.lookup("svc") == address
    assert "svc" in names
    names.withdraw("svc")
    assert "svc" not in names


def test_cab_to_cab_send_receive(rig):
    system, a, b, names, _tasks = rig
    na = CabNectarine(a, names)
    nb = CabNectarine(b, names)
    inbox, _addr = nb.create_mailbox("inbox", publish_as="b-inbox")
    done = system.sim.event()

    def sender():
        yield from na.send("b-inbox", b"hello via nectarine")

    def receiver():
        data = yield from nb.receive(inbox)
        done.succeed(data)

    a.runtime.fork_application(sender(), "sender")
    b.runtime.fork_application(receiver(), "receiver")
    assert system.run_until(done, limit=seconds(1)) == b"hello via nectarine"


def test_rpc_service(rig):
    system, a, b, names, _tasks = rig
    na = CabNectarine(a, names)
    nb = CabNectarine(b, names)
    nb.serve("adder", lambda req: str(sum(map(int, req.split()))).encode())
    done = system.sim.event()

    def client():
        reply = yield from na.call("adder", b"1 2 3 4")
        done.succeed(reply)

    a.runtime.fork_application(client(), "client")
    assert system.run_until(done, limit=seconds(1)) == b"10"


def _waiting_handler(node):
    """A handler that must wait: it returns a generator that serve runs."""

    def handler(body, _header):
        def reply():
            yield from node.runtime.ops.sleep(1_000)
            return body[::-1]

        return reply()

    return handler


def _forking_handler(node):
    """A handler that returns None and responds from a thread it forked."""

    def handler(body, header):
        def respond():
            yield from node.runtime.ops.sleep(1_000)
            yield from node.rpc.respond(header, body[::-1])

        node.runtime.fork_system(respond(), "responder")
        return None

    return handler


@pytest.mark.parametrize(
    "make_handler", [_waiting_handler, _forking_handler], ids=["generator", "none"]
)
def test_rpc_service_handler_that_waits(rig, make_handler):
    system, a, b, _names, _tasks = rig
    rpc_service(b, "reverser", 0x5200, make_handler(b))
    done = system.sim.event()
    replies = []

    def client():
        for request in (b"abc", b"wxyz"):
            reply = yield from a.rpc.request(
                a.rpc.allocate_client_port(), b.node_id, 0x5200, request
            )
            replies.append(reply)
        done.succeed(replies)

    a.runtime.fork_application(client(), "client")
    assert system.run_until(done, limit=seconds(1)) == [b"cba", b"zyxw"]


def test_remote_task_creation(rig):
    system, a, b, names, tasks = rig
    results = []

    def worker_task(node, arg):
        yield from node.runtime.ops.sleep(1_000)
        results.append((node.name, arg))

    tasks.register("worker", worker_task)
    tasks.install(a)
    tasks.install(b)
    na = CabNectarine(a, names, tasks)
    done = system.sim.event()

    def spawner():
        reply = yield from na.create_remote_task(b.node_id, "worker", b"payload-42")
        done.succeed(reply)

    a.runtime.fork_application(spawner(), "spawner")
    reply = system.run_until(done, limit=seconds(1))
    assert reply.startswith(b"OK")
    system.run(until=system.now + 1_000_000)
    assert results == [("cab-b", b"payload-42")]


def test_unknown_task_rejected(rig):
    system, a, b, names, tasks = rig
    tasks.install(b)
    na = CabNectarine(a, names, tasks)

    def other_task(node, arg):
        yield from node.runtime.ops.sleep(0)

    tasks.register("exists", other_task)
    done = system.sim.event()

    def spawner():
        try:
            yield from na.create_remote_task(b.node_id, "missing", b"")
        except Exception as exc:
            done.succeed(str(exc))

    a.runtime.fork_application(spawner(), "spawner")
    assert "not registered" in system.run_until(done, limit=seconds(1))


def test_host_nectarine_send_and_call(rig):
    system, a, b, names, _tasks = rig
    hosted_a = HostedNode(system, a)
    na = HostNectarine(hosted_a, names)
    nb = CabNectarine(b, names)
    inbox, _addr = nb.create_mailbox("inbox", publish_as="b-inbox")
    nb.serve("upper", lambda req: req.upper())
    done_recv = system.sim.event()
    done_call = system.sim.event()

    def host_proc():
        yield from na.init()
        yield from na.send("b-inbox", b"from host app")
        reply = yield from na.call("upper", b"shout")
        done_call.succeed(reply)

    def cab_receiver():
        data = yield from nb.receive(inbox)
        done_recv.succeed(data)

    hosted_a.host.fork_process(host_proc(), "app")
    b.runtime.fork_application(cab_receiver(), "receiver")
    assert system.run_until(done_recv, limit=seconds(1)) == b"from host app"
    assert system.run_until(done_call, limit=seconds(1)) == b"SHOUT"


def test_host_receive(rig):
    system, a, b, names, _tasks = rig
    hosted_a = HostedNode(system, a)
    na = HostNectarine(hosted_a, names)
    nb = CabNectarine(b, names)
    inbox, _addr = na.create_mailbox("host-inbox", publish_as="a-inbox")
    done = system.sim.event()

    def cab_sender():
        yield from nb.send("a-inbox", b"cab to host app")

    def host_proc():
        yield from na.init()
        data = yield from na.receive(inbox)
        done.succeed(data)

    hosted_a.host.fork_process(host_proc(), "app")
    b.runtime.fork_application(cab_sender(), "sender")
    assert system.run_until(done, limit=seconds(1)) == b"cab to host app"


def test_duplicate_service_name_rejected(rig):
    _system, a, _b, names, _tasks = rig
    na = CabNectarine(a, names)
    na.serve("svc", lambda req: req)
    with pytest.raises(Exception, match="already"):
        na.serve("svc", lambda req: req)


def test_remote_mailbox_creation(rig):
    from repro.nectarine.api import MailboxFactory

    system, a, b, names, _tasks = rig
    MailboxFactory(b, names)
    na = CabNectarine(a, names)
    done = system.sim.event()

    def creator():
        address = yield from na.create_remote_mailbox(
            b.node_id, "made-remotely", publish_as="remote-box"
        )
        # The mailbox now exists on B and is globally addressable.
        yield from na.send("remote-box", b"delivered to remote-made box")
        done.succeed(address)

    received = system.sim.event()

    def consumer():
        # B-side task reads the mailbox the remote caller created.
        while "made-remotely" not in b.runtime.mailboxes:
            yield from b.runtime.ops.sleep(100_000)
        mailbox = b.runtime.lookup_mailbox("made-remotely")
        nb = CabNectarine(b, names)
        data = yield from nb.receive(mailbox)
        received.succeed(data)

    a.runtime.fork_application(creator(), "creator")
    b.runtime.fork_application(consumer(), "consumer")
    address = system.run_until(done, limit=seconds(5))
    assert address.node_id == b.node_id
    assert system.run_until(received, limit=seconds(5)) == (
        b"delivered to remote-made box"
    )


def test_remote_mailbox_duplicate_name_fails(rig):
    from repro.nectarine.api import MailboxFactory

    system, a, b, names, _tasks = rig
    MailboxFactory(b, names)
    na = CabNectarine(a, names)
    done = system.sim.event()

    def creator():
        yield from na.create_remote_mailbox(b.node_id, "dup-box")
        try:
            yield from na.create_remote_mailbox(b.node_id, "dup-box")
        except Exception as exc:
            done.succeed(str(exc))

    a.runtime.fork_application(creator(), "creator")
    assert "failed" in system.run_until(done, limit=seconds(5))
