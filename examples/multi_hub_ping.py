"""Source routing across a multi-HUB Nectar mesh (paper Sec. 2.1).

"Large Nectar systems are built using multiple HUBs ... The CABs use source
routing to send a message through the network.  The HUB command set includes
support for multi-hop connections."

This example wires three HUBs in a line, attaches CABs at each end and in
the middle, prints the computed source routes, and then ICMP-pings across
the mesh, showing the extra per-hop latency.

Run:  python examples/multi_hub_ping.py
"""

from repro.system import NectarSystem
from repro.units import ns_to_us, seconds


def ping(system, src, dst, sequence):
    done = system.sim.event()
    start = system.now
    src.icmp.on_echo_reply = lambda header, payload: done.succeed(system.now - start)

    def pinger():
        yield from src.icmp.send_echo_request(
            dst.ip_address, identifier=1, sequence=sequence, payload=b"multi-hub"
        )

    src.runtime.fork_application(pinger(), f"ping-{sequence}")
    return system.run_until(done, limit=seconds(1))


def main() -> None:
    system = NectarSystem()
    hub_west = system.add_hub("hub-west")
    hub_mid = system.add_hub("hub-mid")
    hub_east = system.add_hub("hub-east")
    # Inter-hub fibers.
    system.connect_hubs(hub_west, 15, hub_mid, 0)
    system.connect_hubs(hub_mid, 15, hub_east, 0)

    west = system.add_node("cab-west", hub_west, 0)
    mid = system.add_node("cab-mid", hub_mid, 1)
    east = system.add_node("cab-east", hub_east, 1)

    for dst_name in ("cab-mid", "cab-east"):
        route = system.network.route_for("cab-west", dst_name)
        print(f"source route cab-west -> {dst_name}: output ports {route}")

    # Warm each path once (first packets pay thread-creation costs), then
    # measure.
    ping(system, west, mid, 1)
    ping(system, west, east, 2)
    one_hop = ping(system, west, mid, 3)
    two_hop = ping(system, west, east, 4)
    print(f"\nICMP RTT across 1 HUB:  {ns_to_us(one_hop):7.1f} us")
    print(f"ICMP RTT across 3 HUBs: {ns_to_us(two_hop):7.1f} us")
    print(f"multi-hop penalty:      {ns_to_us(two_hop - one_hop):7.1f} us")


if __name__ == "__main__":
    main()
