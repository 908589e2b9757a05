"""Property tests: what the wire does with a machine's schedule
(decision 41), stated without a reference implementation.

Services on three machines send to each other at drawn instants while
the machines freeze, crash or lose their services on a drawn schedule.
Whatever the schedule, every message that goes on the wire must obey:

* *per-link FIFO* — copies on one link arrive in the order they left;
* *arrival = max(send, leave) + occupancy + latency* — a message leaves
  when it is sent or, from a frozen sender, at the end of the stall,
  waits for the link to free, holds it for its transmission time and
  arrives one latency later;
* *no copy leaves a down sender* — a sender whose service is down by
  its leave instant puts nothing on the wire, and its send resolves at
  once.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import ChaosConfig, FaultSchedule, MachineCrash, MachineFreeze
from repro.grid import GridContext
from repro.net import NetworkConfig
from repro.services.base import GridService

MACHINES = ("m0", "m1", "m2")
LATENCY_MS = 2.0
BANDWIDTH = 100.0

#: Times on a 10 ms grid, so sends meet thaws and crashes exactly.
instants = st.integers(0, 40).map(lambda k: 10.0 * k)


class Peer(GridService):
    def on_notification(self, topic, payload, sender):
        pass


@st.composite
def worlds(draw):
    services = draw(st.lists(st.sampled_from(MACHINES), min_size=2,
                             max_size=4))
    return dict(
        services=services,
        sends=draw(st.lists(st.tuples(
            instants, st.integers(0, len(services) - 1),
            st.integers(0, len(services) - 1),
            st.sampled_from([100, 500, 1500])), min_size=1, max_size=25)),
        freezes=draw(st.lists(st.tuples(
            st.sampled_from(MACHINES), instants,
            st.sampled_from([10.0, 35.0, 100.0])), max_size=3)),
        crashes=draw(st.dictionaries(st.sampled_from(MACHINES), instants,
                                     max_size=1)),
        failures=draw(st.dictionaries(st.sampled_from(MACHINES), instants,
                                      max_size=1)))


def run(world):
    """Play the world's sends; returns, per send, what the schedule said
    before it (its leave instant and when its sender goes down) and
    whether its event had fired, and each message put on the wire with
    its arrivals, in the order they left."""
    context = GridContext(seed=0, network_config=NetworkConfig(
        latency_ms=LATENCY_MS, bandwidth_bytes_per_ms=BANDWIDTH))
    for machine in MACHINES:
        context.add_machine(machine)
    peers = [Peer(context, f"peer{index}", machine)
             for index, machine in enumerate(world["services"])]
    context.install_chaos(ChaosConfig(enabled=True, schedule=FaultSchedule(
        freezes=tuple(MachineFreeze(*freeze) for freeze in world["freezes"]),
        crashes=tuple(MachineCrash(*crash)
                      for crash in world["crashes"].items()))))
    for machine, at in world["failures"].items():
        context.fail_machine_at(machine, at)
    env, network = context.env, context.network
    sends, wire = [], []
    transmit = network.transmit

    def transmitting(message):
        arrivals = transmit(message)
        wire.append((message, arrivals))
        return arrivals

    network.transmit = transmitting

    def send(index, sender, recipient, size):
        table = context.availability_of(sender.machine.name)
        leave = table.thaw(env.now)
        down = table.down_at(network.endpoint(sender.name).born)
        event = sender.send(recipient.name, "notify", index,
                            size_bytes=size)
        sends.append((index, env.now, leave, down, event.triggered))

    for index, (at, source, target, size) in enumerate(world["sends"]):
        env.timeout(at).callbacks.append(
            lambda _event, args=(index, peers[source], peers[target],
                                 size): send(*args))
    env.run()
    return context.network, sends, wire


@given(world=worlds())
@settings(max_examples=150, deadline=None)
def test_the_wire_obeys_the_schedule(world):
    network, sends, wire = run(world)
    left = {message.payload: message.sent_at for message, _ in wire}
    assert len(left) == len(wire)  # one transmission per send
    for index, sent_at, leave, down, resolved in sends:
        if down <= leave:
            # Down by its leave instant: nothing left, and the send
            # resolved at once.
            assert index not in left and resolved
        else:
            assert left[index] == max(sent_at, leave) == leave
    free_at, last = {}, {}
    for message, arrivals in wire:
        source = network.endpoint(message.sender).machine_name
        destination = network.endpoint(message.recipient).machine_name
        if source == destination:
            assert arrivals == (message.sent_at
                                + network.config.loopback_delay_ms,)
            continue
        link = (source, destination)
        # Occupancy: the wait for the link, then the transmission.
        start = max(message.sent_at, free_at.get(link, 0.0))
        free_at[link] = start + (message.size_bytes / BANDWIDTH + 0.0)
        assert arrivals == (free_at[link] + LATENCY_MS,)
        assert message.delivered_at == arrivals[0]
        # Per-link FIFO: no copy overtakes one that left before it.
        assert arrivals[0] >= last.get(link, 0.0)
        last[link] = arrivals[0]
