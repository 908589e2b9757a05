"""Exhaustive small-scope enumeration of the redistribution protocol.

:class:`~repro.engine.redistribution.Redistribution` is DES-free, so
every interleaving of its inputs in a small world can be enumerated
instead of sampled.  :class:`World` is a model of the
:class:`~repro.engine.operators.exchange.ExchangeProducer` that drives
it — buffers, recovery logs, retained state, sends — together with two
consumers, written to call the machine exactly where the producer does.
A producer-side process (a replay phase, a discard phase, a redirect)
is suspended wherever the producer yields, so other inputs interleave
with it at those points only.

Scope: 2 consumers, buffers of 2 rows, at most 3 rows placed (so at
most 3 buffers per channel), at most 2 update epochs (each R1 or R2),
and per scope a bound on duplicate updates, discard phases and
redirects (``SCOPES`` run in tier-1, ``SLOW_SCOPES`` under ``-m
slow``); three channel kinds (weighted round-robin, hash, hash state
channel).  Inputs: place a row, transmit a channel's buffer, process a
queued row at a consumer, deliver its (possibly late) acknowledgement,
start an update, a duplicate update, a discard phase or a redirect,
and resume any suspended process.  States are deduplicated
breadth-first, so a violation is reported with a shortest order that
reaches it; the number of orders is counted over the state graph.

Invariants, checked after every input:

* ``attribution`` — on a stateless channel a placed tid is attributed
  to at most one channel, and to exactly one whenever no replay is in
  progress (a tid acknowledged on a channel that was later redirected
  leaves the attribution by design);
* ``discard`` — a discard names only tids that were on that channel's
  wire and are no longer attributed to it;
* ``state-copies`` — on a state channel, when a replay settles every
  retained tid is buffered for, or delivered to, its bucket's owner
  (unless that owner is being redirected to a replacement);
* ``stale`` — a stale or duplicate update changes no attribution;
* ``moving`` — ``moving`` is false exactly when every applied epoch's
  discard phase has run;
* ``delivered`` — once nothing is left to do, every placed tid was
  processed by a consumer (stateless) or delivered to its bucket's
  owner (state channel).

The orders that break an invariant are pinned below as strict xfails;
this module does not fix them.
"""

from __future__ import annotations

import pytest

from repro.data.batch import Batch
from repro.data.tuples import Row, TidLedger
from repro.engine.control import DistributionUpdate
from repro.engine.distribution import HashBucketPolicy, WeightedRoundRobin
from repro.engine.redistribution import Redistribution, regroup

from tests.engine.routing import route

KINDS = ("wrr", "hash", "state")
#: The rows, placed in this order; their keys fall in buckets 0, 1, 0
#: of a 2-bucket map (stable CRC32 hash).  The model's buffers, logs
#: and queues hold tids (cheap to hash), the machine gets blocks.
ROWS = {f"t{index}": Row((key,), f"t{index}")
        for index, key in enumerate(("a", "b", "c"))}
BUFFER_SIZE = 2
#: Epoch -> (weights, bucket map): bucket 0 moves to consumer 1, then
#: back (so a state channel's bucket 0 gains a second owner).
EPOCHS = {1: ((0.2, 0.8), (1, 1)), 2: ((0.5, 0.5), (0, 1))}
#: Bounds loose enough for any pinned order (see :func:`run_order`).
LARGE = dict(rows=3, epochs=2, duplicates=1, discards=2, redirects=1)


class Violation(Exception):
    def __init__(self, invariant: str, detail: str) -> None:
        super().__init__(f"{invariant}: {detail}")
        self.invariant = invariant


def check(condition: bool, invariant: str, detail: str) -> None:
    if not condition:
        raise Violation(invariant, detail)


class Replay:
    """A replay phase: ``ExchangeProducer.apply_update_replay``."""

    def __init__(self, label: str, update: DistributionUpdate) -> None:
        self.label = label
        self.update = update
        self.stage = "start"
        self.moved: dict = {}
        self.plan: list = []        # [(channel, moved tids)]
        self.replays: dict = {}     # target channel -> block
        self.sends: list = []       # rotated-out buffers: (channel, items)
        self.flush_next = 0
        self.inflight = None

    def key(self):
        return (self.label, self.stage, tuple(self.moved.items()),
                tuple((c, frozenset(t)) for c, t in self.plan),
                tuple((c, tuple(items)) for c, items in self.sends),
                self.flush_next,
                None if self.inflight is None
                else (self.inflight[0], tuple(self.inflight[1])))

    def ready(self, world: World) -> bool:
        return (self.stage != "stale"
                or world.protocol.is_settled(self.update.epoch))

    def step(self, world: World) -> bool:
        """Run to the next point the producer yields; True when done."""
        protocol = world.protocol
        if self.stage == "start":
            before = world.attribution()
            if not protocol.apply(self.update):
                check(world.attribution() == before, "stale",
                      f"{self.label} changed the attribution")
                self.stage = "stale"    # waits unless already settled
                return protocol.is_settled(self.update.epoch)
            if protocol.bucket_owners is not None:
                self.moved = protocol.moved_buckets
                if not self.moved or not world.retained:
                    return self.finish(world)
                self.stage = "copy"     # after the state-extract payment
                return False
            if not self.update.retrospective:
                return self.finish(world)
            outstanding = world.outstanding()
            moves = protocol.plan_moves(outstanding)
            if not any(moves.values()):
                return self.finish(world)
            for channel, channel_moves in moves.items():
                tids = outstanding[channel].tids()
                self.plan.append((channel, {tids[position] for position, _
                                            in channel_moves}))
            self.replays = regroup((outstanding[channel], channel_moves)
                                   for channel, channel_moves
                                   in moves.items())
            return self.retract_next(world)
        if self.stage == "stale":
            return True
        if self.stage == "copy":
            copies = protocol.state_copies(
                [Batch.from_rows([ROWS[tid]])
                 for tid in sorted(world.retained)], self.moved)
            if not copies:
                return self.finish(world)
            self.replays = copies
            return self.place_replays(world)
        if self.stage == "retract":
            channel, tids = self.plan.pop(0)
            world.logs[channel] = [(cp, tid) for cp, tid
                                   in world.logs[channel]
                                   if tid not in tids]
            protocol.retract(channel, tids)
            if self.plan:
                return self.retract_next(world)
            return self.place_replays(world)
        if self.stage == "send":
            channel, items = self.sends.pop(0)
            world.deliver(channel, items)
            return self.next_send(world)
        if self.stage == "flush":
            world.deliver(*self.inflight)
            self.inflight = None
            return self.next_flush(world)
        raise AssertionError(self.stage)

    def retract_next(self, world: World) -> bool:
        """Filter the next planned channel's buffer, then pay the
        log-extract (a yield) before touching its log."""
        channel, tids = self.plan[0]
        world.buffers[channel] = [item for item in world.buffers[channel]
                                  if item[0] not in tids]
        self.stage = "retract"
        return False

    def place_replays(self, world: World) -> bool:
        for target, block in self.replays.items():
            for row in block.rows:
                world.place_row(target, row, self.sends)
        return self.next_send(world)

    def next_send(self, world: World) -> bool:
        if self.sends:
            self.stage = "send"     # every transmit pays first
            return False
        return self.next_flush(world)

    def next_flush(self, world: World) -> bool:
        while self.flush_next < 2:
            channel = self.flush_next
            self.flush_next += 1
            if world.buffers[channel]:
                self.inflight = (channel, world.buffers[channel])
                world.buffers[channel] = []
                self.stage = "flush"
                return False
        return self.finish(world)

    def finish(self, world: World) -> bool:
        world.protocol.settle(self.update.epoch)
        world.check_state_copies()
        return True


class Discard:
    """A discard phase: ``ExchangeProducer.apply_update_discard``."""

    def __init__(self, label: str, world: World) -> None:
        self.label = label
        self.epoch = world.protocol.applied_epoch

    def key(self):
        return (self.label, self.epoch)

    def ready(self, world: World) -> bool:
        return world.protocol.is_settled(self.epoch)

    def step(self, world: World) -> bool:
        protocol = world.protocol
        for channel, tids in protocol.take_discards():
            check(tids <= world.wire_history[channel]
                  and not tids & protocol.attributed[channel], "discard",
                  f"channel {channel} discards {sorted(tids)}")
            world.queues[channel] = [item for item in world.queues[channel]
                                     if item[0] not in tids]
        protocol.end_move()
        world.discarded_epoch = max(world.discarded_epoch, self.epoch)
        return True


class Redirect:
    """``ExchangeProducer.redirect_instance`` for one channel."""

    def __init__(self, label: str, channel: int) -> None:
        self.label = label
        self.channel = channel
        self.stage = "start"

    def key(self):
        return (self.label, self.stage)

    def ready(self, world: World) -> bool:
        return True

    def step(self, world: World) -> bool:
        channel = self.channel
        if self.stage == "start":
            # The old incarnation dies with its queue; the rows it
            # acknowledged (attributed, no longer logged) leave the
            # attribution by design.
            world.queues[channel] = []
            world.received[channel] = set()
            logged = [tid for _cp, tid in world.logs[channel]]
            world.redirected_acked |= (
                world.protocol.attributed[channel] - set(logged))
            world.protocol.redirect(channel, logged)
            self.stage = "resend"       # after the log-extract payment
            return False
        buffered = {tid for tid, _cp in world.buffers[channel]}
        world.buffers[channel] += [(tid, None) for _cp, tid
                                   in world.logs[channel]
                                   if tid not in buffered]
        world.transmit(channel)
        return True


def copied(item):
    """A list, set or tid ledger that shares no mutable part with
    ``item`` (a ledger's tid lists are never mutated in place)."""
    if type(item) is TidLedger:
        return TidLedger(item.snapshot())
    return item.copy()


def clone(obj):
    """A copy of ``obj`` sharing nothing mutable with it: lists and
    dicts (of lists, sets or tid ledgers, one level deeper) and sets
    are copied; rows, tuples and updates are immutable, and a list of
    tuples is never mutated in place.  An order's prefix runs once and
    is branched by cloning, far cheaper than ``copy.deepcopy``."""
    state = {}
    for name, value in obj.__dict__.items():
        kind = type(value)
        if kind is list:
            value = ([copied(item) for item in value]
                     if value and type(value[0]) in (list, set, TidLedger)
                     else value.copy())
        elif kind is dict:
            value = ({key: item.copy() for key, item in value.items()}
                     if value and type(next(iter(value.values())))
                     in (list, set)
                     else value.copy())
        elif kind is set:
            value = value.copy()
        state[name] = value
    new = object.__new__(type(obj))
    new.__dict__ = state
    return new


class World:
    """The producer, its two consumers, and the protocol under test."""

    def __init__(self, kind: str, scope: dict) -> None:
        self.kind = kind
        self.scope = scope
        if kind == "wrr":
            policy = WeightedRoundRobin(2)
        else:
            policy = HashBucketPolicy(2, key_position=0, bucket_count=2,
                                      bucket_map=[0, 1])
        self.protocol = Redistribution(policy, state_channel=kind == "state")
        self.buffers: list[list] = [[], []]     # (tid, checkpoint)
        self.logs: list[list] = [[], []]        # (checkpoint, tid)
        self.retained: set = set()
        self.queues: list[list] = [[], []]      # (tid, checkpoint)
        self.acks: list[list] = [[], []]        # checkpoints in flight
        self.redirected_acked: set = set()
        #: Tids ever transmitted on each channel, and those its current
        #: consumer incarnation received (a crash loses a join's state).
        self.wire_history: list[set] = [set(), set()]
        self.received: list[set] = [set(), set()]
        self.processed: set = set()
        self.checkpoints = [0, 0]
        self.placed = 0
        self.epochs = 0
        self.duplicates = 0
        self.discards = 0
        self.redirects = 0
        self.discarded_epoch = 0
        #: Epoch -> whether its update is retrospective (R1).
        self.r1: dict[int, bool] = {}
        self.procs: list = []

    # -- the producer's data path ------------------------------------------

    def place_row(self, channel: int, row: Row, sends: list) -> None:
        """``_place_batch`` for one row: buffer, attribute, retain, log
        (a checkpoint per row), rotate a full buffer into ``sends``."""
        self.checkpoints[channel] += 1
        checkpoint = self.checkpoints[channel]
        self.buffers[channel].append((row.tid, checkpoint))
        self.protocol.place(channel, [row.tid])
        if self.kind == "state":
            self.retained.add(row.tid)
        self.logs[channel].append((checkpoint, row.tid))
        if len(self.buffers[channel]) >= BUFFER_SIZE:
            sends.append((channel, self.buffers[channel]))
            self.buffers[channel] = []

    def deliver(self, channel: int, items: list) -> None:
        """A buffer reached the consumer: on the wire, queued."""
        tids = [tid for tid, _cp in items]
        self.protocol.sent(channel, tids)
        self.wire_history[channel].update(tids)
        self.received[channel].update(tids)
        self.queues[channel] += items

    def transmit(self, channel: int) -> None:
        items, self.buffers[channel] = self.buffers[channel], []
        if items:
            self.deliver(channel, items)

    def outstanding(self) -> dict:
        """``_outstanding`` per channel: unbuffered logged rows, then
        buffered rows, as one block."""
        outstanding = {}
        for channel in range(2):
            buffered = [tid for tid, _cp in self.buffers[channel]]
            outstanding[channel] = Batch.from_rows(
                ROWS[tid] for tid in [tid for _cp, tid in self.logs[channel]
                                      if tid not in buffered] + buffered)
        return outstanding

    def attribution(self):
        return tuple(frozenset(tids) for tids in self.protocol.attributed)

    # -- inputs --------------------------------------------------------------

    def inputs(self) -> list[str]:
        scope = self.scope
        labels = []
        if self.placed < scope["rows"]:
            labels.append("place")
        for channel in range(2):
            if self.buffers[channel]:
                labels.append(f"transmit {channel}")
            if self.queues[channel]:
                labels.append(f"process {channel}")
            if self.acks[channel]:
                labels.append(f"ack {channel}")
        if self.epochs < scope["epochs"]:
            labels += [f"update R1 e{self.epochs + 1}",
                       f"update R2 e{self.epochs + 1}"]
        if self.epochs and self.duplicates < scope["duplicates"]:
            labels += [f"duplicate e{epoch}"
                       for epoch in range(1, self.epochs + 1)]
        if self.discards < scope["discards"]:
            labels.append("discard phase")
        if self.redirects < scope["redirects"]:
            labels += ["redirect 0", "redirect 1"]
        labels += [f"resume {proc.label}" for proc in self.procs
                   if proc.ready(self)]
        return labels

    def apply(self, label: str) -> None:
        verb, _, rest = label.partition(" ")
        if verb == "place":
            row = ROWS[f"t{self.placed}"]
            self.placed += 1
            protocol = self.protocol
            groups = protocol.policy.route_batch(Batch.from_rows([row]))
            targets = [index for index, _group in groups]
            if protocol.multicast:
                targets += [extra for extra, _group
                            in protocol.multicast_extras(groups)]
            sends: list = []
            for channel in targets:
                self.place_row(channel, row, sends)
            for channel, items in sends:
                self.deliver(channel, items)
        elif verb == "transmit":
            self.transmit(int(rest))
        elif verb == "process":
            channel = int(rest)
            tid, checkpoint = self.queues[channel].pop(0)
            self.processed.add(tid)
            # A state channel's consumer defers its acks (the rows are
            # the join's state); a resent row carries no checkpoint.
            if self.kind != "state" and checkpoint is not None:
                self.acks[channel].append(checkpoint)
        elif verb == "ack":
            channel = int(rest)
            checkpoint = self.acks[channel].pop(0)
            self.logs[channel] = [(cp, tid) for cp, tid in self.logs[channel]
                                  if cp > checkpoint]
        elif verb == "update":
            self.epochs += 1
            kind = rest.split()[0]
            self.start(Replay(label, self.update(self.epochs, kind == "R1")))
        elif verb == "duplicate":
            self.duplicates += 1
            epoch = int(rest[1:])
            self.start(Replay(label, self.update(epoch, self.r1[epoch])))
        elif verb == "discard":
            self.discards += 1
            self.start(Discard(f"{label} {self.discards}", self))
        elif verb == "redirect":
            self.redirects += 1
            self.start(Redirect(label, int(rest)))
        elif verb == "resume":
            proc = next(proc for proc in self.procs if proc.label == rest)
            if proc.step(self):
                self.procs.remove(proc)
        else:
            raise AssertionError(label)
        self.check()

    def update(self, epoch: int, retrospective: bool) -> DistributionUpdate:
        self.r1.setdefault(epoch, retrospective)
        weights, bucket_map = EPOCHS[epoch]
        return DistributionUpdate("compute", weights, bucket_map,
                                  self.r1[epoch], epoch)

    def start(self, proc) -> None:
        if proc.ready(self) and proc.step(self):
            return
        self.procs.append(proc)

    # -- invariants --------------------------------------------------------

    def replaying(self) -> bool:
        return any(isinstance(proc, Replay) and proc.stage != "stale"
                   for proc in self.procs)

    def check(self) -> None:
        protocol = self.protocol
        check(protocol.moving == (protocol.applied_epoch
                                  > self.discarded_epoch), "moving",
              f"moving={protocol.moving} at epoch "
              f"{protocol.applied_epoch}, discarded "
              f"{self.discarded_epoch}")
        if self.kind == "state":
            return
        for index in range(self.placed):
            tid = f"t{index}"
            owners = sum(tid in tids for tids in protocol.attributed)
            exempt = tid in self.redirected_acked
            check(owners <= 1 and (owners == 1 or exempt
                                   or self.replaying()),
                  "attribution", f"{tid} attributed to {owners} channels")

    def check_state_copies(self) -> None:
        if self.kind != "state":
            return
        policy = self.protocol.policy
        # A replacement being redirected to gets the whole log resent
        # before its join can leave the build phase.
        redirecting = {proc.channel for proc in self.procs
                       if isinstance(proc, Redirect)}
        for tid in self.retained:
            owner = route(policy, ROWS[tid])
            buffered = {item[0] for item in self.buffers[owner]}
            check(tid in self.received[owner] or tid in buffered
                  or owner in redirecting,
                  "state-copies",
                  f"{tid} neither buffered for nor delivered to its "
                  f"owner {owner} when the replay settled")

    def check_final(self) -> None:
        for index in range(self.placed):
            tid = f"t{index}"
            if self.kind == "state":
                owner = route(self.protocol.policy, ROWS[tid])
                check(tid in self.received[owner], "delivered",
                      f"{tid} never delivered to its owner {owner}")
            else:
                check(tid in self.processed, "delivered",
                      f"{tid} never processed")

    def clone(self) -> World:
        new = object.__new__(World)
        new.__dict__.update(self.__dict__)      # counters, kind, scope
        for name in ("buffers", "logs", "queues", "acks", "wire_history",
                     "received"):
            setattr(new, name, [item.copy() for item in getattr(self, name)])
        new.retained = self.retained.copy()
        new.redirected_acked = self.redirected_acked.copy()
        new.processed = self.processed.copy()
        new.checkpoints = self.checkpoints.copy()
        new.r1 = self.r1.copy()
        new.protocol = clone(self.protocol)
        new.protocol.policy = clone(self.protocol.policy)
        new.procs = [clone(proc) for proc in self.procs]
        return new

    def key(self) -> int:
        """A hash of the whole state (deduplicates the search)."""
        protocol = self.protocol
        policy = protocol.policy
        sets = [frozenset(tids) for tids in (
            *protocol.attributed, *protocol.on_wire,
            *self.wire_history, *self.received, self.redirected_acked,
            self.processed,
            self.retained)]
        return hash((
            *sets, protocol.applied_epoch, protocol.settled_epoch,
            protocol.moving, tuple(protocol.pending_discards),
            None if protocol.bucket_owners is None
            else tuple(sorted((bucket, frozenset(owners)) for bucket, owners
                              in protocol.bucket_owners.items())),
            protocol.multicast, tuple(protocol.moved_buckets.items()),
            tuple(policy.weights), tuple(getattr(policy, "bucket_map", ())),
            tuple(getattr(policy, "_credit", ())),
            *map(tuple, self.buffers), *map(tuple, self.logs),
            *map(tuple, self.queues), *map(tuple, self.acks),
            tuple(self.checkpoints), self.placed, self.epochs,
            self.duplicates, self.discards, self.redirects,
            self.discarded_epoch, tuple(self.r1.items()),
            tuple(proc.key() for proc in self.procs)))


class Result:
    def __init__(self) -> None:
        self.states = 0
        self.orders = 0
        #: invariant -> a shortest violating order.
        self.violations: dict[str, tuple] = {}


def enumerate_orders(kind: str, scope: dict) -> Result:
    """Breadth-first over the deduplicated state graph; counts orders
    (maximal input sequences) by dynamic programming over its edges."""
    result = Result()
    root = World(kind, scope)
    root_key = root.key()
    frontier = [(root, root_key, ())]
    children: dict = {}
    seen = {root_key}
    while frontier:
        next_frontier = []
        for world, key, order in frontier:
            edges = children[key] = []
            labels = world.inputs()
            if not labels:
                try:
                    world.check_final()
                except Violation as violation:
                    result.violations.setdefault(violation.invariant, order)
                continue
            for label in labels:
                child = world.clone()
                try:
                    child.apply(label)
                except Violation as violation:
                    result.violations.setdefault(violation.invariant,
                                                 order + (label,))
                    edges.append(None)
                    continue
                child_key = child.key()
                edges.append(child_key)
                if child_key not in seen:
                    seen.add(child_key)
                    next_frontier.append((child, child_key, order + (label,)))
        frontier = next_frontier
    result.states = len(seen)
    paths: dict = {}

    def count(key) -> int:
        if key is None:
            return 1        # an order cut short by a violation
        if key not in paths:
            edges = children[key]
            paths[key] = sum(count(edge) for edge in edges) if edges else 1
        return paths[key]

    result.orders = count(root_key)
    return result


def run_order(kind: str, order: tuple) -> None:
    """Replay ``order``, finish what it left in flight without starting
    anything new (transmits, consumer work and acks channel by channel,
    then suspended processes) and raise the first violation."""
    world = World(kind, LARGE)
    for label in order:
        assert label in world.inputs(), (label, world.inputs())
        world.apply(label)
    while drainable := [label for label in world.inputs()
                        if label.split()[0] in DRAIN]:
        world.apply(drainable[0])
    world.check_final()


DRAIN = ("transmit", "process", "ack", "resume")


def reproduces(kind: str, order: tuple, invariant: str) -> bool:
    try:
        run_order(kind, order)
    except Violation as violation:
        return violation.invariant == invariant
    except AssertionError:
        return False        # an input the shortened order never enables
    return False


def shrink(kind: str, order: tuple, invariant: str) -> tuple:
    """Drop inputs one at a time while ``order`` still breaks
    ``invariant``."""
    shrunk = True
    while shrunk:
        shrunk = False
        for index in reversed(range(len(order))):
            candidate = order[:index] + order[index + 1:]
            if reproduces(kind, candidate, invariant):
                order, shrunk = candidate, True
    return order


#: Tier-1 scopes: the update protocol (two epochs, R1 or R2, and a
#: discard phase racing them), a duplicated update, and failure
#: recovery (a redirect).
SCOPES = {
    "updates": dict(rows=2, epochs=2, duplicates=0, discards=1,
                    redirects=0),
    "duplicate": dict(rows=2, epochs=1, duplicates=1, discards=1,
                      redirects=0),
    "redirect": dict(rows=2, epochs=1, duplicates=0, discards=0,
                     redirects=1),
}
#: Larger scopes, about four minutes together.
SLOW_SCOPES = {
    "updates-3-rows": dict(rows=3, epochs=2, duplicates=0, discards=1,
                           redirects=0),
    "duplicate": dict(rows=2, epochs=2, duplicates=1, discards=1,
                      redirects=0),
    "recovery": dict(rows=2, epochs=2, duplicates=0, discards=1,
                     redirects=1),
    "recovery-3-rows": dict(rows=3, epochs=1, duplicates=0, discards=1,
                            redirects=1),
}

#: (kind, scope) -> (states, orders, invariants broken).
EXPECTED = {
    ("wrr", "updates"): (16463, 98018579, ["moving"]),
    ("hash", "updates"): (8732, 110963793, ["moving"]),
    ("state", "updates"): (4044, 2107376, ["moving", "state-copies"]),
    ("wrr", "redirect"): (4356, 1821687, ["delivered"]),
    ("hash", "redirect"): (3166, 1821687, ["delivered"]),
    ("state", "redirect"): (2033, 270780, []),
    ("wrr", "duplicate"): (2504, 4421715, []),
    ("hash", "duplicate"): (1857, 4421715, []),
    ("state", "duplicate"): (1398, 641900, []),
}
SLOW_EXPECTED = {
    ("wrr", "updates-3-rows"): (165381, 110499665223, ["moving"]),
    ("hash", "updates-3-rows"): (103240, 883076655458, ["moving"]),
    ("state", "updates-3-rows"): (27876, 2250485828,
                                  ["moving", "state-copies"]),
    ("wrr", "duplicate"): (68092, 10140358026, ["moving"]),
    ("hash", "duplicate"): (35723, 11664311564, ["moving"]),
    ("state", "duplicate"): (17374, 101534976, ["moving", "state-copies"]),
    ("wrr", "recovery"): (336782, 103280287620, ["delivered", "moving"]),
    ("hash", "recovery"): (161980, 114608512700, ["delivered", "moving"]),
    ("state", "recovery"): (61090, 1020187728, ["moving", "state-copies"]),
    ("wrr", "recovery-3-rows"): (134921, 38320229340, ["delivered"]),
    ("hash", "recovery-3-rows"): (113804, 133720735650, ["delivered"]),
    ("state", "recovery-3-rows"): (81282, 12558427864, []),
}

MOVING = ("place", "update R1 e1", "discard phase", "update R1 e2")
REDIRECT = ("update R1 e1", "place", "transmit 1", "place", "redirect 1")
#: Shrunk violating orders, one per (kind, invariant) broken above
#: (:func:`run_order` finishes what they leave in flight).
PINNED = {
    # Epoch 2 is applied while epoch 1's replay is suspended and
    # settles first — one high-water mark, so the discard phase waiting
    # for epoch 1 is released too; epoch 1's replay later sets the mark
    # back to 1, and the discard phase clears ``moving`` although
    # epoch 2's discard phase never ran.
    ("wrr", "moving"): MOVING,
    ("hash", "moving"): MOVING,
    ("state", "moving"): MOVING,
    # Epoch 2 settles while epoch 1's replay still holds a row in
    # flight to its owner: the small-world form of the Q2 A1+R1 row
    # loss (tests/regressions/test_shrunk_q2_r1_overtaken_replay.py).
    ("state", "state-copies"): (
        "place", "update R1 e1", "update R1 e2", "resume update R1 e1",
        "resume update R1 e2"),
    # The replacement processes the buffered t1 and acknowledges its
    # checkpoint during the redirect's log-extract payment.  Acks are
    # cumulative: it prunes t0, which the dead incarnation never
    # processed, and the resend computed afterwards misses it.
    ("wrr", "delivered"): REDIRECT,
    ("hash", "delivered"): REDIRECT,
}


def _check_enumeration(kind: str, scope: str, scopes: dict,
                       expected: dict) -> None:
    result = enumerate_orders(kind, scopes[scope])
    found = (result.states, result.orders, sorted(result.violations))
    assert found == expected[kind, scope]
    for invariant, order in result.violations.items():
        assert (kind, invariant) in PINNED, (invariant, order)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("scope", sorted(SCOPES))
def test_every_order_of_the_small_scope(kind, scope):
    _check_enumeration(kind, scope, SCOPES, EXPECTED)


@pytest.mark.slow
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("scope", sorted(SLOW_SCOPES))
def test_every_order_of_the_larger_scope(kind, scope):
    _check_enumeration(kind, scope, SLOW_SCOPES, SLOW_EXPECTED)


@pytest.mark.xfail(strict=True, raises=Violation,
                   reason="known protocol flaws, pinned not fixed")
@pytest.mark.parametrize("kind, invariant", sorted(PINNED))
def test_pinned_order_keeps_the_invariant(kind, invariant):
    run_order(kind, PINNED[kind, invariant])


def test_pinned_orders_are_shrunk():
    for (kind, invariant), order in PINNED.items():
        assert reproduces(kind, order, invariant), (kind, invariant)
        assert shrink(kind, order, invariant) == order, (kind, invariant)


def _capture() -> None:
    """Print the enumeration's counts and shrunk violating orders."""
    for scopes in (SCOPES, SLOW_SCOPES):
        for scope in sorted(scopes):
            for kind in KINDS:
                result = enumerate_orders(kind, scopes[scope])
                print(f"({kind!r}, {scope!r}): ({result.states}, "
                      f"{result.orders}, {sorted(result.violations)}),")
                for invariant, order in result.violations.items():
                    print(f"    ({kind!r}, {invariant!r}): "
                          f"{shrink(kind, order, invariant)},")


if __name__ == "__main__":
    _capture()
