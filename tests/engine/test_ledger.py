"""The per-fragment charge ledger and the rule for when it is paid.

Operators charge ``EvalContext``; the evaluator settles.  These tests
pin what that must not change — the perturbed work and the RNG draws,
to the bit; the CPU work of a whole query, to 1e-9 — and the rule
itself: nothing leaves a fragment before the work behind it is paid,
and a hand-over to the detector is paid after it was made.
"""

import pytest

from repro.config import AdaptivityConfig, CostModel, EngineConfig
from repro.engine.metrics import SubplanMetrics
from repro.engine.operators import ExchangeConsumer
from repro.engine.operators.base import EvalContext
from repro.grid import (
    CostFactor,
    GridContext,
    SleepInjection,
    StochasticCostFactor,
)
from repro.net import KIND_DATA
from repro.services.base import GridService
from repro.workloads import (
    DemoGrid,
    DemoGridSpec,
    Q1,
    Q2,
    perturb_join_sleep,
    perturb_ws_cost,
)

#: One morsel's worth of charges: (label, work per item, items).
CHARGES = [("opcall", 0.3, 7), ("ws", 5.0, 7), ("project", 0.02, 7),
           ("ws", 5.0, 1), ("log-append", 0.06, 8)]

PERTURBATIONS = {
    "none": lambda: None,
    "cost-factor": lambda: CostFactor(10.0, target="ws"),
    "sleep": lambda: SleepInjection(12.0, target="ws"),
    "stochastic": lambda: StochasticCostFactor(2.0, 20.0, target="ws"),
    # Windows that exclude every charge (all are made at t >= 0): no
    # effect and no draw.
    "not-started": lambda: StochasticCostFactor(2.0, 20.0, target="ws",
                                                start=1e9),
    "ended": lambda: StochasticCostFactor(2.0, 20.0, target="ws",
                                          start=-10.0, end=0.0),
}


def make_ctx(perturbation=None):
    context = GridContext(seed=3)
    machine = context.add_machine("m1")
    if perturbation is not None:
        machine.add_perturbation(perturbation)
    return EvalContext(
        grid=context, machine=machine, metrics=SubplanMetrics("t:0"),
        cost=CostModel(), engine_config=EngineConfig(), monitor=None)


def run(ctx, body):
    env = ctx.env
    before = env.events_scheduled
    process = env.process(body())
    env.run(until=process)
    # The process's own start and end are not the ledger's.
    return env.events_scheduled - before - 2


class TestLedger:
    @pytest.mark.parametrize("kind", sorted(PERTURBATIONS))
    def test_charges_owe_the_sum_of_sequential_effects(self, kind):
        """k charges owe, bit for bit, what k sequential effects sum
        to, and draw the machine RNG as often as per-item work does."""
        ledger = make_ctx(PERTURBATIONS[kind]())
        twin = make_ctx(PERTURBATIONS[kind]())
        per_item = make_ctx(PERTURBATIONS[kind]())
        work = delay = 0.0
        for label, item_work, count in CHARGES:
            ledger.charge(label, item_work, count)
            effect = twin.machine.effect_batch(label, item_work, count)
            work += effect[0]
            delay += effect[1]
        assert (ledger.owed_work, ledger.owed_delay) == (work, delay)

        def sequential():
            for label, item_work, count in CHARGES:
                for _ in range(count):
                    yield from per_item.machine.work(label, item_work)

        run(per_item, sequential)
        assert (ledger.machine._rng.getstate()
                == per_item.machine._rng.getstate())
        run(ledger, ledger.settle)
        assert (ledger.owed_work, ledger.owed_delay) == (0.0, 0.0)
        assert ledger.env.now == pytest.approx(per_item.env.now, rel=1e-12)
        assert ledger.machine.cpu.busy_time == pytest.approx(
            per_item.machine.cpu.busy_time, rel=1e-12)
        assert ledger.machine.cpu.tasks_completed == 1

    @pytest.mark.parametrize("kind", ["not-started", "ended"])
    def test_a_perturbation_outside_its_window_changes_nothing(self, kind):
        ledger = make_ctx(PERTURBATIONS[kind]())
        plain = make_ctx()
        drawn = ledger.machine._rng.getstate()
        for label, item_work, count in CHARGES:
            ledger.charge(label, item_work, count)
            plain.charge(label, item_work, count)
        assert (ledger.owed_work, ledger.owed_delay) == (
            plain.owed_work, plain.owed_delay)
        assert ledger.machine._rng.getstate() == drawn

    def test_settle_queues_one_event_per_kind_of_debt(self):
        ctx = make_ctx(SleepInjection(12.0, target="join-probe"))
        assert run(ctx, ctx.settle) == 0
        ctx.charge("project", 0.02, 32)
        assert run(ctx, ctx.settle) == 1
        ctx.charge("join-probe", 0.6, 4)
        started = ctx.env.now
        assert run(ctx, ctx.settle) == 2
        # The sleep blocks first, the CPU burst follows.
        assert ctx.env.now - started == pytest.approx(4 * 12.0 + 4 * 0.6)
        assert run(ctx, ctx.settle) == 0

    def test_ledger_is_zeroed_before_the_payment_is_waited_for(self):
        ctx = make_ctx()
        ctx.charge("ws", 5.0, 4)
        payment = ctx.settle()
        next(payment)
        assert (ctx.owed_work, ctx.owed_delay) == (0.0, 0.0)


#: Paper-sized (``DemoGridSpec()``, bs 32) CPU work per machine:
#: data-host, compute-1, compute-2.  Captured before the ledger
#: existed — fusing the charges of a morsel moves when work is done,
#: never how much.
CONSERVED = {
    "Q1-ws10": (Q1, lambda grid: perturb_ws_cost(grid, 10.0),
                AdaptivityConfig.disabled(),
                (20479.7, 70323.4, 8223.4)),
    "Q2-sleep12": (Q2, lambda grid: perturb_join_sleep(grid, 12.0),
                   AdaptivityConfig.disabled(),
                   (26273.68, 3465.0368, 3644.9032)),
    "Q1-monitored": (Q1, lambda grid: None, AdaptivityConfig(),
                     (21439.7, 8706.9, 8703.4)),
}


@pytest.mark.parametrize("scenario", sorted(CONSERVED))
def test_cpu_work_is_conserved(scenario):
    query, perturb, adaptivity, busy = CONSERVED[scenario]
    grid = DemoGrid(DemoGridSpec(), engine_config=EngineConfig(batch_size=32))
    perturb(grid)
    grid.run(query, adaptivity)
    measured = tuple(grid.context.machine(name).cpu.busy_time
                     for name in ("data-host", "compute-1", "compute-2"))
    assert measured == pytest.approx(busy, rel=1e-9)


SCENARIOS = {
    "Q1-ws10": (Q1, lambda grid: perturb_ws_cost(grid, 10.0)),
    "Q2-sleep12": (Q2, lambda grid: perturb_join_sleep(grid, 12.0)),
}


@pytest.mark.parametrize("policy", [None, "paper-A1R1", "paper-A2R2"])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_work_is_paid_before_anything_leaves_the_fragment(
        scenario, policy, monkeypatch):
    """No buffer is sent and no checkpoint acknowledged while the
    fragment still owes the work behind it, and nothing is owed once
    the run has drained."""
    checked = {"buffers": 0, "acks": 0}
    send = GridService.send
    send_ack = ExchangeConsumer._send_ack

    def checking_send(self, recipient, kind, payload, *args, **kwargs):
        if kind == KIND_DATA:
            producer, _fragment = self._producers[payload.producer_id]
            assert (producer.ctx.owed_work, producer.ctx.owed_delay) == (
                0.0, 0.0), payload.producer_id
            checked["buffers"] += 1
        return send(self, recipient, kind, payload, *args, **kwargs)

    def checking_send_ack(self, marker):
        assert (self.ctx.owed_work, self.ctx.owed_delay) == (
            0.0, 0.0), self.channel_key
        checked["acks"] += 1
        send_ack(self, marker)

    monkeypatch.setattr(GridService, "send", checking_send)
    monkeypatch.setattr(ExchangeConsumer, "_send_ack", checking_send_ack)
    query, perturb = SCENARIOS[scenario]
    grid = DemoGrid(DemoGridSpec(sequences_cardinality=600,
                                 interactions_cardinality=900))
    perturb(grid)
    handle = grid.processor.gdqs.submit(
        query, AdaptivityConfig.disabled() if policy is None
        else AdaptivityConfig(policy=policy))
    runtime = handle.runtime  # released at the outcome
    grid.context.env.run(until=handle.done)
    grid.context.env.run()
    assert checked["buffers"] > 10 and checked["acks"] > 0
    fragments = [fragment for service in runtime.all_gqes()
                 for fragment in service.fragments.values()]
    assert len(fragments) >= 4
    for fragment in fragments:
        assert (fragment.ctx.owed_work, fragment.ctx.owed_delay) == (
            0.0, 0.0), fragment.instance_id


def test_adaptation_deploys_while_the_handover_is_being_paid():
    """The trap of one task per morsel.  On the demo grid the Diagnoser
    and Responder charge the *perturbed* machine; their notifications
    arrive 0.01 / 0.02 ms after the M1 that triggers them.  Monitoring
    is handed over first and paid afterwards, so they reach the CPU
    queue while the evaluator is still paying the hand-over and are
    served before the next morsel's 460 ms of Web Service work; paid
    first (or charged fire-and-forget by the detector) they queue
    behind it: 627.9 ms from proposal to deployment instead of 168.6.
    """
    grid = DemoGrid(DemoGridSpec(sequences_cardinality=150,
                                 interactions_cardinality=220,
                                 sequence_length=24),
                    engine_config=EngineConfig(batch_size=32))
    perturb_ws_cost(grid, 10.0)
    result = grid.run(Q1, AdaptivityConfig(
        assessment="A1", response="R1", decision_latency_ms=100.0))
    assert result.stats.adaptations_accepted == 1
    when = {event.description: event.timestamp
            for event in grid.context.tracer.events
            if event.category in ("assessment", "response")}
    assert (when["distribution rebalanced"]
            - when["imbalance proposal"]) < 200.0
