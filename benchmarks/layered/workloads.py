"""The six benchmark workloads, built through ``repro``'s public API.

Every builder takes ``(seed, scale, metrics)`` and returns a fresh
:class:`Scenario`: a wired grid, a scheduler over it, and the list of
``(simulated ms, query text)`` arrivals to submit.  ``seed`` feeds
``DemoGridSpec.seed`` (data, perturbation and fault draws) and the
arrival generator; ``scale`` multiplies cardinalities and query counts
and is for investigation only; ``metrics`` overrides the workload's own
telemetry setting (``None`` keeps it) for the on/off cost measurement.

Only default engine flags are used — no A/B twin switch is named here,
so the twins can be deleted without editing the benchmark.

Arrivals are *paced open loop*: query ``i`` of ``n`` is due at
``(i + u_i) / rate`` with ``u_i`` uniform in [0, 1), and the catalog is
dealt in a seeded shuffle of equal shares.  Offered count and mix are
therefore the same for every seed while order and spacing vary, which
keeps latency percentiles of a 200-query run comparable across seeds
(Poisson counts alone would move them by more than the regression
bound).  Arrivals never wait for completions.
"""

from __future__ import annotations

import dataclasses
import random
import typing

from repro.chaos import ChaosConfig, MachineCrash, RetryPolicy
from repro.config import (
    AdaptivityConfig,
    FaultToleranceConfig,
    SchedulerConfig,
)
from repro.workloads import (
    DemoGrid,
    DemoGridSpec,
    Q1,
    Q2,
    compute_machine_name,
    perturb_join_sleep,
    perturb_ws_cost,
    perturb_ws_cost_varying,
)

STATIC = AdaptivityConfig.disabled()


@dataclasses.dataclass
class Scenario:
    """One ready-to-run instance of a workload."""

    grid: DemoGrid
    scheduler: typing.Any
    #: ``(due time in simulated ms, query text)``, in due order.
    arrivals: list
    adaptivity: AdaptivityConfig
    degree: int | None


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    #: Why the workload exists: the layers it loads and the ones it
    #: leaves idle (one line, repeated in BENCHMARK.json).
    why: str
    build: typing.Callable[[int, float, "bool | None"], Scenario]


def _rng(name: str, seed: int) -> random.Random:
    # A string seed hashes through SHA-512, independent of
    # PYTHONHASHSEED, and keeps the streams of two workloads apart.
    return random.Random(f"layered:{name}:{seed}")


def _scaled(base: int, scale: float) -> int:
    return max(1, round(base * scale))


def _paced_arrivals(rng: random.Random, count: int, rate_qps: float,
                    catalog: tuple) -> list:
    gap_ms = 1000.0 / rate_qps
    texts = [catalog[index % len(catalog)] for index in range(count)]
    rng.shuffle(texts)
    return [((index + rng.random()) * gap_ms, text)
            for index, text in enumerate(texts)]


def _single(grid: DemoGrid, query: str, adaptivity: AdaptivityConfig
            ) -> Scenario:
    return Scenario(grid, grid.scheduler(SchedulerConfig()),
                    [(0.0, query)], adaptivity, None)


# -- single-query workloads (the paper's own experiments) ----------------

def _q1_scan_static(seed, scale, metrics):
    # Q1's simulated timeline does not depend on the sequence *values*,
    # so the cardinality itself is drawn from the seed (within 1 %):
    # otherwise every seed would report the same simulated numbers.
    rows = _scaled(60_000, scale)
    rows += _rng("q1_scan_static", seed).randrange(-rows // 100,
                                                   rows // 100 + 1)
    grid = DemoGrid(DemoGridSpec(sequences_cardinality=rows, seed=seed),
                    metrics_enabled=metrics is not False)
    perturb_ws_cost(grid, 10.0)
    return _single(grid, Q1, STATIC)


def _q2_join_r1(seed, scale, metrics):
    grid = DemoGrid(
        DemoGridSpec(sequences_cardinality=_scaled(12_000, scale),
                     interactions_cardinality=_scaled(18_800, scale),
                     seed=seed),
        metrics_enabled=metrics is not False)
    perturb_join_sleep(grid, 12.0)
    return _single(grid, Q2,
                   AdaptivityConfig(assessment="A1", response="R1"))


#: The policy tournament's "twitchy" loop: monitoring two orders of
#: magnitude busier than the paper's defaults.
TWITCHY = AdaptivityConfig(
    assessment="A2", response="R1", m1_interval=2, window_size=8,
    thres_m=0.08, thres_a=0.08, progress_cutoff=0.97, cooldown_ms=100.0,
    decision_latency_ms=100.0)


def _q1_volatile_twitchy(seed, scale, metrics):
    grid = DemoGrid(
        DemoGridSpec(sequences_cardinality=_scaled(21_000, scale),
                     seed=seed),
        metrics_enabled=metrics is not False)
    perturb_ws_cost_varying(grid, 2.0, 20.0)
    return _single(grid, Q1, TWITCHY)


# -- multi-query workloads -----------------------------------------------

_MQ_TABLES = dict(sequences_cardinality=120, interactions_cardinality=180)


def _mq_contention(seed, scale, metrics):
    grid = DemoGrid(DemoGridSpec(seed=seed, compute_machines=4, **_MQ_TABLES),
                    metrics_enabled=metrics is not False)
    perturb_ws_cost(grid, 10.0)
    scheduler = grid.scheduler(SchedulerConfig(max_concurrent=8,
                                               max_queued=64))
    arrivals = _paced_arrivals(_rng("mq_contention", seed),
                               _scaled(200, scale), 0.75, (Q1, Q2))
    return Scenario(grid, scheduler, arrivals,
                    AdaptivityConfig(decision_latency_ms=300.0), 2)


def _fleet_saturated(seed, scale, metrics):
    grid = DemoGrid(
        DemoGridSpec(sequences_cardinality=30, interactions_cardinality=45,
                     compute_machines=1000, sites=32, lazy_machines=True,
                     seed=seed),
        metrics_enabled=bool(metrics))
    count = _scaled(600, scale)
    scheduler = grid.scheduler(SchedulerConfig(
        max_concurrent=64, max_queued=count, placement_candidates=16))
    arrivals = _paced_arrivals(_rng("fleet_saturated", seed), count, 50.0,
                               (Q1, Q2))
    return Scenario(grid, scheduler, arrivals, STATIC, 2)


MQ_FAULTS_RATE_QPS = 0.5


def _mq_faults(seed, scale, metrics):
    count = _scaled(200, scale)
    window_ms = count / MQ_FAULTS_RATE_QPS * 1000.0
    chaos = ChaosConfig.lossy(
        drop_probability=0.05, duplicate_probability=0.05,
        delay_probability=0.05, delay_ms=30.0,
        crashes=(MachineCrash(compute_machine_name(1), 0.25 * window_ms),
                 MachineCrash(compute_machine_name(2), 0.60 * window_ms)))
    grid = DemoGrid(
        # Five machines, so that a retry that blacklists a live machine
        # (lost heartbeats look like a crash) can still place degree 2
        # once two have crashed.
        DemoGridSpec(seed=seed, compute_machines=5, spare_machines=1,
                     **_MQ_TABLES),
        fault_tolerance=FaultToleranceConfig(
            enabled=True, heartbeat_interval_ms=200.0,
            failure_timeout_ms=700.0, max_recoveries=0),
        metrics_enabled=metrics is not False, chaos=chaos)
    perturb_ws_cost(grid, 10.0)
    scheduler = grid.scheduler(SchedulerConfig(
        max_concurrent=8, max_queued=64,
        retry=RetryPolicy(max_attempts=3, backoff_base_ms=200.0,
                          backoff_cap_ms=2000.0)))
    arrivals = _paced_arrivals(_rng("mq_faults", seed), count,
                               MQ_FAULTS_RATE_QPS, (Q1, Q2))
    return Scenario(grid, scheduler, arrivals, STATIC, 2)


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("q1_scan_static",
             "Q1 scan + WS call, static: pure data plane (sim, engine, "
             "data, services, net); core/policy/sched idle, so a loop or "
             "scheduler change must show no movement here",
             _q1_scan_static),
    Workload("q2_join_r1",
             "Q2 partitioned hash join under the paper's A1+R1: "
             "engine.exchange redistribution, recovery log and state "
             "channels do real work once; headline sim_norm_response",
             _q2_join_r1),
    Workload("q1_volatile_twitchy",
             "Q1 under per-tuple N[2,20] WS cost with a twitchy A2+R1 "
             "loop: >20k raw M1/M2 events load core/policy/pub-sub and "
             "use the exchange statelessly and often",
             _q1_volatile_twitchy),
    Workload("mq_contention",
             "200 paced open-loop Q1/Q2 arrivals at 0.75 q/s on 4 "
             "machines, adaptive: per-query fixed cost (planner, dqp, "
             "sched) and CPU contention between sessions",
             _mq_contention),
    Workload("fleet_saturated",
             "600 arrivals at 50 q/s on 1,000 lazy machines in 32 sites, "
             "static, metrics off: sched/grid/dqp at their largest share, "
             "core bypassed; throughput is the grid's capacity",
             _fleet_saturated),
    Workload("mq_faults",
             "200 static arrivals on 5 machines + spare under 5 % lossy "
             "links and two permanent crashes: exchange retransmission and "
             "dedup, failure detection in dqp, scheduler retry",
             _mq_faults),
)}
