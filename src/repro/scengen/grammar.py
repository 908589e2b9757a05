"""The scenario grammar: seeded composition of fuzzable workloads.

A :class:`Scenario` is a frozen, JSON-round-trippable description of
one complete run configuration: query and plan shape, data sizes,
world seed, batch granularity, adaptation policy and pacing,
perturbation schedule and chaos fault schedule.  Generation is a pure
function of ``(GRAMMAR_VERSION, master seed, index, rule weights)``:
the per-scenario RNG is derived by hashing, never shared, so scenario
``i`` is byte-identical however many workers generate the corpus and
whatever order they run in.

Each choice the grammar makes is attributed to a named *rule*
(``"query:Q2"``, ``"pacing:twitchy"``, ``"perturb:join-sleep"`` ...)
recorded on the scenario, so the feedback loop
(:mod:`repro.scengen.feedback`) can up-weight exactly the rules whose
scenarios misbehave — the pyrqg ``AdaptiveGrammar`` shape.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import typing

#: Bump on any change to the scenario space or the draw order: a
#: corpus is only reproducible against the grammar that generated it.
#: v2 added a ``columnar`` axis (columnar vs row data plane).
#: v3 added the ``crash`` chaos kind (permanent machine loss).
#: v4 added the ``fleet`` axis (multi-site grids with lazy machines
#: and a capped parallelism degree), drawn after chaos.
#: v5 dropped the ``columnar`` axis and its draw: the row plane was
#: deleted, so there is one data plane and nothing to choose.
#: v6 dropped the arm of a deleted policy (a twin of ``paper-A1R2``).
GRAMMAR_VERSION = 6

#: Adaptivity pacing profiles by name.  ``paper`` keeps the paper's
#: conservative defaults (one adaptation per run); ``twitchy`` is the
#: tournament's dense-monitoring/low-threshold loop that surfaces
#: controller dynamics (and engine races) within a single run.
PACING_PROFILES: dict[str, dict] = {
    "paper": {},
    "brisk": dict(m1_interval=4, window_size=10,
                  thres_m=0.12, thres_a=0.12,
                  progress_cutoff=0.95,
                  cooldown_ms=250.0, decision_latency_ms=400.0),
    "twitchy": dict(m1_interval=2, window_size=8,
                    thres_m=0.08, thres_a=0.08,
                    progress_cutoff=0.97,
                    cooldown_ms=100.0, decision_latency_ms=100.0),
}

#: The non-policy name selecting a static (adaptivity-off) run.
STATIC_POLICY = "static"


@dataclasses.dataclass(frozen=True)
class PerturbationRule:
    """One perturbation of the generated scenario.

    ``kind`` selects the applier from
    :mod:`repro.workloads.scenarios`; the remaining fields are that
    applier's parameters (unused ones stay 0).  ``end_ms=0`` on a
    windowed kind means open-ended.
    """

    kind: str
    machines: int = 1
    factor: float = 0.0
    sleep_ms: float = 0.0
    low: float = 0.0
    high: float = 0.0
    start_ms: float = 0.0
    end_ms: float = 0.0


@dataclasses.dataclass(frozen=True)
class FreezeRule:
    """A machine freeze by compute-machine index (0-based)."""

    machine_index: int
    at_ms: float
    duration_ms: float


@dataclasses.dataclass(frozen=True)
class CrashRule:
    """A permanent machine crash by compute-machine index (0-based)."""

    machine_index: int
    at_ms: float


@dataclasses.dataclass(frozen=True)
class ChaosRule:
    """Chaos knobs; mapped onto :func:`repro.chaos.ChaosConfig.lossy`."""

    drop: float = 0.0
    duplicate: float = 0.0
    delay: float = 0.0
    delay_ms: float = 0.0
    ws_failure: float = 0.0
    freezes: tuple = ()
    crashes: tuple = ()


@dataclasses.dataclass(frozen=True)
class Scenario:
    """One fully determined run configuration.

    Everything the runner needs is here; nothing is drawn at run
    time.  ``rules`` records the grammar rules that produced the
    scenario, for feedback attribution.
    """

    grammar_version: int
    seed: int
    query: str
    sequences: int
    interactions: int
    world_seed: int
    compute_machines: int
    batch_size: int
    policy: str
    pacing: str
    perturbations: tuple = ()
    chaos: ChaosRule | None = None
    fault_tolerance: bool = False
    #: Fleet shape (v4): compute sites, lazy machine registration and
    #: the plan's parallelism degree (None = use the whole pool).
    #: Defaults reproduce every pre-v4 scenario unchanged.
    sites: int = 1
    lazy_machines: bool = False
    degree: int | None = None
    rules: tuple = ()

    @property
    def scenario_id(self) -> str:
        """Short content digest naming corpus/repro artifacts."""
        return hashlib.sha256(
            self.canonical_json().encode()).hexdigest()[:12]

    @property
    def adaptive(self) -> bool:
        return self.policy != STATIC_POLICY

    # -- JSON round trip -------------------------------------------------

    def to_json(self) -> dict:
        record = dataclasses.asdict(self)
        record["perturbations"] = [dataclasses.asdict(p)
                                   for p in self.perturbations]
        if self.chaos is not None:
            chaos = dataclasses.asdict(self.chaos)
            chaos["freezes"] = [dataclasses.asdict(f)
                                for f in self.chaos.freezes]
            chaos["crashes"] = [dataclasses.asdict(c)
                                for c in self.chaos.crashes]
            record["chaos"] = chaos
        record["rules"] = list(self.rules)
        return record

    def canonical_json(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)

    @classmethod
    def from_json(cls, record: typing.Mapping) -> "Scenario":
        record = dict(record)
        # v2-v4 records carry the data-plane axis that v5 dropped.
        record.pop("columnar", None)
        record["perturbations"] = tuple(
            PerturbationRule(**p) for p in record.get("perturbations", ()))
        chaos = record.get("chaos")
        if chaos is not None:
            chaos = dict(chaos)
            chaos["freezes"] = tuple(FreezeRule(**f)
                                     for f in chaos.get("freezes", ()))
            chaos["crashes"] = tuple(CrashRule(**c)
                                     for c in chaos.get("crashes", ()))
            record["chaos"] = ChaosRule(**chaos)
        record["rules"] = tuple(record.get("rules", ()))
        return cls(**record)

    def replace(self, **changes) -> "Scenario":
        return dataclasses.replace(self, **changes)


def derive_seed(master_seed: int, index: int,
                version: int = GRAMMAR_VERSION) -> int:
    """The scenario RNG seed for corpus position ``index``.

    Hash-derived (the :class:`~repro.sim.rand.RandomStreams` idiom)
    so scenarios are independent of each other and of how many were
    generated before them.
    """
    digest = hashlib.sha256(
        f"scengen:{version}:{master_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


#: Choice tables.  Each axis is a tuple of (rule suffix, value); the
#: rule name ``"<axis>:<suffix>"`` keys the weight table.
_QUERIES = (("Q1", "Q1"), ("Q2", "Q2"))
_SIZES = (("small", (60, 90)), ("medium", (120, 180)),
          ("large", (200, 300)))
_WORLD_SEEDS = tuple((str(i), i) for i in range(4))
_MACHINES = (("2", 2), ("3", 3))
_BATCHES = (("1", 1), ("4", 4), ("32", 32))
_POLICIES = ((STATIC_POLICY, STATIC_POLICY),
             ("paper-A1R1", "paper-A1R1"), ("paper-A1R2", "paper-A1R2"),
             ("paper-A2R1", "paper-A2R1"), ("paper-A2R2", "paper-A2R2"),
             ("hysteresis", "hysteresis"), ("pid", "pid"))
_PACINGS = tuple((name, name) for name in PACING_PROFILES)
_PERTURB_COUNTS = (("none", 0), ("one", 1), ("two", 2))
#: Perturbation kinds valid per query: WS perturbations target Q1's
#: operation call, the join sleep targets Q2's probe.
_PERTURB_KINDS = {
    "Q1": (("ws-cost", "ws-cost"), ("ws-volatile", "ws-volatile"),
           ("machine-load", "machine-load")),
    "Q2": (("join-sleep", "join-sleep"), ("machine-load", "machine-load")),
}
#: Fleet shapes: (machines, sites).  ``none`` keeps the scenario's
#: drawn machine count on the legacy flat single-site grid; the fleet
#: shapes override it with a larger lazily-registered multi-site pool
#: and cap the plan degree at 2 so placement exercises the site tier
#: without exploding per-scenario runtime.
_FLEETS = (("none", None), ("16x4", (16, 4)), ("64x8", (64, 8)))
_FLEET_DEGREE = 2
_CHAOS_KINDS = {
    "Q1": (("none", None), ("lossy", "lossy"), ("laggy", "laggy"),
           ("freeze", "freeze"), ("crash", "crash"),
           ("flaky-ws", "flaky-ws")),
    # Q2 has no WS call to make flaky.
    "Q2": (("none", None), ("lossy", "lossy"), ("laggy", "laggy"),
           ("freeze", "freeze"), ("crash", "crash")),
}

#: Rules that start below neutral weight: static runs exercise no
#: adaptation and fault-free is already every experiment's territory.
DEFAULT_WEIGHTS = {
    f"policy:{STATIC_POLICY}": 0.5,
    "chaos:none": 2.0,
    # Fleet scenarios are slower (bigger grids); most of the corpus
    # stays on the small grids where the failure modes historically
    # live, with steady minority coverage of the site tier.
    "fleet:none": 4.0,
}


class ScenarioGrammar:
    """Weighted, seeded scenario composition.

    ``weights`` maps rule names to positive floats (missing rules
    weigh ``1.0``); :meth:`generate` draws every axis by those
    weights from a scenario-private RNG.
    """

    version = GRAMMAR_VERSION

    def __init__(self,
                 weights: typing.Mapping[str, float] | None = None) -> None:
        self.weights = dict(DEFAULT_WEIGHTS)
        if weights:
            self.weights.update(weights)

    def _pick(self, rng: random.Random, axis: str, options,
              chosen: list):
        labelled = [(f"{axis}:{suffix}", value)
                    for suffix, value in options]
        totals = [max(0.0, self.weights.get(rule, 1.0))
                  for rule, _value in labelled]
        point = rng.random() * sum(totals)
        for (rule, value), weight in zip(labelled, totals):
            point -= weight
            if point <= 0:
                chosen.append(rule)
                return value
        chosen.append(labelled[-1][0])
        return labelled[-1][1]

    def _perturbation(self, rng: random.Random, query: str,
                      chosen: list) -> PerturbationRule:
        kind = self._pick(rng, "perturb", _PERTURB_KINDS[query], chosen)
        if kind == "ws-cost":
            return PerturbationRule(kind, factor=rng.choice((4.0, 10.0,
                                                             16.0)))
        if kind == "ws-volatile":
            low, high = rng.choice(((2.0, 12.0), (2.0, 20.0), (4.0, 24.0)))
            return PerturbationRule(kind, low=low, high=high)
        if kind == "join-sleep":
            return PerturbationRule(kind,
                                    sleep_ms=rng.choice((5.0, 12.0, 20.0)))
        start, end = rng.choice(((0.0, 0.0), (400.0, 3400.0)))
        return PerturbationRule("machine-load",
                                factor=rng.choice((2.0, 3.0)),
                                start_ms=start, end_ms=end)

    def _chaos(self, rng: random.Random, query: str,
               chosen: list) -> ChaosRule | None:
        kind = self._pick(rng, "chaos", _CHAOS_KINDS[query], chosen)
        if kind is None:
            return None
        if kind == "lossy":
            return ChaosRule(drop=0.02, duplicate=0.02)
        if kind == "laggy":
            return ChaosRule(delay=0.10, delay_ms=rng.choice((2.0, 6.0)))
        if kind == "flaky-ws":
            return ChaosRule(ws_failure=0.05)
        if kind == "crash":
            # Always the second compute machine: the first hosts the
            # double-up fallback when no spare exists, so every crash
            # scenario is recoverable and must terminate cleanly.
            return ChaosRule(crashes=(CrashRule(
                machine_index=1, at_ms=rng.choice((600.0, 1000.0))),))
        return ChaosRule(freezes=(FreezeRule(
            machine_index=1, at_ms=rng.choice((500.0, 900.0)),
            duration_ms=1500.0),))

    def generate(self, master_seed: int, index: int) -> Scenario:
        """Scenario ``index`` of the corpus seeded by ``master_seed``."""
        seed = derive_seed(master_seed, index, self.version)
        rng = random.Random(seed)
        chosen: list = []
        query = self._pick(rng, "query", _QUERIES, chosen)
        sequences, interactions = self._pick(rng, "size", _SIZES, chosen)
        world_seed = self._pick(rng, "world", _WORLD_SEEDS, chosen)
        machines = self._pick(rng, "machines", _MACHINES, chosen)
        batch = self._pick(rng, "batch", _BATCHES, chosen)
        policy = self._pick(rng, "policy", _POLICIES, chosen)
        pacing = self._pick(rng, "pacing", _PACINGS, chosen)
        count = self._pick(rng, "perturbs", _PERTURB_COUNTS, chosen)
        perturbations = tuple(self._perturbation(rng, query, chosen)
                              for _ in range(count))
        chaos = self._chaos(rng, query, chosen)
        fleet = self._pick(rng, "fleet", _FLEETS, chosen)
        sites, lazy, degree = 1, False, None
        if fleet is not None:
            machines, sites = fleet
            lazy, degree = True, _FLEET_DEGREE
        # Freezes stall heartbeats and crashes silence them forever;
        # both only make sense with the fault-tolerance machinery on,
        # so those rules imply it.
        fault_tolerance = bool(chaos is not None
                               and (chaos.freezes or chaos.crashes))
        return Scenario(
            grammar_version=self.version, seed=seed, query=query,
            sequences=sequences, interactions=interactions,
            world_seed=world_seed, compute_machines=machines,
            batch_size=batch, policy=policy, pacing=pacing,
            perturbations=perturbations, chaos=chaos,
            fault_tolerance=fault_tolerance,
            sites=sites, lazy_machines=lazy, degree=degree,
            rules=tuple(chosen))
