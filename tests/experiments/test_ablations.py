"""Ablations of the thresholds the paper leaves "for future work" (§3.1).

Q1 with one WS 10x costlier, normalised to the static unperturbed run,
sweeping the diagnoser's gate, the responder's near-completion guard,
the recovery-log granularity, the detector's window and the decision
latency.
"""

import functools

import pytest

from repro.config import AdaptivityConfig, EngineConfig, RESPONSE_R1
from repro.experiments.harness import execute, stats_cell
from repro.workloads.scenarios import perturb_ws_cost

PERTURB_10X = functools.partial(perturb_ws_cost, factor=10.0)


@pytest.fixture(scope="module")
def normalised_run():
    baseline_ms = stats_cell("Q1").response_time_ms

    def run(adaptivity, engine_config=None):
        result = execute("Q1", adaptivity, perturb=PERTURB_10X,
                         engine_config=engine_config)
        return result.response_time_ms / baseline_ms, result.stats
    return run


def test_thres_a(normalised_run):
    """Too-high thresA never adapts; too-low still converges."""
    by_threshold = {
        thres_a: normalised_run(AdaptivityConfig(thres_a=thres_a))
        for thres_a in (0.05, 0.2, 0.6, 5.0)}
    normalised, stats = by_threshold[5.0]
    assert stats.adaptations_accepted == 0    # gate never opens
    assert normalised > 2.8                   # so no improvement
    for thres_a in (0.05, 0.2, 0.6):
        assert by_threshold[thres_a][0] < 2.0


def test_progress_cutoff(normalised_run):
    """An over-eager near-completion guard forfeits the benefit."""
    by_cutoff = {
        cutoff: normalised_run(AdaptivityConfig(progress_cutoff=cutoff))
        for cutoff in (0.05, 0.5, 0.92)}
    eager, eager_stats = by_cutoff[0.05]
    assert eager_stats.adaptations_accepted == 0   # everything looks "done"
    assert eager_stats.skipped_near_completion >= 1
    assert by_cutoff[0.92][0] < eager / 1.5


def test_checkpoint_interval(normalised_run):
    """Sparser checkpoints mean larger logs but similar quality."""
    moved = []
    for interval in (10, 50, 200):
        normalised, stats = normalised_run(
            AdaptivityConfig(response=RESPONSE_R1),
            EngineConfig(checkpoint_interval=interval, logging_enabled=True))
        assert normalised < 2.0
        assert stats.tuples_moved > 0
        moved.append(stats.tuples_moved)
    # Sparser checkpointing leaves more unacknowledged tuples to move.
    assert moved[-1] >= moved[0]


def test_window_size(normalised_run):
    """The trimmed window smooths noise; size barely matters when the
    perturbation is stable."""
    runs = [normalised_run(AdaptivityConfig(window_size=window))
            for window in (5, 25, 60)]
    values = [normalised for normalised, _stats in runs]
    assert max(values) - min(values) < 0.3
    assert all(stats.adaptations_accepted >= 1 for _n, stats in runs)


def test_decision_latency(normalised_run):
    """Slower decisions leave more backlog on the slow machine."""
    values = [normalised_run(AdaptivityConfig(decision_latency_ms=latency))[0]
              for latency in (0.0, 3300.0, 8000.0)]
    assert values[0] <= values[1] <= values[2]
    assert values[2] < 3.0  # still far better than the static 3.5x
