"""The §3.2 overhead experiments.

Paper values: prospective overhead ~5.9%, retrospective ~15.3%
(roughly 3x higher); monitoring frequency has little effect on
adaptation quality; the notification funnel filters hundreds of raw
events down to ~10 detector notifications and 1-3 rebalancings.
"""


def test_overheads(experiments):
    rows = {(row[0], row[1]): row
            for row in experiments.report("overheads").rows}

    stable_r2 = rows[("prospective", "stable")][2]
    stable_r1 = rows[("retrospective", "stable")][2]

    # Prospective overhead is small; retrospective noticeably larger
    # (log management), paper: 5.9% vs 15.3%.
    assert 1.0 < stable_r2 < 1.12
    assert stable_r2 < stable_r1 < 1.25
    assert (stable_r1 - 1.0) > (stable_r2 - 1.0) * 1.5

    # Under real-environment fluctuations the system performs some
    # "unnecessary" rebalancing yet stays within a few percent.
    fluct_r2 = rows[("prospective", "fluctuating")]
    assert fluct_r2[6] >= 1                # rebalances happened
    assert fluct_r2[2] < stable_r2 * 1.10  # ... cheaply
    # Prospective cannot undo what was already sent: imbalanced ratio.
    assert fluct_r2[4] > 1.05              # paper: 1.21


def test_monitoring_frequency(experiments):
    rows = experiments.report("monitoring").rows
    off = rows[0]
    active = rows[1:]

    # Without monitoring there is no adaptation: full degradation.
    assert off[1] > 2.8
    assert off[4] == 0

    for _label, normalised, raw, notifications, rebalances in active:
        # Quality is largely insensitive to the monitoring frequency.
        assert normalised < off[1] / 2
        # The funnel: hundreds of raw events, ~10 notifications, 1-3
        # rebalancings — no flooding.
        assert 100 <= raw <= 1000
        assert notifications <= 25
        assert 1 <= rebalances <= 3
    normalised_values = [row[1] for row in active]
    assert max(normalised_values) - min(normalised_values) < 0.3
