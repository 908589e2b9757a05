"""Fig. 4 — Q1 on three machines, 0-3 of them perturbed,
retrospective adaptations, magnitudes 10/20/30x.

Paper shapes: with adaptivity the performance degrades very gracefully
and is very similar across magnitudes while at least one machine is
unperturbed; the relative degradation (distance from 1.0) improves on
the static system by up to an order of magnitude.
"""

import collections


def test_fig4(experiments):
    by_magnitude = collections.defaultdict(dict)
    for magnitude, count, disabled, enabled in experiments.report(
            "fig4").rows:
        by_magnitude[magnitude][count] = (disabled, enabled)

    for series in by_magnitude.values():
        # Static: one perturbed machine is enough to drag the whole
        # system down; more perturbed machines change little because
        # the slowest machine dominates.
        assert series[1][0] > 2.0
        assert abs(series[1][0] - series[2][0]) < 0.5

        # Adaptive: graceful degradation while one machine is clean.
        assert series[0][1] < 1.3
        assert series[1][1] < 2.0
        assert series[2][1] < 2.2
        # With every machine perturbed there is nothing to shift to.
        assert series[3][1] > series[3][0] * 0.8

    # Adaptive results are similar across magnitudes (paper: "the
    # plots ... are similar for up to two out of three perturbed").
    for count in (1, 2):
        enabled_values = [by_magnitude[m][count][1] for m in by_magnitude]
        assert max(enabled_values) - min(enabled_values) < 0.6

    # Relative degradation improves by roughly an order of magnitude
    # at the largest perturbation.
    worst = max(by_magnitude)
    static_deg = by_magnitude[worst][1][0] - 1.0
    adaptive_deg = by_magnitude[worst][1][1] - 1.0
    assert static_deg / max(adaptive_deg, 1e-6) > 5.0
