"""Figs. 3(a) and 3(b) — the join under sleeps, and Q1 at double size.

Fig. 3(a): the static join degrades with the sleep size while the
retrospective bars stay roughly flat.  Fig. 3(b): with double the data
the prospective results are "very close to those when adaptations are
retrospective" and better than the 3000-tuple prospective results,
because proportionally fewer tuples were distributed before the
adaptation took effect.
"""


def _column(report, index):
    return [row[index] for row in report.rows]


def test_fig3a(experiments):
    report = experiments.report("fig3a")
    disabled = _column(report, 1)
    enabled = _column(report, 2)

    # Static degradation grows steeply with the sleep.
    assert disabled[0] < disabled[1] < disabled[2]
    assert 1.4 < disabled[0] < 2.4        # paper 1.71 at 10 ms
    assert disabled[2] > 5.0              # order-of-magnitude at 100 ms

    # Retrospective adaptation keeps the join near its balanced time
    # and is insensitive to the perturbation size.
    assert max(enabled) / min(enabled) < 1.5
    assert enabled[0] < disabled[0]
    assert enabled[2] < disabled[2] / 3


def test_fig3b(experiments):
    report = experiments.report("fig3b")
    disabled = _column(report, 1)
    enabled = _column(report, 2)
    at_3000 = _column(report, 3)

    # The static degradation is unchanged by data size.
    assert 2.8 < disabled[0] < 4.3
    assert 8.0 < disabled[2] < 12.0

    # Doubling the dataset improves every prospective point over its
    # 3000-tuple counterpart.
    for doubled, single in zip(enabled, at_3000):
        assert doubled < single

    # And the improvement over the static system grows accordingly.
    assert enabled[2] < disabled[2] / 4


def test_fig3b_comparator_is_the_measured_fig2a_enabled_series(experiments):
    assert (_column(experiments.report("fig3b"), 3)
            == _column(experiments.report("fig2a"), 2))


def test_fig3b_doubled_data_approaches_retrospective(experiments):
    report = experiments.report("fig3b")
    retrospective = _column(experiments.report("fig2b"), 2)  # A1-R1
    for doubled, single, r1 in zip(_column(report, 2), _column(report, 3),
                                   retrospective):
        assert abs(doubled - r1) < abs(single - r1)
