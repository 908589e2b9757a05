"""Figs. 2(a) and 2(b) — Q1 under growing WS perturbations.

Fig. 2(a), prospective adaptations: paper series disabled
3.53/6.66/9.76, enabled 1.45/2.48/3.79.  Fig. 2(b), the policy matrix
{A1-R2, A1-R1, A2-R2}: A1 beats A2 for the same response type
(pipelining hides communication), and retrospective bars stay roughly
flat while prospective ones grow with the perturbation.
"""


def test_fig2a(experiments):
    rows = experiments.report("fig2a").rows
    disabled = [row[1] for row in rows]
    enabled = [row[2] for row in rows]

    # The static system degrades steeply and monotonically.
    assert disabled[0] < disabled[1] < disabled[2]
    assert 2.8 < disabled[0] < 4.3     # paper 3.53
    assert 8.0 < disabled[2] < 12.0    # paper 9.76

    # The adaptive system degrades far more slowly, also monotonic.
    assert enabled[0] < enabled[1] < enabled[2]
    assert enabled[2] < 5.0            # paper 3.79

    # The improvement is significant consistently (paper: >2x at every
    # perturbation size).
    for without, with_ad in zip(disabled, enabled):
        assert with_ad < without / 2


def test_fig2b(experiments):
    rows = experiments.report("fig2b").rows
    a1_r2 = [row[1] for row in rows]
    a1_r1 = [row[2] for row in rows]
    a2_r2 = [row[3] for row in rows]

    # (i) Taking pipelining into account (A1) is never worse than A2.
    for a1, a2 in zip(a1_r2, a2_r2):
        assert a1 <= a2 * 1.05

    # (ii) Retrospective beats prospective at larger perturbations.
    assert a1_r1[1] < a1_r2[1]
    assert a1_r1[2] < a1_r2[2]

    # (iii) Retrospective bars remain similar across perturbations.
    assert max(a1_r1) / min(a1_r1) < 1.5
    # ... while prospective grows substantially.
    assert a1_r2[2] / a1_r2[0] > 1.8
