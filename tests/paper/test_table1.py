"""Table 1 — normalised query performance.

Paper values: Q1-R2 row (1, 1.059, 3.53, 1.45); Q1-R1 row
(1, 1.15, 3.53, 1.57); Q2-R1 row (1, 1.11, 1.71, 1.31).
"""


def test_table1(experiments):
    rows = {row[0]: row for row in experiments.report("table1").rows}

    q1_r2 = rows["Q1 - R2"]
    q1_r1 = rows["Q1 - R1"]
    q2_r1 = rows["Q2 - R1"]

    # Row Q1-R2: small overhead, ~3.5x degradation without adaptivity,
    # adaptivity recovers most of it.
    assert 1.0 < q1_r2[2] < 1.15            # ad / no imb (paper 1.059)
    assert 2.8 < q1_r2[3] < 4.3             # no ad / imb (paper 3.53)
    assert 1.1 < q1_r2[4] < 2.0             # ad / imb    (paper 1.45)
    assert q1_r2[4] < q1_r2[3] / 2          # adaptivity wins big

    # Row Q1-R1: overhead noticeably above the prospective one.
    assert q1_r1[2] > q1_r2[2] * 1.03       # paper: 15.3% vs 5.9%
    assert 1.0 < q1_r1[4] < 2.0             # ad / imb    (paper 1.57)

    # Row Q2-R1: the join degrades less but adaptivity still wins.
    assert 1.0 < q2_r1[2] < 1.3             # ad / no imb (paper 1.11)
    assert 1.4 < q2_r1[3] < 2.4             # no ad / imb (paper 1.71)
    assert q2_r1[4] < q2_r1[3]              # ad / imb    (paper 1.31)
