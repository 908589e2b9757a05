"""The published ``chaos`` table: faults become latency, never loss."""

from repro.experiments import EXPERIMENTS
from repro.experiments.chaos import FAULT_RATES


def test_chaos_experiment_rows_are_complete_at_every_fault_rate():
    report = EXPERIMENTS["chaos"]()
    assert report.experiment_id == "chaos"
    by_query = {}
    for row in report.row_dicts():
        by_query.setdefault(row["query"], []).append(row)
    # Every sweep row returns the full result set for its query.
    for label in ("Q1", "Q2"):
        counts = {row["results"] for row in by_query[label]}
        assert len(counts) == 1, counts
        top = [row for row in by_query[label]
               if row["fault rate"] == f"{max(FAULT_RATES):.2f}"]
        assert len(top) == 2  # adaptivity on and off
        # The top rate really injects link faults ...
        assert all(row["drops"] + row["dups"] > 0 for row in top), top
        # ... and every dropped buffer is re-sent, never abandoned.
        for row in by_query[label]:
            if row["drops"] > 0:
                assert row["retries"] > 0, row
    # The freeze scenario quarantined (and the run still completed).
    (freeze_row,) = by_query["Q1+freeze"]
    assert freeze_row["quarantined"] >= 1
    assert freeze_row["results"] == by_query["Q1"][0]["results"]
