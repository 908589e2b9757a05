"""Tests for the experiment harness, registry and report rendering."""

import dataclasses

import pytest

from repro.config import AdaptivityConfig, RESPONSE_R1, RESPONSE_R2
from repro.experiments import (
    EXPERIMENTS,
    engine_config_for,
    execute,
    multiquery,
    render,
    resilience,
)
from repro.experiments.harness import (
    ExperimentReport,
    Stat,
    query_cell,
    run_table,
    stats_cell,
)
from repro.workloads import DemoGridSpec, perturb_ws_cost

TINY = DemoGridSpec(sequences_cardinality=60, interactions_cardinality=80,
                    sequence_length=16)


class TestEngineConfigPolicy:
    def test_static_runs_do_not_log(self):
        assert not engine_config_for(None).logging_enabled
        assert not engine_config_for(
            AdaptivityConfig.disabled()).logging_enabled

    def test_prospective_runs_do_not_log(self):
        config = AdaptivityConfig(response=RESPONSE_R2)
        assert not engine_config_for(config).logging_enabled

    def test_retrospective_runs_log(self):
        config = AdaptivityConfig(response=RESPONSE_R1)
        assert engine_config_for(config).logging_enabled


class TestExecute:
    def test_unknown_query_rejected(self):
        with pytest.raises(ValueError):
            execute("Q9")

    def test_execute_runs_static_by_default(self):
        result = execute("Q1", spec=TINY)
        assert len(result.rows) == 60
        assert result.stats.adaptations_accepted == 0

    def test_execute_applies_perturbation(self):
        import functools
        baseline = execute("Q1", spec=TINY).response_time_ms
        perturbed = execute(
            "Q1", perturb=functools.partial(perturb_ws_cost, factor=10.0),
            spec=TINY).response_time_ms
        assert perturbed > baseline * 1.5


class TestBaselineCell:
    def test_baseline_is_the_static_run_of_its_spec(self):
        first = stats_cell("Q1", spec=TINY).response_time_ms
        assert first == execute("Q1", spec=TINY).response_time_ms
        other_spec = dataclasses.replace(TINY, sequences_cardinality=80)
        assert stats_cell("Q1", spec=other_spec).response_time_ms != first

    def test_normalised_baseline_is_one(self):
        # A baseline is the query_cell of the same run: normalised to
        # itself it is exactly one.
        baseline = query_cell("Q1:baseline", spec=TINY)
        (row,) = run_table([[Stat(baseline, per=baseline),
                             Stat(baseline, field="result_count")]])
        assert row == [1.0, 60]


class TestRegistryAndReport:
    def test_all_paper_artefacts_registered(self):
        assert set(EXPERIMENTS) == {
            "table1", "fig2a", "fig2b", "fig3a", "fig3b", "fig4", "fig5",
            "overheads", "monitoring", "recovery", "multiquery", "chaos",
            "resilience", "tournament", "tournament-smoke"}

    @pytest.mark.parametrize("key", [
        "table1", "fig2a", "fig2b", "fig3a", "fig3b", "fig4", "fig5",
        "overheads", "monitoring", "recovery"])
    def test_report_id_is_its_registry_key(self, experiments, key):
        # The CLI names the metrics file after the key, the report
        # header after the id: one experiment, one name.
        assert experiments.report(key).experiment_id == key

    def test_render_produces_aligned_table(self):
        report = ExperimentReport(
            experiment_id="x", title="A title",
            columns=["name", "value"],
            rows=[["long-name", 1.23456], ["b", 2]],
            notes="some notes")
        text = render(report)
        lines = text.splitlines()
        assert lines[0] == "== x: A title =="
        assert "name" in lines[1] and "value" in lines[1]
        assert "1.23" in text
        assert text.endswith("some notes")

    def test_row_dicts_round_trip(self):
        report = ExperimentReport("x", "t", ["a", "b"], [[1, 2]])
        assert report.row_dicts() == [{"a": 1, "b": 2}]


class TestTournament:
    def test_smoke_slice_is_subset_of_full_tournament(self):
        from repro.experiments import tournament
        from repro.policy import default_registry

        assert set(tournament.SMOKE_SCENARIO_IDS) <= set(
            tournament.SCENARIO_IDS)
        assert set(tournament.SMOKE_POLICIES) <= set(
            default_registry().names())

    def test_cells_run_baselines_before_policies(self):
        from repro.experiments import tournament

        sweep = tournament.cells(("pid",), ("fig2-ws10", "fig3-volatile"),
                                 smoke=True)
        assert [cell.label for cell in sweep] == [
            "baseline:fig2-ws10", "baseline:fig3-volatile",
            "pid:fig2-ws10", "pid:fig3-volatile"]

    def test_single_policy_tournament_report_shape(self):
        from repro.experiments import tournament

        report = tournament._tournament(
            "t", "t", ("paper-A1R1",), ("fig2-ws10",),
            smoke=True, jobs=1)
        assert report.columns == ["policy", "fig2-ws10", "mean",
                                  "adaptations", "oscillation", "complete"]
        (row,) = report.rows
        entry = dict(zip(report.columns, row))
        assert entry["policy"] == "paper-A1R1"
        # The perturbed run cannot beat the unperturbed baseline.
        assert entry["fig2-ws10"] > 1.0
        assert entry["mean"] == entry["fig2-ws10"]
        assert entry["adaptations"] >= 1
        assert entry["complete"] == "yes"


class TestResilienceExperiment:
    """The published ``resilience`` table: a crash costs availability,
    never a terminal outcome."""

    def test_crashes_degrade_availability_without_hangs(self):
        rows = resilience.run().row_dicts()
        for row in rows:
            assert row["admitted"] == row["succeeded"] + row["failed"], row
            if row["crashes"] == 0:
                assert (row["failed"], row["retried"],
                        row["wasted_s"]) == (0, 0, 0.0), row
        # The crashed rows exercise the retry/failure path at all.
        assert any(row["retried"] > 0 or row["failed"] > 0
                   for row in rows if row["crashes"] > 0)
        for limit in resilience.CONCURRENCY_LIMITS:
            curve = [row["availability"] for row in rows
                     if row["max_conc"] == limit]
            assert len(curve) == len(resilience.CRASH_COUNTS)
            assert curve == sorted(curve, reverse=True), curve


class TestRecoveryExperiment:
    """The published ``recovery`` table: losing an evaluation machine
    mid-query never loses a result and, with a spare standing by and
    detection overlapping the data feed, costs little."""

    def test_every_failure_time_recovers_exactly_once(self, experiments):
        for row in experiments.report("recovery").rows:
            _when, normalised, recovered, replayed, results = row
            assert results == 3000, row     # exactly-once, always
            assert recovered == 1, row
            assert replayed > 0, row
            assert normalised < 1.5, row    # modest cost with a spare

    def test_runs_report_to_the_metrics_sink(self, experiments):
        records = experiments.records("recovery")
        assert records
        assert {record["run"]["query"] for record in records} == {"Q1"}


class TestMultiqueryExperiment:
    """The published ``multiquery`` table's runs, one ``drive`` each."""

    def test_concurrency_shrinks_queue_wait(self):
        reports = {(limit, rate): multiquery.drive(rate, limit)
                   for limit in multiquery.CONCURRENCY_LIMITS
                   for rate in multiquery.ARRIVAL_RATES_QPS}
        for report in reports.values():
            assert report.completed == report.admitted
            assert report.offered == report.admitted + report.rejected
        # Concurrency trades queue wait for shared-CPU contention: with
        # more sessions admitted at once, nobody waits as long to start.
        heaviest = max(multiquery.ARRIVAL_RATES_QPS)
        serial = reports[1, heaviest].queue_wait_p95_ms
        for limit in multiquery.CONCURRENCY_LIMITS[1:]:
            assert reports[limit, heaviest].queue_wait_p95_ms < serial
