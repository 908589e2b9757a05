"""Tests for the repro-query command-line interface."""

import json
import re

import pytest

from repro import cli
from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


SMALL = ["--sequences", "120", "--interactions", "150"]


class TestCli:
    def test_static_query(self, capsys):
        code, out = run_cli(
            capsys, "select p.ORF from protein_sequences p",
            "--static", *SMALL)
        assert code == 0
        assert "results: 120 rows" in out
        assert "adaptations: 0 accepted" in out

    def test_adaptive_with_perturbation(self, capsys):
        code, out = run_cli(
            capsys,
            "select EntropyAnalyser(p.sequence) from protein_sequences p",
            "--perturb-ws", "10", "--policy", "paper-A1R1", *SMALL)
        assert code == 0
        assert "results: 120 rows" in out

    def test_aggregate_query(self, capsys):
        _code, out = run_cli(
            capsys, "select count(*) from protein_sequences p",
            "--static", *SMALL)
        assert "results: 1 rows" in out
        assert "(120,)" in out

    def test_timeline_flag(self, capsys):
        _code, out = run_cli(
            capsys,
            "select EntropyAnalyser(p.sequence) from protein_sequences p",
            "--perturb-ws", "10", "--timeline", *SMALL)
        assert "cost notification" in out

    def test_failure_injection(self, capsys):
        _code, out = run_cli(
            capsys,
            "select EntropyAnalyser(p.sequence) from protein_sequences p",
            "--fail-machine", "compute-2", "--fail-at", "400",
            "--static", *SMALL)
        assert "failures recovered: 1" in out
        assert "results: 120 rows" in out

    def test_rows_limit(self, capsys):
        _code, out = run_cli(
            capsys, "select p.ORF from protein_sequences p",
            "--static", "--rows", "2", *SMALL)
        assert "... 118 more" in out

    def test_degree_option(self, capsys):
        _code, out = run_cli(
            capsys, "select p.ORF from protein_sequences p",
            "--static", "--degree", "1", *SMALL)
        assert "tuples per machine: [120]" in out

    def test_parser_rejects_bad_response(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["q", "--policy", "paper-A1R9"])

    def test_query_or_workload_required(self):
        with pytest.raises(SystemExit):
            main([*SMALL])


class TestCliValidation:
    QUERY = "select p.ORF from protein_sequences p"

    def reject(self, capsys, *argv):
        with pytest.raises(SystemExit):
            main([self.QUERY, *argv, *SMALL])
        return capsys.readouterr().err

    def test_negative_fail_at_rejected(self, capsys):
        err = self.reject(capsys, "--fail-machine", "compute-1",
                          "--fail-at", "-1")
        assert "--fail-at" in err

    @pytest.mark.parametrize("flag,value,field", [
        ("--sequences", "0", "sequences_cardinality"),
        ("--interactions", "-3", "interactions_cardinality"),
    ])
    def test_invalid_table_size_rejected(self, capsys, flag, value, field):
        with pytest.raises(SystemExit) as exit_info:
            main([self.QUERY, "--static", flag, value])
        assert exit_info.value.code == 2
        assert field in capsys.readouterr().err

    def test_unknown_fail_machine_rejected(self, capsys):
        err = self.reject(capsys, "--fail-machine", "compute-9")
        assert "compute-9" in err
        # The error lists the valid names.
        assert "coordinator" in err
        assert "compute-2" in err

    def test_fail_machine_respects_machine_count(self, capsys):
        err = self.reject(capsys, "--machines", "1",
                          "--fail-machine", "compute-2")
        assert "compute-2" in err  # only compute-1 exists

    def test_chaos_probability_out_of_range_rejected(self, capsys):
        err = self.reject(capsys, "--chaos-drop", "1.5")
        assert "--chaos-drop" in err
        err = self.reject(capsys, "--chaos-ws-fail", "-0.2")
        assert "--chaos-ws-fail" in err

    def test_negative_chaos_delay_rejected(self, capsys):
        err = self.reject(capsys, "--chaos-delay", "0.5",
                          "--chaos-delay-ms", "-10")
        assert "--chaos-delay-ms" in err

    @pytest.mark.parametrize("argv", [
        ("--perturb-ws", "nan"),
        ("--perturb-ws", "inf"),
        ("--perturb-ws", "-2"),
        ("--perturb-sleep", "nan"),
        ("--chaos-delay", "1", "--chaos-delay-ms", "nan"),
        ("--chaos-delay", "0.5", "--chaos-delay-ms", "inf"),
    ], ids=["ws-nan", "ws-inf", "ws-negative", "sleep-nan",
            "chaos-delay-nan", "chaos-delay-inf"])
    def test_non_finite_or_negative_costs_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main([self.QUERY, *argv, *SMALL])
        assert exit_info.value.code == 2
        assert argv[-2] in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("--fail-machine", "compute-1", "--fail-at", "nan"),
        ("--workload", "nan"),
        ("--workload", "inf"),
        ("--workload", "-1"),
        ("--workload", "1", "--workload-duration", "nan"),
        ("--workload", "1", "--query-timeout", "nan"),
        ("--workload", "1", "--query-timeout", "-5"),
        ("--suspect-timeout", "nan"),
        ("--chaos-crash", "compute-1:nan"),
        ("--chaos-freeze", "compute-1:nan:500"),
        ("--chaos-freeze", "compute-1:100:nan"),
    ], ids=["fail-at-nan", "workload-nan", "workload-inf",
            "workload-negative", "workload-duration-nan",
            "query-timeout-nan", "query-timeout-negative",
            "suspect-timeout-nan", "crash-at-nan", "freeze-at-nan",
            "freeze-duration-nan"])
    def test_non_finite_or_negative_times_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main([self.QUERY, *argv, *SMALL])
        assert exit_info.value.code == 2
        assert argv[-2] in capsys.readouterr().err

    def test_malformed_chaos_freeze_rejected(self, capsys):
        err = self.reject(capsys, "--chaos-freeze", "compute-1:100")
        assert "MACHINE:AT_MS:DURATION_MS" in err

    def test_chaos_freeze_unknown_machine_rejected(self, capsys):
        err = self.reject(capsys, "--chaos-freeze", "compute-9:100:500")
        assert "compute-9" in err

    def test_chaos_freeze_bad_duration_rejected(self, capsys):
        err = self.reject(capsys, "--chaos-freeze", "compute-1:100:0")
        assert "duration" in err

    def test_suspect_timeout_must_leave_room_for_heartbeats(self, capsys):
        err = self.reject(capsys, "--suspect-timeout", "1")
        assert "--suspect-timeout" in err

    def test_max_recoveries_without_a_fault_rejected(self, capsys):
        err = self.reject(capsys, "--max-recoveries", "1")
        assert "--max-recoveries" in err

    def test_retries_without_workload_rejected(self, capsys):
        err = self.reject(capsys, "--retries", "3")
        assert "--retries" in err

    def test_query_timeout_without_workload_rejected(self, capsys):
        err = self.reject(capsys, "--query-timeout", "5000")
        assert "--query-timeout" in err


class TestCliFaultTolerance:
    QUERY = "select p.ORF from protein_sequences p"

    def built(self, monkeypatch, *argv):
        """The fault-tolerance config ``main`` hands the grid."""
        built = {}

        class Built(Exception):
            pass

        def capture(spec, fault_tolerance, chaos):
            built["fault_tolerance"] = fault_tolerance
            raise Built

        monkeypatch.setattr(cli, "DemoGrid", capture)
        with pytest.raises(Built):
            main([self.QUERY, *argv, *SMALL])
        return built["fault_tolerance"]

    def test_max_recoveries_kept_with_freeze(self, monkeypatch):
        config = self.built(monkeypatch, "--chaos-freeze",
                            "compute-2:600:900", "--max-recoveries", "0")
        assert config.max_recoveries == 0
        assert config.suspect_timeout_ms == 1000.0

    def test_max_recoveries_kept_with_suspect_timeout(self, monkeypatch):
        config = self.built(monkeypatch, "--suspect-timeout", "600",
                            "--max-recoveries", "2")
        assert config.max_recoveries == 2
        assert config.suspect_timeout_ms == 600.0


class TestCliChaos:
    QUERY = "select p.ORF from protein_sequences p"

    def test_chaos_run_reports_counters_and_full_rows(self, capsys):
        code, out = run_cli(
            capsys, self.QUERY, "--static", "--chaos-drop", "0.1",
            "--chaos-duplicate", "0.1", *SMALL)
        assert code == 0
        assert "results: 120 rows" in out
        assert "chaos:" in out

    def test_chaos_run_is_seed_reproducible(self, capsys):
        argv = [self.QUERY, "--static", "--chaos-drop", "0.1",
                "--chaos-delay", "0.2", "--chaos-delay-ms", "40",
                "--seed", "3", *SMALL]
        _code, first = run_cli(capsys, *argv)
        _code, second = run_cli(capsys, *argv)
        assert first == second

    def test_freeze_run_reports_quarantine(self, capsys):
        code, out = run_cli(
            capsys,
            "select EntropyAnalyser(p.sequence) from protein_sequences p",
            "--chaos-freeze", "compute-2:600:900",
            "--suspect-timeout", "600",
            "--sequences", "400", "--interactions", "500")
        assert code == 0
        assert "results: 400 rows" in out
        assert "quarantined" in out


class TestCliSeed:
    def test_same_seed_reproduces_single_query_output(self, capsys):
        argv = ["select EntropyAnalyser(p.sequence) "
                "from protein_sequences p",
                "--perturb-ws", "10", "--seed", "3", *SMALL]
        _code, first = run_cli(capsys, *argv)
        _code, second = run_cli(capsys, *argv)
        assert first == second

    def test_seed_changes_the_simulated_world(self, capsys):
        argv = ["select EntropyAnalyser(p.sequence) "
                "from protein_sequences p", "--static", *SMALL]
        _code, first = run_cli(capsys, *argv, "--seed", "1")
        _code, second = run_cli(capsys, *argv, "--seed", "2")
        # Different seeds generate different protein data, so the
        # entropy values cannot coincide.
        assert first != second


class TestCliWorkload:
    WORKLOAD = ["--workload", "0.5", "--workload-duration", "10000",
                "--max-concurrent", "2", *SMALL]

    def test_workload_mode_reports_aggregates(self, capsys):
        code, out = run_cli(capsys, *self.WORKLOAD, "--seed", "3")
        assert code == 0
        assert "offered:" in out
        assert "throughput:" in out
        assert "queue wait:" in out
        assert "utilisation:" in out

    def test_workload_seed_reproducibility(self, capsys):
        _code, first = run_cli(capsys, *self.WORKLOAD, "--seed", "3")
        _code, second = run_cli(capsys, *self.WORKLOAD, "--seed", "3")
        assert first == second
        _code, third = run_cli(capsys, *self.WORKLOAD, "--seed", "4")
        assert first != third

    def test_workload_timeline_lists_scheduler_events(self, capsys):
        _code, out = run_cli(capsys, *self.WORKLOAD, "--seed", "3",
                             "--timeline")
        assert "query started" in out
        assert "query completed" in out

    def test_degree_caps_every_session(self, capsys):
        _code, out = run_cli(capsys, *self.WORKLOAD, "--seed", "3",
                             "--machines", "3", "--degree", "1",
                             "--timeline")
        started = [line for line in out.splitlines()
                   if "query started" in line]
        assert started
        for line in started:
            assert len(re.findall(r"'compute-\d+'", line)) == 1, line


class TestCliMetrics:
    def read_jsonl(self, path):
        return [json.loads(line)
                for line in path.read_text().splitlines()]

    def test_metrics_out_single_query(self, capsys, tmp_path):
        path = tmp_path / "metrics.jsonl"
        code, out = run_cli(
            capsys,
            "select EntropyAnalyser(p.sequence) from protein_sequences p",
            "--perturb-ws", "10", "--metrics-out", str(path), *SMALL)
        assert code == 0
        assert f"records written to {path}" in out
        records = self.read_jsonl(path)
        assert records, "metrics file is empty"
        names = {r.get("name") for r in records}
        assert "machine_cpu_utilisation" in names
        latency = [r for r in records
                   if r.get("name") == "detection_latency_ms"]
        assert [r["type"] for r in latency] == ["histogram"]
        assert latency[0]["count"] > 0
        reports = [r for r in records
                   if r["type"] == "query_statistics"]
        assert len(reports) == 1
        assert reports[0]["raw_monitoring_events"] > 0
        assert "adaptations_accepted" in reports[0]

    def test_metrics_out_workload_mode(self, capsys, tmp_path):
        path = tmp_path / "metrics.jsonl"
        code, out = run_cli(
            capsys, "--workload", "0.5", "--workload-duration", "10000",
            "--seed", "3", "--metrics-out", str(path), *SMALL)
        assert code == 0
        records = self.read_jsonl(path)
        by_name = {r.get("name"): r for r in records}
        assert by_name["sched_admitted"]["type"] == "gauge"
        assert by_name["sched_admitted"]["value"] > 0
        assert "sched_queue_wait_ms" in by_name
        assert any(r["type"] == "query_statistics" for r in records)

    def test_no_metrics_flag_writes_nothing(self, capsys, tmp_path):
        code, out = run_cli(
            capsys, "select p.ORF from protein_sequences p",
            "--static", *SMALL)
        assert code == 0
        assert "metrics:" not in out
        assert list(tmp_path.iterdir()) == []
