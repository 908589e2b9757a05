"""The benchmark's own contract: manifest, source hygiene, smoke run.

Run by explicit path::

    PYTHONPATH=src python -m pytest benchmarks/layered/tests -q
"""

import json
import pathlib
import re
import subprocess
import sys

LAYERED = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(LAYERED))

import bench  # noqa: E402
import workloads  # noqa: E402

SOURCES = [LAYERED / name
           for name in ("bench.py", "measure.py", "workloads.py",
                        "tracer.py", "probe.py")]


def test_manifest_is_generated_from_the_tables():
    committed = json.loads((bench.REPO / "BENCHMARK.json").read_text())
    assert committed == bench.manifest(
        {name: workload.why
         for name, workload in workloads.WORKLOADS.items()})
    assert tuple(workloads.WORKLOADS) == bench.WORKLOAD_NAMES
    names = [entry["name"] for section in ("workloads", "end_to_end",
                                           "per_layer")
             for entry in committed[section]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
               for name in names)
    assert all(len(entry["why"]) <= 200 and "\n" not in entry["why"]
               for entry in committed["workloads"])


def test_sources_name_no_twin_flag_and_import_no_old_benchmark():
    forbidden = ("kernel_fast_path", "columnar", "heartbeat_wheel",
                 "least_loaded_order", "_bounded_pick", "import bench_",
                 "from bench_")
    for path in SOURCES:
        text = path.read_text()
        assert not [word for word in forbidden if word in text], path


def test_smoke_suite_passes():
    """All six workloads at scale 0.1, both passes, two seeds: every
    manifest metric emitted with its unit and every seed replaying
    exactly (the suite exits non-zero otherwise)."""
    done = subprocess.run(
        [sys.executable, str(LAYERED / "bench.py"), "--smoke"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=170)
    assert done.returncode == 0, done.stderr.decode()[-2000:]
    assert b"suite ok" in done.stderr
