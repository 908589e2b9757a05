"""Which ``src/`` functions does anything call?

Runs the repository's callers under ``sys.setprofile``, records every
function entered whose code lives under ``src/``, and prints two
tables over the functions and methods defined there (found by parsing
the source):

* functions nothing enters;
* functions only tests enter: tier-1 enters them, no contract caller
  does.

The callers, in two groups, both run in this process:

* contract callers, first, so that nothing a test initialises lazily
  hides an entry from them: every ``repro.experiments`` id and
  ``fuzz --budget 12 --seed 0``, all at ``--jobs 1`` and writing
  their metrics and fuzz artifacts to a scratch directory; the six
  layered benchmark workloads at seed 0 and scale 0.3 (oracle, run,
  telemetry flipped, observation); every script in ``examples/``; and
  CI's five ``repro-query`` smokes;
* tests: tier-1 (``pytest`` with the repository's ``-m 'not slow'``).

    PYTHONPATH=src python benchmarks/census.py

Not seen: work done in another process — ``SweepRunner`` workers a
test forks with ``jobs > 1``, and tests that start a subprocess — and
calls made while a test has installed a profiler of its own.  A row in
either table is therefore a candidate to check, not a proof.  The
profiler slows Python calls down several times, so a test with a
host-time bound may fail under it; what that test entered still
counts.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import pathlib
import runpy
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAYERED = ROOT / "benchmarks" / "layered"

Q1 = "select EntropyAnalyser(p.sequence) from protein_sequences p"
Q2 = ("select i.ORF2 from protein_sequences p, protein_interactions i "
      "where i.ORF1 = p.ORF")

#: CI's repro-query smokes; ``{tmp}`` is a scratch directory.
CLI_SMOKES = (
    [Q1, "--perturb-ws", "10", "--sequences", "300", "--interactions",
     "440", "--metrics-out", "{tmp}/metrics.jsonl"],
    [Q1, "--chaos-drop", "0.1", "--chaos-duplicate", "0.1",
     "--chaos-delay", "0.2", "--chaos-delay-ms", "30", "--chaos-ws-fail",
     "0.2", "--seed", "0", "--sequences", "150", "--interactions", "200"],
    ["--workload", "0.5", "--workload-duration", "20000",
     "--max-concurrent", "4", "--seed", "3", "--machines", "3",
     "--degree", "2", "--chaos-crash", "compute-2:8000", "--retries", "3",
     "--max-recoveries", "0", "--sequences", "120", "--interactions",
     "180"],
    [Q2, "--policy", "paper-A1R1", "--fail-machine", "compute-2",
     "--fail-at", "2000", "--sequences", "300", "--interactions", "400",
     "--seed", "0"],
    [Q1, "--chaos-freeze", "compute-2:800:1300", "--sequences", "300",
     "--interactions", "400", "--seed", "0"],
)


def defined_functions() -> dict:
    """``(path, first line) -> (qualified name, lines)`` for every
    function and method under ``src/``.  The first line is a
    decorated function's first decorator, as in ``co_firstlineno``."""
    functions = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [decorator.lineno for decorator
                                              in child.decorator_list])
                name = f"{prefix}{child.name}"
                functions[(path, first)] = (name,
                                            child.end_lineno - first + 1)
                visit(child, path, f"{name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), str(path), "")
    return functions


@contextlib.contextmanager
def profiled(seen: set):
    """Add the code object of every Python call to ``seen``."""
    add = seen.add

    def hook(frame, event, _arg):
        if event == "call":
            add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        yield
    finally:
        sys.setprofile(previous)


def run_tests() -> int:
    import pytest
    return pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])


def run_contract_callers(tmp: str) -> None:
    from repro.cli import main as repro_query
    from repro.experiments import EXPERIMENTS
    from repro.experiments.__main__ import main as experiments

    experiments(sorted(EXPERIMENTS) + ["--metrics-dir", tmp, "--jobs", "1"])
    experiments(["fuzz", "--budget", "12", "--seed", "0", "--jobs", "1",
                 "--metrics-dir", tmp, "--fuzz-out", tmp])

    sys.path.insert(0, str(LAYERED))
    try:
        from measure import drive, observe, reference
        from workloads import WORKLOADS
    finally:
        sys.path.remove(str(LAYERED))  # its tests/ must not shadow ours
    for name in sorted(WORKLOADS):
        build = WORKLOADS[name].build
        scenario = build(0, 0.3, None)
        oracle = reference(scenario)
        flipped = build(0, 0.3, not scenario.grid.context.metrics.enabled)
        for run in (scenario, flipped):
            observe(run, drive(run), oracle)

    argv = sys.argv
    try:
        for script in sorted((ROOT / "examples").glob("*.py")):
            sys.argv = [str(script)]
            runpy.run_path(str(script), run_name="__main__")
    finally:
        sys.argv = argv

    for argv in CLI_SMOKES:
        repro_query([arg.format(tmp=tmp) for arg in argv])


def print_table(title: str, rows: list) -> None:
    print(f"{title}: {len(rows)} functions, "
          f"{sum(lines for *_, lines in rows)} lines")
    for path, first, name, lines in rows:
        where = f"{os.path.relpath(path, SRC / 'repro')}:{first}"
        print(f"{lines:>5}  {where:<40} {name}")
    print()


def main() -> int:
    os.chdir(ROOT)
    functions = defined_functions()
    by_tests: set = set()
    by_callers: set = set()
    with tempfile.TemporaryDirectory() as tmp, profiled(by_callers), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        run_contract_callers(tmp)
    with profiled(by_tests):
        status = run_tests()

    def entered(codes: set) -> set:
        return {(os.path.abspath(code.co_filename), code.co_firstlineno)
                for code in codes}

    tests, callers = entered(by_tests), entered(by_callers)
    uncalled, test_only = [], []
    for (path, first), (name, lines) in sorted(functions.items()):
        if (path, first) in callers:
            continue
        row = (path, first, name, lines)
        (test_only if (path, first) in tests else uncalled).append(row)
    print()
    print_table("Nothing enters", uncalled)
    print_table("Only tests enter", test_only)
    if status != 0:
        print(f"tier-1 exited with status {status} under the profiler")
    return 0


if __name__ == "__main__":
    sys.exit(main())
