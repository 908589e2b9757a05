"""The per-test ceiling must kill a hung simulation, not hang tier-1."""

import importlib.util
import pathlib
import subprocess
import sys
import textwrap

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]

HANGING_TEST = textwrap.dedent("""
    from repro.sim import Environment


    def test_never_terminates():
        env = Environment()

        def ticker(env):
            while True:
                yield env.timeout(1.0)

        env.process(ticker(env))
        env.run()
""")


@pytest.mark.skipif(
    importlib.util.find_spec("pytest_timeout") is not None,
    reason="pytest-timeout owns the ceiling here")
def test_non_terminating_run_is_killed_with_a_traceback(tmp_path):
    case = tmp_path / "test_hang.py"
    case.write_text(HANGING_TEST)
    # The conftest is loaded as a plugin because the case lives outside
    # tests/; -o sets the same ini key pyproject.toml sets to 300.
    done = subprocess.run(
        [sys.executable, "-m", "pytest", str(case), "-p", "tests.conftest",
         "-o", "timeout=1", "-p", "no:cacheprovider"],
        cwd=REPO, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        timeout=60)
    stderr = done.stderr.decode()
    assert done.returncode == 1, stderr
    # The guard's dump starts at its timeout line; only frames after
    # it say where the run was stuck.
    _, fired, dump = stderr.partition("Timeout!")
    assert fired, stderr
    assert "environment.py" in dump and "test_hang.py" in dump, stderr
