"""Suite-wide fixtures and the per-test hang guard.

The ``experiments`` fixture runs each registered experiment at most
once per session, through its real ``run()``, so a table is simulated
once however many claims (``tests/paper/``, ``tests/experiments/``)
read it.

The hang guard is for environments without ``pytest-timeout``.
``pyproject.toml`` sets ``timeout = 300``.  Where the plugin is
installed (CI) it owns that key.  Where it is not, the key would be an
unknown option and a non-terminating DES run would hang the suite, so
this conftest registers the key itself and arms a ``SIGALRM`` timer
around each test (the plugin's own default method): a test that
exceeds the ceiling gets every thread's traceback on the real stderr
and the process exits.

The dump runs in a Python signal handler, i.e. in the main thread
between two bytecodes.  ``faulthandler.dump_traceback_later`` would
walk the main thread's frames from a watchdog thread *without* the
GIL, and a hung simulation pushes and pops frames at full speed: that
walk reads freed frames now and then and the process dies of SIGSEGV
mid-dump — killed, but without the traceback that says where.
"""

import faulthandler
import importlib.util
import os
import signal
import sys

import pytest

from repro.experiments import EXPERIMENTS
from repro.experiments.harness import MetricsSink, set_metrics_sink


class ExperimentRuns:
    """Registered experiments, each run once: report and metrics records."""

    def __init__(self) -> None:
        self._runs = {}

    def _run(self, key):
        if key not in self._runs:
            sink = MetricsSink()
            previous = set_metrics_sink(sink)
            try:
                self._runs[key] = EXPERIMENTS[key](), sink.records
            finally:
                set_metrics_sink(previous)
        return self._runs[key]

    def report(self, key):
        return self._run(key)[0]

    def records(self, key):
        return self._run(key)[1]


@pytest.fixture(scope="session")
def experiments():
    return ExperimentRuns()


if importlib.util.find_spec("pytest_timeout") is None:
    _STDERR_FD = pytest.StashKey[int]()

    def pytest_addoption(parser):
        parser.addini(
            "timeout",
            "per-test wall-clock ceiling in seconds (0 disables)",
            default="0")

    def pytest_configure(config):
        # Output capture is suspended while plugins are configured, so
        # this duplicates the terminal's stderr, not a capture file.
        stderr_fd = config.stash[_STDERR_FD] = os.dup(sys.stderr.fileno())

        def on_alarm(_signum, _frame):
            os.write(stderr_fd, b"Timeout!\n")
            faulthandler.dump_traceback(file=stderr_fd, all_threads=True)
            os._exit(1)

        signal.signal(signal.SIGALRM, on_alarm)

    def pytest_unconfigure(config):
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        os.close(config.stash[_STDERR_FD])

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(item):
        signal.setitimer(signal.ITIMER_REAL,
                         float(item.config.getini("timeout")))
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
