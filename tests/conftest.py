"""Per-test hang guard for environments without ``pytest-timeout``.

``pyproject.toml`` sets ``timeout = 300``.  Where the plugin is
installed (CI) it owns that key.  Where it is not, the key would be an
unknown option and a non-terminating DES run would hang the suite, so
this conftest registers the key itself and arms
``faulthandler.dump_traceback_later(..., exit=True)`` around each test:
a test that exceeds the ceiling gets every thread's traceback on the
real stderr and the process exits.
"""

import faulthandler
import importlib.util
import os
import sys

import pytest

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
        config.stash[_STDERR_FD] = os.dup(sys.stderr.fileno())

    def pytest_unconfigure(config):
        os.close(config.stash[_STDERR_FD])

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(item):
        seconds = float(item.config.getini("timeout"))
        if seconds > 0:
            faulthandler.dump_traceback_later(
                seconds, exit=True, file=item.config.stash[_STDERR_FD])
        try:
            yield
        finally:
            faulthandler.cancel_dump_traceback_later()
