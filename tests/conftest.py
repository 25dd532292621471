"""Shared fixtures and the acceptance-criteria summary.

Each test in ``test_acceptance.py`` carries an ``acceptance(n, text)``
marker; the terminal summary prints one PASS/FAIL line per criterion so
the acceptance status is readable without digging through the log.
"""

import contextlib
import os
import warnings

import pytest

# On a failing example, hypothesis's pytest plugin imports this module, and
# its libcst import emits a DeprecationWarning (mypy_extensions.TypedDict).
# With ``filterwarnings = ["error"]`` that warning is raised inside the
# report hooks, and the run stops with INTERNALERROR instead of reporting
# one failure.  Importing the module here, with the warning ignored, spends
# the warning before any test runs.  Without libcst the plugin skips the
# import, and so does this.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
XOR_CONFIG = os.path.join(REPO_ROOT, "configs", "xor.yaml")

_acceptance_results = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "acceptance(n, text): acceptance criterion number and summary"
    )


@pytest.fixture(scope="session")
def xor_config_path():
    return XOR_CONFIG


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    marker_info = getattr(report, "_acceptance", None)
    if marker_info:
        n, text = marker_info
        _acceptance_results[n] = (text, report.outcome)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker:
        report._acceptance = (marker.args[0], marker.args[1])


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(_acceptance_results):
        text, outcome = _acceptance_results[n]
        status = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"criterion {n} [{status}] {text}")
