"""Shared pytest plumbing: acceptance criteria are marked tests whose
pass/fail status is replayed as one line each at the end of the run, no
test sees the guard variables of the shell that runs it, and every test
starts with no interned ring."""

import pytest

from ringlab import rings

_RESULTS = {}


@pytest.fixture(autouse=True)
def _no_guard_variables(monkeypatch):
    """Every test starts with the default guards, whatever the shell
    exports; a test that needs a guard sets it itself."""
    monkeypatch.delenv("RINGLAB_ORDER_GUARD", raising=False)
    monkeypatch.delenv("RINGLAB_WORK_GUARD", raising=False)


@pytest.fixture(autouse=True)
def _empty_ring_table():
    """Every test starts with an empty `make_ring` table, so no ring or
    memo value built by an earlier test reaches it."""
    rings._RINGS.clear()


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "criterion(num, title): acceptance criterion with its number and title",
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("criterion")
    if marker is not None and report.when == "call":
        num, title = marker.args
        _RESULTS[num] = (title, report.passed, report.duration)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_RESULTS):
        title, passed, duration = _RESULTS[num]
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(
            f"criterion {num:2d}: {status}  ({duration:6.2f}s)  {title}"
        )
