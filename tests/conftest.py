"""Shared test hooks: collect acceptance lines and criterion wall times for
the terminal summary."""

import pytest

acceptance_lines: list[str] = []
acceptance_times: dict[str, float] = {}  # criterion test name -> call time, s


@pytest.fixture(scope="session")
def acceptance_log():
    return acceptance_lines


def pytest_runtest_logreport(report):
    name = report.nodeid.rpartition("::")[2]
    if report.when == "call" and name.startswith("test_criterion_"):
        acceptance_times[name] = report.duration


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines or acceptance_times:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)
        if acceptance_times:
            terminalreporter.write_line(
                "wall time per criterion (call phase; module fixtures excluded):")
        for name, seconds in acceptance_times.items():
            terminalreporter.write_line(f"{seconds:8.2f} s  {name}")
