"""Shared test hooks: the singularity constants at the default order, fresh
grown state for one test, and the acceptance lines and criterion wall times."""

import pytest

from polyakit import families as fam
from polyakit.asymptotics import (decomposition_constants, forest_asymptotics,
                                  solve_polya_singularity)

acceptance_lines: list[str] = []
acceptance_times: dict[str, float] = {}  # criterion test name -> call time, s


@pytest.fixture(scope="session")
def sing():
    return solve_polya_singularity()


@pytest.fixture(scope="session")
def forest(sing):
    return forest_asymptotics()


@pytest.fixture(scope="session")
def deco():
    return decomposition_constants()


@pytest.fixture
def fresh_state(monkeypatch):
    """Empty tables and no remembered solve or law, for this test only."""
    monkeypatch.setattr(fam, "_grown", fam._Grown())
    return fam._grown


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
