"""Shared benchmark fixtures and reporting helpers.

Every benchmark prints the paper-style table for its figure via ``-s`` (or
the captured stdout section of the pytest report) and wraps its core
computation with pytest-benchmark for timing.  Simulated latencies are the
reproduction target; wall-clock numbers measure the harness itself.

Without pytest-benchmark (not installed, or ``-p no:benchmark``) a
stand-in ``benchmark`` fixture calls each function once, so the paper-claim
assertions run under plain pytest::

    PYTHONPATH=src python -m pytest benchmarks -o python_files='bench_*.py' \
        --import-mode=importlib -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

# The script-run gates import ``e2e_common`` as a top-level module (a
# script's own directory is on ``sys.path``); collecting them under pytest
# needs the same.
sys.path.insert(0, str(Path(__file__).resolve().parent))


class _CallOnce:
    """pytest-benchmark's fixture surface, minus the timing."""

    def __call__(self, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def pedantic(self, fn, args=(), kwargs=None, **_rounds):
        return fn(*args, **(kwargs or {}))


class _CallOncePlugin:
    @pytest.fixture
    def benchmark(self):
        return _CallOnce()


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "benchmark(group): pytest-benchmark grouping of a bench"
    )
    if not config.pluginmanager.hasplugin("benchmark"):
        config.pluginmanager.register(_CallOncePlugin(), "benchmark-call-once")


def paper_note(figure: str, claim: str) -> str:
    """A uniform header tying each bench to its figure and claim."""
    return f"\n=== {figure} ===\npaper: {claim}\n"


@pytest.fixture(scope="session")
def print_table():
    """Print a formatted table (kept visible with `pytest -s`)."""
    from repro.runtime import format_table

    def _print(headers, rows, title=""):
        print()
        print(format_table(headers, rows, title=title))

    return _print
