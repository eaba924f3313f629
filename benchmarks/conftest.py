"""Shared fixtures for the reproduction benchmarks.

Every benchmark regenerates one table or figure from the paper's
evaluation and writes its output (the reproduced rows/series plus the
paper's reference values) to ``results/<experiment>.txt``.  Benchmarks
run each scenario once (``benchmark.pedantic`` with a single round):
the interesting measurements are *simulated* delays and costs, which
are deterministic under the seed; the pytest-benchmark timing merely
records how long the simulation itself takes.

Set ``REPRO_BENCH_SCALE`` (default 1.0) to scale trial counts and
trace sizes up or down.  Only a full-scale run writes ``results/``; a
run at any other scale writes to a pytest temp dir, so a quick check
never overwrites the committed outputs.
"""

from __future__ import annotations

import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


def bench_scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def scaled(n: int, minimum: int = 1) -> int:
    return max(minimum, int(round(n * bench_scale())))


@pytest.fixture(scope="session")
def results_dir(tmp_path_factory) -> pathlib.Path:
    if bench_scale() != 1.0:
        return tmp_path_factory.mktemp("results")
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture()
def save_result(results_dir):
    """Write an experiment's textual output to <results_dir>/<name>.txt."""

    def _save(name: str, text: str) -> pathlib.Path:
        path = results_dir / f"{name}.txt"
        path.write_text(text if text.endswith("\n") else text + "\n")
        return path

    return _save


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark and return its value."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
