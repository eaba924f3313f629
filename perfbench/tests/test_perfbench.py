"""Tests of the benchmark itself, at tiny scale.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (needs the path above)
from workloads import WORKLOADS, run_hour  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Input size factor that keeps every workload to a few seconds.
TINY = 0.03


def _bench(workload: str, trace: int, cwd: Path = ROOT,
           seed: int = 3) -> subprocess.CompletedProcess:
    """Run the benchmark command as the spec gives it, from ``cwd``."""
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--scale", str(TINY)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def test_workloads_match_the_spec():
    for entry in SPEC["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    if trace:
        # Process bodies are attributed to the engine, not the kernel.
        assert result["metrics"]["engine.self_frac"]["value"] > 0


def test_broken_destination_trips_the_gate(monkeypatch, capsys):
    """A destination object lost after convergence fails the run and
    is counted as unreplicated."""
    from repro.core.service import AReplicaService

    converge = AReplicaService.run_to_convergence

    def converge_then_lose_one(self, *args, **kwargs):
        report = converge(self, *args, **kwargs)
        for rule in self.rules.values():
            rule.dst_bucket.delete_object(rule.dst_bucket.keys()[0],
                                          self.cloud.now, notify=False)
        return report

    monkeypatch.setattr(AReplicaService, "run_to_convergence",
                        converge_then_lose_one)
    assert run.main(["--workload", "busy-hour", "--seed", "1", "--seconds",
                     "0", "--scale", str(TINY)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == WORKLOADS["busy-hour"].hours


def test_traced_run_simulates_the_same_program():
    hour = run_hour(WORKLOADS["degraded-hour"], 5, TINY)
    from layers import LayerTracer

    with LayerTracer() as tracer:
        traced = run_hour(WORKLOADS["degraded-hour"], 5, TINY,
                          layer_tracer=tracer)
    assert not traced.failures
    assert traced.fingerprint() == hour.fingerprint()
    assert tracer.span_count > 0
    assert tracer.counts["Simulator.spawn"] > 0


def test_a_perturbing_tracer_is_caught(monkeypatch, tmp_path):
    """The non-perturbation check fails if the timers change what the
    program does (here: one extra kernel event per traced process)."""
    from layers import LayerTracer
    from repro.simcloud.sim import SleepRequest

    timed = LayerTracer.timed

    def perturbing(self, gen, layer, on_return=None):
        yield SleepRequest(0.0)
        return (yield from timed(self, gen, layer, on_return))

    monkeypatch.setattr(LayerTracer, "timed", perturbing)
    _metrics, _meta, _keys, _unrep, failures = run.per_layer(
        WORKLOADS["busy-hour"], 1, TINY, tmp_path / "spans.npz", [])
    assert any("traced run simulated something other" in f
               for f in failures)


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the run exits non-zero
    and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = _bench("busy-hour", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
