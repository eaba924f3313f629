"""AReplica benchmark: one workload, end to end or per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload busy-hour --seed 1 --seconds 45 --trace 0

``--trace 0`` replays the workload's seeded inputs untraced, over and
over until ``--seconds`` have passed, and reports the end-to-end
metrics.  ``--trace 1`` replays each input once untraced and once with
the per-layer timers of ``layers.py`` installed, checks that both
simulated exactly the same thing, and reports the per-layer metrics.

The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` counts the distinct keys written, ``failed`` those whose
destination does not match the source at quiescence.  The line before
it is ``{"meta": ...}``: sizes, sample counts and the host calibration
figure.  Exit code 0 means the run finished; ``correct`` says whether
every check passed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

#: Size of the calibration loop (pure-Python integer work).
CALIBRATION_ITERATIONS = 500_000
#: The calibration loop's host time on the machine the bounds in
#: ``BENCHMARK.json`` were set on (2-core shared VM, CPython 3.11).
#: Host-time metrics are reported in seconds of that machine.
REFERENCE_CALIBRATION_S = 0.06


def calibration_s() -> float:
    """Host seconds for a fixed pure-Python loop.

    It is timed before every replay.  The median over a run says how
    fast the host is during that run, so host-time figures from
    different machines, or from one shared machine under different
    load, compare as ratios of it.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_ITERATIONS):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def input_seeds(workload, seed: int) -> list[int]:
    """The run's inputs: ``workload.hours`` seeds derived from ``seed``."""
    return [seed * 1000 + i for i in range(workload.hours)]


def _frac(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def end_to_end(workload, seed: int, seconds: float, scale: float,
               calibration: list[float]):
    """Replay the inputs round robin until ``seconds`` have passed and
    every input ran at least once."""
    from workloads import run_hour

    seeds = input_seeds(workload, seed)
    runs: list = []
    failures: list[str] = []
    start = time.perf_counter()
    while len(runs) < len(seeds) or time.perf_counter() - start < seconds:
        gc.collect()
        calibration.append(calibration_s())
        runs.append(run_hour(workload, seeds[len(runs) % len(seeds)], scale))
    first = runs[:len(seeds)]
    for i, hour in enumerate(runs[len(seeds):]):
        if hour.fingerprint() != first[i % len(seeds)].fingerprint():
            failures.append(f"seed {hour.seed}: a repeated replay "
                            "simulated something else")
    for hour in first:
        failures += [f"seed {hour.seed}: {f}" for f in hour.failures]

    delays = np.concatenate([h.delays for h in first])
    requests = sum(h.requests for h in first)
    user_bytes = sum(h.user_bytes for h in first)
    keys = sum(h.keys for h in first)
    unreplicated = sum(h.unreplicated for h in first)
    p50, p99 = np.quantile(delays, [0.5, 0.99])
    rate = statistics.median(h.requests / h.replay_s for h in runs)
    setup = statistics.median(h.setup_s for h in runs)
    # Host seconds of this run, in seconds of the reference machine.
    slowdown = statistics.median(calibration) / REFERENCE_CALIBRATION_S
    metrics = {
        "replay_req_per_s": (rate * slowdown, "req/s"),
        "setup_s": (setup / slowdown, "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "delay_p50_s": (float(p50), "s"),
        "delay_p99_s": (float(p99), "s"),
        "cost_usd_per_gb": (
            _frac(sum(h.cost_usd for h in first), user_bytes) * 1e9,
            "USD/GB"),
        "replicated_frac": (1.0 - _frac(unreplicated, keys), "frac"),
    }
    meta = {
        "inputs": seeds, "replays": len(runs),
        "replay_s": [h.replay_s for h in runs], "trace_requests": requests,
        "host_replay_req_per_s": rate, "host_setup_s": setup,
        "user_gb": user_bytes / 1e9, "delay_samples": int(delays.size),
        "samples_beyond_p99": int((delays > p99).sum()),
        "unreplicated_frac": _frac(unreplicated, keys),
    }
    return metrics, meta, keys, unreplicated, failures


def per_layer(workload, seed: int, scale: float, spans_path: Path,
              calibration: list[float]):
    """One untraced and one traced replay of every input.

    The work is fixed (not ``--seconds``) so that every count repeats
    exactly for a given seed.
    """
    from layers import LAYERS, LayerTracer
    from workloads import run_hour

    failures: list[str] = []
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    traced_s = untraced_s = 0.0
    requests = keys = unreplicated = user_bytes = spans = 0
    cond_fails = contended = pool_parts = wan_bytes = 0
    tracer = None
    for s in input_seeds(workload, seed):
        gc.collect()
        calibration.append(calibration_s())
        plain = run_hour(workload, s, scale)
        tracer = None
        gc.collect()
        with LayerTracer() as tracer:
            traced = run_hour(workload, s, scale, layer_tracer=tracer)
        if plain.fingerprint() != traced.fingerprint():
            failures.append(f"seed {s}: the traced run simulated "
                            "something other than the untraced run")
        failures += [f"seed {s}: {f}" for f in traced.failures]
        wall = traced.replay_s
        own = tracer.self_seconds()
        for layer, sec in own.items():
            self_s[layer] += sec
        # Wall time no span covers is unattributed.
        self_s["other"] += wall - sum(own.values())
        traced_s += wall
        untraced_s += plain.replay_s
        for name, n in tracer.counts.items():
            calls[name] = calls.get(name, 0) + n
        for name, n in traced.counts.items():
            counts[name] = counts.get(name, 0) + n
        requests += traced.requests
        user_bytes += traced.user_bytes
        keys += traced.keys
        unreplicated += traced.unreplicated
        spans += tracer.span_count
        cond_fails += tracer.kv_cond_fails
        contended += tracer.lock_contended
        pool_parts += tracer.pool_parts
        wan_bytes += tracer.wan_bytes
    tracer.write_spans(spans_path)

    def per_req(n: float) -> tuple[float, str]:
        return (_frac(n, requests), "1/req")

    def calls_of(prefix: str) -> int:
        return sum(n for name, n in calls.items() if name.startswith(prefix))

    c = counts.get
    attempts = c("faas_cold_starts", 0) + c("faas_warm_starts", 0)
    tasks = c("engine_tasks", 0)
    lookups = c("plan_cache_hits", 0) + c("plan_cache_misses", 0)
    locks = calls.get("ReplicationLockManager.lock", 0)
    metrics = {f"{layer}.self_frac": (_frac(sec, traced_s), "frac")
               for layer, sec in self_s.items()}
    metrics.update({
        "sim.events_per_req": per_req(c("events", 0)),
        "engine.tasks_per_req": per_req(tasks),
        "engine.wasted_task_frac": (_frac(
            c("engine_aborted", 0) + c("engine_retriggered", 0)
            + c("engine_lock_lost", 0), tasks), "frac"),
        "engine.kv_retries_per_req": per_req(c("engine_kv_retries", 0)),
        "engine.hedges_per_req": per_req(c("engine_hedges", 0)),
        "engine.hedge_win_frac": (_frac(c("engine_hedge_wins", 0),
                                        c("engine_hedges", 0)), "frac"),
        "planner.plans_per_req": per_req(c("plans", 0)),
        "planner.cache_hit_frac": (_frac(c("plan_cache_hits", 0), lookups),
                                   "frac"),
        "faas.invocations_per_req": per_req(c("faas_invocations", 0)),
        "faas.cold_start_frac": (_frac(c("faas_cold_starts", 0), attempts),
                                 "frac"),
        "faas.failed_attempt_frac": (_frac(
            c("faas_errors", 0) + c("faas_timeouts", 0), attempts), "frac"),
        "kvstore.ops_per_req": per_req(c("kv_ops", 0)),
        "kvstore.cond_fail_frac": (_frac(cond_fails, c("kv_ops", 0)), "frac"),
        "kvstore.throttled_frac": (_frac(
            c("kv_throttled", 0), c("kv_ops", 0) + c("kv_throttled", 0)),
            "frac"),
        "objectstore.ops_per_req": per_req(calls_of("Bucket.")),
        "network.transfers_per_req": per_req(
            calls.get("FunctionContext._leg_seconds", 0)
            + calls.get("NetworkFabric.sample_transfer_seconds", 0)),
        "network.wan_bytes_per_user_byte": (_frac(wan_bytes, user_bytes),
                                            "B/B"),
        "partpool.claims_per_part": (_frac(calls.get("PartPool.claim", 0),
                                           pool_parts), "1/part"),
        "locks.acquires_per_req": per_req(locks),
        "locks.contended_frac": (_frac(contended, locks), "frac"),
        "health.records_per_req": per_req(calls.get("HealthTracker.record",
                                                    0)),
        "health.breaker_opens": (float(c("breaker_opens", 0)), "count"),
        "cost.charges_per_req": per_req(calls.get("CostLedger.charge", 0)),
        "notifications.deliveries_per_req": per_req(c("notifications", 0)),
        "tracing.spans_per_req": per_req(c("tracer_spans", 0)),
        "bench.trace_overhead_frac": (_frac(traced_s, untraced_s) - 1.0,
                                      "frac"),
    })
    meta = {"inputs": input_seeds(workload, seed),
            "trace_requests": requests, "layer_spans": spans,
            "spans_file": str(spans_path), "traced_s": traced_s,
            "untraced_s": untraced_s}
    return metrics, meta, keys, unreplicated, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor (tests use tiny scales)")
    args = parser.parse_args(argv)
    try:
        from workloads import WORKLOADS
    except ImportError as err:
        print(f"cannot import the program from {HERE.parent / 'src'}: "
              f"{err}", file=sys.stderr)
        return 2
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 0 or args.scale <= 0:
        parser.error("--seed and --seconds must be >= 0, --scale > 0")

    calibration: list[float] = []
    if args.trace:
        spans_path = (HERE / "out" /
                      f"spans-{workload.name}-seed{args.seed}.npz")
        metrics, meta, keys, unreplicated, failures = per_layer(
            workload, args.seed, args.scale, spans_path, calibration)
    else:
        metrics, meta, keys, unreplicated, failures = end_to_end(
            workload, args.seed, args.seconds, args.scale, calibration)

    for name, (value, unit) in metrics.items():
        print(f"{workload.name:<15} {name:<34} {value:>14.6g} {unit}")
    for failure in failures:
        print(f"FAILED: {failure}")
    meta.update(workload=workload.name, seed=args.seed, scale=args.scale,
                calibration_s=statistics.median(calibration),
                calibration_iterations=CALIBRATION_ITERATIONS,
                reference_calibration_s=REFERENCE_CALIBRATION_S)
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": not failures,
        "attempted": keys,
        "failed": unreplicated,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
