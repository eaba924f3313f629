"""The benchmark's workloads and one measured replay of each.

A workload is a replication rule, a default ``ReplicaConfig`` (plus the
few knobs the workload names) and a seeded trace.  :func:`run_hour`
builds a fresh cloud and service for one input, replays the trace
open-loop on the simulated clock, drains to convergence, checks the
result and returns its measurements.  Everything goes through the
public API of ``src/repro``; nothing there is changed.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.core.audit import ReplicationAuditor
from repro.core.config import ReplicaConfig
from repro.core.invariants import TraceChecker
from repro.core.service import AReplicaService
from repro.simcloud.chaos import ChaosConfig
from repro.simcloud.cloud import Cloud, build_default_cloud
from repro.traces.ibm_cos import OP_PUT, IbmCosTraceGenerator, TraceBatch
from repro.traces.replay import TraceReplayer

__all__ = ["WORKLOADS", "Workload", "HourResult", "run_hour"]

MB = 1024 ** 2


def busy_hour_trace(requests: int) -> Callable[[int, float], list]:
    """The seeded IBM COS busy hour, rescaled to hold about
    ``requests`` x scale requests.

    A seed's busy hour varies about twofold in length around its
    nominal size; rescaling its mean rate keeps the hour's shape
    (per-minute rate factors and bursts are drawn independently of
    the mean rate) while every input costs about the same to replay.
    """
    def make(seed: int, scale: float) -> list[TraceBatch]:
        target = max(1, round(requests * scale))
        gen = IbmCosTraceGenerator(seed=seed)
        probe = sum(len(b) for b in gen.busy_hour_batches(target))
        return gen.busy_hour_batches(
            total_requests=max(1, round(target * target / max(probe, 1))))
    return make


def bulk_trace(objects: int, low: int = 64 * MB,
               high: int = 1024 * MB) -> Callable[[int, float], list]:
    """``objects`` distinct keys, log-uniform sizes in [low, high],
    arriving uniformly at random over one hour."""
    def make(seed: int, scale: float) -> list[TraceBatch]:
        rng = np.random.default_rng(seed)
        n = max(1, round(objects * scale))
        times = np.sort(rng.uniform(0.0, 3600.0, n))
        sizes = np.exp(rng.uniform(np.log(low), np.log(high), n))
        return [TraceBatch(times=times,
                           ops=np.full(n, OP_PUT, dtype=np.uint8),
                           keys=[f"bulk/obj{i}" for i in range(n)],
                           sizes=sizes.astype(np.int64))]
    return make


def degraded_chaos(dst: str) -> ChaosConfig:
    """Light probabilistic faults on every substrate plus one short
    outage of the destination region."""
    window = ((dst, 300.0, 20.0),)
    return ChaosConfig(
        crash_prob=0.02, notif_drop_prob=0.02, notif_dup_prob=0.02,
        kv_reject_prob=0.02, kv_delay_prob=0.02, wan_stall_prob=0.02,
        faas_outages=window, kv_outages=window, wan_outages=window)


@dataclass(frozen=True)
class Workload:
    name: str
    #: Why the workload is in the benchmark (one line).
    why: str
    src: str
    dst: str
    #: Seeded inputs replayed per run: ``hours`` one-hour traces.
    hours: int
    trace: Callable[[int, float], list]
    #: ``ReplicaConfig`` fields changed from their defaults.
    config: dict = field(default_factory=dict)
    chaos: Optional[Callable[[str], ChaosConfig]] = None


WORKLOADS = {w.name: w for w in (
    Workload(
        "busy-hour",
        "IBM COS busy hour, mostly small objects: fixed per-object work "
        "(kernel, engine, locks, KV, health, ledger) dominates",
        "aws:us-east-1", "azure:eastus", hours=3,
        trace=busy_hour_trace(8000)),
    Workload(
        "bulk-multipart",
        "64 MB-1 GB objects on another cloud pair: per-part work "
        "(FaaS, part pool, multipart upload, network) dominates",
        "gcp:us-east1", "aws:eu-west-1", hours=4,
        trace=bulk_trace(275)),
    Workload(
        "degraded-hour",
        "busy hour under seeded faults and a destination outage, with "
        "hedging and tracing on: breakers, retries, redrive, hedges",
        "aws:us-east-1", "azure:eastus", hours=3,
        trace=busy_hour_trace(8000),
        config=dict(hedging_enabled=True, tracing_enabled=True),
        chaos=degraded_chaos),
)}


@dataclass
class HourResult:
    """Measurements and checks of one replayed input."""

    seed: int
    setup_s: float
    replay_s: float
    requests: int
    user_bytes: int
    delays: np.ndarray
    cost_usd: float
    keys: int
    unreplicated: int
    #: Work counters read from the program after the replay (present in
    #: traced and untraced runs alike; they must agree exactly).
    counts: dict[str, float]
    failures: list[str]

    def fingerprint(self) -> str:
        """Digest of every simulated output: equal digests mean the two
        runs simulated exactly the same thing."""
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.delays).tobytes())
        h.update(repr((self.requests, self.user_bytes, self.cost_usd,
                       self.keys, self.unreplicated,
                       sorted(self.counts.items()))).encode())
        return h.hexdigest()


def _program_counts(cloud: Cloud, service: AReplicaService) -> dict:
    """The program's own work counters, summed over the cloud.

    Several are read from underscored attributes: the program keeps
    these counters but offers no public accessor for them.
    """
    faas = {"invocations": 0, "cold_starts": 0, "warm_starts": 0,
            "errors": 0, "timeouts": 0}
    for region in cloud._faas.values():
        for deployment in region._deployments.values():
            for name in faas:
                faas[name] += deployment.stats[name]
    tables = cloud._kv.values()
    counts = {
        "events": cloud.sim._seq,
        "kv_ops": sum(sum(t.op_counts.values()) for t in tables),
        "kv_throttled": sum(t.chaos_rejected + t.chaos_outage_rejections
                            for t in tables),
        "notifications": cloud.notifications.delivered,
        "plans": service.planner.plans_generated,
        "plan_cache_hits": service.planner.cache.hits,
        "plan_cache_misses": service.planner.cache.misses,
        "breaker_opens": (service.health._open_count
                          if service.health is not None else 0),
        "tracer_spans": (len(service.tracer.spans)
                         if service.tracer is not None else 0),
        **{f"faas_{k}": v for k, v in faas.items()},
    }
    for rule in service.rules.values():
        for name, value in rule.engine.stats.items():
            counts[f"engine_{name}"] = counts.get(f"engine_{name}", 0) + value
    return counts


def _unreplicated(service: AReplicaService, keys: set[str],
                  finding_keys: set[str]) -> int:
    """Distinct written keys whose destination does not match the
    source, plus keys the audit flagged."""
    bad = keys & finding_keys
    for rule in service.rules.values():
        src, dst = rule.src_bucket, rule.dst_bucket
        for key in keys - bad:
            if key in src:
                if key not in dst or dst.head(key).etag != src.head(key).etag:
                    bad.add(key)
            elif key in dst:
                bad.add(key)
    return len(bad)


def run_hour(workload: Workload, seed: int, scale: float = 1.0,
             layer_tracer=None) -> HourResult:
    """Build, replay and check one input of ``workload``.

    With ``layer_tracer`` (a :class:`layers.LayerTracer`), spans are
    recorded from the first replay call to ``run_to_convergence()``'s
    return -- the same segment whose host time ``replay_s`` is.
    """
    t0 = time.perf_counter()
    cloud = build_default_cloud(seed=seed)
    service = AReplicaService(cloud, ReplicaConfig(**workload.config))
    src = cloud.bucket(workload.src, "src")
    dst = cloud.bucket(workload.dst, "dst")
    service.add_rule(src, dst)
    batches = workload.trace(seed, scale)
    setup_s = time.perf_counter() - t0

    if workload.chaos is not None:
        # Faults start after onboarding, as in the repo's drills.
        cloud.apply_chaos(workload.chaos(workload.dst))
    before = _program_counts(cloud, service)
    replayer = TraceReplayer(cloud, src)
    if layer_tracer is not None:
        layer_tracer.active = True
    t1 = time.perf_counter()
    proc = cloud.sim.spawn(replayer.replay_batches(batches),
                           name="trace-replay")
    cloud.run()
    if workload.chaos is not None:
        cloud.apply_chaos(None)
    convergence = service.run_to_convergence()
    replay_s = time.perf_counter() - t1
    if layer_tracer is not None:
        layer_tracer.active = False

    after = _program_counts(cloud, service)
    counts = {k: after[k] - before.get(k, 0) for k in after}
    failures = []
    rows = sum(len(b) for b in batches)
    stats = replayer.stats
    if not proc.done or stats.requests + stats.skipped_deletes != rows:
        failures.append(f"replay lost requests: {stats.requests} + "
                        f"{stats.skipped_deletes} skipped of {rows}")
    if not convergence.converged:
        failures.append("not converged: " + convergence.render())
    audit = ReplicationAuditor(service).audit(quiescent=True)
    if not audit.clean:
        failures.append(f"audit: {len(audit.findings)} finding(s), first "
                        f"{audit.findings[0]}")
    if service.tracer is not None:
        report = TraceChecker(service).check()
        if not report.clean:
            failures.append(f"trace checker: {len(report.findings)} "
                            f"finding(s), first {report.findings[0]}")
    keys = {key for b in batches for key in b.keys}
    return HourResult(
        seed=seed, setup_s=setup_s, replay_s=replay_s,
        requests=stats.requests, user_bytes=stats.bytes_written,
        delays=np.asarray(service.delays(), dtype=np.float64),
        cost_usd=cloud.ledger.total(), keys=len(keys),
        unreplicated=_unreplicated(
            service, keys, {f.key for f in audit.findings}),
        counts=counts, failures=failures)
