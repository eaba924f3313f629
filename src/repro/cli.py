"""AReplica command-line interface.

Mirrors the published LambdaReplica CLI against the simulated clouds:

    areplica replicate --src aws:us-east-1 --dst azure:eastus --size 128MB
    areplica plan      --src aws:us-east-1 --dst gcp:us-east1 --size 1GB --slo 10
    areplica profile   --src aws:us-east-1 --dst azure:eastus
    areplica trace     --requests 5000 --slo 10
    areplica compare   --src aws:us-east-1 --dst aws:us-east-2 --size 1MB
    areplica outage-drill --outage-start 600 --outage-duration 600
    areplica corruption-drill --seed 0 --json
    areplica hedge-drill --seed 0 --json
    areplica lifecycle-drill --scenario evacuate --chaos --hedging --json
    areplica tenant-drill --tenants 1000 --shards 4 --json
    areplica autopilot-drill --seed 0 --json
    areplica drill-all --seed 0

All commands accept ``--seed`` for reproducibility.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np

__all__ = ["main", "parse_size"]

_UNITS = {"B": 1, "KB": 1024, "MB": 1024**2, "GB": 1024**3, "TB": 1024**4}


def parse_size(text: str) -> int:
    """Parse '128MB', '1GB', '512', '8 MB' into bytes."""
    s = text.strip().upper().replace(" ", "")
    for unit in ("TB", "GB", "MB", "KB", "B"):
        if s.endswith(unit):
            number = s[: -len(unit)]
            try:
                return int(float(number) * _UNITS[unit])
            except ValueError:
                break
    try:
        return int(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse size {text!r}") from None


def _hedging_config(args) -> dict:
    """ReplicaConfig hedging fields from the --hedging knobs; empty for
    commands without the flag or with it off."""
    if not getattr(args, "hedging", False):
        return {}
    return dict(hedging_enabled=True,
                hedge_deadline_quantile=args.hedge_quantile,
                hedge_min_samples=args.hedge_min_samples,
                hedge_min_part_bytes=args.hedge_min_part_bytes,
                max_clones_per_part=args.max_clones)


def _build_service(args, slo: float = 0.0, tracing: bool = False):
    from repro.core.config import ReplicaConfig
    from repro.core.service import AReplicaService
    from repro.simcloud.cloud import build_default_cloud

    cloud = build_default_cloud(seed=args.seed)
    config = ReplicaConfig(slo_seconds=slo, percentile=args.percentile,
                           profile_samples=args.profile_samples,
                           tracing_enabled=tracing, **_hedging_config(args))
    service = AReplicaService(cloud, config)
    src = cloud.bucket(args.src, "src")
    dst = cloud.bucket(args.dst, "dst")
    rule = service.add_rule(src, dst)
    return cloud, service, src, dst, rule


def cmd_replicate(args) -> int:
    from repro.simcloud.objectstore import Blob

    cloud, service, src, dst, rule = _build_service(args, slo=args.slo)
    before = cloud.ledger.snapshot()
    src.put_object("cli-object", Blob.fresh(args.size), cloud.now)
    cloud.run()
    if not service.records:
        print("replication did not complete", file=sys.stderr)
        return 1
    record = service.records[-1]
    cost = before.delta(cloud.ledger.snapshot())
    print(f"replicated {args.size} bytes {args.src} -> {args.dst}")
    print(f"  delay:       {record.delay:.2f} s")
    print(f"  parallelism: {record.plan_n}")
    print(f"  executed at: {record.loc_key}")
    print(f"  cost:        ${cost.total:.6f}")
    for category, amount in sorted(cost.totals.items()):
        if amount > 0:
            print(f"    {category:<18} ${amount:.6f}")
    return 0


def cmd_plan(args) -> int:
    cloud, service, src, dst, rule = _build_service(args, slo=args.slo)
    size = args.size
    slo_remaining = args.slo if args.slo > 0 else float("-inf")
    plan = (service.planner.generate(size, args.src, args.dst, slo_remaining)
            if args.slo > 0 else service.planner.fastest(size, args.src, args.dst))
    print(f"plan for {size} bytes {args.src} -> {args.dst} "
          f"(SLO={args.slo or 'fastest'}, p{int(args.percentile * 100)}):")
    print(f"  parallelism: {plan.n}")
    print(f"  location:    {plan.loc_key}{' (inline)' if plan.inline else ''}")
    print(f"  predicted:   {plan.predicted_s:.2f} s "
          f"({'compliant' if plan.compliant else 'NOT compliant'})")
    print("\ncandidates:")
    for n in service.config.parallelism_ladder():
        if n > service.planner._max_useful_parallelism(size):
            break
        for loc in (args.src, args.dst):
            path = (loc, args.src, args.dst)
            if not service.model.has_path(path):
                continue
            inline = service.planner._is_inline(n, loc, args.src, size)
            t = service.model.predict_percentile(path, size, n,
                                                 args.percentile, inline=inline)
            print(f"  n={n:<4} loc={loc:<22} predicted={t:8.2f} s")
    return 0


def cmd_profile(args) -> int:
    cloud, service, src, dst, rule = _build_service(args)
    for loc in (args.src, args.dst):
        path = (loc, args.src, args.dst)
        if not service.model.has_path(path):
            continue
        lp = service.model.loc_params[loc]
        pp = service.model.path_params[path]
        print(f"path loc={loc} src={args.src} dst={args.dst}:")
        print(f"  I  (invoke)        {lp.invoke.mean * 1e3:7.1f} ± {lp.invoke.std * 1e3:.1f} ms")
        print(f"  D  (startup)       {lp.startup.mean:7.3f} ± {lp.startup.std:.3f} s")
        print(f"  S  (client ready)  {pp.client_startup.mean:7.3f} ± {pp.client_startup.std:.3f} s")
        print(f"  C  (per chunk)     {pp.chunk.mean:7.3f} ± {pp.chunk.std:.3f} s")
        print(f"  C' (distributed)   {pp.chunk_distributed.mean:7.3f} ± {pp.chunk_distributed.std:.3f} s")
    return 0


def _machine_report(cloud, service, rule, extra=None) -> dict:
    """The machine-checkable report shared by --json commands.

    Multi-rule drills (tenant-drill) pass ``rule=None`` and get engine
    stats summed across every rule in the service.
    """
    if rule is not None:
        engine_stats = dict(rule.engine.stats)
    else:
        engine_stats = {}
        for r in service.rules.values():
            for k, v in r.engine.stats.items():
                engine_stats[k] = engine_stats.get(k, 0) + v
    report = {
        "summary": service.summary(),
        "chaos_stats": cloud.chaos_stats(),
        "health": service.health_snapshot(),
        "engine_stats": engine_stats,
        "parked_backlog": service.backlog_count(),
    }
    if extra:
        report.update(extra)
    return report


def _print_json(report: dict) -> None:
    import json

    print(json.dumps(report, indent=2, sort_keys=True, default=str))


def cmd_trace(args) -> int:
    from repro.traces.ibm_cos import IbmCosTraceGenerator
    from repro.traces.replay import TraceReplayer

    cloud, service, src, dst, rule = _build_service(
        args, slo=args.slo, tracing=args.trace_out is not None)
    trace = IbmCosTraceGenerator(seed=args.seed).busy_hour(
        total_requests=args.requests)
    if not args.json:
        print(f"replaying {len(trace)} requests over one hour "
              f"({args.src} -> {args.dst}, SLO={args.slo or 'fastest'}) ...")
    stats = TraceReplayer(cloud, src).replay_all(trace)
    extra = {}
    if args.trace_out is not None:
        service.tracer.export_chrome(args.trace_out)
        extra = {
            "trace_out": args.trace_out,
            "trace_spans": len(service.tracer.spans),
            "trace_events": len(service.tracer.events),
            "delay_breakdown": service.tracer.delay_breakdown(),
        }
    if args.json:
        _print_json(_machine_report(cloud, service, rule, {
            "requests": stats.requests,
            "bytes_written": stats.bytes_written,
            **extra,
        }))
        return 0
    delays = np.asarray(service.delays())
    print(f"  puts={stats.puts} deletes={stats.deletes} "
          f"bytes={stats.bytes_written / 1e9:.2f} GB")
    for label, q in (("p50", 0.5), ("p90", 0.9), ("p99", 0.99),
                     ("p99.99", 0.9999)):
        print(f"  {label:<7} replication delay: {np.quantile(delays, q):8.2f} s")
    print(f"  total cost: ${cloud.ledger.total():.4f}")
    if args.trace_out is not None:
        print(f"\nper-phase delay breakdown "
              f"(Chrome trace written to {args.trace_out}):")
        print(service.tracer.render_breakdown())
    return 0


def cmd_audit(args) -> int:
    """Replay a workload, then run the consistency auditor on it."""
    from repro.core.audit import ReplicationAuditor
    from repro.traces.ibm_cos import IbmCosTraceGenerator
    from repro.traces.replay import TraceReplayer

    cloud, service, src, dst, rule = _build_service(args, slo=args.slo)
    trace = IbmCosTraceGenerator(seed=args.seed).busy_hour(
        total_requests=args.requests)
    stats = TraceReplayer(cloud, src).replay_all(trace)
    report = ReplicationAuditor(service).audit()
    print(f"replayed {stats.requests} requests "
          f"({stats.bytes_written / 1e9:.2f} GB); auditing ...")
    print(report.render())
    summary = service.summary()
    print(f"measured {summary['replicated_events']} events, "
          f"p99 delay {summary['delay_p99_s']:.1f}s, "
          f"total cost ${summary['total_cost_usd']:.4f}")
    return 0 if report.clean else 1


# -- drills --------------------------------------------------------------------
#
# Every drill is one pipeline: build a service, arm a disturbance, replay
# or schedule the workload, let the storm pass and converge, then prove
# the result with the quiescent audit, an optional anti-entropy scan, the
# trace oracle and the pending-measurement count.  A ``_Drill`` spec
# states only what differs; ``_run_drill`` owns the rest.

#: The probabilistic storm ``--chaos`` layers over lifecycle-drill and
#: autopilot-drill.
_STORM = dict(crash_prob=0.02, notif_drop_prob=0.02, notif_dup_prob=0.02,
              kv_reject_prob=0.02, kv_delay_prob=0.02, wan_stall_prob=0.01)

_LIFECYCLE_SCENARIOS = ("evacuate", "rolling", "switchover")

#: ConvergenceReport fields every drill report carries.
_CONVERGENCE = ("converged", "rounds", "redriven", "residual_dead_letters",
                "parked_backlog")


@dataclass(frozen=True)
class _Drill:
    """One drill: plain data plus the hooks where drills differ.

    ``setup(args)`` builds the service, arms the disturbance and returns
    the run namespace (``header`` for text mode, plus ``trace`` to replay
    or ``requests`` already scheduled).  ``fields(run)`` returns the
    drill's extra report fields, ``gates(run, fields)`` its extra pass
    conditions and ``lines(run, fields)`` its extra text lines.
    """

    setup: Callable
    fields: Callable = lambda run: {}
    gates: Callable = lambda run, f: True
    lines: Callable = lambda run, f: []
    #: Anti-entropy scan after the audit: "" (none), "redrive", or
    #: "scrub" (redrive + byte-level scrub + reap abandoned uploads).
    scan: str = ""
    #: ConvergenceReport fields reported beyond ``_CONVERGENCE``.
    convergence: tuple = ()
    #: Runs right after convergence, before the audit.
    settle: Optional[Callable] = None
    #: The disturbance is an absolute-time window the workload plays
    #: through, so chaos is cleared only after convergence.
    chaos_through_convergence: bool = False
    #: Report scenario name, formatted with the parsed arguments.
    name: str = "{command}"
    #: drill-all runs the drill once per argument variant.
    variants: tuple = ((),)
    verdicts: tuple = ("PASS", "FAIL")


def _counters(stats, names) -> list[str]:
    return [f"  {name:<26} {stats[name]}" for name in names]


def _replay_setup(args, chaos: Optional[dict] = None):
    """Single-rule drills: one traced rule and the seeded busy-hour trace
    the runner replays.  Chaos goes live only after onboarding: faults
    are injected into the running service, not into the offline
    profiling step."""
    from repro.simcloud.chaos import ChaosConfig
    from repro.traces.ibm_cos import IbmCosTraceGenerator

    cloud, service, src, dst, rule = _build_service(args, slo=args.slo,
                                                    tracing=True)
    if chaos:
        cloud.apply_chaos(ChaosConfig(**chaos))
    trace = IbmCosTraceGenerator(seed=args.seed).busy_hour(
        total_requests=args.requests)
    return SimpleNamespace(args=args, cloud=cloud, service=service, src=src,
                           dst=dst, rule=rule, trace=trace)


def _tenant_setup(args, tenant, **config):
    """Multi-tenant drills: a sharded service with ``--tenants`` tenants,
    each on its own bucket pair with the ``TenantConfig`` fields
    ``tenant(i, budget)`` returns; ``budget`` is ``--budget-tasks``
    tasks' worth of spend per window."""
    from repro.core.config import ReplicaConfig, TenantConfig
    from repro.core.service import AReplicaService
    from repro.simcloud.cloud import build_default_cloud
    from repro.simcloud.cost import estimate_task_cost

    cloud = build_default_cloud(seed=args.seed)
    service = AReplicaService(cloud, ReplicaConfig(
        profile_samples=args.profile_samples, tracing_enabled=True,
        **config, **_hedging_config(args)))
    service.enable_multitenancy(shards=args.shards,
                                max_concurrent=args.max_concurrent)
    # One offline profiling pass covers every tenant: the performance
    # model is keyed by region path, and all tenants ride one pair.
    probe_src = cloud.bucket(args.src, "profile-probe-src")
    probe_dst = cloud.bucket(args.dst, "profile-probe-dst")
    service.profiler.ensure_path(args.src, probe_src, probe_dst)
    if args.dst != args.src:
        service.profiler.ensure_path(args.dst, probe_src, probe_dst)
    task_cost = estimate_task_cost(cloud.prices, probe_src.region,
                                   probe_dst.region, args.object_size)
    budget = args.budget_tasks * task_cost
    states = []
    for i in range(args.tenants):
        fields = tenant(i, budget)
        src = cloud.bucket(args.src, f"{fields['tenant_id']}-src")
        dst = cloud.bucket(args.dst, f"{fields['tenant_id']}-dst")
        states.append(service.add_tenant(TenantConfig(
            buckets=(src.name, dst.name), budget_window_s=args.budget_window,
            **fields), src, dst))
    # Offline profiling consumed simulated time: PUT times are relative
    # to ``base``.
    return SimpleNamespace(args=args, cloud=cloud, service=service, rule=None,
                           trace=None, budget=budget, states=states,
                           base=cloud.sim.now)


def _schedule_puts(run, puts) -> None:
    """Schedule ``(t, tenant state, key)`` PUTs at ``run.base + t``."""
    from repro.simcloud.objectstore import Blob

    cloud, size = run.cloud, run.args.object_size
    for t, state, key in puts:
        cloud.sim.call_at(
            run.base + t, lambda b=state.src_bucket, k=key: b.put_object(
                k, Blob.fresh(size), cloud.sim.now))
    run.requests = len(puts)


def _tenant_verdicts(run) -> dict:
    """Per-tenant report fields both multi-tenant drills share."""
    tenants = run.service.tenant_summary()
    return {
        "tenants": len(tenants),
        "tenant_verdicts": tenants,
        "unconverged_tenants": sorted(t for t, row in tenants.items()
                                      if not row["converged"]),
        "over_admitted_tenants": sorted(t for t, row in tenants.items()
                                        if row["over_admissions"] > 0),
    }


def _chaos_soak(args):
    """Replay a trace segment under a seeded fault schedule, then let the
    storm pass, drain retries/DLQs and assert full convergence."""
    run = _replay_setup(args, dict(
        crash_prob=args.crash_prob, notif_drop_prob=args.notif_drop,
        notif_dup_prob=args.notif_dup, notif_reorder_prob=args.notif_reorder,
        kv_reject_prob=args.kv_reject, kv_delay_prob=args.kv_delay,
        wan_stall_prob=args.wan_stall))
    run.header = (f"soaking {len(run.trace)} requests under chaos "
                  f"(crash={args.crash_prob}, drop={args.notif_drop}, "
                  f"dup={args.notif_dup}, reorder={args.notif_reorder}, "
                  f"kv-reject={args.kv_reject}, kv-delay={args.kv_delay}, "
                  f"wan-stall={args.wan_stall}) ...")
    return run


def _outage(args):
    """Sustained regional outage drill: every substrate in one region
    goes dark mid-trace.  The drill passes only if the service degrades
    by *parking* work (not dropping it), drains the backlog after
    recovery, and a quiescent audit plus anti-entropy scan find zero
    divergence."""
    region = args.outage_region or args.src
    window = ((region, args.outage_start, args.outage_duration),)
    # Black out every substrate at once: functions fast-fail, the KV
    # store throttles unconditionally, and WAN legs touching the region
    # stall until the window closes.
    run = _replay_setup(args, dict(faas_outages=window, kv_outages=window,
                                   wan_outages=window))
    run.header = (f"drilling {len(run.trace)} requests with {region} dark "
                  f"from t={args.outage_start:.0f}s for "
                  f"{args.outage_duration:.0f}s ...")
    return run


def _outage_fields(run) -> dict:
    args, engine, health = run.args, run.rule.engine, run.service.health
    return {
        "outage": {"region": args.outage_region or args.src,
                   "start_s": args.outage_start,
                   "duration_s": args.outage_duration},
        "degradation_engaged": engine.stats["parked"] > 0,
        "backlog_drained_at_s": engine.backlog_drained_at,
        "health_transitions": len(health.transitions)
        if health is not None else 0,
    }


def _outage_lines(run, f) -> list[str]:
    lines = ["degraded operation:", *_counters(
        run.rule.engine.stats, ("parked", "drained", "probes", "failover",
                                "backlog_kv_failed", "kv_retry_deadline"))]
    lines.append(f"  {'breaker_transitions':<26} {f['health_transitions']}")
    if f["backlog_drained_at_s"] is not None:
        lines.append(f"  backlog drained at t={f['backlog_drained_at_s']:.1f}s")
    if not f["degradation_engaged"]:
        lines.append("  (outage never engaged the degraded path — lengthen "
                     "the window or raise --requests)")
    return lines


def _corruption(args):
    """End-to-end data-integrity drill under a silent-corruption storm.

    Replays a workload while the chaos layer flips bits on WAN
    transfers and lies on bucket reads (rot, truncation, wrong ETags),
    lets the storm pass and the service converge, then durably rots a
    few replicated destination objects — the silent bit rot only a
    byte-level deep scrub can see — and proves the scrub detects and
    heals them.  The drill passes only when every injected corruption
    was detected, the trace oracle (including the verified-finalize and
    silent-corruption invariants) is clean, and a quiescent audit finds
    zero divergence: zero silent finalizes, ever.
    """
    run = _replay_setup(args, dict(
        corrupt_get_prob=args.corrupt_get, corrupt_put_prob=args.corrupt_put,
        corrupt_at_rest_prob=args.at_rest,
        corrupt_truncate_prob=args.truncate,
        corrupt_wrong_etag_prob=args.wrong_etag))
    run.header = (f"corrupting {len(run.trace)} requests "
                  f"(get={args.corrupt_get}, put={args.corrupt_put}, "
                  f"at-rest={args.at_rest}, truncate={args.truncate}, "
                  f"wrong-etag={args.wrong_etag}) ...")
    return run


def _rot_and_scrub(run) -> None:
    """Durable silent rot: the destination's bytes decay *after* a
    verified finalize, while HEAD keeps reporting the old ETag.  Only
    the byte-level scrub can see this."""
    from repro.core.repair import AntiEntropyScanner

    scanner = AntiEntropyScanner(run.service)
    run.rot_keys = [k for k in run.dst.keys()
                    if run.dst.head(k).size > 0][:run.args.rot_keys]
    for key in run.rot_keys:
        run.dst.rot_object(key)
    run.scrub = scanner.scan(run.rule, redrive=True, scrub=True)
    if run.scrub.redriven:
        run.convergence = run.service.run_to_convergence()
    run.rescrub = scanner.scan(run.rule, redrive=False, scrub=True)


def _corruption_fields(run) -> dict:
    # Reconcile offense and defense: every fault the chaos layer
    # injected (including the deterministic rot) must have been caught
    # by a verifying reader — the engine per part, the scrub per
    # object.  A shortfall means a corruption slipped through unseen.
    integrity = run.service.integrity_snapshot()
    detected = (integrity["corrupt_detected"]
                + len(run.scrub.by_kind("corrupt"))
                + run.scrub.transient_anomalies)
    return {
        "injected_corruptions": integrity["injected"],
        "detected_corruptions": detected,
        "accounted": detected >= integrity["injected"],
        "integrity": integrity,
        "trace_integrity": run.service.tracer.integrity_summary(),
        "rotted_keys": run.rot_keys,
        "scrub": run.scrub.to_dict(),
        "rescrub_clean": run.rescrub.clean,
    }


def _corruption_lines(run, f) -> list[str]:
    return ["defense response:", *_counters(f["integrity"], f["integrity"]),
        f"  {'detected_total':<26} {f['detected_corruptions']} "
        f"({'accounted' if f['accounted'] else 'SHORTFALL'})",
        f"deep scrub ({len(run.rot_keys)} key(s) durably rotted):",
        run.scrub.render(), run.rescrub.render()]


def _hedge(args):
    """Speculative-hedging drill: tail-latency cloning under chaos.

    Replays a busy-hour segment with hedging enabled and a
    straggler-friendly fault mix (crashes plus WAN stalls), lets the
    storm pass and the service converge, then proves the hedge
    discipline held end to end: at least one hedge actually fired (the
    drill must exercise the machinery, not vacuously pass), every
    fired hedge resolved exactly once as won/lost/cancelled, no part
    was double-finalized, the cloning ledger line reconciles, and the
    quiescent audit plus trace oracle are clean.
    """
    run = _replay_setup(args, dict(crash_prob=args.crash_prob,
                                   wan_stall_prob=args.wan_stall))
    run.header = (f"hedge-drilling {len(run.trace)} requests "
                  f"(q={args.hedge_quantile}, "
                  f"min-samples={args.hedge_min_samples}, "
                  f"min-part={args.hedge_min_part_bytes}B, "
                  f"clones<={args.max_clones}, crash={args.crash_prob}, "
                  f"wan-stall={args.wan_stall}) ...")
    return run


_HEDGE_COUNTERS = ("hedges", "hedge_wins", "hedge_losses", "hedge_cancelled")


def _hedge_fields(run) -> dict:
    hedging = {name: run.rule.engine.stats[name] for name in _HEDGE_COUNTERS}
    hedging.update(
        resolved=sum(hedging[name] for name in _HEDGE_COUNTERS[1:]),
        clone_cost_usd=sum(c.amount for c in run.service.tracer.costs
                           if c.category == "hedge_clones"),
        deadline_quantile=run.args.hedge_quantile,
        max_clones_per_part=run.args.max_clones)
    return {"hedging": hedging}


def _hedge_lines(run, f) -> list[str]:
    hedging = f["hedging"]
    lines = ["hedging:", *_counters(hedging, _HEDGE_COUNTERS)]
    lines.append(f"  {'clone_cost_usd':<26} {hedging['clone_cost_usd']:.6f}")
    if hedging["hedges"] == 0:
        lines.append("  (no hedge ever fired — lower --hedge-quantile / "
                     "--hedge-min-samples or raise --requests)")
    return lines


def _lifecycle(args):
    """Planned-operations drill: run one lifecycle procedure mid-trace.

    Schedules a region evacuation, rolling engine restart, or planned
    orchestration switchover against a live loaded engine (optionally
    concurrent with a chaos storm and with hedging on), lets the run
    converge, then proves via the trace oracle — including the
    switchover-discipline and cordon invariants — plus a quiescent
    audit and a byte-level deep scrub that no object was lost,
    duplicated, or left divergent, and that the procedure actually
    engaged (cordons applied, checkpoint written, or switchover
    performed) within its drain deadline.
    """
    from repro.core.lifecycle import OperationsRunner

    run = _replay_setup(args, _STORM if args.chaos else None)
    run.ops = OperationsRunner(run.service, run.rule.rule_id,
                               drain_deadline_s=args.drain_deadline)
    run.ops.schedule(args.scenario, args.at)
    run.header = (f"lifecycle drill '{args.scenario}' at t={args.at:.0f}s "
                  f"over {len(run.trace)} requests "
                  f"(chaos={'on' if args.chaos else 'off'}, "
                  f"hedging={'on' if args.hedging else 'off'}, "
                  f"drain deadline {run.ops.drain_deadline_s:.0f}s) ...")
    return run


def _lifecycle_fields(run) -> dict:
    stats, reports = run.rule.engine.stats, run.ops.reports
    proc = reports[0] if len(reports) == 1 else None
    # Per-scenario engagement: the drill must exercise the procedure,
    # not vacuously pass on a schedule that never fired.
    if proc is None:
        engaged = False
    elif run.args.scenario == "evacuate":
        engaged = (stats["cordons"] >= 3 and proc.deadline_met
                   and (proc.migrated > 0 or stats["parked"] > 0))
    elif run.args.scenario == "rolling":
        engaged = stats["checkpoints"] >= 1
    else:
        engaged = (stats["switchovers"] >= 1 and proc.deadline_met
                   and proc.migrated > 0)
    return {"lifecycle": [r.to_dict() for r in reports], "engaged": engaged,
            "chaos": bool(run.args.chaos)}


def _lifecycle_lines(run, f) -> list[str]:
    lines = ["lifecycle:"]
    for d in f["lifecycle"]:
        lines.append(
            f"  {d['scenario']} at {d['region']} "
            f"t=[{d['started_at']:.1f}, {d['finished_at']:.1f}]s: "
            f"inflight={d['inflight_before']} drained={d['drained']} "
            f"migrated={d['migrated']} "
            f"deadline={'met' if d['deadline_met'] else 'MISSED'} "
            f"restored={d['restored']} remirrored={d['remirrored']}")
    lines += _counters(run.rule.engine.stats,
                       ("cordons", "drained_parts", "migrated_tasks",
                        "checkpoints", "switchovers", "parked", "drained"))
    if not f["engaged"]:
        lines.append("  (the procedure never engaged — move --at inside "
                     "the trace or raise --requests)")
    return lines


def _tenant(args):
    """Multi-tenant control-plane drill: thousands of tenants, sharded.

    Registers ``--tenants`` tenants (each with its own src/dst bucket
    pair, fair-share weight, and — for the hot head of the skew — a
    hard per-window spend budget), shards the key-space across
    ``--shards`` engine workers, replays a seeded Zipf-skewed workload,
    and verifies the isolation story end to end: every tenant
    converges, the quiescent audit and byte-level deep scrub are clean,
    the trace oracle (including the tenant-isolation invariant) reports
    zero findings, no over-budget tenant shows post-exhaustion spend,
    and both the budget machinery (deferrals) and the fair-share
    scheduler (waits) actually engaged rather than vacuously passing.
    """
    # The Zipf head's per-window arrival rate exceeds the budget, so the
    # hot tenants exhaust and defer; the budget still clears the
    # steady-state drain, so the lane empties within a few windows after
    # the horizon.  Budgeted tenants trade latency for spend — their SLO
    # covers that drain; everyone else keeps the tight default.
    budgeted_slo = args.horizon + 12 * args.budget_window

    def tenant(i, budget):
        budgeted = i < args.budgeted_tenants
        return dict(tenant_id=f"t{i:05d}",
                    slo_target_s=budgeted_slo if budgeted else args.tenant_slo,
                    budget_usd=budget if budgeted else None,
                    weight=1.0 + (i % 4))

    run = _tenant_setup(args, tenant)
    # Seeded skewed workload: a warm-up burst of one PUT per tenant (so
    # every tenant has work to converge, and the burst outruns the
    # dispatch gate — that is what makes the fair-share ring queue),
    # then Zipf-ranked traffic pointed at the head — the hot tenants
    # that hold the tight budgets.
    rng = run.cloud.rngs.stream("tenant-drill")
    states, horizon, keyspace = run.states, args.horizon, 8
    puts = [((i / max(1, len(states))) * min(10.0, horizon / 16), state,
             f"obj-{i % keyspace}") for i, state in enumerate(states)]
    for rank in rng.zipf(1.3, size=max(0, args.requests - len(states))):
        state = states[int(rank - 1) % len(states)]
        t = float(rng.random()) * horizon
        puts.append((t, state, f"obj-{int(rng.integers(keyspace))}"))
    _schedule_puts(run, puts)
    run.header = (f"tenant drill: {args.tenants} tenants on {args.shards} "
                  f"shard(s), {len(puts)} PUTs over {horizon:.0f}s, "
                  f"{args.budgeted_tenants} budgeted at "
                  f"${run.budget:.6f}/{args.budget_window:.0f}s ...")
    return run


def _tenant_fields(run) -> dict:
    f = _tenant_verdicts(run)
    rows = f["tenant_verdicts"].values()
    f.update(
        shards=run.args.shards,
        isolation_findings=len(run.trace_report.by_kind("tenant-isolation")),
        slo_miss_tenants=sorted(t for t, row in f["tenant_verdicts"].items()
                                if not row["slo_ok"]),
        total_deferred=sum(row["deferred"] for row in rows),
        total_fairshare_waits=sum(row["fairshare_waits"] for row in rows))
    f["engaged"] = f["total_deferred"] > 0 and f["total_fairshare_waits"] > 0
    return f


def _tenant_gates(run, f) -> bool:
    return (not f["isolation_findings"] and not f["unconverged_tenants"]
            and not f["slo_miss_tenants"] and not f["over_admitted_tenants"]
            and f["tenants"] == run.args.tenants and f["engaged"])


def _tenant_lines(run, f) -> list[str]:
    tenants = f["tenant_verdicts"]
    lines = [f"{'tenant':<8} {'events':>7} {'admit':>6} {'defer':>6} "
             f"{'reject':>7} {'waits':>6} {'spent_usd':>12} {'p99_s':>8} "
             f"{'ok':>3}"]
    for tid, row in sorted(tenants.items(),
                           key=lambda kv: -kv[1]["events"])[:10]:
        ok = row["converged"] and row["slo_ok"] and not row["over_admissions"]
        lines.append(f"{tid:<8} {row['events']:>7} {row['admitted']:>6} "
                     f"{row['deferred']:>6} {row['rejected']:>7} "
                     f"{row['fairshare_waits']:>6} "
                     f"{row['lifetime_spent_usd']:>12.6f} "
                     f"{row['delay_p99_s']:>8.1f} {'ok' if ok else 'NO':>3}")
    lines.append(f"converged {len(tenants) - len(f['unconverged_tenants'])}/"
                 f"{len(tenants)} tenant(s); {f['total_deferred']} "
                 f"deferral(s), {f['total_fairshare_waits']} fair-share "
                 f"wait(s)")
    for label, key in (("unconverged", "unconverged_tenants"),
                       ("SLO misses", "slo_miss_tenants"),
                       ("over-admitted", "over_admitted_tenants")):
        if f[key]:
            lines.append(f"  {label}: {', '.join(f[key][:10])} ...")
    return lines


def _autopilot(args):
    """Closed-loop autopilot drill: surge + brownout, bounded recovery.

    Runs a small multi-tenant service with the SLO autopilot armed,
    replays a steady baseline workload, then injects two disturbances —
    a mid-run load surge (a burst far above the dispatch gate's drain
    rate) and, later, a WAN brownout of the destination region — and
    verifies the controller end to end: it *engages* on each
    disturbance (≥1 actuation inside each accounting window), every
    disturbance episode *settles* (windowed per-tenant p99 back under
    ``slo_target_s``) within the bound, spend stays inside every
    tenant's budget, and convergence + quiescent audit + deep scrub +
    the trace oracle (including the autopilot-discipline invariants:
    bounds, cooldowns, cordon holds) are all clean.
    """
    from repro.simcloud.chaos import ChaosConfig

    # Budgets are generous — this drill tests latency control, not
    # admission control — but real: the burn-rate signal stays live and
    # the gates still demand zero over-admissions and in-window spend.
    run = _tenant_setup(
        args, lambda i, budget: dict(tenant_id=f"ap{i:03d}",
                                     slo_target_s=args.tenant_slo,
                                     budget_usd=budget),
        enable_autopilot=True,
        autopilot_interval_s=args.autopilot_interval,
        autopilot_window_s=args.autopilot_window,
        autopilot_cooldown_s=args.cooldown,
        autopilot_settle_s=args.settle_bound)
    # Disturbance two: a WAN brownout of the destination region.  WAN
    # legs touching the region stall until the window closes — unlike a
    # FaaS outage there is no degraded route around it, so the tail
    # inflates and the controller must react.  Scheduled up front
    # (absolute windows), like outage-drill.
    brownout = (args.dst, run.base + args.brownout_at, args.brownout_duration)
    run.cloud.apply_chaos(ChaosConfig(wan_outages=(brownout,),
                                      **(_STORM if args.chaos else {})))
    # Steady baseline keeps every tenant's p99 window warm for the whole
    # run; disturbance one is a surge burst far above the dispatch
    # gate's drain rate, queueing work and blowing the windowed p99
    # through the target.
    rng = run.cloud.rngs.stream("autopilot-drill")
    states, puts = run.states, []
    for j in range(args.requests):
        state = states[j % len(states)]
        t = float(rng.random()) * args.horizon
        puts.append((t, state, f"obj-{j % 8}"))
    for j in range(args.surge_requests):
        state = states[int(rng.integers(len(states)))]
        t = args.surge_at + float(rng.random()) * args.surge_duration
        puts.append((t, state, f"surge-{j % 8}"))
    _schedule_puts(run, puts)
    # Arm the controller past the horizon so the post-brownout episode
    # can close (the p99 window must age the inflated samples out).
    run.service.autopilot.start(args.horizon + 2 * args.settle_bound)
    run.header = (f"autopilot drill: {args.tenants} tenants on {args.shards} "
                  f"shard(s), {len(puts)} PUTs over {args.horizon:.0f}s; "
                  f"surge at t={args.surge_at:.0f}s (+{args.surge_requests}), "
                  f"brownout of {args.dst} at t={args.brownout_at:.0f}s "
                  f"({args.brownout_duration:.0f}s, "
                  f"chaos={'on' if args.chaos else 'off'}) ...")
    return run


def _autopilot_fields(run) -> dict:
    args, autopilot = run.args, run.service.autopilot

    # The controller engaged on a disturbance: actuations inside its
    # accounting window [start, start + settle bound].
    def engaged_in(start: float) -> int:
        lo, hi = run.base + start, run.base + start + args.settle_bound
        return sum(1 for a in autopilot.controller.changelog
                   if lo <= a.time <= hi)

    f = _tenant_verdicts(run)
    f.update(
        chaos=bool(args.chaos),
        autopilot=autopilot.snapshot(),
        surge_actuations=engaged_in(args.surge_at),
        brownout_actuations=engaged_in(args.brownout_at),
        episodes=len(autopilot.episodes),
        open_episodes=sum(1 for s, e in autopilot.episodes if e is None),
        settle_times_s=list(autopilot.stats["settle_time_s"]),
        settle_bound_s=args.settle_bound,
        over_budget_tenants=sorted(
            t for t, row in f["tenant_verdicts"].items()
            if row["budget_usd"] is not None
            and row["window_spent_usd"] > row["budget_usd"]))
    return f


def _autopilot_gates(run, f) -> bool:
    # Engaged on both disturbances, every episode settled within the
    # bound, and spend inside every tenant budget.
    return (f["surge_actuations"] > 0 and f["brownout_actuations"] > 0
            and not f["open_episodes"] and f["episodes"] >= 2
            and all(s <= f["settle_bound_s"] for s in f["settle_times_s"])
            and not f["unconverged_tenants"]
            and not f["over_admitted_tenants"]
            and not f["over_budget_tenants"])


def _autopilot_lines(run, f) -> list[str]:
    stats = run.service.autopilot.stats
    return [
        f"actuations={stats['actuations']} clamps={stats['clamps']} "
        f"cooldown_skips={stats['cooldown_skips']} "
        f"cordon_holds={stats['cordon_holds']}",
        f"engagement: surge={f['surge_actuations']} "
        f"brownout={f['brownout_actuations']}; episodes={f['episodes']} "
        f"({f['open_episodes']} open), settles="
        f"{['%.0fs' % s for s in f['settle_times_s']]} "
        f"(bound {f['settle_bound_s']:.0f}s)",
    ] + [f"  {a}" for a in run.service.autopilot.controller.changelog]


#: The drill subcommands, in drill-all's roster order.
_DRILLS = {
    "chaos-soak": _Drill(
        _chaos_soak, verdicts=("CONVERGED", "DIVERGED"),
        lines=lambda run, f: ["engine recovery:", *_counters(
            run.rule.engine.stats,
            ("lock_lost", "orphaned_uploads", "kv_retries",
             "kv_retry_exhausted", "kv_retry_deadline", "aborted",
             "retriggered", "parked", "drained"))]),
    "outage-drill": _Drill(
        _outage, _outage_fields, lambda run, f: f["degradation_engaged"],
        _outage_lines, scan="redrive"),
    "corruption-drill": _Drill(
        _corruption, _corruption_fields,
        lambda run, f: (f["accounted"] and f["rescrub_clean"]
                        and len(run.scrub.by_kind("corrupt"))
                        == len(run.rot_keys)),
        _corruption_lines, settle=_rot_and_scrub),
    "hedge-drill": _Drill(
        _hedge, _hedge_fields,
        lambda run, f: 0 < f["hedging"]["hedges"] == f["hedging"]["resolved"],
        _hedge_lines),
    "lifecycle-drill": _Drill(
        _lifecycle, _lifecycle_fields, lambda run, f: f["engaged"],
        _lifecycle_lines, scan="scrub",
        convergence=("backlog_peak", "drained"),
        name="lifecycle-{scenario}",
        variants=tuple(("--scenario", s) for s in _LIFECYCLE_SCENARIOS)),
    "tenant-drill": _Drill(
        _tenant, _tenant_fields, _tenant_gates, _tenant_lines, scan="scrub",
        convergence=("deferred_tenant_tasks",)),
    "autopilot-drill": _Drill(
        _autopilot, _autopilot_fields, _autopilot_gates, _autopilot_lines,
        scan="scrub", convergence=("deferred_tenant_tasks",),
        settle=lambda run: run.service.autopilot.stop(),
        chaos_through_convergence=True),
}


def _run_drill(args) -> int:
    """Run the drill ``args.command`` names and print its report."""
    from repro.core.audit import ReplicationAuditor
    from repro.core.invariants import TraceChecker
    from repro.core.repair import AntiEntropyScanner
    from repro.traces.replay import TraceReplayer

    spec = _DRILLS[args.command]
    run = spec.setup(args)
    cloud, service = run.cloud, run.service
    if not args.json:
        print(run.header)
    run.stats = None
    if run.trace is not None:
        run.stats = TraceReplayer(cloud, run.src).replay_all(run.trace)
        run.requests = run.stats.requests
    # The storm passes; whatever it broke must now self-heal.  An
    # absolute-time disturbance window stays armed through convergence.
    if not spec.chaos_through_convergence:
        cloud.apply_chaos(None)
    run.convergence = service.run_to_convergence()
    cloud.apply_chaos(None)
    if spec.settle is not None:
        spec.settle(run)
    auditor = ReplicationAuditor(service)
    run.audit = auditor.audit(quiescent=True)
    run.repair = None
    if spec.scan:
        # Repairs flow through the normal orchestration path; let them
        # complete, then prove the diff is gone.
        scanner = AntiEntropyScanner(service)
        scrub = spec.scan == "scrub"
        run.repair = scanner.scan(run.rule, redrive=True, scrub=scrub,
                                  reap_uploads=scrub)
        if run.repair.redriven:
            run.convergence = service.run_to_convergence()
            run.audit = auditor.audit(quiescent=True)
            run.repair = scanner.scan(run.rule, redrive=False, scrub=scrub)
    run.trace_report = TraceChecker(service).check()
    run.pending = service.pending_count()
    extra = spec.fields(run)
    passed = bool(run.convergence.converged and run.audit.clean
                  and (run.repair is None or run.repair.clean)
                  and run.trace_report.clean and run.pending == 0
                  and spec.gates(run, extra))
    _render_drill(spec, run, extra, passed)
    return 0 if passed else 1


def _render_drill(spec: _Drill, run, extra: dict, passed: bool) -> None:
    """Print a drill's shared JSON report (``--json``) or text report."""
    args, cloud, conv = run.args, run.cloud, run.convergence
    result = spec.verdicts[0] if passed else spec.verdicts[1]
    if args.json:
        report = _machine_report(cloud, run.service, run.rule, {
            "requests": run.requests,
            "convergence": {name: getattr(conv, name)
                            for name in _CONVERGENCE + spec.convergence},
            "audit_clean": run.audit.clean,
            "trace_clean": run.trace_report.clean,
            "trace_checked": run.trace_report.checked,
            "trace_findings": [str(f) for f in run.trace_report.findings],
            "result": result,
            **extra,
        })
        report.update({"scenario": spec.name.format(**vars(args)),
                       "seed": args.seed, "pass": passed,
                       "stats": dict(report["engine_stats"])})
        if run.repair is not None:
            report["repair"] = run.repair.to_dict()
        # Multi-tenant drills judge pending work per tenant instead.
        if run.rule is not None:
            report["pending_measurements"] = run.pending
        _print_json(report)
        return
    lines = []
    if run.stats is not None:
        lines.append(f"replayed {run.stats.requests} requests "
                     f"({run.stats.bytes_written / 1e9:.2f} GB)")
    injected = {k: v for k, v in cloud.chaos_stats().items() if v}
    if injected:
        lines += ["injected faults:", *_counters(injected, injected)]
    lines += spec.lines(run, extra)
    lines += ["dead-letter drain: " + conv.render(),
              f"quiescent audit ({run.pending} pending measurement(s)):",
              run.audit.render()]
    if run.repair is not None:
        lines.append(run.repair.render())
    lines += [run.trace_report.render(), "RESULT: " + result]
    print("\n".join(lines))


# The drill subcommands; drill-all resolves these names at call time.
cmd_chaos_soak = cmd_outage_drill = cmd_corruption_drill = _run_drill
cmd_hedge_drill = cmd_lifecycle_drill = _run_drill
cmd_tenant_drill = cmd_autopilot_drill = _run_drill


def cmd_drill_all(args) -> int:
    """Run every drill at one seed and fail on any non-PASS.

    Each drill runs in its own freshly-seeded simulation with its
    default knobs and ``--json`` output captured; the shared report
    schema (scenario, seed, pass, stats) lets this aggregator treat
    every drill uniformly.  This is the standing regression harness
    for every recovery path the repo has accumulated.
    """
    import contextlib
    import io
    import json

    parser = build_parser()
    rows = []
    reports = []
    for command, spec in _DRILLS.items():
        handler = globals()["cmd_" + command.replace("-", "_")]
        for variant in spec.variants:
            sub_args = parser.parse_args(
                [command, *variant, "--seed", str(args.seed), "--json"])
            name = spec.name.format(**vars(sub_args))
            if not args.json:
                print(f"drill-all: running {name} (seed {args.seed}) ...",
                      file=sys.stderr)
            buf = io.StringIO()
            # A drill that crashes, or that emits an unparseable report,
            # is a FAIL for that scenario — never a pass by omission, and
            # never a traceback that aborts the remaining drills (the
            # aggregate exit code must reflect *every* scenario's verdict).
            try:
                with contextlib.redirect_stdout(buf):
                    code = handler(sub_args)
                report = json.loads(buf.getvalue())
            except Exception as exc:  # noqa: BLE001 - drill isolation barrier
                print(f"drill-all: {name} raised "
                      f"{type(exc).__name__}: {exc}", file=sys.stderr)
                report = {"scenario": name, "seed": args.seed, "pass": False,
                          "error": f"{type(exc).__name__}: {exc}"}
                code = 1
            rows.append({"scenario": report.get("scenario", name),
                         "seed": report.get("seed", args.seed),
                         "pass": code == 0 and report.get("pass", False)})
            reports.append(report)
    all_pass = all(row["pass"] for row in rows)
    if args.json:
        _print_json({"seed": args.seed, "pass": all_pass, "drills": rows,
                     "reports": reports})
        return 0 if all_pass else 1
    print(f"{'scenario':<24} {'seed':>5} {'result':>8}")
    for row in rows:
        print(f"{row['scenario']:<24} {row['seed']:>5} "
              f"{'PASS' if row['pass'] else 'FAIL':>8}")
    print("RESULT: " + ("PASS" if all_pass else "FAIL"))
    return 0 if all_pass else 1


def cmd_regions(args) -> int:
    """List the region catalog and the egress price matrix."""
    from repro.simcloud.pricing import PriceBook
    from repro.simcloud.regions import REGIONS, get_region

    prices = PriceBook()
    keys = sorted(REGIONS)
    print(f"{len(keys)} regions:")
    for key in keys:
        r = get_region(key)
        print(f"  {key:<24} ({r.continent.upper()}, "
              f"{r.lat:.1f}, {r.lon:.1f})")
    if not args.egress:
        return 0
    print("\negress $/GB (row = source, col = destination):")
    short = [k.split(":", 1)[1][:12] for k in keys]
    print(f"{'':<24}" + "".join(f"{s:>13}" for s in short))
    for src_key in keys:
        row = f"{src_key:<24}"
        for dst_key in keys:
            rate = prices.egress_per_gb(get_region(src_key),
                                        get_region(dst_key))
            row += f"{rate:>13.3f}"
        print(row)
    return 0


def cmd_cost(args) -> int:
    """Analytic monthly cost projection for a synthetic workload."""
    from repro.analysis.costs import ReplicationCostModel
    from repro.traces.ibm_cos import IbmCosTraceGenerator

    gen = IbmCosTraceGenerator(seed=args.seed,
                               mean_rps=args.requests_per_day / 86_400.0)
    trace = gen.generate(86_400.0)
    sizes = [r.size for r in trace if r.op == "PUT"]
    model = ReplicationCostModel()
    src_provider = args.src.split(":")[0] if ":" in args.src else ""
    dst_provider = args.dst.split(":")[0] if ":" in args.dst else ""
    systems = ["areplica", "skyplane"]
    if src_provider == dst_provider == "aws":
        systems.append("s3rtc")
    elif src_provider == dst_provider == "azure":
        systems.append("azrep")
    print(f"projected 30-day replication cost, {args.src} -> {args.dst}")
    print(f"  workload: ~{len(sizes)} PUTs/day, "
          f"{sum(sizes) / 1e9:.2f} GB/day")
    print(f"  {'system':<10} {'egress':>9} {'compute':>9} {'other':>9} "
          f"{'total':>10}")
    for system in systems:
        est = model.workload_monthly(args.src, args.dst, sizes, system,
                                     days_observed=1.0)
        other = est.requests + est.kv + est.service_fee + est.storage
        print(f"  {system:<10} {est.egress:>9.2f} {est.compute:>9.2f} "
              f"{other:>9.2f} {est.total:>10.2f}")
    return 0


def cmd_compare(args) -> int:
    from repro.baselines.skyplane import SkyplaneReplicator
    from repro.baselines.s3rtc import S3RTCReplicator
    from repro.baselines.azrep import AzureObjectReplicator
    from repro.simcloud.cloud import build_default_cloud
    from repro.simcloud.objectstore import Blob

    cloud, service, src, dst, rule = _build_service(args)
    before = cloud.ledger.snapshot()
    src.put_object("cmp", Blob.fresh(args.size), cloud.now)
    cloud.run()
    ours = service.records[-1]
    our_cost = before.delta(cloud.ledger.snapshot()).total
    rows = [("AReplica", ours.delay, our_cost)]

    sky_cloud = build_default_cloud(seed=args.seed)
    sky_src = sky_cloud.bucket(args.src, "src")
    sky_dst = sky_cloud.bucket(args.dst, "dst")
    sky = SkyplaneReplicator(sky_cloud, sky_src, sky_dst)
    sky_src.put_object("cmp", Blob.fresh(args.size), sky_cloud.now, notify=False)
    sky_before = sky_cloud.ledger.snapshot()
    record = sky.replicate_once("cmp")
    rows.append(("Skyplane", record.delay,
                 sky_before.delta(sky_cloud.ledger.snapshot()).total))

    src_provider = args.src.split(":")[0] if ":" in args.src else None
    dst_provider = args.dst.split(":")[0] if ":" in args.dst else None
    proprietary: Optional[tuple] = None
    if src_provider == dst_provider == "aws":
        proprietary = ("S3 RTC", S3RTCReplicator)
    elif src_provider == dst_provider == "azure":
        proprietary = ("AZ Rep", AzureObjectReplicator)
    if proprietary is not None:
        name, cls = proprietary
        p_cloud = build_default_cloud(seed=args.seed)
        p_src = p_cloud.bucket(args.src, "src", versioning=True)
        p_dst = p_cloud.bucket(args.dst, "dst", versioning=True)
        rep = cls(p_cloud, p_src, p_dst)
        p_src.put_object("cmp", Blob.fresh(args.size), p_cloud.now, notify=False)
        p_before = p_cloud.ledger.snapshot()
        rec = rep.replicate_once("cmp")
        rows.append((name, rec.delay,
                     p_before.delta(p_cloud.ledger.snapshot()).total))

    print(f"{args.size} bytes, {args.src} -> {args.dst}:")
    print(f"  {'system':<10} {'delay (s)':>10} {'cost ($)':>12}")
    for name, delay, cost in rows:
        print(f"  {name:<10} {delay:>10.2f} {cost:>12.6f}")
    return 0


def cmd_bench_perf(args) -> int:
    """Run the hot-path microbenchmarks; optionally emit/check BENCH files."""
    import json
    import pathlib

    from repro.bench import perf

    reference_path = reference = None
    if args.check:
        # Resolve the reference — and refuse a scale mismatch — before
        # spending minutes benchmarking.
        reference_path = (pathlib.Path(args.baseline) if args.baseline
                          else perf.latest_bench_file())
        if reference_path is None or not reference_path.exists():
            print("bench-perf --check: no BENCH_*.json reference found",
                  file=sys.stderr)
            return 1
        reference = json.loads(reference_path.read_text())
        try:
            perf.check_regression({}, reference, tolerance=args.tolerance,
                                  scale=args.scale)
        except ValueError as exc:
            print(f"bench-perf --check: {exc}", file=sys.stderr)
            return 1

    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    results = perf.run_all(scale=args.scale, repeat=args.repeat,
                           progress=lambda msg: print(f"  {msg}", file=sys.stderr))
    if profiler is not None:
        import pstats

        profiler.disable()
        print("\ntop 20 by cumulative time:", file=sys.stderr)
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats("cumulative").print_stats(20)
    print(f"{'metric':<28} {'value':>16}")
    for metric, value in results.items():
        unit = "s" if metric.endswith("_seconds") else "/s"
        print(f"  {metric:<26} {value:>14,.2f} {unit}")

    if args.check:
        warnings = perf.check_regression(results, reference,
                                         tolerance=args.tolerance,
                                         scale=args.scale)
        if warnings:
            print(f"\nperformance regressions vs {reference_path}:",
                  file=sys.stderr)
            for warning in warnings:
                print(f"  WARNING: {warning}", file=sys.stderr)
            return 1
        print(f"\nno regression vs {reference_path} "
              f"(tolerance {args.tolerance:.0%})")
        return 0

    if args.out:
        baseline = None
        if args.baseline:
            doc = json.loads(pathlib.Path(args.baseline).read_text())
            baseline = doc.get("current", doc)
        meta = {"scale": args.scale, "repeat": args.repeat,
                "command": "repro.cli bench-perf"}
        doc = perf.emit(args.out, results, baseline=baseline, meta=meta)
        print(f"\nwrote {args.out}")
        for metric, ratio in sorted(doc.get("speedup", {}).items()):
            print(f"  {metric:<26} {ratio:>8.2f}x vs baseline")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="areplica",
        description="AReplica: serverless cross-cloud object replication "
                    "(EuroSys '26 reproduction, simulated clouds)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_size=True):
        p.add_argument("--src", default="aws:us-east-1",
                       help="source region (provider:region)")
        p.add_argument("--dst", default="azure:eastus",
                       help="destination region (provider:region)")
        if with_size:
            p.add_argument("--size", type=parse_size, default=parse_size("1MB"),
                           help="object size, e.g. 128MB")
        p.add_argument("--slo", type=float, default=0.0,
                       help="replication SLO in seconds (0 = fastest plan)")
        p.add_argument("--percentile", type=float, default=0.99)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--profile-samples", type=int, default=8)

    def hedging_knobs(p, default_on=False):
        """Hedging flags: the drills accept --hedging to ride along;
        hedge-drill forces it on and exposes the tuning knobs."""
        if default_on:
            p.set_defaults(hedging=True)
        else:
            p.add_argument("--hedging", action="store_true",
                           help="enable speculative straggler cloning")
        p.add_argument("--hedge-quantile", type=float, default=0.95,
                       help="windowed completion quantile deriving the "
                            "per-part hedge deadline")
        p.add_argument("--hedge-min-samples", type=int, default=8,
                       help="completion samples required before hedging")
        p.add_argument("--hedge-min-part-bytes", type=parse_size,
                       default=parse_size("1MB"),
                       help="smallest part worth cloning")
        p.add_argument("--max-clones", type=int, default=1,
                       help="clone budget per part")

    common(sub.add_parser("replicate", help="replicate one object and report"))
    common(sub.add_parser("plan", help="show the SLO-compliant plan"))
    common(sub.add_parser("profile", help="show fitted model parameters"),
           with_size=False)
    trace = sub.add_parser("trace", help="replay a synthetic IBM COS hour")
    common(trace, with_size=False)
    trace.add_argument("--requests", type=int, default=5000)
    trace.add_argument("--json", action="store_true",
                       help="emit the machine-readable report instead of text")
    trace.add_argument("--trace-out", default=None, metavar="PATH",
                       help="record a causal trace and write Chrome "
                            "trace-event JSON here (also prints the "
                            "per-phase N/I/D/P/S/C delay breakdown)")
    common(sub.add_parser("compare", help="compare against the baselines"))
    cost = sub.add_parser("cost", help="project monthly replication cost")
    common(cost, with_size=False)
    cost.add_argument("--requests-per-day", type=float, default=100_000.0)
    regions = sub.add_parser("regions", help="list regions and egress prices")
    regions.add_argument("--egress", action="store_true",
                         help="print the full egress price matrix")
    audit = sub.add_parser("audit",
                           help="replay a workload and audit consistency")
    common(audit, with_size=False)
    audit.add_argument("--requests", type=int, default=2000)
    soak = sub.add_parser("chaos-soak",
                          help="replay a workload under injected faults and "
                               "audit convergence")
    common(soak, with_size=False)
    soak.add_argument("--requests", type=int, default=1000)
    soak.add_argument("--crash-prob", type=float, default=0.05,
                      help="per-invocation function crash probability")
    soak.add_argument("--notif-drop", type=float, default=0.05,
                      help="notification drop (delayed redelivery) probability")
    soak.add_argument("--notif-dup", type=float, default=0.05,
                      help="notification duplication probability")
    soak.add_argument("--notif-reorder", type=float, default=0.05,
                      help="notification reordering probability")
    soak.add_argument("--kv-reject", type=float, default=0.05,
                      help="KV write throttling probability")
    soak.add_argument("--kv-delay", type=float, default=0.05,
                      help="KV admission-delay probability")
    soak.add_argument("--wan-stall", type=float, default=0.02,
                      help="per-transfer WAN stall probability")
    soak.add_argument("--json", action="store_true",
                      help="emit the machine-readable report instead of text")
    hedging_knobs(soak)
    drill = sub.add_parser("outage-drill",
                           help="replay a workload through a sustained "
                                "regional outage and verify degradation, "
                                "recovery, and repair")
    common(drill, with_size=False)
    drill.add_argument("--requests", type=int, default=400)
    drill.add_argument("--outage-region", default=None,
                       help="region to black out (default: the source)")
    drill.add_argument("--outage-start", type=float, default=600.0,
                       help="outage start, seconds into the trace")
    drill.add_argument("--outage-duration", type=float, default=600.0,
                       help="outage length in seconds")
    drill.add_argument("--json", action="store_true",
                       help="emit the machine-readable report instead of text")
    hedging_knobs(drill)
    corrupt = sub.add_parser("corruption-drill",
                             help="replay a workload under silent-corruption "
                                  "faults and verify detection, quarantine, "
                                  "and deep-scrub repair")
    common(corrupt, with_size=False)
    corrupt.add_argument("--requests", type=int, default=400)
    corrupt.add_argument("--corrupt-get", type=float, default=0.15,
                         help="in-flight bit-flip probability per WAN GET")
    corrupt.add_argument("--corrupt-put", type=float, default=0.10,
                         help="in-flight bit-flip probability per WAN PUT")
    corrupt.add_argument("--at-rest", type=float, default=0.05,
                         help="transient at-rest rot probability per read")
    corrupt.add_argument("--truncate", type=float, default=0.05,
                         help="truncated-read probability per read")
    corrupt.add_argument("--wrong-etag", type=float, default=0.05,
                         help="wrong-ETag response probability per read")
    corrupt.add_argument("--rot-keys", type=int, default=3,
                         help="replicated objects to durably rot before "
                              "the deep scrub")
    corrupt.add_argument("--json", action="store_true",
                         help="emit the machine-readable report instead of "
                              "text")
    hedging_knobs(corrupt)
    hedge = sub.add_parser("hedge-drill",
                           help="replay a workload with speculative hedging "
                                "on under chaos and verify the hedge "
                                "discipline end to end")
    common(hedge, with_size=False)
    hedge.add_argument("--requests", type=int, default=600)
    hedge.add_argument("--crash-prob", type=float, default=0.02,
                       help="per-invocation function crash probability")
    hedge.add_argument("--wan-stall", type=float, default=0.05,
                       help="per-transfer WAN stall probability")
    hedge.add_argument("--json", action="store_true",
                       help="emit the machine-readable report instead of "
                            "text")
    hedging_knobs(hedge, default_on=True)
    lifecycle = sub.add_parser(
        "lifecycle-drill",
        help="run one planned-operations procedure (evacuation, rolling "
             "restart, or switchover) against a live loaded engine and "
             "verify zero loss/duplication/divergence")
    common(lifecycle, with_size=False)
    lifecycle.add_argument("--scenario", required=True,
                           choices=_LIFECYCLE_SCENARIOS,
                           help="which planned disruption to execute")
    lifecycle.add_argument("--requests", type=int, default=400)
    lifecycle.add_argument("--at", type=float, default=600.0,
                           help="procedure start, seconds into the trace")
    lifecycle.add_argument("--drain-deadline", type=float, default=None,
                           help="graceful-drain bound in seconds "
                                "(default: ReplicaConfig.drain_deadline_s)")
    lifecycle.add_argument("--chaos", action="store_true",
                           help="layer a probabilistic chaos storm over "
                                "the procedure")
    lifecycle.add_argument("--json", action="store_true",
                           help="emit the machine-readable report instead "
                                "of text")
    hedging_knobs(lifecycle)
    tenant = sub.add_parser(
        "tenant-drill",
        help="replay a skewed multi-tenant workload across sharded engine "
             "workers and verify per-tenant convergence, SLO, budget, and "
             "cross-tenant isolation")
    common(tenant, with_size=False)
    tenant.add_argument("--tenants", type=int, default=1000,
                        help="tenants to register (own buckets, weight, "
                             "and budget each)")
    tenant.add_argument("--shards", type=int, default=4,
                        help="engine workers the key-space is "
                             "consistent-hashed across")
    tenant.add_argument("--requests", type=int, default=3000,
                        help="total PUTs (>= --tenants; the excess is "
                             "Zipf-skewed onto the hot head)")
    tenant.add_argument("--object-size", type=parse_size,
                        default=parse_size("64KB"),
                        help="PUT size (small keeps the inline path hot)")
    tenant.add_argument("--horizon", type=float, default=3600.0,
                        help="workload duration in seconds")
    tenant.add_argument("--max-concurrent", type=int, default=32,
                        help="fair-share scheduler concurrency gate")
    tenant.add_argument("--budgeted-tenants", type=int, default=10,
                        help="hot tenants given a hard per-window budget")
    tenant.add_argument("--budget-tasks", type=float, default=25.0,
                        help="budget expressed in admitted tasks per window")
    tenant.add_argument("--budget-window", type=float, default=300.0,
                        help="budget window length in seconds")
    tenant.add_argument("--tenant-slo", type=float, default=120.0,
                        help="p99 delay SLO for unbudgeted tenants in "
                             "seconds (budgeted tenants get a drain-"
                             "covering SLO derived from the window)")
    tenant.add_argument("--json", action="store_true",
                        help="emit the machine-readable report instead "
                             "of text")
    autop = sub.add_parser(
        "autopilot-drill",
        help="replay a busy-hour workload with a mid-run load surge and a "
             "regional WAN brownout under the SLO autopilot and verify it "
             "engages, recovers p99 within the settle bound, and stays "
             "inside budgets")
    common(autop, with_size=False)
    autop.add_argument("--tenants", type=int, default=4,
                       help="tenants to register (own buckets and budget "
                            "each)")
    autop.add_argument("--shards", type=int, default=2,
                       help="engine workers the key-space is "
                            "consistent-hashed across")
    autop.add_argument("--requests", type=int, default=240,
                       help="baseline PUTs spread uniformly over the "
                            "horizon (keeps the p99 window warm)")
    autop.add_argument("--object-size", type=parse_size,
                       default=parse_size("64KB"),
                       help="PUT size (small keeps the inline path hot)")
    autop.add_argument("--horizon", type=float, default=1500.0,
                       help="workload duration in seconds")
    autop.add_argument("--max-concurrent", type=int, default=4,
                       help="fair-share dispatch gate the surge must "
                            "overwhelm (the autopilot's main actuator)")
    autop.add_argument("--tenant-slo", type=float, default=60.0,
                       help="per-tenant p99 delay target in seconds")
    autop.add_argument("--budget-tasks", type=float, default=400.0,
                       help="per-tenant budget in admitted tasks per window")
    autop.add_argument("--budget-window", type=float, default=600.0,
                       help="budget window length in seconds")
    autop.add_argument("--surge-at", type=float, default=180.0,
                       help="surge burst start, seconds into the trace")
    autop.add_argument("--surge-duration", type=float, default=120.0,
                       help="surge burst length in seconds")
    autop.add_argument("--surge-requests", type=int, default=2400,
                       help="extra PUTs packed into the surge burst")
    autop.add_argument("--brownout-at", type=float, default=900.0,
                       help="WAN brownout start, seconds into the trace")
    autop.add_argument("--brownout-duration", type=float, default=120.0,
                       help="WAN brownout length in seconds")
    autop.add_argument("--autopilot-interval", type=float, default=30.0,
                       help="controller tick cadence in seconds")
    autop.add_argument("--autopilot-window", type=float, default=300.0,
                       help="trailing window for the per-tenant p99")
    autop.add_argument("--cooldown", type=float, default=90.0,
                       help="post-actuation cooldown per knob in seconds")
    autop.add_argument("--settle-bound", type=float, default=600.0,
                       help="max seconds a disturbance episode may take to "
                            "settle (and the engagement accounting window)")
    autop.add_argument("--chaos", action="store_true",
                       help="layer a probabilistic chaos storm over the "
                            "disturbances")
    autop.add_argument("--json", action="store_true",
                       help="emit the machine-readable report instead of "
                            "text")
    hedging_knobs(autop)
    drill_all = sub.add_parser(
        "drill-all",
        help="run chaos-soak, outage-drill, corruption-drill, hedge-drill, "
             "the three lifecycle drills, tenant-drill, and autopilot-drill "
             "at one seed; fail on any non-PASS")
    drill_all.add_argument("--seed", type=int, default=0)
    drill_all.add_argument("--json", action="store_true",
                           help="emit the aggregated machine-readable "
                                "report instead of text")
    bench = sub.add_parser("bench-perf",
                           help="run the hot-path microbenchmarks")
    bench.add_argument("--scale", type=float, default=1.0,
                       help="scale factor on every benchmark's work size")
    bench.add_argument("--repeat", type=int, default=3,
                       help="timing repetitions per benchmark (best wins)")
    bench.add_argument("--out", default=None,
                       help="write a BENCH_*.json document here")
    bench.add_argument("--baseline", default=None,
                       help="BENCH_*.json to record (with --out) or compare "
                            "against (with --check)")
    bench.add_argument("--check", action="store_true",
                       help="compare against the latest BENCH_*.json and warn "
                            "on regression (nonzero exit)")
    bench.add_argument("--tolerance", type=float, default=0.30,
                       help="allowed fractional throughput drop for --check")
    bench.add_argument("--profile", action="store_true",
                       help="run under cProfile and print the top 20 "
                            "functions by cumulative time")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "replicate": cmd_replicate,
        "plan": cmd_plan,
        "profile": cmd_profile,
        "trace": cmd_trace,
        "compare": cmd_compare,
        "cost": cmd_cost,
        "regions": cmd_regions,
        "audit": cmd_audit,
        "chaos-soak": cmd_chaos_soak,
        "outage-drill": cmd_outage_drill,
        "corruption-drill": cmd_corruption_drill,
        "hedge-drill": cmd_hedge_drill,
        "lifecycle-drill": cmd_lifecycle_drill,
        "tenant-drill": cmd_tenant_drill,
        "autopilot-drill": cmd_autopilot_drill,
        "drill-all": cmd_drill_all,
        "bench-perf": cmd_bench_perf,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
