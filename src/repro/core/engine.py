"""The variability-tolerant replication engine (§5.1, §5.2).

Implements the four-stage serverless replication workflow of Fig 11:
the cloud notification invokes an **orchestrator** function in the
source region; the orchestrator acquires the object's replication lock,
consults the changelog store, asks the strategy planner for an
SLO-compliant plan, and then either

* replicates the object **inline** (small objects — ``T_func = 0``),
* invokes a single **replicator** function at the chosen region, or
* creates a shared part pool and invokes ``n`` replicators that claim
  8 MB parts from it autonomously (Algorithm 1), assembling the
  destination object through a multipart upload.

Consistency (§5.2): per-object replication locks serialize concurrent
tasks (Algorithm 2); each part download is validated against the task's
ETag and any mismatch aborts the task — exactly one replicator performs
the cleanup and re-triggers replication of the newest version.  A
``done`` marker per key, kept in the key's lock record, makes
re-triggered orchestrations idempotent: LOCK returns it, and UNLOCK
advances it in the same update.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from types import GeneratorType
from typing import Optional, Protocol

from repro.core.changelog import ChangelogOp, ChangelogStore
from repro.core.config import ReplicaConfig
from repro.core.health import BreakerState, HealthTracker, NoRouteAvailable
from repro.core.locks import DoneMarker, ReplicationLockManager
from repro.core.partpool import FairAssignment, PartCompletion, PartPool
from repro.core.planner import Plan, StrategyPlanner
from repro.simcloud.cloud import Cloud
from repro.simcloud.cost import CostCategory
from repro.simcloud.kvstore import Throttled
from repro.simcloud.monitoring import TimeSeries
from repro.simcloud.sim import Interrupt
from repro.simcloud.objectstore import (
    Bucket,
    NoSuchKey,
    NoSuchUpload,
    ObjectEvent,
    ObjectVersion,
)

__all__ = ["ReplicationEngine", "TaskRecorder", "TaskResult",
           "PartQuarantined"]

_STATE_TABLE = "areplica-state"


class PartQuarantined(RuntimeError):
    """A transfer failed checksum verification past the retransfer budget.

    Platform retries would re-run the whole attempt against the same
    poisoned transfer, so the failure escalates straight to the
    dead-letter queue: the FaaS layer reads ``dlq_disposition`` off the
    error and skips its auto-retry ladder for this class.
    """

    dlq_disposition = "corrupted"


@dataclass(frozen=True)
class TaskResult:
    """Summary of one completed replication task."""

    key: str
    etag: str
    seq: int
    event_time: float
    visible_time: float
    plan: Optional[Plan]
    kind: str = "created"          # "created" | "deleted" | "changelog"
    #: When the orchestrator began executing the plan (i.e. after the
    #: notification and planning) — the reference point the performance
    #: model's T_rep prediction is measured from.
    started: float = 0.0

    @property
    def delay(self) -> float:
        return self.visible_time - self.event_time


class TaskRecorder(Protocol):
    """Callbacks the engine uses to report task outcomes."""

    def record_visible(self, result: TaskResult) -> None: ...

    def record_abort(self, key: str, etag: str) -> None: ...


class _NullRecorder:
    def record_visible(self, result: TaskResult) -> None:  # pragma: no cover
        pass

    def record_abort(self, key: str, etag: str) -> None:  # pragma: no cover
        pass


class ReplicationEngine:
    """One replication rule: ``src_bucket`` → ``dst_bucket``."""

    def __init__(
        self,
        cloud: Cloud,
        config: ReplicaConfig,
        src_bucket: Bucket,
        dst_bucket: Bucket,
        planner: StrategyPlanner,
        changelog: Optional[ChangelogStore] = None,
        recorder: Optional[TaskRecorder] = None,
        rule_id: str = "r0",
        scheduling: str = "pool",
        health: Optional[HealthTracker] = None,
        scheduler=None,
        tenant: Optional[str] = None,
    ):
        if scheduling not in ("pool", "fair"):
            raise ValueError("scheduling must be 'pool' or 'fair'")
        self.cloud = cloud
        self.config = config
        self.src_bucket = src_bucket
        self.dst_bucket = dst_bucket
        self.planner = planner
        self.changelog = changelog
        self.recorder: TaskRecorder = recorder or _NullRecorder()
        self.rule_id = rule_id
        self.scheduling = scheduling
        #: Optional multi-tenant wiring: a fair-share dispatch scheduler
        #: (core/scheduler.py) gating orchestrator concurrency, and the
        #: owning tenant's id.  Both default to None — the single-tenant
        #: dispatch path stays one ``is None`` check, byte-identical to
        #: a build without tenancy.
        self.scheduler = scheduler
        self.tenant = tenant
        self._task_seq = itertools.count(1)
        #: Per-(task, worker) instrumentation for the scheduling ablation
        #: (Fig 17): parts replicated and busy span of each instance.
        self.worker_parts: dict[tuple[str, int], int] = {}
        self.worker_spans: dict[tuple[str, int], tuple[float, float]] = {}
        self.stats = {
            "tasks": 0, "inline": 0, "single": 0, "distributed": 0,
            "changelog_applied": 0, "changelog_fallback": 0, "aborted": 0,
            "deferred": 0, "skipped_done": 0, "deletes": 0, "retriggered": 0,
            "lock_lost": 0, "orphaned_uploads": 0,
            "kv_retries": 0, "kv_retry_exhausted": 0, "kv_retry_deadline": 0,
            "parked": 0, "drained": 0, "probes": 0, "failover": 0,
            "backlog_kv_failed": 0,
            "corrupt_detected": 0, "retransfers": 0, "quarantined": 0,
            "finalize_verify_failed": 0,
            "hedges": 0, "hedge_wins": 0, "hedge_losses": 0,
            "hedge_cancelled": 0,
            # Planned-operations lifecycle counters (core/lifecycle.py):
            # cordons applied, in-flight parts gracefully drained during
            # an evacuation, tasks migrated to the surviving platform,
            # control-plane checkpoints written, switchovers performed.
            "cordons": 0, "drained_parts": 0, "migrated_tasks": 0,
            "checkpoints": 0, "switchovers": 0,
        }
        # -- speculative hedging state (tail-latency straggler cloning) ----
        #: Trailing per-part completion durations in seconds — the
        #: sample feed for the windowed-percentile hedge deadline.
        #: Recorded only while hedging is enabled, so the disabled path
        #: stays byte-identical to a build without hedging.
        self._hedge_samples = TimeSeries(f"hedge-samples:{rule_id}")
        self._hedge_seq = itertools.count(1)
        #: Live clone transfer bodies keyed by (task_id, part, seq); the
        #: hedge coordinator cancels the losing side in flight through
        #: this registry (an O(1) interrupt on the timer-wheel kernel).
        self._hedge_live: dict[tuple, object] = {}
        self.retry_policy = config.retry_policy
        # Backoff jitter draws on a dedicated stream: retry timing for a
        # given seed must not shift with unrelated sampling.
        self._retry_rng = cloud.rngs.stream(f"retry:{rule_id}")
        # Control state lives in serverless databases, matching §7:
        # lock records (which carry the done markers) beside the
        # orchestrator (source region), part pools beside the replicators
        # (execution region).  State is namespaced per rule — two rules
        # replicating the same source bucket to different destinations
        # are independent tasks.
        self._lock_table = cloud.kv_table(src_bucket.region.key,
                                          f"{_STATE_TABLE}-{rule_id}")
        self.locks = ReplicationLockManager(self._lock_table,
                                            rule_id=rule_id)
        #: Optional causal tracer (installed via :meth:`set_tracer`);
        #: every emission site below guards on one attribute read so
        #: the disabled path stays free.
        self.tracer = None
        #: Experiment hook: force every task onto (n, loc_key) instead of
        #: consulting the planner (the ablation studies pin strategies).
        self.forced_plan: Optional[tuple[int, str]] = None
        self._orch_name = f"areplica-orch-{rule_id}"
        self._rep_name = f"areplica-rep-{rule_id}"
        self._applier_name = f"areplica-apply-{rule_id}"
        # -- outage-aware degradation state --------------------------------
        #: Substrate-health ledger; None disables degraded routing
        #: entirely (every check below gates on it).
        self.health = health
        #: Tasks whose every route was dark when they arrived, FIFO.
        #: The in-memory deque is the operational queue; each entry is
        #: also mirrored (best-effort) into the durable lock table under
        #: ``backlog:`` so an operator can reconstruct it after a
        #: process loss — the anti-entropy scanner backstops the rest.
        self._backlog: deque[tuple[int, dict]] = deque()
        #: Next backlog id — a plain integer (not itertools.count) so a
        #: control-plane checkpoint can record it and a rebuilt engine
        #: can resume the id space without collisions.
        self._backlog_next = 1
        #: Backlog ids already re-dispatched; a post-restart restore
        #: must not resurrect an entry whose drain raced the teardown
        #: (the trace oracle counts a double drain as a leak).
        self._drained_ids: set[int] = set()
        #: High-water mark of the parked backlog (evacuation/outage
        #: progress observability — surfaced by service.summary()).
        self.backlog_peak = 0
        #: Simulated time the backlog last fully drained (None until the
        #: first drain) — the outage drill's recovery-time statistic.
        self.backlog_drained_at: Optional[float] = None
        self._draining = False
        if health is not None:
            health.subscribe(self._on_health_transition)
        self._deploy()

    # -- deployment -----------------------------------------------------------

    def _deploy(self) -> None:
        src_faas = self.cloud.faas(self.src_bucket.region.key)
        dst_faas = self.cloud.faas(self.dst_bucket.region.key)
        # The orchestrator deploys at *both* ends: during a source-side
        # FaaS outage the engine fails events over to the destination
        # platform (the lock table stays at the source — orchestration
        # moves, the consistency protocol's home does not).
        for faas in {src_faas, dst_faas}:
            faas.deploy(self._orch_name, self._orchestrator, timeout_s=300.0)
            faas.deploy(self._rep_name, self._replicator)
        dst_faas.deploy(self._applier_name, self._applier, timeout_s=300.0)

    def _faas_at(self, loc_key: str):
        return self.cloud.faas(loc_key)

    def set_tracer(self, tracer) -> None:
        """Install (or clear, with None) the causal tracer on the engine
        and the control-plane primitives it owns."""
        self.tracer = tracer
        self.locks.tracer = tracer

    def _state_table(self, loc_key: str):
        return self.cloud.kv_table(loc_key, f"{_STATE_TABLE}-{self.rule_id}")

    # -- hardened control-plane plumbing ----------------------------------------

    def _kv(self, ctx, make):
        """Process: one control-plane KV operation under the retry policy.

        ``make`` is a zero-argument factory returning either a KV
        request (yieldable directly) or a single-operation process such
        as a lock or pool primitive; a factory — not the operation
        itself — because a :class:`Throttled` rejection consumes the
        attempt and the retry needs a fresh one.  Rejections happen
        before any mutation applies, so in-place retry with jittered
        backoff is always safe and far cheaper than failing the whole
        function.  Past the attempt cap the error propagates: the
        platform's own retry/DLQ machinery takes over.
        """
        attempt = 0
        deadline = None
        while True:
            try:
                op = make()
                if type(op) is GeneratorType:
                    return (yield from op)
                return (yield op)
            except Throttled:
                if attempt >= self.retry_policy.max_attempts:
                    self.stats["kv_retry_exhausted"] += 1
                    raise
                backoff = self.retry_policy.backoff_s(attempt, self._retry_rng)
                if self.retry_policy.deadline_s is not None:
                    # Total-time cap, anchored at the first rejection: a
                    # sustained outage must not pin a billed function
                    # for the whole backoff sum (nor let a retry outlive
                    # its lock lease) — escalate to the platform's
                    # retry/DLQ ladder instead of sleeping past it.
                    if deadline is None:
                        deadline = ctx.now + self.retry_policy.deadline_s
                    elif ctx.now + backoff > deadline:
                        self.stats["kv_retry_deadline"] += 1
                        raise
                self.stats["kv_retries"] += 1
                yield ctx.sleep(backoff)
                attempt += 1

    def _fence_ok(self, ctx, key: str, task_id: str,
                  fence: Optional[int], lock_at: Optional[float]):
        """Process: re-validate the task's fencing token before an
        irreversible destination write.

        A holder whose lease was stolen mid-task (a zombie writer — it
        stalled, it did not die) must abort rather than finalize a
        stale version over the thief's newer one.  A steal is
        impossible while the lease is young, so the common case skips
        the verification read entirely and costs nothing.
        """
        if fence is None:
            return True
        if (lock_at is not None
                and ctx.now - lock_at <= self.locks.lease_s * 0.5):
            return True
        ok = yield from self._kv(
            ctx, lambda: self.locks.verify(key, task_id, fence))
        if not ok:
            self.stats["lock_lost"] += 1
        return ok

    def _mark_and_release(self, ctx, task_id: str, key: str,
                          marker: DoneMarker, heal: bool = False,
                          wrote_etag: Optional[str] = None):
        """Process: advance the key's done marker and UNLOCK in one update.

        When the advance is superseded (the record already holds an
        equal-or-newer marker), the lock stays held: with ``heal`` the
        destination write this task just made is reconciled against
        that marker first (:meth:`_reconverge_after_superseded`), and
        only then is the lock released.  A superseding marker is how a
        straggler that just mutated the destination learns its write
        may have clobbered a newer finalized version — the fencing
        token cannot order two live incarnations of one
        platform-retried task (they share owner and fence), so the
        marker race is the only witness.  Returns the final
        :class:`~repro.core.locks.UnlockOutcome` for :meth:`_finish`.
        """
        outcome = yield from self._kv(
            ctx, lambda: self.locks.release(key, task_id, marker))
        if outcome.superseded is None:
            return outcome
        if heal:
            yield from self._reconverge_after_superseded(
                ctx, task_id, key, wrote_etag, outcome.superseded)
        return (yield from self._kv(
            ctx, lambda: self.locks.release(key, owner=task_id)))

    def _reconverge_after_superseded(self, ctx, task_id: str, key: str,
                                     wrote_etag: Optional[str],
                                     newer: DoneMarker):
        """Process: heal a destination a superseded straggler just wrote.

        Two live incarnations of one platform-retried task share a
        task id and fencing token (re-entrant lock acquisition keeps
        the fence, by design — persisted distributed-task descriptors
        must survive the retry), so when the retried incarnation
        adopts a newer source version, the fence check cannot stop the
        original incarnation's older write from landing *after* the
        newer finalize.  The superseding marker ``newer`` witnesses the
        inversion; this path compares the destination against it and,
        on genuine divergence, redrives the key as a *repair* event
        (fresh task, fresh lock, fresh fence — and the repair flag
        bypasses the very marker that masks the damage).  Benign
        losers — the newer finalize also won the destination race —
        exit after one HEAD.  Terminates: the repair task's own
        superseded advance finds destination and marker in agreement
        and stops.
        """
        try:
            dst = yield from ctx.head_object(self.dst_bucket, key)
            dst_etag = dst.etag
        except NoSuchKey:
            dst_etag = None
        if newer.op == "delete":
            # The marker's newest state is absence; undo only *our
            # own* re-creation (different bytes belong to a newer
            # in-flight put, which owns its own convergence).
            if wrote_etag is not None and dst_etag == wrote_etag:
                self.stats["retriggered"] += 1
                if self.tracer is not None:
                    self.tracer.event("retrigger", "engine", task_id,
                                      key=key, seq=newer.seq,
                                      kind="superseded")
                yield from ctx.delete_object(self.dst_bucket, key)
            return
        if dst_etag == newer.etag:
            return  # benign: the newer finalize won the destination race
        self.stats["retriggered"] += 1
        if self.tracer is not None:
            self.tracer.event("retrigger", "engine", task_id, key=key,
                              seq=newer.seq, kind="superseded")
        try:
            current = yield from ctx.head_object(self.src_bucket, key)
        except NoSuchKey:
            return  # the source delete's own event owns convergence
        self.redrive_event({
            "kind": "created", "key": key, "etag": current.etag,
            "seq": current.sequencer, "size": current.size,
            "event_time": ctx.now, "repair": True,
        })

    def _record_visible(self, task_id: Optional[str],
                        result: TaskResult) -> None:
        """Report a visibility outcome, mirrored into the trace."""
        if self.tracer is not None:
            self.tracer.event("visible", "engine", task_id, key=result.key,
                              seq=result.seq, kind=result.kind)
        self.recorder.record_visible(result)

    def _abort_upload(self, upload_id: str) -> None:
        """Best-effort multipart abort on the destination.

        A failed abort (e.g. the destination store refusing requests)
        leaves a part-billing upload behind — count it so the audit
        command can report the leak instead of the failure vanishing
        into a bare except.  Never raises; never call it with a yield
        inside the guarded region (a swallowed Interrupt would let a
        crashed function keep running).
        """
        try:
            self.dst_bucket.abort_multipart(upload_id)
        except Exception:
            self.stats["orphaned_uploads"] += 1

    # -- end-to-end integrity: per-part verification and quarantine ---------------

    def _verify_download(self, task, version, blob, offset: int, length: int,
                         stage: str, part: Optional[int] = None) -> str:
        """Classify one downloaded range: ``ok`` | ``corrupt`` | ``stale``.

        The checksums reuse the platform's existing identities — on the
        clean path this is two string/tuple equality checks against
        already-cached values, no per-part hashing.  ``stale`` means the
        source genuinely moved on (the §5.2 optimistic-validation
        abort); everything else that mismatches is silent corruption:
        a flipped transfer, at-rest rot, a truncated read, or a store
        misreporting its ETag.
        """
        expected_etag = task["etag"]
        if version.etag == expected_etag:
            expected = version.blob.slice(offset, length)
            if blob.size == length and blob.segments == expected.segments:
                return "ok"
            kind = "truncated" if blob.size != length else "payload"
        elif version.blob.etag == expected_etag:
            # The content is the version we expect but the reported
            # ETag is not its hash: the store is lying about metadata.
            kind = "wrong-etag"
        else:
            return "stale"
        self._record_corruption(task, stage, kind, part)
        return "corrupt"

    def _record_corruption(self, task, stage: str, kind: str,
                           part: Optional[int] = None) -> None:
        self.stats["corrupt_detected"] += 1
        if self.tracer is not None:
            self.tracer.event("corrupt-detected", "engine", task["task_id"],
                              key=task["key"], stage=stage, kind=kind,
                              part=part)

    def _quarantine(self, task, stage: str, part: Optional[int] = None,
                    count: bool = True):
        """Escalate a poison transfer: count, trace, and raise the
        no-platform-retry error that dead-letters this invocation with
        the ``corrupted`` disposition.  A later DLQ redrive — after the
        fault clears — re-runs the task and completes the part.

        ``count=False`` replays an already-counted quarantine — a
        hedged rival burned the retransfer budget on the same part
        first (``PartPool.mark_quarantined`` returned the first-marker
        signal to the other side).  The escalation still raises, but
        the stat and trace event stay idempotent per (task, part) so
        drill accounting remains exact under hedging.
        """
        if count:
            self.stats["quarantined"] += 1
            if self.tracer is not None:
                self.tracer.event("quarantine", "engine", task["task_id"],
                                  key=task["key"], stage=stage, part=part)
        raise PartQuarantined(
            f"{task['task_id']}: {stage} checksum mismatch persisted "
            f"past retransfer budget (part={part})")

    # -- degraded-mode routing and the parked-task backlog -----------------------

    def _route(self) -> Optional[str]:
        """Execution region for a new orchestration, or None (no route).

        Healthy fast path: one ``is None`` / one integer check.  In
        degraded mode the rule is: the consistency substrates — the
        source lock table and both object stores — are location-pinned,
        so a dark one parks the task outright; the orchestrator itself
        fails over to the destination platform when only the source
        FaaS is dark.
        """
        health = self.health
        src_key = self.src_bucket.region.key
        if health is None or not health.any_open:
            return src_key
        if not health.available(("kv", src_key)):
            return None
        if not health.available(("store", src_key)):
            return None
        dst_key = self.dst_bucket.region.key
        if not health.available(("store", dst_key)):
            return None
        if health.available(("faas", src_key)):
            return src_key
        if dst_key != src_key and health.available(("faas", dst_key)):
            return dst_key
        return None

    def _dispatch_event(self, payload: dict) -> None:
        """Route ``payload`` to an orchestrator, or park it."""
        if self.tracer is not None and "task" not in payload:
            # Stamp the deterministic task id at dispatch so the FaaS
            # substrate attributes the orchestrator invocation's own
            # I/D/P/S/C spans to the task (replicator payloads already
            # carry ``task_id``).
            payload["task"] = (f"{self.rule_id}:{payload['key']}:"
                               f"{payload['seq']}:{payload['kind']}")
        route = self._route()
        if route is None:
            self._park(payload)
            return
        if route != self.src_bucket.region.key:
            self.stats["failover"] += 1
        if self.tracer is not None:
            # Admission witness for the cordon invariant: the oracle
            # checks no dispatch lands in an administratively cordoned
            # FaaS region (I-spans cannot serve — invoke_and_forget
            # emits none, and in-flight orchestrators legitimately
            # invoke workers at cordoned regions).
            self.tracer.event("dispatch", "engine", payload.get("task"),
                              rule=self.rule_id, region=route)
        if self.scheduler is not None:
            # Fair-share gate: the scheduler decides *when* the
            # invocation starts (DRR over per-tenant lanes, bounded
            # in-flight concurrency); the route decision stays here so
            # degraded-mode failover semantics are identical either way.
            faas = self._faas_at(route)
            self.scheduler.submit(
                self.tenant or self.rule_id,
                lambda: faas.invoke_and_forget(self._orch_name, payload))
            return
        self._faas_at(route).invoke_and_forget(self._orch_name, payload)

    def redrive_event(self, payload: dict) -> None:
        """Inject a synthetic replication event (anti-entropy repair).

        Takes the same degraded-routing path as live notifications, so
        a repair during an ongoing outage parks rather than burns.
        """
        self._dispatch_event(dict(payload))

    def _park(self, payload: dict) -> None:
        """Queue a task no route can serve; drained on recovery."""
        self.stats["parked"] += 1
        backlog_id = self._backlog_next
        self._backlog_next += 1
        if self.tracer is not None:
            self.tracer.event("park", "engine", payload.get("task"),
                              rule=self.rule_id, backlog_id=backlog_id,
                              key=payload.get("key"))
        self._backlog.append((backlog_id, payload))
        self.backlog_peak = max(self.backlog_peak, len(self._backlog))
        self._persist_parked(backlog_id, payload)

    def _persist_parked(self, backlog_id: int, payload: dict) -> None:
        """Best-effort durable mirror of one parked task.

        The mirror write itself races the outage that caused the park
        (the lock table may be the dark substrate) — failures are
        counted, not retried: the in-memory queue keeps operating and
        the anti-entropy scanner is the backstop for a lost process.
        """
        item_key = f"backlog:{backlog_id:08d}"

        def persist():
            try:
                yield self._lock_table.put_item(
                    item_key, {"payload": dict(payload),
                               "at": self.cloud.sim.now})
            except Throttled:
                self.stats["backlog_kv_failed"] += 1

        self.cloud.sim.spawn(persist())

    def _unpersist_parked(self, backlog_id: int) -> None:
        item_key = f"backlog:{backlog_id:08d}"

        def unpersist():
            try:
                yield self._lock_table.delete_item(item_key)
            except Throttled:
                self.stats["backlog_kv_failed"] += 1

        self.cloud.sim.spawn(unpersist())

    def backlog_size(self) -> int:
        return len(self._backlog)

    def _on_health_transition(self, target, state: str) -> None:
        if state == BreakerState.HALF_OPEN:
            self._probe_backlog()
        elif state == BreakerState.CLOSED:
            self._maybe_drain()
        elif state == BreakerState.UNCORDONED:
            # A lifted cordon re-opens admission: work parked while the
            # region was administratively dark drains immediately.
            self._maybe_drain()

    def _probe_backlog(self) -> None:
        """Half-open probe: re-dispatch a *copy* of the oldest parked
        task through the normal route.  The entry stays queued — a
        failed probe must not lose it, and a successful duplicate is
        absorbed by the done marker — so the probe's only side effect
        is the traffic the breaker needs for its verdict."""
        if not self._backlog or self._draining:
            return
        route = self._route()
        if route is None:
            return
        self.stats["probes"] += 1
        if route != self.src_bucket.region.key:
            self.stats["failover"] += 1
        _bid, payload = self._backlog[0]
        if self.tracer is not None:
            self.tracer.event("probe", "engine", payload.get("task"),
                              rule=self.rule_id, backlog_id=_bid,
                              region=route)
        self._faas_at(route).invoke_and_forget(self._orch_name, dict(payload))

    def _maybe_drain(self) -> None:
        if self._draining or not self._backlog or self._route() is None:
            return
        self._draining = True
        self.cloud.sim.spawn(self._drain_backlog())

    def _drain_backlog(self):
        """Process: re-dispatch parked tasks FIFO after recovery.

        Batches of ``outage_catchup_concurrency`` run to completion
        before the next batch starts — the cap that keeps the catch-up
        burst from re-browning-out a freshly recovered region.  If the
        route goes dark again mid-drain, the remainder stays parked for
        the next recovery.
        """
        cap = self.config.outage_catchup_concurrency
        try:
            while self._backlog:
                route = self._route()
                if route is None:
                    return
                batch = [self._backlog.popleft()
                         for _ in range(min(cap, len(self._backlog)))]
                faas = self._faas_at(route)
                if route != self.src_bucket.region.key:
                    self.stats["failover"] += len(batch)
                invocations = [faas.invoke_and_forget(self._orch_name, payload)
                               for _bid, payload in batch]
                for backlog_id, _payload in batch:
                    self.stats["drained"] += 1
                    self._drained_ids.add(backlog_id)
                    if self.tracer is not None:
                        self.tracer.event("drain", "engine",
                                          _payload.get("task"),
                                          rule=self.rule_id,
                                          backlog_id=backlog_id,
                                          region=route)
                    self._unpersist_parked(backlog_id)
                # Await sequentially with individual guards: a single
                # dead-lettered invocation (fails its Future) must not
                # abandon the rest of the drain — the DLQ redrive owns
                # that task now.
                for invocation in invocations:
                    try:
                        yield invocation
                    except Exception:
                        pass
            self.backlog_drained_at = self.cloud.sim.now
        finally:
            self._draining = False
        # Tasks parked while the last batch ran (route flapped) get a
        # fresh drain only on the next close transition; kick once more
        # in case the flap already resolved.
        if self._backlog:
            self._maybe_drain()

    # -- planned-operations control plane (core/lifecycle.py) ---------------------

    #: KV key the control-plane checkpoint lives under (in the rule's
    #: lock table, beside the locks/done markers it describes).
    _CHECKPOINT_KEY = "lifecycle:checkpoint"

    def detach(self) -> None:
        """Disconnect this engine from shared infrastructure before a
        replacement engine takes over (rolling restart).

        Health transitions must stop reaching the old instance — two
        engines draining one logical backlog would double-dispatch —
        and the old in-memory backlog is surrendered: the durable
        ``backlog:`` mirror plus the checkpoint are the hand-off.
        In-flight functions keep running (serverless semantics: the
        platform owns them, not the engine object).
        """
        if self.health is not None:
            self.health.unsubscribe(self._on_health_transition)
        self._backlog.clear()

    def adopt_counters(self, old: "ReplicationEngine") -> None:
        """Carry monotonic operational state from a torn-down engine.

        The stats dict is shared *by reference* so counters stay
        monotonic across a restart (the drills assert deltas over the
        whole run), the backlog id space continues where the old engine
        left it (a restored entry must never collide with a fresh
        park), and already-drained ids stay excluded from restore.
        """
        self.stats = old.stats
        self.worker_parts = old.worker_parts
        self.worker_spans = old.worker_spans
        self._hedge_samples = old._hedge_samples
        self._hedge_seq = old._hedge_seq
        self._hedge_live = old._hedge_live
        self._backlog_next = old._backlog_next
        self._drained_ids = set(old._drained_ids)
        self.backlog_peak = old.backlog_peak
        self.backlog_drained_at = old.backlog_drained_at
        self.forced_plan = old.forced_plan

    def checkpoint_control_plane(self):
        """Process: persist restartable control-plane state to KV.

        The record carries the backlog id high-water mark, the parked
        entries themselves (the KV API has no scan, so the checkpoint
        must be self-contained), the drained-id set, and a stats
        snapshot for operator forensics.  Locks, done markers, part
        pools, and the ``backlog:`` mirror are *already* durable in the
        same table — the checkpoint only captures what lived purely in
        process memory.
        """
        record = {
            "at": self.cloud.sim.now,
            "rule": self.rule_id,
            "backlog_next": self._backlog_next,
            "backlog": [[bid, dict(payload)]
                        for bid, payload in self._backlog],
            "drained_ids": sorted(self._drained_ids),
        }
        yield self._lock_table.put_item(self._CHECKPOINT_KEY, record)
        self.stats["checkpoints"] += 1
        if self.tracer is not None:
            self.tracer.event("checkpoint", "lifecycle", None,
                              rule=self.rule_id,
                              backlog=len(record["backlog"]))
        return record

    def restore_control_plane(self):
        """Process: rebuild in-memory control-plane state from KV.

        Reads the checkpoint, drops entries the old engine managed to
        drain between checkpoint and teardown, re-verifies each entry's
        durable ``backlog:`` mirror (re-writing any the original
        best-effort mirror lost — the cold-object re-mirror), and
        merges the survivors into the live backlog.  The deque is
        mutated only at the end so a mid-restore fault retried by the
        caller stays idempotent.
        """
        record = yield self._lock_table.get_item(self._CHECKPOINT_KEY)
        if record is None:
            return {"restored": 0, "remirrored": 0}
        self._backlog_next = max(self._backlog_next,
                                 record.get("backlog_next", 1))
        drained = set(record.get("drained_ids", [])) | self._drained_ids
        restored: list[tuple[int, dict]] = []
        remirrored = 0
        present = {bid for bid, _payload in self._backlog}
        for bid, payload in record.get("backlog", []):
            if bid in drained or bid in present:
                continue
            mirror_key = f"backlog:{bid:08d}"
            mirror = yield self._lock_table.get_item(mirror_key)
            if mirror is None:
                # The original best-effort mirror write failed (it
                # raced the outage that parked the task); restore is
                # the second chance to make the entry durable.
                yield self._lock_table.put_item(
                    mirror_key, {"payload": dict(payload),
                                 "at": self.cloud.sim.now})
                remirrored += 1
            restored.append((bid, dict(payload)))
        if restored:
            merged = sorted(list(self._backlog) + restored)
            self._backlog.clear()
            self._backlog.extend(merged)
            self.backlog_peak = max(self.backlog_peak, len(self._backlog))
        self._drained_ids |= drained
        if self.tracer is not None:
            self.tracer.event("restore", "lifecycle", None,
                              rule=self.rule_id, restored=len(restored),
                              remirrored=remirrored)
        self._maybe_drain()
        return {"restored": len(restored), "remirrored": remirrored}

    def reclaim_stranded_locks(self) -> int:
        """Schedule takeover of lock records that survived quiescence.

        A holder that crashes *after* its destination finalize but
        *before* UNLOCK leaves the lock record — and any pending
        version registered on it — stranded: no further event for the
        key will ever arrive, so the lease-takeover path never runs and
        the newest version never replicates.  At quiescence every
        lock record that still has an owner is such a casualty (a live
        holder would still have simulation events in flight), so
        re-dispatch one recovery task per record, delayed past lease
        expiry so the takeover (rather than a deferral) wins.  Returns
        the number of reclaims scheduled; the caller re-runs the
        simulation.
        """
        sim = self._lock_table.sim
        now = sim.now
        n = 0
        for obj_key, item in self.locks.held():
            seq = int(item.get("held_seq") or 0)
            etag = item.get("held_etag") or ""
            pending_seq = item.get("pending_seq")
            if pending_seq is not None and int(pending_seq) > seq:
                seq = int(pending_seq)
                etag = item.get("pending_etag") or ""
            payload = {"kind": "created", "key": obj_key, "etag": etag,
                       "seq": seq, "size": 0, "event_time": now}
            delay = max(0.0, float(item.get("acquired_at", now))
                        + self.locks.lease_s - now) + 1.0
            if self.tracer is not None:
                self.tracer.event("lock-reclaim", "engine", None,
                                  rule=self.rule_id, key=obj_key,
                                  owner=item.get("owner"), seq=seq)
            sim.call_later(delay, lambda p=payload: self._dispatch_event(p))
            n += 1
        return n

    # -- entry point (the cloud notification) ------------------------------------

    def handle_event(self, event: ObjectEvent) -> None:
        """Notification delivery: trigger the orchestrator function."""
        payload = {
            "kind": event.kind,
            "key": event.key,
            "etag": event.etag,
            "seq": event.sequencer,
            "size": event.size,
            "event_time": event.event_time,
        }
        self._dispatch_event(payload)

    # -- orchestrator function -------------------------------------------------------

    def _orchestrator(self, ctx, payload):
        self.stats["tasks"] += 1
        key = payload["key"]
        if (self.health is not None and self.health.any_open
                and self._route() is None):
            # An outage opened between dispatch and execution (or this
            # is a platform retry riding out one): park before burning
            # lock-write retries against a dark substrate.
            self._park(dict(payload))
            return
        # Deterministic per object version: a platform-retried
        # orchestrator re-enters its own lock and resumes its own pool
        # instead of deadlocking against its crashed predecessor.
        task_id = f"{self.rule_id}:{key}:{payload['seq']}:{payload['kind']}"
        outcome = yield from self._kv(
            ctx, lambda: self.locks.lock(key, payload["etag"],
                                         payload["seq"], owner=task_id))
        if not outcome.acquired:
            # A task is in flight; our version is registered as pending
            # (or an even newer one already is) — Algorithm 2's LOCK.
            self.stats["deferred"] += 1
            return
        lock_at = ctx.now
        done = outcome.marker
        if payload["kind"] == "deleted":
            yield from self._handle_delete(ctx, payload, task_id, done,
                                           outcome.fence, lock_at)
            return
        # Re-read the source: replicate the *current* version (it covers
        # this event and any newer ones), and skip when a newer-or-equal
        # version has already been replicated.
        try:
            current = yield from ctx.head_object(self.src_bucket, key)
        except NoSuchKey:
            # Deleted concurrently.  If the DELETE's task already ran
            # (its notification overtook ours), its done marker covers
            # this event — close the measurement here, because nobody
            # else will.  Otherwise the DELETE event is still in flight
            # and its own visibility report subsumes this sequencer.
            if done is not None and done.seq >= payload["seq"]:
                self.stats["skipped_done"] += 1
                self._record_visible(task_id, TaskResult(
                    key=key, etag=done.etag, seq=done.seq,
                    event_time=payload["event_time"],
                    visible_time=max(done.time, payload["event_time"]),
                    plan=None, kind="already-replicated",
                    started=payload["event_time"],
                ))
            yield from self._finish(ctx, task_id, key, None)
            return
        if (done is not None and not payload.get("repair")
                and (done.seq >= current.sequencer
                     or (done.etag == current.etag
                         and done.op != "delete"))):
            # Already replicated: a prior task shipped this version (or
            # a newer one) — possibly under an older sequencer when the
            # same *content* was re-written, e.g. by the reverse rule of
            # a bidirectional pair.  Report visibility at the recorded
            # time so the event's delay measurement closes.  Repair
            # events skip this short-circuit: anti-entropy exists to
            # heal divergence *behind* a valid done marker (the
            # destination lost or corrupted bytes after the marker was
            # written), so the marker cannot vouch for them.  A *delete*
            # marker's ETag is the deleted version's: identical content
            # re-created after the delete is not at the destination, so
            # only put markers may vouch by ETag.
            self.stats["skipped_done"] += 1
            effective_seq = max(done.seq, current.sequencer)
            released = None
            if effective_seq > done.seq:
                released = yield from self._mark_and_release(
                    ctx, task_id, key,
                    DoneMarker(done.etag, effective_seq, done.time))
            self._record_visible(task_id, TaskResult(
                key=key, etag=done.etag, seq=effective_seq,
                event_time=payload["event_time"],
                # When identical content was re-written, it was already
                # visible at the destination the moment the PUT landed.
                visible_time=max(done.time, payload["event_time"]),
                plan=None, kind="already-replicated",
                started=payload["event_time"],
            ))
            yield from self._finish(ctx, task_id, key, effective_seq,
                                    released=released)
            return
        task = {
            "task_id": task_id,
            "key": key,
            "etag": current.etag,
            "seq": current.sequencer,
            "size": current.size,
            "event_time": payload["event_time"],
            # Fencing state: replicators and finalizers re-validate the
            # token before destination finalize (see _fence_ok).
            "fence": outcome.fence,
            "lock_at": lock_at,
        }
        # Content short-circuit: if the destination already holds this
        # exact content (an earlier rule run, a user pre-seed, or the
        # reverse rule of a bidirectional pair), there is nothing to
        # move.  Together with the done-marker ETag check above, this
        # also breaks the ping-pong two mutually replicating buckets
        # would otherwise sustain.  The destination HEAD only pays for
        # itself on objects whose transfer dwarfs a cross-region
        # round-trip, so small objects skip straight to replication.
        dst_current = None
        if (current.size > self.config.local_threshold
                and not payload.get("repair")):
            # Repair events never take this shortcut: deep scrub re-drives
            # a key precisely when the destination's self-reported ETag
            # cannot be trusted (silent bit rot behind a truthful-looking
            # HEAD), so the ETag match proves nothing.
            try:
                dst_current = yield from ctx.head_object(self.dst_bucket, key)
            except NoSuchKey:
                dst_current = None
        if dst_current is not None and dst_current.etag == current.etag:
            self.stats["content_skipped"] = self.stats.get("content_skipped", 0) + 1
            released = yield from self._mark_and_release(
                ctx, task_id, key,
                DoneMarker(current.etag, current.sequencer, ctx.now))
            self._record_visible(task_id, TaskResult(
                key=key, etag=current.etag, seq=current.sequencer,
                event_time=payload["event_time"], visible_time=ctx.now,
                plan=None, kind="content-match", started=ctx.now,
            ))
            yield from self._finish(ctx, task_id, key, current.sequencer,
                                    released=released)
            return
        if self.changelog is not None and self.config.enable_changelog:
            applied = yield from self._try_changelog(ctx, task)
            if applied:
                return
        plan_from = ctx.now
        try:
            plan = self._plan(task, ctx.now)
        except NoRouteAvailable:
            # Every candidate execution location is behind an open
            # circuit: park the original event and release the lock so
            # the drained task starts clean.
            self._park(dict(payload))
            yield from self._finish(ctx, task_id, key, None)
            return
        if self.tracer is not None:
            self.tracer.span("plan", "engine", task_id, plan_from, ctx.now,
                             n=plan.n, loc_key=plan.loc_key,
                             inline=plan.inline, compliant=plan.compliant,
                             predicted_s=plan.predicted_s)
        task["plan_n"] = plan.n
        task["loc_key"] = plan.loc_key
        task["predicted_s"] = plan.predicted_s
        task["predicted_median_s"] = plan.predicted_median_s
        task["started"] = ctx.now
        if outcome.reentrant:
            hedged_pool = (self.config.hedging_enabled
                           and self.config.max_clones_per_part > 0
                           and task["size"] >= self.config.hedge_min_part_bytes)
            if (plan.inline or plan.n == 1) and not hedged_pool:
                # This retry bypasses the part pool — the source shrank
                # below the part/hedging thresholds since the crashed
                # attempt planned (or hedging is off).  A pool record
                # the predecessor persisted, and the multipart upload
                # it points at, would otherwise leak forever: nothing
                # downstream ever looks the record up again once the
                # done marker lands.  Reap it before replicating.
                yield from self._reap_orphan_pool(ctx, task_id)
        if plan.inline:
            self.stats["inline"] += 1
            if (self.config.hedging_enabled
                    and self.config.max_clones_per_part > 0
                    and task["size"] >= self.config.hedge_min_part_bytes):
                # Inline transfers are the biggest straggler trap of
                # all: one in-process loop, one set of WAN legs, zero
                # observability.  Under hedging, route eligible inline
                # tasks through the pool with the orchestrator as the
                # (only) worker — same zero-invocation clean path, but
                # each range gets a deadline and a clone budget.
                yield from self._launch_distributed(ctx, task, plan,
                                                    inline_worker=True)
            else:
                yield from self._run_single(ctx, task, plan)
        elif plan.n == 1:
            if (self.config.hedging_enabled
                    and self.config.max_clones_per_part > 0
                    and task["size"] >= self.config.hedge_min_part_bytes):
                # With hedging on, a large single-function transfer is a
                # straggler trap: its parts live inside one instance's
                # speed draw and one set of WAN legs, invisible to the
                # per-part deadline monitor.  Route it through the
                # distributed machinery at n=1 instead — same single
                # worker, but every part flows through the pool where
                # progress is tracked and an overrunning range can be
                # cloned onto a fresh instance.  Hedging-off keeps the
                # plain single path byte-for-byte.
                self.stats["distributed"] += 1
                yield from self._launch_distributed(ctx, task, plan)
            else:
                self.stats["single"] += 1
                task["mode"] = "single"
                invocation = yield from ctx.invoke(
                    self._faas_at(plan.loc_key), self._rep_name, dict(task)
                )
                del invocation  # fire-and-forget: the replicator finishes the task
        else:
            self.stats["distributed"] += 1
            yield from self._launch_distributed(ctx, task, plan)

    def _plan(self, task: dict, now: float) -> Plan:
        if self.forced_plan is not None:
            n, loc_key = self.forced_plan
            path = (loc_key, self.src_bucket.region.key,
                    self.dst_bucket.region.key)
            inline = (n == 1 and loc_key == self.src_bucket.region.key
                      and task["size"] <= self.config.local_threshold)
            predicted = median = 0.0
            if self.planner.model.has_path(path):
                predicted = self.planner.model.predict_percentile(
                    path, task["size"], n, self.config.percentile,
                    inline=inline)
                median = self.planner.model.predict_percentile(
                    path, task["size"], n, 0.5, inline=inline)
            return Plan(n=n, loc_key=loc_key, path=path, predicted_s=predicted,
                        percentile=self.config.percentile, compliant=True,
                        inline=inline, predicted_median_s=median)
        if self.config.slo_enabled:
            remaining = self.config.slo_seconds - (now - task["event_time"])
            return self.planner.generate(task["size"],
                                         self.src_bucket.region.key,
                                         self.dst_bucket.region.key,
                                         slo_remaining=remaining)
        return self.planner.fastest(task["size"],
                                    self.src_bucket.region.key,
                                    self.dst_bucket.region.key)

    # -- deletes ---------------------------------------------------------------------

    def _handle_delete(self, ctx, payload, task_id,
                       marker: Optional[DoneMarker] = None, fence=None,
                       lock_at=None):
        key = payload["key"]
        # Ordering guards: never let a stale DELETE clobber newer state
        # (``marker`` is the one the lock acquisition returned).
        if marker is not None and marker.seq >= payload["seq"]:
            self.stats["skipped_done"] += 1
            self._record_visible(task_id, TaskResult(
                key=key, etag=marker.etag, seq=marker.seq,
                event_time=payload["event_time"],
                visible_time=marker.time,
                plan=None, kind="already-replicated",
                started=payload["event_time"],
            ))
            yield from self._finish(ctx, task_id, key, marker.seq)
            return
        try:
            current = yield from ctx.head_object(self.src_bucket, key)
        except NoSuchKey:
            current = None
        if current is not None and current.sequencer > payload["seq"]:
            # The object was re-created after this delete; the newer
            # PUT's task supersedes us ("or its subsequent versions").
            yield from self._finish(ctx, task_id, key, None)
            return
        ok = yield from self._fence_ok(ctx, key, task_id, fence, lock_at)
        if not ok:
            # Lease stolen while we deliberated.  Unlike a PUT zombie —
            # whose thief re-reads the source and converges the content —
            # a thief handling an older event sees NoSuchKey at the
            # source and touches nothing, so if no newer PUT superseded
            # this delete, nobody else would ever propagate it.  Hand the
            # event to a fresh task (fresh lock, fresh fence) instead.
            self.stats["retriggered"] += 1
            if self.tracer is not None:
                self.tracer.event("retrigger", "engine", task_id, key=key,
                                  seq=payload["seq"], kind="deleted")
            self._dispatch_event(dict(payload))
            return
        self.stats["deletes"] += 1
        yield from ctx.delete_object(self.dst_bucket, key)
        if self.tracer is not None:
            self.tracer.event("finalize", "engine", task_id, key=key,
                              seq=payload["seq"], etag=payload["etag"],
                              fence=fence, op="delete",
                              loc=ctx.region.key)
        # A superseded advance means our destination delete landed under
        # a marker a newer finalize had already advanced: the bytes we
        # removed may have been the newer version's.  Heal via the
        # marker comparison (wrote_etag None — a delete writes absence).
        released = yield from self._mark_and_release(
            ctx, task_id, key,
            DoneMarker(payload["etag"], payload["seq"], ctx.now, "delete"),
            heal=True)
        self._record_visible(task_id, TaskResult(
            key=key, etag=payload["etag"], seq=payload["seq"],
            event_time=payload["event_time"], visible_time=ctx.now,
            plan=None, kind="deleted",
        ))
        yield from self._finish(ctx, task_id, key, payload["seq"],
                                released=released)

    # -- changelog fast path ------------------------------------------------------------

    def _try_changelog(self, ctx, task):
        """Process: returns True when the changelog path completed the task."""
        entry = yield from self._kv(
            ctx, lambda: self.changelog.lookup(task["key"], task["etag"]))
        if entry is None:
            return False
        payload = {
            "task": dict(task),
            "entry": {
                "op": entry.op, "key": entry.key, "etag": entry.etag,
                "sources": [list(s) for s in entry.sources],
                "data_offset": entry.data_offset,
                "data_length": entry.data_length,
            },
        }
        invocation = yield from ctx.invoke(
            self._faas_at(self.dst_bucket.region.key), self._applier_name, payload
        )
        result = yield invocation
        if result["applied"]:
            self.stats["changelog_applied"] += 1
            return True
        self.stats["changelog_fallback"] += 1
        return False

    def _applier(self, ctx, payload):
        """Destination-side changelog application (Fig 15).

        Verifies every source ETag against the destination bucket, then
        reconstructs the object from local data (server-side copy /
        compose) plus — for APPEND/PATCH — a ranged GET of only the
        fresh bytes from the source region.  On success it finishes the
        task (done marker, unlock, pending re-trigger) itself.
        """
        task, entry = payload["task"], payload["entry"]
        key = task["key"]
        ok = yield from self._fence_ok(ctx, key, task["task_id"],
                                       task.get("fence"), task.get("lock_at"))
        if not ok:
            return {"applied": False}
        for src_key, src_etag in entry["sources"]:
            if self.dst_bucket.current_etag(src_key) != src_etag:
                return {"applied": False}
        op = entry["op"]
        if op == ChangelogOp.COPY:
            version = yield from ctx.copy_object(
                self.dst_bucket, entry["sources"][0][0], key
            )
        elif op == ChangelogOp.CONCAT:
            yield ctx.sleep(0.0)
            version = self.dst_bucket.compose_objects(
                [s for s, _ in entry["sources"]], key, ctx.now
            )
        elif op in (ChangelogOp.APPEND, ChangelogOp.PATCH):
            version = yield from self._apply_patch(ctx, task, entry)
            if version is None:
                return {"applied": False}
        else:
            return {"applied": False}
        if version.etag != task["etag"]:
            # The reconstruction did not reproduce the replicated
            # version byte-for-byte; do not trust the hint.
            self.dst_bucket.delete_object(key, ctx.now, notify=False)
            return {"applied": False}
        yield from self._finish_replicated(ctx, task, version, kind="changelog")
        return {"applied": True}

    def _apply_patch(self, ctx, task, entry):
        """APPEND/PATCH: fetch only the fresh byte range from the source."""
        key, offset, length = task["key"], entry["data_offset"], entry["data_length"]
        try:
            fresh, version = yield from ctx.get_object(self.src_bucket, key,
                                                       offset, length)
        except (NoSuchKey, ValueError):
            return None
        if version.etag != task["etag"]:
            return None
        base = self.dst_bucket.head(entry["sources"][0][0]).blob
        if entry["op"] == ChangelogOp.APPEND:
            from repro.simcloud.objectstore import Blob

            blob = Blob.concat([base, fresh])
        else:
            from repro.simcloud.objectstore import Blob

            head = base.slice(0, offset)
            tail_start = offset + length
            tail = base.slice(tail_start, base.size - tail_start) \
                if tail_start < base.size else None
            pieces = [head, fresh] + ([tail] if tail is not None else [])
            blob = Blob.concat(pieces)
        yield ctx.sleep(0.0)
        return self.dst_bucket.put_object(key, blob, ctx.now)

    # -- single-function replication ---------------------------------------------------

    def _fusion_ok(self) -> bool:
        """Eligibility for fused small-object transfers.

        Fusing the handshake and data legs into one kernel event is
        only allowed when nothing can observe the intermediate
        instants: no chaos/corruption hooks armed, no tracer recording
        spans, neither endpoint inside an outage window, and hedging
        off — the hedge monitor's deadline gates sample transfer
        progress at instants fusion would collapse away.
        """
        cloud = self.cloud
        return (self.config.fuse_small_transfers
                and not self.config.hedging_enabled
                and cloud.chaos is None
                and cloud.tracer is None
                and not self.src_bucket.in_outage
                and not self.dst_bucket.in_outage)

    def _run_single(self, ctx, task, plan: Optional[Plan] = None):
        """Single-function replication (orchestrator inline, or one
        remote replicator).

        A whole-object GET is snapshot-consistent — object storage
        serves one version for the entire request — so the single path
        needs no optimistic validation: whatever version the GET
        returned is internally consistent and is the newest at read
        time.  Objects above one part are still *written* part-by-part
        (multipart upload), matching the model's ``T_transfer =
        S + C·⌈size/c⌉`` workflow.  This is also why the §5.2 remedy
        for frequently-updated objects is falling back to one function:
        the atomic read cannot be raced, unlike distributed ranged GETs.
        """
        key = task["key"]
        part = self.config.part_size
        fused = self._fusion_ok()
        retransfers = 0
        while True:
            try:
                if fused and task.get("size", part + 1) <= part:
                    blob, version = yield from ctx.get_object_fused(
                        self.src_bucket, key)
                else:
                    blob, version = yield from ctx.get_object(
                        self.src_bucket, key)
            except NoSuchKey:
                yield from self._finish(ctx, task["task_id"], key, None)
                return
            # The single path adopts whatever version its snapshot GET
            # returned, so verification is self-consistency: the payload
            # against the version's own content identity, the reported
            # ETag against its hash (both cached — no extra hashing).
            if (blob.size == version.blob.size
                    and blob.segments == version.blob.segments
                    and version.etag == version.blob.etag):
                break
            kind = ("truncated" if blob.size != version.blob.size
                    else "wrong-etag"
                    if blob.segments == version.blob.segments
                    else "payload")
            self._record_corruption(task, "single-get", kind)
            if retransfers >= self.config.retransfer_budget:
                self._quarantine(task, "single-get")
            retransfers += 1
            self.stats["retransfers"] += 1
        task = dict(task, etag=version.etag, seq=version.sequencer,
                    size=version.size)
        if version.size <= part:
            # Fencing (§5.2 hardening): if our lease was stolen during
            # the download, the thief has already (or will) put a newer
            # version — a stale PUT here would clobber it.
            ok = yield from self._fence_ok(ctx, key, task["task_id"],
                                           task.get("fence"),
                                           task.get("lock_at"))
            if not ok:
                return
            while True:
                if fused:
                    dst_version = yield from ctx.put_object_fused(
                        self.dst_bucket, key, blob)
                else:
                    dst_version = yield from ctx.put_object(self.dst_bucket,
                                                            key, blob)
                if dst_version.etag == blob.etag:
                    break
                # The store durably recorded some other payload under
                # our key (a miswritten PUT); re-send it in place.
                self._record_corruption(task, "put", "payload")
                if retransfers >= self.config.retransfer_budget:
                    self._quarantine(task, "put")
                retransfers += 1
                self.stats["retransfers"] += 1
            yield from self._finish_replicated(ctx, task, dst_version)
            return
        upload_id = yield from ctx.initiate_multipart(self.dst_bucket, key)
        num_parts = math.ceil(version.size / part)
        try:
            for i in range(num_parts):
                offset = i * part
                length = min(part, version.size - offset)
                piece = blob.slice(offset, length)
                part_retransfers = 0
                while True:
                    # Parts after the first stream back-to-back: the
                    # request handshake overlaps the preceding part's
                    # transfer.
                    part_etag = yield from ctx.upload_part(
                        self.dst_bucket, upload_id, i + 1, piece,
                        pipelined=i > 0)
                    if part_etag == piece.etag:
                        break
                    self._record_corruption(task, "part-put", "payload",
                                            part=i)
                    if part_retransfers >= self.config.retransfer_budget:
                        self._quarantine(task, "part-put", part=i)
                    part_retransfers += 1
                    self.stats["retransfers"] += 1
            # The zombie-writer check: a slow transfer can outlive the
            # lease, and completing the multipart would then publish
            # this stale version over the new holder's newer one.
            ok = yield from self._fence_ok(ctx, key, task["task_id"],
                                           task.get("fence"),
                                           task.get("lock_at"))
            if not ok:
                self._abort_upload(upload_id)
                return
            dst_version = yield from ctx.complete_multipart(self.dst_bucket,
                                                            upload_id)
        except BaseException:
            # A crashed (or platform-killed) single replicator is retried
            # from scratch with a *new* upload id; the one opened here
            # would leak and keep billing its parts.  Abort it on the way
            # out — this is the "function" dying, so no further simulated
            # requests are issued.
            self._abort_upload(upload_id)
            raise
        yield from self._finish_replicated(ctx, task, dst_version)

    def _reap_orphan_pool(self, ctx, task_id: str):
        """Process: abort a crashed predecessor's pool and its upload.

        A platform-retried orchestrator re-enters its own lock and
        normally *resumes* the part pool its predecessor persisted
        (same task id, same upload).  When the retry's fresh plan does
        not route through the pool, that record is unreachable garbage
        and its multipart upload bills parts forever.  Mark the pool
        aborted — straggling workers from the crashed attempt observe
        the flag and stand down — then abort the upload.
        """
        state_table = self._state_table(ctx.region.key)
        record = yield from self._kv(
            ctx, lambda: state_table.get_item(f"pool:{task_id}"))
        if record is None or record.get("aborted"):
            return
        pool = PartPool(state_table, task_id, record["num_parts"])
        yield from self._kv(ctx, pool.abort)
        upload_id = record.get("task", {}).get("upload_id")
        if upload_id is not None:
            # The yield sits outside _abort_upload's guard: an Interrupt
            # delivered here must kill the function (see _abort_distributed).
            yield ctx.sleep(0.0)
            self._abort_upload(upload_id)

    # -- distributed replication ----------------------------------------------------------

    def _launch_distributed(self, ctx, task, plan: Plan,
                            inline_worker: bool = False):
        """Set up the part pool and run the task's workers.

        ``inline_worker`` runs a single worker loop inside the calling
        function instead of invoking remote replicators — the hedged
        flavour of the inline path, where the orchestrator itself
        drains the (often one-part) pool so each range still gets a
        progress deadline and a clone budget without paying an extra
        invocation on the clean path.
        """
        num_parts = max(1, math.ceil(task["size"] / self.config.part_size))
        n = 1 if inline_worker else min(plan.n, num_parts)
        # §6 resource limitations: account concurrency quotas are static.
        # Invoking beyond the remaining quota would only queue the
        # excess behind other tasks; clamp instead (the pool lets fewer
        # workers finish the same parts, just slower).
        faas_quota = self._faas_at(plan.loc_key)
        available = max(1, faas_quota.profile.max_concurrency
                        - faas_quota.running)
        if n > available:
            self.stats["quota_clamped"] = self.stats.get("quota_clamped", 0) + 1
            n = available
        task = dict(task, mode="distributed", num_parts=num_parts,
                    part_size=self.config.part_size, plan_n=n)
        upload_id = yield from ctx.initiate_multipart(self.dst_bucket, task["key"])
        task["upload_id"] = upload_id
        if self.scheduling == "fair":
            task["assignments"] = FairAssignment(num_parts, n).all_assignments()
        # The task descriptor is persisted with the pool record.  A
        # crash-retried orchestrator loses its accepted state but finds
        # the pool already created: it must then resume the *original*
        # task (same upload id) rather than re-initialize — in-flight
        # workers are still uploading parts against it.
        state_table = self._state_table(plan.loc_key)
        try:
            created = yield from self._kv(ctx, lambda: state_table.put_if_absent(
                f"pool:{task['task_id']}",
                {"num_parts": num_parts, "claimed": 0, "completed": 0,
                 "aborted": False, "task": dict(task)},
            ))
            if not created:
                # Resuming a predecessor's task: adopt its upload and abort
                # the one we just opened (it would otherwise leak and bill).
                existing = yield from self._kv(
                    ctx, lambda: state_table.get_item(f"pool:{task['task_id']}"))
                yield ctx.sleep(0.0)
                self._abort_upload(upload_id)
                adopted = dict(existing["task"])
                if adopted.get("seq", task["seq"]) < task["seq"]:
                    # The pool record replicates an *older* source
                    # version than the one we were built from — the
                    # source advanced since the record was written.  If
                    # that predecessor already finished (its done marker
                    # landed), its pool is a fossil: adopting it would
                    # claim zero parts, skip finalization, and leak the
                    # task's lock — the newer version would then never
                    # replicate.  A duplicate event delivery reaching a
                    # finished task id after an overwrite hits exactly
                    # this.  Replicate the current version through the
                    # single-function path instead: its snapshot GET
                    # needs no pool, so the fossil record cannot
                    # collide, and it finishes (and unlocks) normally.
                    done = yield from self._kv(
                        ctx, lambda: self.locks.marker(task["key"]))
                    if done is not None and done.seq >= adopted.get(
                            "seq", -1):
                        fallback = {k: v for k, v in task.items()
                                    if k not in ("mode", "num_parts",
                                                 "part_size", "upload_id",
                                                 "assignments")}
                        fallback["mode"] = "single"
                        yield from self._run_single(ctx, fallback, plan)
                        return
                task = adopted
        except BaseException:
            # Crashing before the pool record points at our upload means
            # no retry will ever learn this id existed; abort it so the
            # parts don't bill forever.  Once the record is durable the
            # retried orchestrator adopts the same id instead.
            if task.get("upload_id") == upload_id:
                self._abort_upload(upload_id)
            raise
        if inline_worker:
            # The orchestrator drains the pool itself — no extra
            # invocation, but parts (and their hedge clones) still flow
            # through the first-writer-wins pool machinery.
            yield from self._run_distributed_worker(
                ctx, dict(task, worker_index=0))
            return
        faas = self._faas_at(plan.loc_key)
        for i in range(n):
            worker_task = dict(task, worker_index=i)
            # Sequential invocations: the caller pays I per request,
            # matching T_func = I·n + D + P.
            yield from ctx.invoke(faas, self._rep_name, worker_task)

    def _replicator(self, ctx, payload):
        mode = payload.get("mode")
        if mode == "single":
            yield from self._run_single(ctx, payload)
            return
        if mode == "hedge-clone":
            return (yield from self._run_hedge_clone(ctx, payload))
        yield from self._run_distributed_worker(ctx, payload)

    #: How long a worker that drained the pool waits before treating
    #: still-incomplete parts as orphaned (crashed owner) and recovering
    #: them.  In-flight parts recovered early are merely duplicated
    #: work; the done-set makes duplicate completions harmless.
    recovery_grace_s = 10.0

    #: A finalizer that crashed mid-finalization loses its lease after
    #: this long; a recovering worker then takes over.
    finalize_lease_s = 60.0

    def _pool(self, ctx, task) -> PartPool:
        """The task's part pool, in the calling function's region."""
        return PartPool(self._state_table(ctx.region.key), task["task_id"],
                        task["num_parts"],
                        janitor_lease_s=(self.recovery_grace_s * 3
                                         + self.finalize_lease_s),
                        finalizer_lease_s=self.finalize_lease_s)

    @staticmethod
    def _worker_identity(task) -> str:
        return f"w{task.get('worker_index', 0)}"

    def _run_distributed_worker(self, ctx, task):
        pool = self._pool(ctx, task)
        me = self._worker_identity(task)
        worker_key = (task["task_id"], task.get("worker_index", 0))
        start = ctx.now
        self.worker_parts.setdefault(worker_key, 0)
        self.worker_spans[worker_key] = (start, start)
        if "assignments" in task:
            # Fair dispatch ablation: a fixed part list, no pool claims.
            # A platform-retried worker simply redoes its list; the
            # done-set deduplicates completions.
            for idx in task["assignments"][task["worker_index"]]:
                outcome = yield from self._replicate_part(
                    ctx, task, pool, worker_key, start, idx)
                if outcome is None or outcome.finished:
                    return  # task aborted, or this worker finished it
            self.worker_spans[worker_key] = (start, ctx.now)
            return
        # The first claim is its own update; every later claim rides on
        # the previous part's completion (PartPool.complete_part).
        step = yield from self._kv(ctx, lambda: pool.claim(me))
        while type(step) is int:
            outcome = yield from self._replicate_part(
                ctx, task, pool, worker_key, start, step, claim_next=True)
            if outcome is None or outcome.finished:
                return  # task aborted, or this worker finished it
            step = outcome.next
            if step is None:
                # A hedge clone settled the part, so no claim rode on
                # the completion.
                step = yield from self._kv(ctx, lambda: pool.claim(me))
        self.worker_spans[worker_key] = (start, ctx.now)
        yield from self._recover_orphaned_parts(ctx, task, pool, worker_key,
                                                start, step)

    def _replicate_part(self, ctx, task, pool, worker_key, start, idx,
                        claim_next: bool = False):
        """Process: move one part; returns its :class:`PartCompletion`
        (``finished`` = this worker concluded the task), or None when
        the task aborted.  ``claim_next`` claims the worker's next part
        in the completing update.

        Every part is verified end to end before it enters the done
        set: the downloaded range against the source version's content
        (a corrupted part must never be uploaded), and the store's
        part-ETag response against the uploaded payload (a miswritten
        part must never be assembled).  Either mismatch re-transfers in
        place under ``retransfer_budget``; a poison part — one that
        keeps failing — is quarantined to the DLQ instead of burning
        platform retries.

        With hedging enabled, a part large enough to be worth cloning
        runs through the hedged race (:meth:`_hedged_part`) instead of
        a bare attempt; small parts stay on the plain path but still
        feed the deadline sample window.
        """
        offset = idx * task["part_size"]
        length = min(task["part_size"], task["size"] - offset)
        cfg = self.config
        if (cfg.hedging_enabled and cfg.max_clones_per_part > 0
                and length >= cfg.hedge_min_part_bytes):
            return (yield from self._hedged_part(ctx, task, pool, worker_key,
                                                 start, idx, offset, length,
                                                 claim_next))
        t0 = ctx.now
        status = yield from self._part_attempt(ctx, task, pool, idx,
                                               offset, length)
        if cfg.hedging_enabled and status == "ok":
            self._hedge_samples.record(ctx.now, ctx.now - t0)
        return (yield from self._settle_part(ctx, task, pool, worker_key,
                                             start, idx, status, claim_next))

    def _part_attempt(self, ctx, task, pool, idx, offset, length):
        """Process: download, verify, and upload one part range.

        Returns ``"ok"`` | ``"stale"`` | ``"aborted"`` |
        ``("quarantined", stage, first)`` — never raising
        :class:`PartQuarantined` itself — so a hedged coordinator can
        race two attempts and settle the combined outcome exactly once
        (platform faults still propagate and fail the attempt).
        """
        retransfers = 0
        while True:
            try:
                blob, version = yield from ctx.get_object(
                    self.src_bucket, task["key"], offset, length,
                    concurrency=task["plan_n"],
                )
            except (NoSuchKey, ValueError):
                return "stale"
            verdict = self._verify_download(task, version, blob, offset,
                                            length, "part-get", part=idx)
            if verdict == "stale":
                # Optimistic validation (§5.2): the source changed under
                # us; parts from different versions must never mix.
                return "stale"
            if verdict == "ok":
                break
            if retransfers >= self.config.retransfer_budget:
                first = yield from self._kv(
                    ctx, lambda: pool.mark_quarantined(idx))
                return ("quarantined", "part-get", first)
            retransfers += 1
            self.stats["retransfers"] += 1
        while True:
            try:
                part_etag = yield from ctx.upload_part(
                    self.dst_bucket, task["upload_id"], idx + 1, blob,
                    concurrency=task["plan_n"])
            except NoSuchUpload:
                # The upload vanished under us: a fencing-loss (or abort)
                # cleanup ran elsewhere while this part was in flight.
                # Confirm and stand down quietly instead of failing the
                # whole attempt into the platform retry path.
                aborted = yield from self._kv(ctx, pool.is_aborted)
                if aborted:
                    return "aborted"
                # Or the pool was abandoned, never aborted: a retried
                # orchestrator re-planned elsewhere and finished the
                # version through a new pool.  Once the done marker
                # covers the task, nothing is left for this worker (or
                # clone) to do; raising would dead-letter it on every
                # redrive.
                covered = yield from self._marker_covers(ctx, task)
                if covered:
                    return "aborted"
                raise
            if part_etag == blob.etag:
                break
            # The store durably recorded a payload other than the one
            # we sent (a miswritten part); re-upload it in place.
            self._record_corruption(task, "part-put", "payload", part=idx)
            if retransfers >= self.config.retransfer_budget:
                first = yield from self._kv(
                    ctx, lambda: pool.mark_quarantined(idx))
                return ("quarantined", "part-put", first)
            retransfers += 1
            self.stats["retransfers"] += 1
        return "ok"

    def _settle_part(self, ctx, task, pool, worker_key, start, idx, status,
                     claim_next: bool = False):
        """Process: translate one part attempt's outcome into the worker
        protocol — completion (claiming the next part with
        ``claim_next``) and finalization on success, task abort on
        staleness, quarantine escalation on poison.  Returns the
        :class:`PartCompletion`, or None when the task aborted.  Split
        from the attempt itself so the hedged race settles whichever
        contender's outcome won, exactly once."""
        if status == "stale":
            yield from self._abort_task(ctx, task)
            return None
        if status == "aborted":
            return None
        if status != "ok":
            _, stage, first = status
            self._quarantine(task, stage, part=idx, count=first)
        self.worker_parts[worker_key] += 1
        self.worker_spans[worker_key] = (start, ctx.now)
        me = self._worker_identity(task)
        outcome = yield from self._kv(
            ctx, lambda: pool.complete_part(idx, me, claim_next))
        if outcome.finished:
            # The completing update also took the finalizer lease.
            yield from self._try_finalize(ctx, task)
            self.worker_spans[worker_key] = (start, ctx.now)
        return outcome

    # -- speculative hedging: straggler cloning for tail latency -------------------

    def _hedge_deadline(self, now: float) -> Optional[float]:
        """Hedge deadline in seconds for a part starting ``now``, or None.

        The deadline is the windowed ``hedge_deadline_quantile`` of
        recent part completion durations.  Too few samples — cold
        start, or a window the trailing completions have aged out of —
        yields the explicit ``None`` sentinel meaning *never hedge*.
        Never NaN: every comparison against NaN is False, so a NaN
        deadline would silently decide the overrun check in whichever
        direction the comparison happens to be written; the sentinel
        keeps the fail-safe direction explicit.
        """
        cfg = self.config
        cutoff = now - cfg.hedge_window_s
        _times, values = self._hedge_samples.window(cutoff)
        if len(values) < cfg.hedge_min_samples:
            return None
        # Bound the sample buffer: anything older than a full window
        # behind the cutoff can never be read again.
        self._hedge_samples.discard_before(cutoff - cfg.hedge_window_s)
        return self._hedge_samples.window_percentile(
            cfg.hedge_deadline_quantile, cfg.hedge_window_s, now)

    def _fire_hedge(self, ctx, task, idx, seq, deadline_s, elapsed):
        """Process: launch one speculative clone of part ``idx``.

        The invocation forces a cold start — the point of cloning is
        drawing a fresh per-instance channel factor, not re-landing on
        a warm (and possibly just-as-slow) instance — and its request
        fee is charged to the cloning-aware HEDGE_CLONES ledger line so
        hedging's spend is readable separately from ordinary
        replication traffic.
        """
        self.stats["hedges"] += 1
        task_id = task["task_id"]
        if self.tracer is not None:
            self.tracer.event("hedge-start", "engine", task_id,
                              key=task["key"], part=idx, seq=seq,
                              deadline_s=deadline_s, elapsed_s=elapsed)
        faas = self._faas_at(ctx.region.key)
        faas.ledger.charge(ctx.now, CostCategory.HEDGE_CLONES,
                           faas.prices.faas[faas.provider].per_request,
                           f"{faas.region.key}:{self._rep_name}:part{idx}",
                           task=task_id)
        payload = dict(task, mode="hedge-clone", hedge_part=idx,
                       hedge_seq=seq, worker_index=f"hedge{seq}")
        invocation = yield from ctx.invoke(faas, self._rep_name, payload,
                                           fresh_instance=True)
        return invocation

    @staticmethod
    def _clone_guard(invocation):
        """Process: join a clone invocation, mapping platform-level
        failure (a clone that dead-lettered) onto a result value — a
        losing contender must never fail the race's combined future."""
        try:
            result = yield invocation
        except Interrupt:
            raise
        except Exception:
            return {"part_done": False, "status": "error",
                    "finished": False}
        if not isinstance(result, dict):
            return {"part_done": False, "status": "error",
                    "finished": False}
        return result

    def _hedged_part(self, ctx, task, pool, worker_key, start, idx,
                     offset, length, claim_next: bool = False):
        """Process: one part under speculative hedging.

        The primary attempt runs as a child process raced against a
        deadline gate derived from the windowed percentile of recent
        completions (:meth:`_hedge_deadline`).  When the part overruns
        its deadline, the range is cloned onto a fresh FaaS instance;
        whichever contender's completion enters the pool's done-set
        first wins, and the loser is cancelled in flight (an O(1)
        interrupt on the timer-wheel kernel).  Every fired hedge
        resolves exactly once — ``won`` (a clone delivered the part),
        ``lost`` (the primary did, or the clone failed while the part
        still completed), or ``cancelled`` (the race was abandoned:
        task abort, quarantine, or this worker itself dying) — and
        double-finalize is excluded structurally: only the done-set's
        first writer can observe the finished transition.
        """
        sim = self.cloud.sim
        cfg = self.config
        t0 = ctx.now
        task_id = task["task_id"]
        deadline_s = self._hedge_deadline(t0)
        primary = ctx.spawn(
            self._part_attempt(ctx, task, pool, idx, offset, length),
            name=f"hedge-primary:{task_id}:{idx}")
        pending: dict[int, object] = {}    # seq -> clone guard process
        fired_at: dict[int, float] = {}    # seq -> fire time
        outcomes: dict[int, str] = {}      # seq -> resolved outcome
        gate_at = None if deadline_s is None else t0 + deadline_s
        status = None
        clone_won = None
        clone_q_first = False
        settled = False
        try:
            while True:
                contenders = []
                if primary is not None:
                    contenders.append(("primary", primary))
                contenders.extend(pending.items())
                if (primary is not None and gate_at is not None
                        and len(fired_at) < cfg.max_clones_per_part):
                    contenders.append(("gate", sim.timeout_at(gate_at)))
                if not contenders:
                    break
                which, value = yield sim.any_of(
                    [fut for _tag, fut in contenders])
                tag = contenders[which][0]
                if tag == "gate":
                    if primary is None or primary.done:
                        continue
                    seq = next(self._hedge_seq)
                    # Registered before the launch yields: a crash while
                    # the clone is being invoked must still resolve the
                    # hedge _fire_hedge has already announced.
                    fired_at[seq] = ctx.now
                    inv = yield from self._fire_hedge(ctx, task, idx, seq,
                                                      deadline_s,
                                                      ctx.now - t0)
                    pending[seq] = ctx.spawn(
                        self._clone_guard(inv),
                        name=f"hedge-guard:{task_id}:{idx}:{seq}")
                    gate_at = ctx.now + deadline_s
                    continue
                if tag == "primary":
                    status = value
                    primary = None
                    if status == "ok":
                        for s in fired_at:
                            outcomes.setdefault(s, "lost")
                        settled = True
                        break
                    if not pending:
                        break
                    # The primary failed but a clone is still in flight:
                    # an independent transfer can still deliver the part
                    # (it dodges the primary's per-transfer fault draws).
                    continue
                seq, res = tag, value
                del pending[seq]
                if res.get("part_done"):
                    outcomes[seq] = "won"
                    for s in fired_at:
                        outcomes.setdefault(s, "lost")
                    clone_won = res
                    settled = True
                    break
                if res.get("status") == "quarantined":
                    clone_q_first = clone_q_first or bool(
                        res.get("first_quarantine"))
                if primary is None and not pending:
                    break
        finally:
            if primary is not None and not primary.done:
                # O(1) in-flight cancellation of the losing side.
                primary.interrupt("hedge-lost" if settled else
                                  "hedge-unwound")
            if settled:
                for s in pending:
                    body = self._hedge_live.get((task_id, idx, s))
                    if body is not None and not body.done:
                        body.interrupt("hedge-lost")
            if fired_at:
                for s, at in fired_at.items():
                    outcome = outcomes.get(s, "cancelled")
                    if outcome == "won":
                        self.stats["hedge_wins"] += 1
                    elif outcome == "lost":
                        self.stats["hedge_losses"] += 1
                    else:
                        self.stats["hedge_cancelled"] += 1
                    if self.tracer is not None:
                        self.tracer.event("hedge-resolved", "engine",
                                          task_id, key=task["key"],
                                          part=idx, seq=s, outcome=outcome)
                        self.tracer.span("hedge", "engine", task_id, at,
                                         sim.now, part=idx, seq=s,
                                         outcome=outcome)
        if clone_won is not None:
            self._hedge_samples.record(ctx.now, ctx.now - t0)
            self.worker_spans[worker_key] = (start, ctx.now)
            return PartCompletion(False, bool(clone_won.get("finished")))
        if status == "ok":
            self._hedge_samples.record(ctx.now, ctx.now - t0)
        elif isinstance(status, tuple) and clone_q_first:
            # Merge the rival's first-marker signal so the quarantine
            # count stays exactly-once per (task, part).
            status = (status[0], status[1], True)
        return (yield from self._settle_part(ctx, task, pool, worker_key,
                                             start, idx, status, claim_next))

    def _run_hedge_clone(self, ctx, payload):
        """Process: one speculative clone invocation (mode "hedge-clone").

        Runs on a cold-started instance whose channel drew an
        independent speed factor, re-transfers exactly one part range,
        and races the original through the done-set's first-writer-wins
        — the integrity layer verifies the winner's bytes exactly once
        and the loser's are discarded by the dedupe.  A clone arriving
        after the part (or task) concluded — including a DLQ redrive
        long after completion — stands down on a one-read snapshot.
        """
        idx = payload["hedge_part"]
        seq = payload["hedge_seq"]
        task_id = payload["task_id"]
        pool = self._pool(ctx, payload)
        state = yield from self._kv(ctx, lambda: pool.part_state(idx))
        if not state.exists or state.aborted or state.done:
            return {"part_done": False, "status": "stood-down",
                    "finished": False}
        offset = idx * payload["part_size"]
        length = min(payload["part_size"], payload["size"] - offset)
        live_key = (task_id, idx, seq)
        body = ctx.spawn(
            self._part_attempt(ctx, payload, pool, idx, offset, length),
            name=f"hedge-clone:{task_id}:{idx}:{seq}")
        self._hedge_live[live_key] = body
        try:
            try:
                status = yield body
            except Interrupt as intr:
                if intr.cause not in ("hedge-lost", "hedge-unwound"):
                    # A chaos crash or watchdog kill of this clone — not
                    # a race cancellation — must still fail the function
                    # so the platform's own retry machinery sees it.
                    raise
                return {"part_done": False, "status": "cancelled",
                        "finished": False}
        finally:
            self._hedge_live.pop(live_key, None)
            if not body.done:
                body.interrupt("clone-died")
        if status != "ok":
            if isinstance(status, tuple):
                return {"part_done": False, "status": "quarantined",
                        "first_quarantine": status[2], "finished": False}
            return {"part_done": False, "status": status,
                    "finished": False}
        outcome = yield from self._kv(
            ctx, lambda: pool.complete_part(
                idx, self._worker_identity(payload)))
        if outcome.finished:
            # The clone is the exactly-one finisher: the done-set's
            # first writer observed the finished transition, and took
            # the finalizer lease in the same update.
            yield from self._try_finalize(ctx, payload)
        return {"part_done": outcome.first, "status": "ok",
                "finished": outcome.finished}

    def _try_finalize(self, ctx, task):
        """Process: complete the multipart upload and finish the task.

        The caller holds the task's finalizer lease — taken by the
        finishing completion, or by a recovering worker's pool update —
        so exactly one live function finalizes, and a crashed finalizer
        is superseded once its lease expires."""
        # The zombie-writer check, distributed flavour: all parts may be
        # uploaded, but if the task's lease was stolen meanwhile, the
        # assembled object is stale — completing it would publish it
        # over the thief's newer version.  Abort the upload and mark the
        # pool so janitor workers stop resurrecting it.
        ok = yield from self._fence_ok(ctx, task["key"], task["task_id"],
                                       task.get("fence"),
                                       task.get("lock_at"))
        if not ok:
            pool = self._pool(ctx, task)
            yield from self._kv(ctx, pool.abort)
            self._abort_upload(task["upload_id"])
            return
        own_write = True
        try:
            version = yield from ctx.complete_multipart(self.dst_bucket,
                                                        task["upload_id"])
        except NoSuchUpload:
            # A previous finalizer completed the upload, then crashed
            # before recording; the object is already at the
            # destination — pick it up and record it.  Not our write:
            # on an ETag mismatch the object may be a newer task's, so
            # the verify failure must stand down, never delete.
            own_write = False
            try:
                version = yield from ctx.head_object(self.dst_bucket,
                                                     task["key"])
            except NoSuchKey:
                return
        yield from self._finish_replicated(ctx, task, version,
                                           own_write=own_write)

    def _recover_orphaned_parts(self, ctx, task, pool, worker_key, start,
                                snap):
        """Fault tolerance (§6): parts claimed by a replicator that died
        mid-execution would otherwise never complete.  After a grace
        period, a surviving replicator that drained the pool re-claims
        any still-missing parts and replicates them itself.

        ``snap`` is the drained :class:`PoolSnapshot` this worker's last
        claim returned, with its janitor or finalizer lease attempt
        already applied.
        """
        if snap.aborted:
            return
        if snap.complete:
            yield from self._recover_finalization(ctx, task, snap)
            return
        # Exactly one drained worker stays behind as the task's janitor;
        # the rest exit immediately (idle function time is billed, so a
        # task on a slow link must not keep n-1 instances waiting).  The
        # janitor role is leased: a crashed janitor is superseded by the
        # next worker that comes through (e.g. a platform retry).
        if not snap.janitor_lease:
            return
        me = self._worker_identity(task)
        # Poll with backoff: in the common case the missing parts are
        # merely in flight on other instances and drain within a poll
        # or two; only a genuinely stuck task waits out the full grace.
        deadline = ctx.now + self.recovery_grace_s
        backoff = 0.5
        missing = snap.missing
        while ctx.now < deadline:
            yield ctx.sleep(min(backoff, max(0.0, deadline - ctx.now)))
            backoff *= 2
            missing = yield from self._janitor_poll(ctx, task, pool, me)
            if not missing:
                return
        reclaim_lease_s = 60.0
        while True:
            stalled = False
            for idx in missing:
                won = yield from self._kv(ctx, lambda i=idx: pool.try_reclaim(
                    i, me, ctx.now, lease_s=reclaim_lease_s))
                if not won:
                    # Another recoverer holds a live reclaim lease on
                    # this part — possibly this janitor's own crashed
                    # predecessor, now that same-owner rewins require
                    # lease expiry too.  Note the stall and retry once
                    # the incumbent's lease can have expired, instead
                    # of abandoning the task to a dead owner.
                    stalled = True
                    continue
                self.stats["recovered_parts"] = (
                    self.stats.get("recovered_parts", 0) + 1)
                outcome = yield from self._replicate_part(
                    ctx, task, pool, worker_key, start, idx)
                if outcome is None or outcome.finished:
                    return
            if not stalled:
                return
            yield ctx.sleep(reclaim_lease_s + 1.0)
            missing = yield from self._janitor_poll(ctx, task, pool, me)
            if not missing:
                return

    def _janitor_poll(self, ctx, task, pool, me: str):
        """Process: one janitor look at the pool; returns the parts still
        missing, or an empty tuple once the task needs nothing more from
        the janitor (it aborted, or every part is done — then the
        janitor tries the finalizer lease and recovers finalization if
        the finisher died)."""
        snap = yield from self._kv(ctx, pool.snapshot)
        if snap.aborted:
            return ()
        if not snap.complete:
            return snap.missing
        # A claim on the drained pool is the finalizer-lease attempt.
        snap = yield from self._kv(ctx, lambda: pool.claim(me))
        yield from self._recover_finalization(ctx, task, snap)
        return ()

    def _recover_finalization(self, ctx, task, snap):
        """Process: every part is done; if nobody recorded the task —
        the finalizer crashed — take over finalization.

        ``snap`` comes from a lease-trying pool update.  Without the
        finalizer lease a live finalizer owns the task, and this worker
        exits with no further reads.  With it — the lease was free,
        expired, or this worker's own (a platform-retried finalizer
        resumes its crashed finalize) — one marker read tells whether
        the task already finished.
        """
        if not snap.finalizer_lease:
            return
        covered = yield from self._marker_covers(ctx, task)
        if covered:
            return
        self.stats["recovered_finalize"] = (
            self.stats.get("recovered_finalize", 0) + 1)
        yield from self._try_finalize(ctx, task)

    def _marker_covers(self, ctx, task):
        """Process: one read — does the key's done marker already cover
        the task's version?"""
        done = yield from self._kv(
            ctx, lambda: self.locks.marker(task["key"]))
        return done is not None and done.seq >= task["seq"]

    def _abort_task(self, ctx, task):
        pool = self._pool(ctx, task)
        first = yield from self._kv(ctx, pool.abort)
        if not first:
            return
        self.stats["aborted"] += 1
        if self.tracer is not None:
            self.tracer.event("abort", "engine", task["task_id"],
                              key=task["key"], etag=task["etag"])
        self.recorder.record_abort(task["key"], task["etag"])
        # The yield must sit *outside* any exception guard: an Interrupt
        # (chaos crash, watchdog) delivered here must kill this function
        # so the platform retries it — a bare except swallowing it would
        # leave a crashed worker running on as a zombie.  The abort
        # itself is best-effort with failures counted (_abort_upload).
        yield ctx.sleep(0.0)
        self._abort_upload(task["upload_id"])
        # Release the lock and re-trigger so the newest version is
        # replicated by a fresh task ("we expect a retry will go
        # through", §5.2).
        yield from self._finish(ctx, task["task_id"], task["key"], None,
                                retrigger_if_unreplicated=True)

    # -- completion plumbing ------------------------------------------------------------------

    def _finish_replicated(self, ctx, task, version: ObjectVersion,
                           kind: str = "created", own_write: bool = True):
        if self.config.verify_after_finalize:
            # Verify-after-finalize: the destination's ETag must match
            # the content the task set out to replicate *before* the
            # done marker vouches for it forever.  On the clean path
            # both sides are already-cached hash strings.
            verify_from = ctx.now
            verified = version.etag == task["etag"]
            if self.tracer is not None:
                self.tracer.span("verify", "engine", task["task_id"],
                                 verify_from, ctx.now, key=task["key"],
                                 expected=task["etag"], actual=version.etag,
                                 ok=verified)
            if not verified:
                self.stats["finalize_verify_failed"] += 1
                if own_write:
                    # Our own assembly is poisoned: count it, withdraw
                    # it (the destination must not serve bytes nobody
                    # vouches for), and hand the key to a fresh task.
                    # A mismatch on an *adopted* object (the crashed-
                    # finalizer fallback) is a newer task's write, not
                    # corruption — stand down without deleting.
                    self._record_corruption(task, "finalize", "payload")
                    yield ctx.sleep(0.0)
                    try:
                        self.dst_bucket.delete_object(task["key"], ctx.now,
                                                      notify=False)
                    except Exception:
                        pass
                yield from self._finish(ctx, task["task_id"], task["key"],
                                        None, retrigger_if_unreplicated=True)
                return
        if self.health is not None:
            # A completed replication read the source and wrote the
            # destination: both stores answered — the successes that
            # walk a half-open ("store", region) breaker closed.
            self.health.record(("store", self.src_bucket.region.key), True)
            self.health.record(("store", self.dst_bucket.region.key), True)
        if self.tracer is not None:
            self.tracer.event("finalize", "engine", task["task_id"],
                              key=task["key"], seq=task["seq"],
                              etag=task["etag"], fence=task.get("fence"),
                              op="put", loc=ctx.region.key,
                              verified=self.config.verify_after_finalize)
        released = yield from self._mark_and_release(
            ctx, task["task_id"], task["key"],
            DoneMarker(task["etag"], task["seq"], ctx.now), heal=True,
            wrote_etag=task["etag"] if own_write else None)
        plan = None
        if "plan_n" in task:
            plan = Plan(
                n=task["plan_n"], loc_key=task.get("loc_key", ctx.region.key),
                path=(task.get("loc_key", ctx.region.key),
                      self.src_bucket.region.key, self.dst_bucket.region.key),
                predicted_s=task.get("predicted_s", 0.0),
                percentile=self.config.percentile,
                compliant=True, inline=task.get("mode") is None,
                predicted_median_s=task.get("predicted_median_s", 0.0),
            )
        self._record_visible(task["task_id"], TaskResult(
            key=task["key"], etag=task["etag"], seq=task["seq"],
            event_time=task["event_time"], visible_time=ctx.now,
            plan=plan, kind=kind, started=task.get("started", task["event_time"]),
        ))
        yield from self._finish(ctx, task["task_id"], task["key"], task["seq"],
                                released=released)

    def _finish(self, ctx, task_id: str, key: str,
                replicated_seq: Optional[int],
                retrigger_if_unreplicated: bool = False, released=None):
        """Unlock and re-trigger replication of any newer pending version
        (Algorithm 2's UNLOCK).  ``released`` is the outcome of an
        unlock the caller already made (:meth:`_mark_and_release`)."""
        outcome = released
        if outcome is None:
            outcome = yield from self._kv(
                ctx, lambda: self.locks.release(key, owner=task_id))
        if not outcome.released:
            # The lease was stolen while we worked: the record (and any
            # pending registration on it) now belongs to the thief, who
            # owns this key's convergence.  Surface the loss instead of
            # silently no-oping — it is the observable trace of every
            # zombie-writer interleaving.
            self.stats["lock_lost"] += 1
            if self.tracer is not None:
                self.tracer.event("lock-lost", "engine", task_id, key=key)
            return
        pending = outcome.pending
        needs_retrigger = False
        if pending is not None:
            if replicated_seq is None or pending.seq > replicated_seq:
                needs_retrigger = True
        elif retrigger_if_unreplicated:
            # Aborted without a registered pending version: the newer
            # version's own notification may still be in flight, but we
            # re-check the source now to bound the replication delay.
            needs_retrigger = key in self.src_bucket
        if not needs_retrigger:
            return
        try:
            current = yield from ctx.head_object(self.src_bucket, key)
        except NoSuchKey:
            if pending is not None:
                # A newer version was registered while we held the lock,
                # but the object has since been deleted at the source.
                # The pending writer quit when it registered, so nobody
                # else will converge the destination: propagate the
                # deletion (idempotent with the DELETE event's own task).
                self.stats["retriggered"] += 1
                if self.tracer is not None:
                    self.tracer.event("retrigger", "engine", task_id,
                                      key=key, seq=pending.seq,
                                      kind="deleted")
                self._dispatch_event({
                    "kind": "deleted", "key": key, "etag": pending.etag,
                    "seq": pending.seq, "size": 0,
                    "event_time": ctx.now,
                })
            return
        if replicated_seq is not None and current.sequencer <= replicated_seq:
            return
        self.stats["retriggered"] += 1
        if self.tracer is not None:
            self.tracer.event("retrigger", "engine", task_id, key=key,
                              seq=current.sequencer, kind="created")
        self._dispatch_event({
            "kind": "created", "key": key, "etag": current.etag,
            "seq": current.sequencer, "size": current.size,
            "event_time": current.put_time,
        })
