"""Replication consistency auditor — ``fsck`` for a rule.

After (or during) a workload, the auditor walks a rule's buckets and
control state and reports every violated invariant:

* **divergence** — a source object missing or byte-different at the
  destination, or a destination object surviving its source's deletion;
* **silent-divergence** — the destination *reports* the source's ETag
  but its stored bytes differ (bit rot lying to HEAD): the corruption
  an ETag-only diff cannot see, checked here against the stores' true
  content hashes;
* **stale locks** — replication locks still held past their lease
  (a dead task nobody superseded yet); a lock record with no owner
  only carries the key's done marker and is not a lock;
* **done-marker drift** — a done marker recording a sequencer above
  anything the source ever issued (bookkeeping corruption);
* **upload leaks** — multipart uploads on the destination bucket that
  were neither completed nor aborted (real money on real clouds);
* **measurement gaps** — source writes with no resolved measurement.

A healthy, quiescent rule audits clean; the test suite asserts this
after every adversarial workload, and operators would run it after an
incident before trusting a replica for fail-over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.service import AReplicaService, ReplicationRule

__all__ = ["AuditFinding", "AuditReport", "ReplicationAuditor"]


@dataclass(frozen=True)
class AuditFinding:
    """One violated invariant."""

    kind: str  # divergence | silent-divergence | stale-lock | leaked-lock
               # | done-drift | upload-leak | gap
    key: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.kind}] {self.key}: {self.detail}"


@dataclass
class AuditReport:
    """All findings for one rule."""

    rule_id: str
    findings: list[AuditFinding] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings

    def by_kind(self, kind: str) -> list[AuditFinding]:
        return [f for f in self.findings if f.kind == kind]

    def render(self) -> str:
        if self.clean:
            return f"rule {self.rule_id}: clean"
        lines = [f"rule {self.rule_id}: {len(self.findings)} finding(s)"]
        lines += [f"  {f}" for f in self.findings]
        return "\n".join(lines)


class ReplicationAuditor:
    """Audits the rules of one service."""

    def __init__(self, service: AReplicaService):
        self.service = service

    def audit(self, rule: Optional[ReplicationRule] = None,
              quiescent: bool = False) -> AuditReport:
        """Audit ``rule`` (or all rules).

        With ``quiescent=True`` the workload is declared over: every
        surviving lock record is a leak (a correct engine releases all
        locks once traffic stops and retries drain), not just those past
        their lease — this is the convergence check the chaos harness
        runs after the fault storm.
        """
        rules = [rule] if rule is not None else list(self.service.rules.values())
        report = AuditReport("+".join(r.rule_id for r in rules))
        for r in rules:
            self._audit_rule(r, report, quiescent)
        return report

    # -- checks ------------------------------------------------------------

    def _audit_rule(self, rule: ReplicationRule, report: AuditReport,
                    quiescent: bool = False) -> None:
        src, dst = rule.src_bucket, rule.dst_bucket
        now = self.service.cloud.now
        # 1. content divergence
        for key in src.keys():
            if key in dst:
                if dst.head(key).etag != src.head(key).etag:
                    report.findings.append(AuditFinding(
                        "divergence", key, "destination content differs"))
                elif dst.head(key).blob.etag != src.head(key).blob.etag:
                    # Reported ETags agree but the stored bytes do not:
                    # exactly what deep scrub exists to catch.  Both
                    # sides are cached hashes, so the check is free.
                    report.findings.append(AuditFinding(
                        "silent-divergence", key,
                        "destination bytes differ behind a matching "
                        "reported ETag"))
            else:
                report.findings.append(AuditFinding(
                    "divergence", key, "missing at destination"))
        src_keys = set(src.keys())
        for key in dst.keys():
            if key not in src_keys:
                report.findings.append(AuditFinding(
                    "divergence", key, "lingers at destination after delete"))
        # 2. stale locks & 3. done-marker drift.  A lock record outlives
        # its lock when it carries the key's done marker; only records
        # with an owner are locks.
        lock_table = rule.engine._lock_table
        lease = rule.engine.locks.lease_s
        max_seq = src.last_sequencer
        for item_key, item in list(lock_table._items.items()):
            if not item_key.startswith("lock:"):
                continue
            key = item_key[len("lock:"):]
            owner = item.get("owner")
            if owner is not None:
                age = now - item.get("acquired_at", now)
                if quiescent:
                    report.findings.append(AuditFinding(
                        "leaked-lock", key,
                        f"survives quiescence, held {age:.0f}s "
                        f"by {owner!r}"))
                elif age > lease:
                    report.findings.append(AuditFinding(
                        "stale-lock", key, f"held {age:.0f}s by {owner!r}"))
            done_seq = item.get("done_seq")
            if done_seq is not None and done_seq > max_seq:
                report.findings.append(AuditFinding(
                    "done-drift", key,
                    f"marker seq {done_seq} exceeds source seq {max_seq}"))
        # 4. multipart upload leaks at the destination
        for upload_id in dst.pending_uploads():
            report.findings.append(AuditFinding(
                "upload-leak", upload_id,
                "multipart upload never completed or aborted"))
        # 5. measurement gaps
        for key, waiting in rule.outstanding.items():
            for seq, event_time, kind in waiting:
                report.findings.append(AuditFinding(
                    "gap", key,
                    f"{kind} seq {seq} from t={event_time:.1f} never measured"))
