"""Object-granularity replication lock (§5.2, Algorithm 2).

Object storage has no deterministic behaviour for concurrent writes to
the same key, so AReplica serializes replication tasks per object with
a distributed lock in a cloud database (the DynamoDB lock-client
pattern).  While a task holds the lock, later versions of the object
register themselves as *pending* on the lock record (keeping only the
newest, by sequencer).  On release, the unlocker compares the pending
ETag with the ETag it just replicated; a mismatch re-triggers
replication so the newest version is never lost — this is what makes
eventual consistency hold without bucket versioning.

Leases alone are not enough for safety: a holder whose lease expired
(a *zombie* — stalled, not dead) may still be mid-upload when the next
claimant takes over, and without further protection it would finalize
its stale version at the destination *after* the new holder wrote a
newer one.  Each lock record therefore carries a monotonically
increasing **fencing token**, bumped on every change of ownership; a
holder re-validates its token (:meth:`verify`) before any destination
finalize, and :meth:`release` reports whether the caller still owned
the lock so the engine can surface the loss instead of silently
no-oping.

The lock record also carries the key's **done marker** — the newest
replicated (etag, seq, time, op), stored as flat ``done_*`` fields — so
the record persists across tasks once a key has been replicated.
:meth:`lock` hands the marker to the new holder (no separate read), and
:meth:`release` advances it and unlocks in the same update.  Release
clears only the lock fields; it deletes the record only when no marker
was ever recorded, so the next acquire still starts fresh at fence 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.simcloud.kvstore import KvTable

__all__ = ["DoneMarker", "LockOutcome", "PendingVersion", "UnlockOutcome",
           "ReplicationLockManager"]


@dataclass(frozen=True)
class DoneMarker:
    """The newest version a key's tasks replicated (or deleted)."""

    etag: str
    seq: int
    time: float
    op: str = "put"


def _marker(item: Optional[dict]) -> Optional[DoneMarker]:
    if item is None or "done_seq" not in item:
        return None
    return DoneMarker(item["done_etag"], item["done_seq"], item["done_time"],
                      item["done_op"])


@dataclass(frozen=True)
class LockOutcome:
    """Result of a lock attempt."""

    acquired: bool
    #: When not acquired: True if this version was recorded as pending,
    #: False if a newer version was already pending (we can just quit).
    registered_pending: bool = False
    #: The fencing token of the acquired lock (0 when not acquired).
    #: Stable across a holder's re-entrant re-acquisitions — a
    #: platform-retried function resumes with its original token.
    fence: int = 0
    #: True when the acquisition re-entered a record this owner already
    #: held — the platform-retry signal: a crashed predecessor may have
    #: left state (a part pool, a multipart upload) behind.
    reentrant: bool = False
    #: The key's done marker as the lock record held it at admission.
    marker: Optional[DoneMarker] = None


@dataclass(frozen=True)
class PendingVersion:
    """The newest version that arrived while the lock was held."""

    etag: str
    seq: int


@dataclass(frozen=True)
class UnlockOutcome:
    """Result of a release attempt."""

    #: False when the caller no longer owned the lock (lease stolen) —
    #: the zombie-writer signal; nothing was released in that case.
    released: bool
    pending: Optional[PendingVersion] = None
    #: When a marker advance did not land because the record already
    #: held an equal-or-newer marker: that marker.  Nothing was
    #: released in that case either.
    superseded: Optional[DoneMarker] = None


class ReplicationLockManager:
    """Per-object replication locks over a serverless KV table.

    Locks carry a lease (like the DynamoDB lock client): a lock whose
    holder died mid-task (function crash past its auto-retries) is
    stolen by the next claimant once the lease expires, so a single
    failure can never wedge an object's replication forever.
    """

    def __init__(self, table: KvTable, lease_s: float = 300.0,
                 rule_id: str = ""):
        self.table = table
        self.lease_s = lease_s
        #: The owning rule, stamped on ``done-marker`` trace events.
        self.rule_id = rule_id
        #: Optional :class:`~repro.core.tracing.Tracer`; acquire/release
        #: events are emitted *inside* the KV admission closures so
        #: their timestamps are the serialization points the fencing
        #: oracle replays (under injected admission delay those are
        #: later than the call).
        self.tracer = None

    @staticmethod
    def _key(obj_key: str) -> str:
        return f"lock:{obj_key}"

    def lock(self, obj_key: str, etag: str, seq: int, owner: str):
        """Process implementing Algorithm 2's LOCK.

        Returns a :class:`LockOutcome` carrying the key's done marker.
        On contention, the (etag, seq) pair is recorded as pending iff
        it is newer than any pending version already registered.
        """
        state = {"registered": False, "acquired": False, "fence": 0,
                 "reentrant": False, "marker": None}

        def attempt(item):
            # The clock must be read *inside* the closure: the KV store
            # applies it at admission, which under injected admission
            # delay is later than the call.  A timestamp captured before
            # the round-trip would judge a lease unexpired with a stale
            # clock — and symmetrically stamp acquired_at in the past,
            # shortening the new holder's own lease.
            now = self.table.sim.now
            holder = item.get("owner") if item is not None else None
            if (holder is not None and holder != owner
                    and now - item.get("acquired_at", now) <= self.lease_s):
                pending_seq = item.get("pending_seq")
                if pending_seq is None or pending_seq < seq:
                    item["pending_etag"] = etag
                    item["pending_seq"] = seq
                    state["registered"] = True
                return item
            # Fresh acquisition (no record, or only a done marker), lease
            # takeover from a dead holder, or a platform-retried function
            # re-entering its own lock (task ids are deterministic per
            # object version, so a retry resumes rather than deadlocks on
            # itself).  The fence bumps only on ownership *change*: a
            # retried holder keeps its token, so state it persisted
            # before crashing (e.g. a distributed task descriptor) stays
            # valid for the retry.
            reentrant = holder == owner
            fence = (item.get("fence", 0) if reentrant
                     else item.get("fence", 0) + 1 if holder is not None
                     else 1)
            state["acquired"] = True
            state["fence"] = fence
            state["reentrant"] = reentrant
            state["marker"] = _marker(item)
            if self.tracer is not None:
                self.tracer.event(
                    "lock-acquire", "lock", owner, key=obj_key,
                    owner=owner, fence=fence,
                    mode=("reentrant" if reentrant
                          else "takeover" if holder is not None
                          else "fresh"))
            if item is None:
                item = {"pending_etag": None, "pending_seq": None}
            else:
                item.setdefault("pending_etag", None)
                item.setdefault("pending_seq", None)
            item["owner"] = owner
            item["held_etag"] = etag
            item["held_seq"] = seq
            item["acquired_at"] = now
            item["fence"] = fence
            return item

        yield self.table.update_item(self._key(obj_key), attempt)
        return LockOutcome(state["acquired"], state["registered"],
                           state["fence"], state["reentrant"],
                           state["marker"])

    def verify(self, obj_key: str, owner: str, fence: int):
        """Process: does ``owner`` still hold the lock with ``fence``?

        The fencing check a holder performs before irreversible
        destination writes: False means the lease was stolen (or the
        record is gone) and the caller must abort instead of finalizing
        a now-stale version.
        """
        item = yield self.table.get_item(self._key(obj_key))
        return (item is not None and item.get("owner") == owner
                and item.get("fence", 0) == fence)

    def marker(self, obj_key: str):
        """Process: one read of the key's :class:`DoneMarker` (or None)."""
        item = yield self.table.get_item(self._key(obj_key))
        return _marker(item)

    def release(self, obj_key: str, owner: str,
                marker: Optional[DoneMarker] = None):
        """Process implementing Algorithm 2's UNLOCK.

        Returns an :class:`UnlockOutcome`: ``released`` is False when
        the caller no longer owned the lock (its lease was stolen while
        it worked — the engine surfaces this as ``lock_lost`` instead of
        silently ignoring it); ``pending`` carries the newest
        :class:`PendingVersion` registered during the critical section.
        The caller compares the pending ETag with the one it just
        replicated and re-triggers the orchestrator on mismatch.

        With ``marker``, the same update first advances the key's done
        marker, monotonically in seq: an unconditional write would let a
        zombie writer (or any delayed straggler) clobber a newer marker
        with an older version's.  The advance lands even when the lease
        was lost — the destination write it records happened.  When
        the record already holds an equal-or-newer marker, nothing
        changes: the outcome's ``superseded`` carries that marker and
        the lock stays held, so the caller can heal the destination
        before it releases.
        """
        captured: dict[str, Optional[object]] = {
            "etag": None, "seq": None, "released": False, "superseded": None}

        def attempt(item):
            if marker is not None:
                if (item is not None
                        and item.get("done_seq", -1) >= marker.seq):
                    captured["superseded"] = _marker(item)
                    return item
                if item is None:
                    item = {}
                item["done_etag"] = marker.etag
                item["done_seq"] = marker.seq
                item["done_time"] = marker.time
                item["done_op"] = marker.op
                if self.tracer is not None:
                    # Emitted inside the closure: only an advance that
                    # actually lands counts (the checker compares the
                    # newest marker against the destination bucket).
                    self.tracer.event("done-marker", "engine", None,
                                      rule=self.rule_id, key=obj_key,
                                      seq=marker.seq, etag=marker.etag,
                                      op=marker.op)
            if item is None or item.get("owner") != owner:
                # Lost/expired lock: nothing to release; the new owner's
                # lock fields must not be cleared.
                if self.tracer is not None:
                    self.tracer.event("lock-release", "lock", owner,
                                      key=obj_key, owner=owner,
                                      released=False)
                return item
            captured["released"] = True
            captured["etag"] = item.get("pending_etag")
            captured["seq"] = item.get("pending_seq")
            if self.tracer is not None:
                self.tracer.event("lock-release", "lock", owner, key=obj_key,
                                  owner=owner, released=True,
                                  fence=item.get("fence", 0))
            if "done_seq" not in item:
                return None  # delete the lock record
            # Keep only the marker, rebuilt as a fresh dict: one popped
            # down from the held record would keep its larger table.
            return {"done_etag": item["done_etag"],
                    "done_seq": item["done_seq"],
                    "done_time": item["done_time"],
                    "done_op": item["done_op"]}

        yield self.table.update_item(self._key(obj_key), attempt)
        pending = None
        if captured["etag"] is not None:
            pending = PendingVersion(str(captured["etag"]),
                                     int(captured["seq"]))  # type: ignore[arg-type]
        return UnlockOutcome(bool(captured["released"]), pending,
                             captured["superseded"])  # type: ignore[arg-type]

    def unlock(self, obj_key: str, owner: str):
        """Process: release and return just the pending version.

        Thin compatibility wrapper over :meth:`release` for callers that
        only care about Algorithm 2's pending-version hand-off.
        """
        outcome = yield from self.release(obj_key, owner)
        return outcome.pending

    def held(self) -> list[tuple[str, dict]]:
        """Zero-cost scan: ``(obj_key, record)`` for every record that
        has an owner, by key.  Marker-only records are skipped before
        anything is copied — at quiescence they are nearly all of them.
        """
        return sorted((kv_key[len("lock:"):], dict(item))
                      for kv_key, item in self.table._items.items()
                      if item.get("owner") is not None
                      and kv_key.startswith("lock:"))

    def is_locked(self, obj_key: str) -> bool:
        """Zero-cost probe for tests/metrics: a record holding only a
        done marker is not a lock."""
        item = self.table.peek(self._key(obj_key))
        return item is not None and item.get("owner") is not None
