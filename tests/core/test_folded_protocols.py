"""The folded control-plane protocols: one KV update per step.

A distributed task's coordination — claims, the done-set, the abort
flag, the janitor and finalizer leases — lives in its one ``pool:``
record, and an object's done marker lives in its ``lock:`` record.
These tests pin the protocol properties that folding must keep, the
exact KV-op budget of a few canonical scenarios, and the stand-down of
a worker whose pool was abandoned under a finished task.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.audit import ReplicationAuditor
from repro.core.config import ReplicaConfig
from repro.core.locks import DoneMarker, ReplicationLockManager
from repro.core.partpool import PartPool, PoolSnapshot
from repro.core.service import AReplicaService
from repro.core.tracing import Tracer
from repro.simcloud.cloud import build_default_cloud
from repro.simcloud.objectstore import Blob

KB = 1024
MB = 1024 * KB


def _table(seed=0):
    cloud = build_default_cloud(seed=seed)
    return cloud, cloud.kv_table("aws:us-east-1", "state")


def _run(cloud, gen):
    return cloud.sim.run_process(gen)


# -- the part pool ------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(num_parts=st.integers(1, 12), workers=st.integers(1, 5),
       durations=st.lists(st.floats(0.01, 3.0), min_size=1, max_size=24),
       crash_after=st.lists(st.one_of(st.none(), st.integers(0, 4)),
                            min_size=5, max_size=5))
def test_pool_under_random_worker_interleavings(num_parts, workers,
                                                durations, crash_after):
    """Workers follow the folded protocol (first claim, then completions
    that claim the next part) with random part durations; some crash
    after a random number of parts, abandoning the part they hold."""
    cloud, table = _table()
    pool = PartPool(table, "t", num_parts, janitor_lease_s=1e6,
                    finalizer_lease_s=1e6)
    handed: list[int] = []
    abandoned: set[int] = set()
    finished: list[str] = []
    drained: list[tuple[str, PoolSnapshot]] = []

    def worker(i):
        me = f"w{i}"
        step = yield from pool.claim(me)
        done = 0
        while type(step) is int:
            handed.append(step)
            if crash_after[i] is not None and done == crash_after[i]:
                abandoned.add(step)
                return
            yield cloud.sim.sleep(durations[(i + done) % len(durations)])
            done += 1
            outcome = yield from pool.complete_part(step, me, claim_next=True)
            if outcome.finished:
                assert outcome.next is None
                finished.append(me)
                return
            step = outcome.next
        drained.append((me, step))

    def main():
        yield from pool.create()
        yield cloud.sim.all_of([cloud.sim.spawn(worker(i))
                                for i in range(workers)])

    _run(cloud, main())
    # Every part index is handed out exactly once.
    assert sorted(handed) == list(range(min(num_parts, len(handed))))
    assert len(handed) == len(set(handed))
    record = pool.peek_progress()
    # ``finished`` is observed exactly once — and only when nothing was
    # abandoned — and the finisher holds the finalizer lease.
    if abandoned or len(handed) < num_parts:
        assert finished == []
    else:
        assert len(finished) == 1
        assert record["finalizer"] == finished[0]
    # At most one live janitor and one live finalizer.
    assert sum(snap.janitor_lease for _me, snap in drained) <= 1
    assert sum(snap.finalizer_lease for _me, snap in drained) == 0
    for _me, snap in drained:
        assert isinstance(snap, PoolSnapshot) and not snap.aborted
        # Abandoned parts stay missing in every drained snapshot.
        assert abandoned <= set(snap.missing)
    if abandoned and drained:
        # Someone drained while a part was orphaned: one of them stays.
        assert record["janitor"] in {me for me, _snap in drained}


@settings(max_examples=40, deadline=None)
@given(num_parts=st.integers(1, 10), data=st.data())
def test_drained_snapshot_missing_is_complement_of_done_set(num_parts, data):
    done = data.draw(st.sets(st.integers(0, num_parts - 1)))
    cloud, table = _table()
    pool = PartPool(table, "t", num_parts)

    def main():
        yield from pool.create()
        for _ in range(num_parts):
            yield from pool.claim()
        for idx in sorted(done):
            yield from pool.complete(idx)
        return (yield from pool.claim("w0"))

    snap = _run(cloud, main())
    assert snap.missing == tuple(sorted(set(range(num_parts)) - done))
    if snap.missing:
        assert snap.janitor_lease and not snap.finalizer_lease
    else:
        # Completions without an owner leave the finalizer lease free.
        assert snap.finalizer_lease and not snap.janitor_lease


def test_expired_janitor_and_finalizer_leases_hand_over():
    cloud, table = _table()
    pool = PartPool(table, "t", 2, janitor_lease_s=30.0,
                    finalizer_lease_s=60.0)

    def main():
        yield from pool.create()
        first = yield from pool.claim("w0")
        yield from pool.claim("w1")
        a = yield from pool.claim("w0")          # janitor won
        b = yield from pool.claim("w1")          # lease live: lost
        again = yield from pool.claim("w0")      # re-entrant
        yield cloud.sim.sleep(31.0)
        c = yield from pool.claim("w1")          # expired: handed over
        yield from pool.complete_part(first, "w0")
        last = yield from pool.complete_part(1, "w2")
        d = yield from pool.claim("w1")          # finalizer live: lost
        yield cloud.sim.sleep(61.0)
        e = yield from pool.claim("w1")          # expired: handed over
        return a, b, again, c, last, d, e

    a, b, again, c, last, d, e = _run(cloud, main())
    assert a.janitor_lease and not b.janitor_lease and again.janitor_lease and c.janitor_lease
    assert last.finished and last.next is None
    assert d.missing == () and not d.finalizer_lease
    assert e.finalizer_lease
    assert pool.peek_progress()["finalizer"] == "w1"


def test_one_update_per_part_plus_one_per_worker():
    cloud, table = _table()
    pool = PartPool(table, "t", 5)

    def worker():
        step = yield from pool.claim("w0")
        while type(step) is int:
            outcome = yield from pool.complete_part(step, "w0",
                                                    claim_next=True)
            if outcome.finished:
                return
            step = outcome.next

    def main():
        yield from pool.create()
        yield from worker()

    _run(cloud, main())
    # 1 create + 1 first claim + 5 completions (each claims the next).
    assert table.op_counts == {"read": 0, "write": 7}


# -- locks carrying the done marker ----------------------------------------------


def test_acquire_after_release_is_fresh_and_returns_the_marker():
    cloud, table = _table()
    mgr = ReplicationLockManager(table, rule_id="r")
    mgr.tracer = Tracer(cloud.sim)
    marker = DoneMarker("e1", 1, 0.0)

    def main():
        yield from mgr.lock("k", "e1", 1, owner="a")
        released = yield from mgr.release("k", "a", marker)
        second = yield from mgr.lock("k", "e2", 2, owner="b")
        return released, second

    released, second = _run(cloud, main())
    assert released.released and released.superseded is None
    assert second.acquired and second.fence == 1 and not second.reentrant
    assert second.marker == marker
    modes = [e.attrs["mode"] for e in mgr.tracer.events
             if e.name == "lock-acquire"]
    assert modes == ["fresh", "fresh"]
    assert mgr.is_locked("k")


def test_release_on_a_lost_lease_still_advances_the_marker():
    cloud, table = _table()
    mgr = ReplicationLockManager(table, lease_s=10.0)

    def main():
        yield from mgr.lock("k", "e1", 1, owner="zombie")
        yield cloud.sim.sleep(11.0)
        thief = yield from mgr.lock("k", "e2", 2, owner="thief")
        late = yield from mgr.release("k", "zombie", DoneMarker("e1", 1, 5.0))
        return thief, late

    thief, late = _run(cloud, main())
    assert thief.acquired and thief.fence == 2
    assert not late.released and late.superseded is None
    record = table.peek("lock:k")
    assert record["owner"] == "thief"
    assert (record["done_etag"], record["done_seq"]) == ("e1", 1)


def test_superseded_advance_does_not_release():
    cloud, table = _table()
    mgr = ReplicationLockManager(table)

    def main():
        yield from mgr.lock("k", "e5", 5, owner="a")
        yield from mgr.release("k", "a", DoneMarker("e5", 5, 1.0))
        yield from mgr.lock("k", "e3", 3, owner="b")
        stale = yield from mgr.release("k", "b", DoneMarker("e3", 3, 2.0))
        held = mgr.is_locked("k")
        plain = yield from mgr.release("k", "b")
        return stale, held, plain

    stale, held, plain = _run(cloud, main())
    assert not stale.released
    assert stale.superseded == DoneMarker("e5", 5, 1.0)
    assert held
    assert plain.released and not mgr.is_locked("k")
    assert table.peek("lock:k") == {"done_etag": "e5", "done_seq": 5,
                                    "done_time": 1.0, "done_op": "put"}


def test_release_without_a_marker_deletes_the_record():
    cloud, table = _table()
    mgr = ReplicationLockManager(table)

    def main():
        yield from mgr.lock("k", "e", 1, owner="a")
        yield from mgr.release("k", "a")

    _run(cloud, main())
    assert table.peek("lock:k") is None


# -- the auditor ---------------------------------------------------------------


def _service(seed, dst_key="aws:us-east-2"):
    cloud = build_default_cloud(seed=seed)
    svc = AReplicaService(cloud, ReplicaConfig(profile_samples=5,
                                               mc_samples=300))
    src = cloud.bucket("aws:us-east-1", "src")
    dst = cloud.bucket(dst_key, "dst")
    rule = svc.add_rule(src, dst)
    return cloud, svc, src, dst, rule


def test_marker_only_record_is_not_a_leaked_lock():
    cloud, svc, src, dst, rule = _service(1401)
    src.put_object("k", Blob.fresh(MB), cloud.now)
    cloud.run()
    record = rule.engine._lock_table.peek("lock:k")
    assert record is not None and "owner" not in record
    assert not rule.engine.locks.is_locked("k")
    assert rule.engine.reclaim_stranded_locks() == 0
    report = ReplicationAuditor(svc).audit(quiescent=True)
    assert report.clean, report.render()


def test_marker_above_source_seq_is_done_drift():
    cloud, svc, src, dst, rule = _service(1402)
    src.put_object("k", Blob.fresh(MB), cloud.now)
    cloud.run()
    table = rule.engine._lock_table
    table._items["lock:k"]["done_seq"] = src.last_sequencer + 5
    report = ReplicationAuditor(svc).audit(quiescent=True)
    [finding] = report.findings
    assert (finding.kind, finding.key) == ("done-drift", "k")


# -- exact KV-op budgets ------------------------------------------------------------


def _op_counts(cloud):
    return {f"{region}/{name}": dict(table.op_counts)
            for (region, name), table in cloud._kv.items()}


def _delta(before, after):
    out = {}
    for table, ops in after.items():
        moved = {op: n - before.get(table, {}).get(op, 0)
                 for op, n in ops.items()}
        if any(moved.values()):
            out[table] = moved
    return out


STATE = "aws:us-east-1/areplica-state-rule1"
CHANGELOG = "aws:us-east-1/areplica-changelog"


def test_kv_op_budgets_of_canonical_scenarios():
    """Per-table KV ops of one inline PUT, one DELETE and one forced
    distributed object.  A change that adds a round trip fails here."""
    cloud, svc, src, dst, rule = _service(1403, dst_key="azure:eastus")
    assert rule.rule_id == "rule1"

    before = _op_counts(cloud)
    src.put_object("small", Blob.fresh(64 * KB), cloud.now)
    cloud.run()
    put = _delta(before, _op_counts(cloud))
    assert put == {
        CHANGELOG: {"read": 1, "write": 0},   # changelog lookup
        STATE: {"read": 0, "write": 2},       # lock (returns the marker);
                                              # marker advance + unlock
    }

    before = _op_counts(cloud)
    src.delete_object("small", cloud.now)
    cloud.run()
    delete = _delta(before, _op_counts(cloud))
    assert delete == {
        STATE: {"read": 0, "write": 2},       # lock; marker advance + unlock
    }

    # 64 MB in 8 MB parts, four workers, executed at the source region
    # (so the part pool shares the lock table).
    rule.engine.forced_plan = (4, "aws:us-east-1")
    before = _op_counts(cloud)
    src.put_object("big", Blob.fresh(64 * MB), cloud.now)
    cloud.run()
    dist = _delta(before, _op_counts(cloud))
    assert rule.engine.stats["distributed"] == 1
    assert dst.head("big").etag == src.head("big").etag
    assert dist == {
        CHANGELOG: {"read": 1, "write": 0},   # changelog lookup
        STATE: {
            # 1 janitor poll of the pool while the last parts are in
            # flight.
            "read": 1,
            # 1 lock, 1 pool create, 4 first claims, 8 completions (each
            # claiming the next part or returning the drained snapshot),
            # 1 janitor's finalizer-lease attempt once the poll sees
            # every part done, 1 marker advance + unlock.
            "write": 16,
        },
    }


# -- an abandoned pool under a finished task ---------------------------------------


def test_worker_of_an_abandoned_pool_stands_down():
    """The upload is gone and the pool was never aborted, but the done
    marker covers the task (a retried orchestrator finished the version
    through another pool).  A worker or hedge clone of the old pool must
    stand down instead of dead-lettering on every redrive."""
    cloud, svc, src, dst, rule = _service(1404, dst_key="azure:eastus")
    engine = rule.engine
    engine.forced_plan = (2, "aws:us-east-1")
    src.put_object("k", Blob.fresh(32 * MB), cloud.now)
    cloud.run()
    assert dst.head("k").etag == src.head("k").etag
    state = engine._state_table("aws:us-east-1")
    [(pool_key, record)] = state.peek_prefix("pool:")
    task = record["task"]
    # Forge the abandoned pool: nothing claimed or done, never aborted,
    # and its multipart upload already completed (gone).
    state._items[pool_key] = {"num_parts": record["num_parts"], "claimed": 0,
                              "completed": 0, "aborted": False,
                              "task": task}
    faas = cloud.faas("aws:us-east-1")
    worker = faas.invoke_and_forget(engine._rep_name,
                                    dict(task, worker_index=0))
    clone = faas.invoke_and_forget(engine._rep_name, dict(
        task, mode="hedge-clone", hedge_part=1, hedge_seq=1,
        worker_index="hedge1"))
    cloud.run()
    assert worker.done and worker.exception is None
    assert clone.done and clone.exception is None
    assert clone.value["status"] == "aborted"
    assert faas.dead_letters == []
    report = svc.run_to_convergence()
    assert report.converged and report.redriven == 0
