"""Per-layer timers for the traced run.

Each ``src/repro`` module is one layer.  :class:`LayerTracer` installs
class-level wrappers around the public entry points of every layer,
records one span (layer, start, end, parent) per call, and takes them
all out again on exit.  Nothing under ``src/`` is edited: the wrappers
live here and only exist while the tracer is installed.

Two kinds of work run inside the kernel rather than under a public
call, so they are wrapped where they enter it:

* process bodies -- ``Simulator.spawn`` wraps the generator so that
  every resume is a span of the module that defines the generator
  function (engine code would otherwise show up as kernel time);
* kernel callbacks -- ``call_at``, ``schedule_call`` and
  ``Future.add_callback`` wrap callables defined outside the kernel the
  same way.

A layer's self time is its spans' duration minus the time their child
spans cover.  Wall time of the traced segment that no span covers is
charged to ``other``, as is every module without a layer of its own.

The wrappers must not change what the program does: they draw no
random numbers, schedule nothing and pass every value and exception
through unchanged.  The benchmark checks this on every traced run by
comparing its simulated outputs with an untraced run of the same input.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

__all__ = ["LAYERS", "LayerTracer"]

#: Layer of each module; any other module is ``other``.
LAYER_OF_MODULE = {
    "repro.simcloud.sim": "sim",
    "repro.core.engine": "engine",
    "repro.core.planner": "planner",
    "repro.core.model": "planner",
    "repro.simcloud.faas": "faas",
    "repro.simcloud.kvstore": "kvstore",
    "repro.simcloud.objectstore": "objectstore",
    "repro.simcloud.network": "network",
    "repro.core.partpool": "partpool",
    "repro.core.locks": "locks",
    "repro.core.health": "health",
    "repro.simcloud.cost": "cost",
    "repro.simcloud.notifications": "notifications",
    "repro.core.tracing": "tracing",
    "repro.traces.replay": "replay",
}

LAYERS = ("sim", "engine", "planner", "faas", "kvstore", "objectstore",
          "network", "partpool", "locks", "health", "cost",
          "notifications", "tracing", "replay", "other")
_LAYER_ID = {name: i for i, name in enumerate(LAYERS)}
_OTHER = _LAYER_ID["other"]
_SIM = _LAYER_ID["sim"]

#: (layer, module, class, methods) -- the public entry points timed as
#: spans of ``layer``.  Every call is also counted as
#: ``"<Class>.<method>"``.  ``FunctionContext._leg_seconds`` is the one
#: private name: the FaaS data path computes its network legs there.
ENTRY_POINTS = (
    ("sim", "repro.simcloud.sim", "Simulator", ("run",)),
    ("planner", "repro.core.planner", "StrategyPlanner",
     ("generate", "fastest")),
    ("faas", "repro.simcloud.faas", "FaasRegion",
     ("invoke", "invoke_and_forget", "redrive_dead_letters")),
    ("faas", "repro.simcloud.faas", "FunctionContext",
     ("get_object", "head_object", "get_object_fused", "put_object_fused",
      "put_object", "delete_object", "copy_object", "initiate_multipart",
      "upload_part", "complete_multipart", "invoke")),
    ("network", "repro.simcloud.faas", "FunctionContext", ("_leg_seconds",)),
    ("network", "repro.simcloud.network", "NetworkFabric",
     ("sample_startup", "sample_transfer_seconds")),
    ("kvstore", "repro.simcloud.kvstore", "KvTable",
     ("get_item", "put_item", "delete_item", "conditional_put",
      "put_if_absent", "update_item", "increment")),
    ("objectstore", "repro.simcloud.objectstore", "Bucket",
     ("put_object", "delete_object", "copy_object", "compose_objects",
      "get_object", "head", "current_etag", "initiate_multipart",
      "upload_part", "complete_multipart", "abort_multipart")),
    ("partpool", "repro.core.partpool", "PartPool",
     ("create", "claim", "complete", "complete_part", "mark_quarantined",
      "try_reclaim", "part_state", "abort", "is_aborted")),
    ("locks", "repro.core.locks", "ReplicationLockManager",
     ("lock", "verify", "release", "unlock")),
    ("health", "repro.core.health", "HealthTracker",
     ("record", "available", "state")),
    ("cost", "repro.simcloud.cost", "CostLedger", ("charge",)),
    ("notifications", "repro.simcloud.notifications", "NotificationBus",
     ("sample_delay",)),
    ("tracing", "repro.core.tracing", "Tracer", ("span", "event")),
)


class LayerTracer:
    """Installs the layer wrappers; records spans and call counts.

    Use as a context manager around a whole run (set-up included, so
    that bound methods captured during set-up are wrapped too), and set
    :attr:`active` only around the segment to be measured.  While
    inactive, every wrapper calls straight through.
    """

    def __init__(self) -> None:
        self.active = False
        self.counts: Counter[str] = Counter()
        #: ConditionFailed answers from the KV store.
        self.kv_cond_fails = 0
        #: Lock attempts that found the lock held by someone else.
        self.lock_contended = 0
        #: Part count of every part pool claimed from, by task.
        self._pool_parts: dict[str, int] = {}
        #: Bytes moved on data-path legs that cross regions.
        self.wan_bytes = 0
        self._names = array("b")
        self._starts = array("d")
        self._ends = array("d")
        self._parents = array("l")
        self._stack = [-1]
        self._layer_of_file: dict[str, int] = {}
        self._saved: list[tuple[type, str, Any]] = []
        self._cond_failed: Optional[type] = None

    # -- spans -------------------------------------------------------------

    def _open(self, layer: int) -> None:
        self._stack.append(len(self._names))
        self._names.append(layer)
        self._parents.append(self._stack[-2])
        self._ends.append(0.0)
        self._starts.append(time.perf_counter())

    def _close(self) -> None:
        self._ends[self._stack.pop()] = time.perf_counter()

    @property
    def span_count(self) -> int:
        return len(self._names)

    @property
    def pool_parts(self) -> int:
        """Parts in the part pools that saw at least one claim."""
        return sum(self._pool_parts.values())

    def self_seconds(self) -> dict[str, float]:
        """Exclusive seconds per layer over every span recorded."""
        names = np.frombuffer(self._names, dtype=np.int8)
        parents = np.frombuffer(self._parents, dtype=np.int64)
        duration = (np.frombuffer(self._ends, dtype=np.float64)
                    - np.frombuffer(self._starts, dtype=np.float64))
        nested = parents >= 0
        covered = np.bincount(parents[nested], weights=duration[nested],
                              minlength=len(names))
        own = np.bincount(names, weights=duration - covered,
                          minlength=len(LAYERS))
        return {layer: float(own[i]) for i, layer in enumerate(LAYERS)}

    def write_spans(self, path: Path) -> None:
        """Write every span as NumPy arrays (``.npz``)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, layers=np.array(LAYERS),
                 layer=np.frombuffer(self._names, dtype=np.int8),
                 start=np.frombuffer(self._starts, dtype=np.float64),
                 end=np.frombuffer(self._ends, dtype=np.float64),
                 parent=np.frombuffer(self._parents, dtype=np.int64))

    def timed(self, gen, layer: int, on_return=None):
        """Generator wrapper: every resume of ``gen`` is one span."""
        value: Any = None
        exc: Optional[BaseException] = None
        while True:
            self._open(layer)
            try:
                target = gen.send(value) if exc is None else gen.throw(exc)
            except StopIteration as stop:
                self._close()
                if on_return is not None:
                    on_return(stop.value)
                return stop.value
            except BaseException:
                self._close()
                raise
            self._close()
            exc = None
            try:
                value = yield target
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as err:  # noqa: BLE001 - forwarded
                value, exc = None, err

    def layer_of(self, code) -> int:
        """Layer of the module whose file defines ``code``."""
        layer = self._layer_of_file.get(code.co_filename)
        return _OTHER if layer is None else layer

    # -- install / remove --------------------------------------------------

    def __enter__(self) -> "LayerTracer":
        observers = self._observers()
        for layer, module, cls_name, methods in ENTRY_POINTS:
            cls = getattr(importlib.import_module(module), cls_name)
            for method in methods:
                key = f"{cls_name}.{method}"
                self._patch(cls, method, self._wrap(
                    _LAYER_ID[layer], key, getattr(cls, method),
                    observers.get(key)))
        for module, layer in LAYER_OF_MODULE.items():
            path = importlib.import_module(module).__file__
            self._layer_of_file[path] = _LAYER_ID[layer]
        from repro.simcloud.kvstore import ConditionFailed
        from repro.simcloud.sim import Future, Simulator

        self._cond_failed = ConditionFailed
        self._patch_kernel(Simulator, Future)
        return self

    def __exit__(self, *exc_info) -> None:
        for cls, name, original in reversed(self._saved):
            setattr(cls, name, original)
        self._saved.clear()
        self.active = False

    def _patch(self, cls: type, name: str, wrapper: Callable) -> None:
        self._saved.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, wrapper)

    def _wrap(self, layer: int, key: str, fn: Callable,
              observe: Optional[Callable[[tuple, Any], None]]) -> Callable:
        """``fn`` timed as a span of ``layer`` and counted as ``key``;
        ``observe(args, result)`` sees each call's outcome."""
        counts = self.counts
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                if not self.active:
                    return gen
                counts[key] += 1
                on_return = None if observe is None else (
                    lambda value: observe(args, value))
                return self.timed(gen, layer, on_return)
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            counts[key] += 1
            self._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if observe is not None:
                observe(args, result)
            return result
        return wrapper

    def _observers(self) -> dict[str, Callable[[tuple, Any], None]]:
        """Outcome hooks for the counters that need a call's result."""
        def kv_result(_args, result) -> None:
            # Admitted answers carry their outcome; delayed admissions
            # (chaos) return a future that settles later.
            if hasattr(result, "exc"):
                self._count_cond_fail(result.exc)
            else:
                result.add_callback(
                    lambda fut: self._count_cond_fail(fut.exception))

        def lock_result(_args, outcome) -> None:
            if not outcome.acquired:
                self.lock_contended += 1

        def pool_claimed(args, _value) -> None:
            pool = args[0]
            self._pool_parts[pool.task_id] = pool.num_parts

        def leg(args, _seconds) -> None:
            ctx, bucket, nbytes = args[0], args[1], args[2]
            if bucket.region.key != ctx.region.key:
                self.wan_bytes += nbytes

        def fabric_transfer(args, _seconds) -> None:
            _fabric, exec_region, src, dst, nbytes = args[:5]
            if exec_region.key != src.key:
                self.wan_bytes += nbytes
            if exec_region.key != dst.key:
                self.wan_bytes += nbytes

        observers = {f"KvTable.{op}": kv_result for op in (
            "get_item", "put_item", "delete_item", "conditional_put",
            "put_if_absent", "update_item", "increment")}
        observers.update({
            "ReplicationLockManager.lock": lock_result,
            "PartPool.claim": pool_claimed,
            "FunctionContext._leg_seconds": leg,
            "NetworkFabric.sample_transfer_seconds": fabric_transfer,
        })
        return observers

    def _count_cond_fail(self, exc: Optional[BaseException]) -> None:
        if type(exc) is self._cond_failed:
            self.kv_cond_fails += 1

    def _patch_kernel(self, simulator: type, future: type) -> None:
        """Attribute process resumes and kernel callbacks to the module
        that defines them."""
        spawn = simulator.spawn
        call_at = simulator.call_at
        schedule_call = simulator.schedule_call
        add_callback = future.add_callback
        counts = self.counts

        def spawned(sim, gen, name: str = "", eager: bool = False):
            if not self.active:
                return spawn(sim, gen, name=name, eager=eager)
            counts["Simulator.spawn"] += 1
            # Keep the name the kernel would derive from the real body.
            name = name or getattr(gen, "__name__", "process")
            code = getattr(gen, "gi_code", None)
            layer = _OTHER if code is None else self.layer_of(code)
            return spawn(sim, self.timed(gen, layer), name=name, eager=eager)

        def callback(fn: Callable) -> Callable:
            """``fn`` timed as a span of its own module (kernel-defined
            callbacks are left alone: they are kernel self time)."""
            code = getattr(fn, "__code__", None) or getattr(
                getattr(fn, "__func__", None), "__code__", None)
            layer = _SIM if code is None else self.layer_of(code)
            if layer == _SIM:
                return fn

            def timed_callback(*args):
                self._open(layer)
                try:
                    return fn(*args)
                finally:
                    self._close()
            return timed_callback

        def timed_call_at(sim, when: float, fn: Callable):
            if self.active:
                fn = callback(fn)
            return call_at(sim, when, fn)

        def timed_schedule_call(sim, delay: float, fn: Callable,
                                a: Any = None, b: Any = None) -> None:
            if self.active:
                fn = callback(fn)
            schedule_call(sim, delay, fn, a, b)

        def timed_add_callback(fut, fn: Callable) -> None:
            if self.active:
                fn = callback(fn)
            add_callback(fut, fn)

        self._patch(simulator, "spawn", functools.wraps(spawn)(spawned))
        self._patch(simulator, "call_at",
                    functools.wraps(call_at)(timed_call_at))
        self._patch(simulator, "schedule_call",
                    functools.wraps(schedule_call)(timed_schedule_call))
        self._patch(future, "add_callback",
                    functools.wraps(add_callback)(timed_add_callback))
