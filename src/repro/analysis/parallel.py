"""The one process pool, and the instance batteries that run on it.

:class:`WorkerPool` is the package's only process pool: the HTTP
service, the benchmark harness and the batteries below all map through
it.  Experiment sweeps (E1/E5-style) are embarrassingly parallel across
instances; :func:`stream_battery` runs a *named* task (the callable
never crosses the process boundary) over a lazily consumed iterable of
instances, and :func:`run_battery` is its list form.

A failing task raises :class:`~repro.util.errors.BatteryTaskError`
naming the task and the offending instance (name and battery index), so
a crash in a large sweep is attributable; the original exception is
chained.
"""

from __future__ import annotations

import os
from collections import deque
from collections.abc import Sized
from concurrent.futures import ProcessPoolExecutor
from importlib import import_module
from itertools import islice
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.instances.io import instance_from_dict, instance_to_dict
from repro.instances.jobs import Instance
from repro.util.errors import BatteryTaskError

#: Most instances one pooled chunk carries.  A sized battery is cut
#: finer, into about ``4 × width`` chunks, so a small one still spreads
#: over every worker; a stream of unknown length is cut at this size.
CHUNK_INSTANCES = 64

#: Registry of tasks a worker can run; values map instance → result dict.
_TASKS = {}


def register_task(name: str):
    """Decorator: make a function available to :func:`run_battery`."""

    def wrap(fn):
        _TASKS[name] = fn
        return fn

    return wrap


@register_task("solve_nested")
def _task_solve_nested(instance: Instance) -> dict[str, Any]:
    from repro.core.algorithm import solve_nested

    result = solve_nested(instance)
    return {
        "active_time": result.active_time,
        "lp_value": result.lp_value,
        "repairs": result.repairs,
    }


@register_task("greedy")
def _task_greedy(instance: Instance) -> dict[str, Any]:
    from repro.baselines.minimal_feasible import minimal_feasible_schedule

    return {
        "active_time": minimal_feasible_schedule(
            instance, "right_to_left"
        ).active_time
    }


@register_task("exact")
def _task_exact(instance: Instance) -> dict[str, Any]:
    from repro.baselines.exact import BudgetExceeded, solve_exact

    try:
        return {"optimum": solve_exact(instance, node_budget=400_000).optimum}
    except BudgetExceeded:
        return {"optimum": None}


@register_task("gaps")
def _task_gaps(instance: Instance) -> dict[str, Any]:
    from repro.baselines.lower_bounds import (
        natural_lp_bound,
        strengthened_lp_bound,
    )

    out: dict[str, Any] = {"natural_lp": natural_lp_bound(instance)}
    if instance.is_laminar:
        out["strengthened_lp"] = strengthened_lp_bound(instance)
    return out


@register_task("profile")
def _task_profile(instance: Instance) -> dict[str, Any]:
    """Near-free shape metrics; isolates instance-supply cost (E17)."""
    return {
        "n": instance.n,
        "volume": sum(j.processing for j in instance.jobs),
        "horizon": instance.horizon.length,
    }


def _run_task(
    task_name: str, instance: Instance, index: int
) -> dict[str, Any]:
    """Run one task, naming the instance if it fails."""
    try:
        return _TASKS[task_name](instance)
    except BatteryTaskError:
        raise
    except Exception as exc:
        raise BatteryTaskError(
            f"task {task_name!r} failed on instance {instance.name!r} "
            f"(battery index {index}): {exc}",
            task=task_name,
            instance=instance.name,
            index=index,
        ) from exc


def _chunk_worker(
    payload: tuple[str, list[tuple[dict, int]]]
) -> list[dict[str, Any]]:
    """Process one chunk of (doc, index) pairs in a single round-trip."""
    task_name, chunk = payload
    return [
        _run_task(task_name, instance_from_dict(doc), index)
        for doc, index in chunk
    ]


def _chunked(
    instances: Iterable[Instance], size: int
) -> Iterator[list[tuple[dict, int]]]:
    """Lazily group an instance stream into serialized (doc, index) chunks."""
    iterator = iter(instances)
    index = 0
    while True:
        block = list(islice(iterator, size))
        if not block:
            return
        chunk = [
            (instance_to_dict(inst), index + k)
            for k, inst in enumerate(block)
        ]
        index += len(block)
        yield chunk


def _chunk_size(instances: Iterable[Instance], width: int) -> int:
    """⌈n / (4 · width)⌉ for a sized battery (capped), else the cap."""
    if not isinstance(instances, Sized):
        return CHUNK_INSTANCES
    return max(1, min(CHUNK_INSTANCES, -(-len(instances) // (4 * width))))


def stream_battery(
    instances: Iterable[Instance],
    task: str,
    *,
    max_workers: int | None = None,
) -> Iterator[dict[str, Any]]:
    """Stream a registered task over an *iterable* of instances.

    Results are yielded in input order.  The input is consumed lazily
    (pair it with :func:`repro.corpus.iter_corpus` to sweep a persistent
    corpus).  Pooled instances cross the process boundary as chunks of
    serialized JSON dicts (cheap and robust to pickle) through
    :meth:`WorkerPool.imap`, which keeps at most ``2 × width`` chunks
    ahead of the consumer, so memory stays bounded no matter how large
    the corpus.

    ``max_workers=1`` runs the task in the calling process with no
    serialization round-trip (useful under debuggers and on single-core
    CI); it is also the deterministic-timing path the E17 benchmark
    measures.  To attribute solver work to a battery, read the
    ``"solver"`` block of a :func:`repro.obs.scope` opened around an
    in-process call.
    """
    if task not in _TASKS:
        raise ValueError(f"unknown task {task!r}; have {sorted(_TASKS)}")
    if max_workers == 1:
        for index, inst in enumerate(instances):
            yield _run_task(task, inst, index)
        return
    with WorkerPool(max_workers) as pool:
        size = _chunk_size(instances, pool.width)
        payloads = ((task, chunk) for chunk in _chunked(instances, size))
        for results in pool.imap(
            "repro.analysis.parallel:_chunk_worker", payloads
        ):
            yield from results


def run_battery(
    instances: Sequence[Instance],
    task: str,
    *,
    max_workers: int | None = None,
) -> list[dict[str, Any]]:
    """Run a registered task over instances; results in input order.

    The list form of :func:`stream_battery`, with the same semantics."""
    return list(stream_battery(instances, task, max_workers=max_workers))


def resolve_worker(spec: str) -> Callable[[Any], Any]:
    """Resolve a ``"package.module:function"`` worker reference."""
    module_name, sep, fn_name = spec.partition(":")
    if not sep or not module_name or not fn_name:
        raise ValueError(
            f"worker spec {spec!r} must look like 'package.module:function'"
        )
    fn = getattr(import_module(module_name), fn_name, None)
    if not callable(fn):
        raise ValueError(f"worker spec {spec!r} does not name a callable")
    return fn


def _dispatch(pair: tuple[str, Any]) -> Any:
    spec, payload = pair
    return resolve_worker(spec)(payload)


class WorkerPool:
    """A process pool addressed by dotted worker references.

    Workers are named ``"package.module:function"`` and resolved inside
    the worker process, so only plain data crosses the process boundary
    and the pool works under both fork and spawn.  ``width`` is
    ``max_workers or os.cpu_count() or 1``.  The executor
    is built on the first pooled map and lives until :meth:`shutdown`
    (or the end of a ``with`` block), so a long-running caller such as
    the HTTP service pays executor startup once, not per request.
    Concurrent :meth:`map` calls from handler threads share the
    executor, which serializes submission internally.

    ``max_workers=1`` never builds an executor: every map runs in the
    calling process with identical semantics (the deterministic path
    tests and single-core deployments use).
    """

    def __init__(self, max_workers: int | None = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = max_workers
        self.width = max_workers or os.cpu_count() or 1
        self._pool: ProcessPoolExecutor | None = None

    def __enter__(self) -> WorkerPool:
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    @property
    def in_process(self) -> bool:
        """True when maps run in the calling process (no pool)."""
        return self.max_workers == 1

    def _executor(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.width)
        return self._pool

    def map(self, worker: str, payloads: Sequence[Any]) -> list[Any]:
        """Run ``worker`` over ``payloads``; results come back in order.

        Every payload is submitted at once, so the parts of one request
        run side by side and none waits on the head part.
        """
        fn = resolve_worker(worker)  # validate eagerly, fail before forking
        if self.in_process:
            return [fn(p) for p in payloads]
        pairs = [(worker, p) for p in payloads]
        return list(self._executor().map(_dispatch, pairs))

    def imap(self, worker: str, payloads: Iterable[Any]) -> Iterator[Any]:
        """Run ``worker`` over a lazily consumed iterable, yielding
        results in order with at most ``2 × width`` payloads in flight."""
        fn = resolve_worker(worker)  # validate eagerly, fail before forking
        if self.in_process:
            return map(fn, payloads)
        return self._windowed(worker, payloads)

    def _windowed(self, worker: str, payloads: Iterable[Any]) -> Iterator[Any]:
        pending: deque = deque()
        try:
            for payload in payloads:
                pending.append(
                    self._executor().submit(_dispatch, (worker, payload))
                )
                if len(pending) == 2 * self.width:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
        finally:  # an abandoned or failed stream starts no more work
            for future in pending:
                future.cancel()

    def shutdown(self) -> None:
        """Tear down the executor (idempotent); maps after this rebuild it."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
