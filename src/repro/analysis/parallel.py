"""Parallel execution of instance batteries.

Experiment sweeps (E1/E5-style) are embarrassingly parallel across
instances; this module fans them out over a process pool.  Workers
receive serialized instances (the JSON dict form — cheap and robust to
pickle across processes) and a *named* task so the callable itself never
crosses the process boundary.  The in-process short-circuit
(``max_workers=1`` or a single instance) skips the serialization
round-trip entirely.

Two fan-out shapes:

* :func:`run_battery` — a materialized sequence of instances, one pool
  round-trip per instance (or per chunk with ``chunk_instances``);
* :func:`stream_battery` — an *iterable* of instances (a corpus stream,
  a generator) consumed lazily: instances are grouped into chunks, each
  chunk crosses the process boundary as one pickled payload, and at most
  a bounded window of chunks is in flight — so a million-instance corpus
  sweep holds ``O(window · chunk)`` instances in memory, not the corpus.

A failing task raises :class:`~repro.util.errors.BatteryTaskError`
naming the task and the offending instance (name and battery index), so
a crash in a large sweep is attributable; the original exception is
chained.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ProcessPoolExecutor
from importlib import import_module
from itertools import islice
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.instances.io import instance_from_dict, instance_to_dict
from repro.instances.jobs import Instance
from repro.util.errors import BatteryTaskError

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


def _worker(payload: tuple[str, dict, int]) -> dict[str, Any]:
    task_name, doc, index = payload
    return _run_task(task_name, instance_from_dict(doc), index)


def _chunk_worker(
    payload: tuple[str, list[tuple[dict, int]]]
) -> list[dict[str, Any]]:
    """Process one chunk of (doc, index) pairs in a single round-trip."""
    task_name, chunk = payload
    return [
        _run_task(task_name, instance_from_dict(doc), index)
        for doc, index in chunk
    ]


def run_battery(
    instances: Sequence[Instance],
    task: str,
    *,
    max_workers: int | None = None,
    chunk_instances: int | None = None,
) -> list[dict[str, Any]]:
    """Run a registered task over instances with a process pool.

    Results come back in input order.  ``max_workers=1`` short-circuits
    to in-process execution (useful under debuggers and on single-core
    CI) without any serialization round-trip, keeping behaviour
    identical.  To attribute solver work to a battery, take
    :func:`repro.obs.delta` of :func:`repro.solver.solver_stats` around
    an in-process (``max_workers=1``) call.

    ``chunk_instances=k`` switches to the chunked transport of
    :func:`stream_battery` (one pickled payload per ``k`` instances
    instead of one per instance) — same results, same order, same error
    semantics; the per-instance path stays the default so existing
    callers are untouched.
    """
    if chunk_instances is not None:
        return list(
            stream_battery(
                instances,
                task,
                chunk_instances=chunk_instances,
                max_workers=max_workers,
            )
        )
    if task not in _TASKS:
        raise ValueError(f"unknown task {task!r}; have {sorted(_TASKS)}")
    if max_workers == 1 or len(instances) <= 1:
        return [
            _run_task(task, inst, idx) for idx, inst in enumerate(instances)
        ]
    payloads = [
        (task, instance_to_dict(inst), idx)
        for idx, inst in enumerate(instances)
    ]
    with ProcessPoolExecutor(max_workers=max_workers) as pool:
        return list(pool.map(_worker, payloads))


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


def stream_battery(
    instances: Iterable[Instance],
    task: str,
    *,
    chunk_instances: int = 64,
    max_workers: int | None = None,
    inflight_chunks: int | None = None,
) -> Iterator[dict[str, Any]]:
    """Stream a registered task over an *iterable* of instances.

    The corpus-scale sibling of :func:`run_battery`: the input is
    consumed lazily (pair it with
    :func:`repro.corpus.iter_corpus` to sweep a persistent corpus), each
    chunk of ``chunk_instances`` crosses the pool boundary as one
    payload, and at most ``inflight_chunks`` (default ``2 ×`` the pool
    width) chunks are submitted ahead of the consumer — memory stays
    bounded no matter how large the corpus.  Results are yielded in
    input order with semantics identical to :func:`run_battery`,
    including :class:`~repro.util.errors.BatteryTaskError` context.

    ``max_workers=1`` short-circuits to in-process streaming (no
    serialization, no pool), which is also the deterministic-timing path
    the E17 benchmark measures.
    """
    if task not in _TASKS:
        raise ValueError(f"unknown task {task!r}; have {sorted(_TASKS)}")
    if chunk_instances < 1:
        raise ValueError("chunk_instances must be >= 1")

    if max_workers == 1:
        for index, inst in enumerate(instances):
            yield _run_task(task, inst, index)
        return

    with ProcessPoolExecutor(max_workers=max_workers) as pool:
        window = inflight_chunks or 2 * (pool._max_workers or 1)
        pending: deque = deque()
        chunks = _chunked(instances, chunk_instances)
        exhausted = False
        while True:
            while not exhausted and len(pending) < window:
                chunk = next(chunks, None)
                if chunk is None:
                    exhausted = True
                    break
                pending.append(
                    pool.submit(_chunk_worker, (task, chunk))
                )
            if not pending:
                return
            yield from pending.popleft().result()


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
    """A persistent process pool speaking the :func:`run_jobs` transport.

    :func:`run_jobs` builds (and tears down) an executor per call, which
    is right for batch sweeps but wrong for a long-running caller — the
    HTTP service maps many small requests and must not pay executor
    startup per request.  A :class:`WorkerPool` keeps one
    :class:`~concurrent.futures.ProcessPoolExecutor` alive across
    :meth:`map` calls; workers are still addressed by dotted
    ``"package.module:function"`` reference and only plain data crosses
    the process boundary, so the pool works under both fork and spawn.

    ``max_workers=1`` never builds an executor: every :meth:`map` runs
    in the calling process with identical semantics (the deterministic
    path tests and single-core deployments use).  The pool is lazy (the
    executor is created on first pooled :meth:`map`) and thread-safe in
    the way the service needs: concurrent :meth:`map` calls from
    handler threads share the executor, which serializes submission
    internally.
    """

    def __init__(self, max_workers: int | None = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = max_workers
        self._pool: ProcessPoolExecutor | None = None

    @property
    def in_process(self) -> bool:
        """True when maps run in the calling process (no pool)."""
        return self.max_workers == 1

    def _executor(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
        return self._pool

    def map(self, worker: str, payloads: Sequence[Any]) -> list[Any]:
        """Run ``worker`` over ``payloads``; results come back in order."""
        fn = resolve_worker(worker)  # validate eagerly, fail before forking
        if self.in_process:
            return [fn(p) for p in payloads]
        pairs = [(worker, p) for p in payloads]
        return list(self._executor().map(_dispatch, pairs))

    def shutdown(self) -> None:
        """Tear down the executor (idempotent); maps after this rebuild it."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None


def run_jobs(
    worker: str,
    payloads: Sequence[Any],
    *,
    max_workers: int | None = None,
) -> list[Any]:
    """Map a picklable-payload worker over a process pool.

    The generic sibling of :func:`run_battery` for work that is not an
    instance battery (the benchmark harness fans out whole benchmarks
    through it).  ``worker`` is a dotted reference resolved *inside*
    each worker process, so nothing but plain data crosses the process
    boundary and the pool works under both fork and spawn start
    methods.  ``max_workers=1`` (or a single payload) short-circuits to
    in-process execution with identical semantics.
    """
    fn = resolve_worker(worker)  # validate eagerly, fail before forking
    if max_workers == 1 or len(payloads) <= 1:
        return [fn(p) for p in payloads]
    pairs = [(worker, p) for p in payloads]
    with ProcessPoolExecutor(max_workers=max_workers) as pool:
        return list(pool.map(_dispatch, pairs))
