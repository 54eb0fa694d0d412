"""From-scratch reference implementations the fast paths are checked against.

Production code has one path per layer; the implementations those paths
replaced live here as test oracles: the from-scratch flow probers
(:class:`ReferenceFlowProber`, and :class:`DifferentialFlowProber`,
which runs both and raises :class:`FlowMismatchError` on disagreement),
the LP oracles: :func:`literal_lp`, LP (1) unreduced, whose optimum
:func:`~repro.lp.nested_lp.build_nested_lp` must match, and the
per-interval :func:`reference_cw_lp`, which must compile to the same
model as :func:`~repro.lp.cw_lp.build_cw_lp`, and the per-slot schedule paths:
:func:`spread_units` / :func:`reference_slot_assignment` (the per-unit
wrap-around rule :func:`~repro.flow.assignment.schedule_from_node_counts`
must match) and :func:`reference_violations` (the per-slot validator
:meth:`~repro.core.schedule.Schedule.violations` must agree with), and
the per-slot feasibility path: the one-node-per-slot network behind
:func:`reference_slot_feasible` (the segment-level
:func:`~repro.flow.feasibility.slot_feasible` must agree, and
:func:`~repro.flow.feasibility.extract_schedule` must return ``None``
exactly where it says no),
:func:`reference_minimal_feasible_slots` (the slot-by-slot greedy the
per-segment search must match) and :func:`brute_force_optimum`, and
the twin's two oracles: :class:`ColdTwinSession`, a
:class:`~repro.twin.session.TwinSession` whose repair steps re-solve the
remaining work from scratch (what E16 times incremental repair
against), and :func:`cross_check_twin`, which checks one applied event
against the from-scratch flow path and the independent schedule
validator and raises :class:`TwinMismatchError` on disagreement.
:func:`flow_prober` puts a reference prober under the real consumers for
the current context only.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from contextlib import contextmanager
from itertools import combinations
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.baselines.minimal_feasible import minimal_feasible_slots
from repro.core.opt_thresholds import OptThresholds
from repro.flow.csr import CSRMaxFlow
from repro.flow.dinic import MaxFlow
from repro.flow.feasibility import (
    all_slots_feasible,
    extract_schedule,
    slot_feasible,
)
from repro.flow.incremental import PROBER_CLASS, ClassFlowProber
from repro.instances.jobs import Instance, Job
from repro.lp.backend import LinearProgram
from repro.lp.cw_lp import forced_occupancy
from repro.lp.natural_lp import build_natural_lp
from repro.lp.nested_lp import job_classes
from repro.tree.canonical import CanonicalInstance
from repro.tree.node import WindowForest
from repro.twin.events import JobArrived, TwinEvent, WindowSlipped
from repro.twin.session import ScheduleDiff, TwinSession
from repro.util.errors import InfeasibleInstanceError, InvalidInstanceError, SolverError
from repro.util.intervals import Interval


@contextmanager
def flow_prober(cls: type) -> Iterator[None]:
    """Build every feasibility prober in this context as a ``cls``.

    ``cls`` takes ``(processings, buckets, g)`` and answers
    ``probe(counts)`` — :class:`ReferenceFlowProber` or
    :class:`DifferentialFlowProber`.  The binding is per context, so a
    campaign running under it never changes the prober another thread
    gets.
    """
    token = PROBER_CLASS.set(cls)
    try:
        yield
    finally:
        PROBER_CLASS.reset(token)


# ---------------------------------------------------------------------------
# Flow probes
# ---------------------------------------------------------------------------


class FlowMismatchError(SolverError):
    """The incremental engine and the reference path disagreed on a probe.

    Raised only by :class:`DifferentialFlowProber`; carries the count
    vector so the failing probe can be replayed in isolation.

    Attributes
    ----------
    counts:
        The probed per-bucket count vector.
    incremental / reference:
        The two verdicts (always differing).
    """

    def __init__(
        self,
        message: str,
        *,
        counts: tuple[int, ...] = (),
        incremental: bool | None = None,
        reference: bool | None = None,
        **kwargs,
    ) -> None:
        kwargs.setdefault("kind", "numerical")
        super().__init__(message, **kwargs)
        self.counts = tuple(counts)
        self.incremental = incremental
        self.reference = reference


def reference_probe(
    processings: Sequence[int],
    buckets: Sequence[Sequence[int]],
    g: int,
    counts: Sequence[int],
) -> bool:
    """One from-scratch feasibility test (the Lemma 4.1 aggregation).

    This *is* the reference semantics the incremental engine must match:
    buckets with a non-positive count contribute no edges at all.
    """
    n_jobs = len(processings)
    source = n_jobs + len(buckets)
    sink = source + 1
    net = MaxFlow(sink + 1)
    total = 0
    for k, p in enumerate(processings):
        net.add_edge(source, k, p)
        total += p
    for ci, bucket in enumerate(buckets):
        if counts[ci] <= 0:
            continue
        node = n_jobs + ci
        for k in bucket:
            net.add_edge(k, node, counts[ci])
        net.add_edge(node, sink, g * counts[ci])
    return net.max_flow(source, sink) == total


class ReferenceFlowProber:
    """The pre-engine behaviour: fresh network + from-scratch solve."""

    def __init__(
        self,
        processings: Sequence[int],
        buckets: Sequence[Sequence[int]],
        g: int,
    ) -> None:
        self.processings = list(processings)
        self.buckets = [list(b) for b in buckets]
        self.g = g

    def probe(self, counts: Sequence[int]) -> bool:
        return reference_probe(
            self.processings, self.buckets, self.g, counts
        )


class DifferentialFlowProber:
    """Run *both* probers on every probe; scream on any disagreement.

    Fuzz campaigns with ``cross_check_flow`` and the E15 agreement sweep
    build this prober so a flow-repair bug can never hide behind a
    plausible verdict.
    """

    def __init__(
        self,
        processings: Sequence[int],
        buckets: Sequence[Sequence[int]],
        g: int,
    ) -> None:
        self.incremental = ClassFlowProber(processings, buckets, g)
        self.reference = ReferenceFlowProber(processings, buckets, g)
        self.probes = 0

    def probe(self, counts: Sequence[int]) -> bool:
        fast = self.incremental.probe(counts)
        slow = self.reference.probe(counts)
        self.probes += 1
        if fast != slow:
            raise FlowMismatchError(
                f"incremental={fast} vs reference={slow} on counts "
                f"{tuple(counts)} (g={self.reference.g})",
                counts=tuple(counts),
                incremental=fast,
                reference=slow,
            )
        return fast


# ---------------------------------------------------------------------------
# LP builds
# ---------------------------------------------------------------------------


def literal_lp(
    canonical: CanonicalInstance, thresholds: OptThresholds
) -> LinearProgram:
    """LP (1) over job classes as the paper writes it: rows (2)–(8) over
    ``Des(k_C)``, nothing reduced, every column a plain nonnegative
    variable.

    The columns begin with :func:`~repro.lp.nested_lp.build_nested_lp`'s
    layout (``x(i)`` at column ``i``, then ``Y(i, C)`` over ``Des⁺(k_C)``
    class-major), so a production solution maps onto it by index; the
    ``Y(i, C)`` at nodes with ``L(i) = 0``, which production leaves out,
    come last.  The reduced model must have the same optimum and its
    solutions, padded with zeros, must be feasible here.
    """
    inst = canonical.instance
    forest = canonical.forest
    classes = job_classes(canonical)
    lp = LinearProgram(name=f"literal_lp({inst.name})")
    lp.add_vars(forest.m, objective=1.0)
    admissible = [forest.descendants(k) for k, _ in classes.keys]
    col: dict[tuple[int, int], int] = {}
    for positive in (True, False):
        for c, nodes in enumerate(admissible):
            for i in nodes:
                if (forest.length[i] > 0) == positive:
                    col[i, c] = lp.add_var()
    # (2) every class fully scheduled.
    for c, (nodes, (_, p)) in enumerate(zip(admissible, classes.keys)):
        lp.add_constraint(
            {col[i, c]: 1.0 for i in nodes}, ">=", float(classes.sizes[c] * p)
        )
    # (3) capacity; (4) length; (5) spread.
    per_node: list[list[int]] = [[] for _ in range(forest.m)]
    for c, nodes in enumerate(admissible):
        for i in nodes:
            per_node[i].append(c)
    for i in range(forest.m):
        coeffs = {col[i, c]: 1.0 for c in per_node[i]}
        coeffs[i] = -float(inst.g)
        lp.add_constraint(coeffs, "<=", 0.0)
        lp.add_constraint({i: 1.0}, "<=", float(forest.length[i]))
        for c in per_node[i]:
            lp.add_constraint(
                {col[i, c]: 1.0, i: -float(classes.sizes[c])}, "<=", 0.0
            )
    # (7)-(8) ceiling constraints.
    for i in range(forest.m):
        omega = thresholds.value(i)
        if omega >= 2:
            lp.add_constraint(
                dict.fromkeys(forest.descendants(i), 1.0), ">=", float(omega)
            )
    return lp


def same_compiled_model(a: LinearProgram, b: LinearProgram) -> bool:
    """Do ``a`` and ``b`` compile to the same model, bit for bit?

    Compares the compiled objective, both constraint blocks (CSR data,
    indices and pointers), right-hand sides, bounds and negated ``>=``
    rows: what equal :func:`~repro.solver.cache.model_fingerprint` keys
    imply, checked without the hash.
    """
    pa, pb = a.compile(), b.compile()

    def same(x, y) -> bool:
        if x is None or y is None:
            return x is None and y is None
        return x.shape == y.shape and np.array_equal(x, y)

    def same_csr(x, y) -> bool:
        if x is None or y is None:
            return x is None and y is None
        return x.shape == y.shape and all(
            same(getattr(x, f), getattr(y, f)) for f in ("data", "indices", "indptr")
        )

    return (
        all(
            same(pa[k], pb[k])
            for k in ("c", "b_ub", "b_eq", "bounds", "negated_ub")
        )
        and same_csr(pa["A_ub"], pb["A_ub"])
        and same_csr(pa["A_eq"], pb["A_eq"])
    )


def reference_cw_lp(instance: Instance) -> LinearProgram:
    """Per-interval build of the Călinescu–Wang LP.

    :func:`~repro.lp.cw_lp.build_cw_lp` must compile to the same model.
    """
    lp = build_natural_lp(instance)
    lp.name = f"cw_lp({instance.name})"
    horizon = instance.horizon
    start = horizon.start  # x of slot t is column t - start
    for t1 in range(horizon.start, horizon.end):
        for t2 in range(t1 + 1, horizon.end + 1):
            interval = Interval(t1, t2)
            forced = sum(forced_occupancy(job, interval) for job in instance.jobs)
            if forced <= 0:
                continue
            rhs = math.ceil(forced / instance.g)
            lp.add_constraint(
                dict.fromkeys(range(t1 - start, t2 - start), 1.0),
                ">=",
                float(rhs),
            )
    return lp


# ---------------------------------------------------------------------------
# Per-slot schedules
# ---------------------------------------------------------------------------


def spread_units(
    units: Mapping[int, int], slots: Sequence[int], capacity: int
) -> dict[int, list[int]]:
    """Assign ``units[j]`` slot-units per job onto ``slots`` (wrap-around),
    one unit at a time.

    :func:`~repro.flow.assignment.spread_runs` must place the same units
    on the same slots and raise :class:`SolverError` on the same input.
    """
    x = len(slots)
    total = sum(units.values())
    if total == 0:
        return {j: [] for j in units}
    if x == 0:
        raise SolverError("units to place but no open slots")
    if total > capacity * x:
        raise SolverError(f"load {total} exceeds capacity {capacity}*{x}")
    out: dict[int, list[int]] = {}
    cursor = 0
    for jid in sorted(units):
        k = units[jid]
        if k > x:
            raise SolverError(f"job {jid} needs {k} units but only {x} slots")
        out[jid] = [slots[(cursor + step) % x] for step in range(k)]
        cursor += k
    return out


def reference_slot_assignment(
    instance: Instance,
    forest: WindowForest,
    x: Sequence[int],
    y: Mapping[tuple[int, int], int],
) -> dict[int, tuple[int, ...]]:
    """Per-unit form of :func:`~repro.flow.assignment.schedule_from_node_counts`:
    job id → sorted slot tuple."""
    per_node: dict[int, dict[int, int]] = {}
    for (i, jid), amount in y.items():
        if amount > 0:
            per_node.setdefault(i, {})[jid] = amount
    assignment: dict[int, list[int]] = {j.id: [] for j in instance.jobs}
    for i, units in per_node.items():
        open_slots = forest.exclusive_slots(i, limit=int(x[i]))
        for jid, slots in spread_units(units, open_slots, instance.g).items():
            assignment[jid].extend(slots)
    return {jid: tuple(sorted(slots)) for jid, slots in assignment.items()}


def reference_violations(
    instance: Instance, assignment: Mapping[int, Iterable[int]]
) -> list[str]:
    """Per-slot validation of a job id → slots mapping: one message per
    slot outside a window and per overloaded slot.

    :meth:`~repro.core.schedule.Schedule.violations` must flag the same
    jobs and slots (it reports a range of slots in one message).
    """
    problems: list[str] = []
    assignment = {jid: tuple(sorted(slots)) for jid, slots in assignment.items()}
    loads: dict[int, int] = {}
    for slots in assignment.values():
        for t in slots:
            loads[t] = loads.get(t, 0) + 1
    for job in instance.jobs:
        if job.id not in assignment:
            problems.append(f"job {job.id} missing from assignment")
            continue
        slots = assignment[job.id]
        if len(set(slots)) != len(slots):
            problems.append(f"job {job.id} repeats a slot")
        if len(slots) != job.processing:
            problems.append(
                f"job {job.id} got {len(slots)} slots, needs {job.processing}"
            )
        for t in slots:
            if not (job.release <= t < job.deadline):
                problems.append(
                    f"job {job.id} scheduled at {t} outside "
                    f"[{job.release},{job.deadline})"
                )
    extra = set(assignment) - {j.id for j in instance.jobs}
    for jid in sorted(extra):
        problems.append(f"assignment mentions unknown job {jid}")
    for t, load in sorted(loads.items()):
        if load > instance.g:
            problems.append(f"slot {t} runs {load} jobs, capacity is {instance.g}")
    return problems


# ---------------------------------------------------------------------------
# Per-slot feasibility and greedy deactivation
# ---------------------------------------------------------------------------


def reference_slot_network(
    instance: Instance, active: Sequence[int]
) -> tuple[MaxFlow, tuple[np.ndarray, np.ndarray, np.ndarray], int, int]:
    """The job/slot network ``s → jobs → slots → t``, one node per slot,
    with capacities ``(p_j, 1, g)``: per job its source edge, then its
    window slots in time order; then the slot→sink edges.

    Returns ``(net, (edge_ids, job_pos, slot), source, sink)`` where the
    three parallel arrays describe the job→slot edges: ``edge_ids[k]``
    connects the job at position ``job_pos[k]`` to slot ``slot[k]``.
    """
    slots = sorted(set(active))
    n_jobs = instance.n
    source = n_jobs + len(slots)
    sink = source + 1
    edges: list[tuple[int, int, int]] = []
    window: list[tuple[int, int, int]] = []
    for k, job in enumerate(instance.jobs):
        edges.append((source, k, job.processing))
        lo = bisect_left(slots, job.release)
        for pos in range(lo, bisect_left(slots, job.deadline)):
            window.append((2 * len(edges), k, slots[pos]))
            edges.append((k, n_jobs + pos, 1))
    edges += [(n_jobs + pos, sink, instance.g) for pos in range(len(slots))]
    net = CSRMaxFlow(sink + 1)
    net.add_edges(*np.array(edges, dtype=np.int64).reshape(-1, 3).T)
    meta = tuple(np.array(window, dtype=np.int64).reshape(-1, 3).T)
    return net, meta, source, sink


def reference_slot_feasible(instance: Instance, active: Sequence[int]) -> bool:
    """Can all jobs be scheduled using only the given active slots?

    :func:`~repro.flow.feasibility.slot_feasible` must agree.
    """
    if instance.n == 0:
        return True
    net, _, s, t = reference_slot_network(instance, active)
    return net.max_flow(s, t) == instance.total_volume


def covered_slots(instance: Instance) -> list[int]:
    """Slots inside at least one job window (others can never host work)."""
    return sorted(
        {t for job in instance.jobs for t in range(job.release, job.deadline)}
    )


def reference_minimal_feasible_slots(
    instance: Instance, order: str = "given"
) -> list[int]:
    """Greedy deactivation one slot at a time: one probe per covered slot.

    :func:`~repro.baselines.minimal_feasible.minimal_feasible_slots` must
    return the same list for every order.
    """
    from repro.baselines.exact import class_prober, slot_classes

    def cover(t: int) -> int:
        return sum(job.release <= t < job.deadline for job in instance.jobs)

    keys = {
        "given": lambda t: t,
        "left_to_right": lambda t: t,
        "right_to_left": lambda t: -t,
        "densest_first": lambda t: (-cover(t), t),
        "sparsest_first": lambda t: (cover(t), t),
    }
    if order not in keys:
        raise ValueError(f"unknown order {order!r}")
    classes = slot_classes(instance)
    class_of = {t: ci for ci, cls in enumerate(classes) for t in cls.slots}
    counts = [cls.size for cls in classes]
    prober = class_prober(instance, classes)
    if not prober.probe(counts):
        raise InfeasibleInstanceError(
            f"instance {instance.name!r} infeasible on every slot"
        )
    active = set(class_of)
    for t in sorted(active, key=keys[order]):
        counts[class_of[t]] -= 1
        if prober.probe(counts):
            active.discard(t)
        else:
            counts[class_of[t]] += 1
    return sorted(active)


def brute_force_optimum(instance: Instance, *, max_slots: int = 22) -> int:
    """Reference optimum by raw subset enumeration (tiny instances only).

    Enumerates subsets of covered slots in increasing size on the
    per-slot network; exists purely to cross-validate
    :func:`~repro.baselines.exact.solve_exact` in tests.
    """
    slots = covered_slots(instance)
    if len(slots) > max_slots:
        raise SolverError(f"brute force capped at {max_slots} slots")
    lb = math.ceil(instance.total_volume / instance.g)
    for k in range(lb, len(slots) + 1):
        for combo in combinations(slots, k):
            if reference_slot_feasible(instance, list(combo)):
                return k
    raise InfeasibleInstanceError(f"{instance.name!r} has no schedule")


# ---------------------------------------------------------------------------
# Twin: cold re-solve and per-event cross-check
# ---------------------------------------------------------------------------


class ColdTwinSession(TwinSession):
    """A twin session without incremental repair.

    Every repair step re-solves the remaining work from scratch (greedy
    :func:`~repro.baselines.minimal_feasible.minimal_feasible_slots` in
    ``given`` order + :func:`~repro.flow.feasibility.extract_schedule`);
    the event handlers and their bookkeeping are the production ones.
    E16 times it against :class:`~repro.twin.session.TwinSession`.
    """

    def _admit(self, record) -> bool:
        return self._settle()

    _drop = _admit

    def _move(self, record, window: tuple[int, int]) -> bool:
        old = record.window
        record.release, record.deadline = window
        ok = self._settle()
        record.release, record.deadline = old
        return ok

    def _run_slot(self, t: int) -> list[int]:
        return sorted(jid for jid, slots in self._planned.items() if t in slots)

    def _finish(self, record) -> None:
        pass

    def _settle(self) -> bool:
        """Re-solve the remaining work; False = infeasible, plan unchanged."""
        instance = self.remaining_instance()
        if instance.n == 0:
            self._open, self._planned = set(), {}
            return True
        try:
            slots = minimal_feasible_slots(instance, order="given")
        except InfeasibleInstanceError:
            return False
        schedule = extract_schedule(instance, slots)
        assert schedule is not None  # the slot set was verified feasible
        self._open = set(slots)
        self._planned = {jid: tuple(s) for jid, s in schedule.assignment.items() if s}
        return True


class TwinMismatchError(SolverError):
    """A twin session and the from-scratch path disagreed on one event.

    Raised by :func:`cross_check_twin`; carries the event so the failing
    step can be replayed in isolation.
    """

    def __init__(self, message: str, *, event: TwinEvent | None = None, **kwargs) -> None:
        kwargs.setdefault("kind", "numerical")
        super().__init__(message, **kwargs)
        self.event = event


def cross_check_twin(session: TwinSession, diff: ScheduleDiff) -> None:
    """Check the event ``session`` just applied (``diff``) from scratch.

    An accepted event must leave open slots
    :func:`~repro.flow.feasibility.slot_feasible` accepts and a plan that
    passes the independent :class:`~repro.core.schedule.Schedule`
    validator; a rejected event must have asked for a workload
    :func:`~repro.flow.feasibility.all_slots_feasible` rejects too.
    Read-only: checking never changes the session's diff stream.
    """
    event = diff.event
    if diff.accepted:
        instance = session.remaining_instance()
        open_slots = list(session.open_slots)
        if instance.n and not slot_feasible(instance, open_slots):
            raise TwinMismatchError(
                f"twin plan uses slots {open_slots} but the "
                f"reference flow rejects them after {event!r}",
                event=event,
            )
        try:
            session.planned_schedule()
        except InvalidInstanceError as exc:
            raise TwinMismatchError(
                f"twin plan failed independent validation after "
                f"{event!r}: {exc}",
                event=event,
            ) from exc
    else:
        tentative = _tentative_rejected_instance(session, event)
        if tentative is not None and all_slots_feasible(tentative):
            raise TwinMismatchError(
                f"twin rejected {event!r} but the reference flow "
                f"accepts the resulting workload",
                event=event,
            )


def _tentative_rejected_instance(
    session: TwinSession, event: TwinEvent
) -> Instance | None:
    """The workload a rejected event asked for, or ``None`` if the
    rejection was trivial (window shorter than the work)."""
    if isinstance(event, JobArrived):
        job = event.job
        jid, lo, hi, work = job.id, job.release, job.deadline, job.processing
    elif isinstance(event, WindowSlipped):
        jid, lo, hi = event.job_id, event.release, event.deadline
        work = session.job_view(jid).remaining
    else:  # pragma: no cover - only arrivals/slips can be rejected
        return None
    release = max(lo, session.now)
    if hi - release < work:
        return None
    jobs = {j.id: j for j in session.remaining_instance().jobs}
    jobs[jid] = Job(id=jid, release=release, deadline=hi, processing=work)
    return Instance(jobs=tuple(jobs.values()), g=session.g, name="tentative")
