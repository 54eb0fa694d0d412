"""Real-time rescheduling digital twin over the incremental flow engine.

:mod:`repro.twin.events` defines the replayable event log (arrivals,
cancellations, window slips, clock ticks) and its JSON format;
:mod:`repro.twin.session` consumes it, repairing the schedule
incrementally after every event and emitting a deterministic
:class:`~repro.twin.session.ScheduleDiff` stream.
"""

from repro.twin.events import (
    JobArrived,
    JobCancelled,
    SlotTick,
    TwinEvent,
    TwinTrace,
    WindowSlipped,
    count_kinds,
    dump_trace,
    event_from_dict,
    event_to_dict,
    load_trace,
    random_trace,
    trace_from_dict,
    trace_from_instance,
    trace_to_dict,
)
from repro.twin.session import ScheduleDiff, TwinSession

__all__ = [
    "JobArrived",
    "JobCancelled",
    "WindowSlipped",
    "SlotTick",
    "TwinEvent",
    "TwinTrace",
    "event_to_dict",
    "event_from_dict",
    "trace_to_dict",
    "trace_from_dict",
    "dump_trace",
    "load_trace",
    "trace_from_instance",
    "random_trace",
    "count_kinds",
    "TwinSession",
    "ScheduleDiff",
    "twin_fingerprint",
]


def twin_fingerprint(diffs) -> str:
    """Stable hash of a diff stream (for replay-determinism checks)."""
    import hashlib
    import json

    payload = json.dumps(
        [d.to_dict() for d in diffs], sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode()).hexdigest()
