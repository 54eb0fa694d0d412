"""JSON serialization for instances and schedules.

The format is stable and human-readable so experiment inputs/outputs can be
checked into a repository or diffed:

.. code-block:: json

    {"g": 3, "name": "...", "jobs": [{"id": 0, "r": 0, "d": 4, "p": 2}]}
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.core.schedule import Schedule, slot_list
from repro.instances.jobs import Instance, Job
from repro.util.errors import InvalidInstanceError

FORMAT_VERSION = 1


def instance_to_dict(instance: Instance) -> dict[str, Any]:
    """Plain-dict form of an instance (JSON-compatible)."""
    return {
        "version": FORMAT_VERSION,
        "g": instance.g,
        "name": instance.name,
        "jobs": [
            {"id": j.id, "r": j.release, "d": j.deadline, "p": j.processing}
            for j in instance.jobs
        ],
    }


def instance_from_dict(data: dict[str, Any]) -> Instance:
    """Parse the dict form back into an :class:`Instance`."""
    try:
        jobs = tuple(
            Job(
                id=int(j["id"]),
                release=int(j["r"]),
                deadline=int(j["d"]),
                processing=int(j["p"]),
            )
            for j in data["jobs"]
        )
        return Instance(jobs=jobs, g=int(data["g"]), name=str(data.get("name", "")))
    except (KeyError, TypeError) as exc:
        raise InvalidInstanceError(f"malformed instance document: {exc}") from exc


def dump_instance(instance: Instance, path: str | Path) -> None:
    """Write an instance to a JSON file."""
    Path(path).write_text(json.dumps(instance_to_dict(instance), indent=2))


def load_instance(path: str | Path) -> Instance:
    """Read an instance from a JSON file."""
    return instance_from_dict(json.loads(Path(path).read_text()))


def loads_instance(text: str) -> Instance:
    """Parse an instance from a JSON string."""
    return instance_from_dict(json.loads(text))


def dumps_instance(instance: Instance) -> str:
    """Serialize an instance to a JSON string."""
    return json.dumps(instance_to_dict(instance), indent=2)


def schedule_to_dict(schedule: Schedule) -> dict[str, Any]:
    """Plain-dict form of a schedule (instance embedded for independence)."""
    return {
        "version": FORMAT_VERSION,
        "instance": instance_to_dict(schedule.instance),
        "assignment": {
            str(jid): slot_list(runs) for jid, runs in schedule.runs.items()
        },
    }


def schedule_from_dict(data: dict[str, Any]) -> Schedule:
    """Parse the dict form back into a :class:`Schedule` (slots sorted)."""
    instance = instance_from_dict(data["instance"])
    assignment = {
        int(jid): [int(t) for t in slots] for jid, slots in data["assignment"].items()
    }
    return Schedule.from_assignment(instance, assignment)


def dump_schedule(schedule: Schedule, path: str | Path) -> None:
    Path(path).write_text(json.dumps(schedule_to_dict(schedule), indent=2))


def load_schedule(path: str | Path) -> Schedule:
    return schedule_from_dict(json.loads(Path(path).read_text()))
