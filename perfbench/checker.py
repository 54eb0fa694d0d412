"""Independent schedule checker.

Works only from the instance document the benchmark generated and the
assignment the program returned (plain data), never from the program's
own ``Schedule`` validation, so a defect there cannot hide a bad answer.
"""

from __future__ import annotations

from collections import Counter

#: Approximation factor of the 9/5 algorithm (active_time <= 9/5 * LP).
RATIO_BOUND = 9 / 5

_EPS = 1e-6


def check_schedule(
    doc: dict,
    assignment: dict,
    active_time: int,
    lp_value: float,
) -> list[str]:
    """Problems with ``assignment`` for instance ``doc`` (empty when valid).

    ``assignment`` maps job id (int or str) to the job's slots.  Checks
    that each job gets ``p`` distinct slots inside its window, that no
    slot holds more than ``g`` jobs, that ``active_time`` counts the slots
    in use and that ``LP <= active_time <= 9/5 * LP``.
    """
    problems: list[str] = []
    slots_of = {int(jid): slots for jid, slots in assignment.items()}
    known = {job["id"] for job in doc["jobs"]}
    for jid in sorted(set(slots_of) - known):
        problems.append(f"unknown job {jid} in assignment")
    load: Counter = Counter()
    for job in doc["jobs"]:
        slots = slots_of.get(job["id"])
        if slots is None:
            problems.append(f"job {job['id']} missing")
            continue
        if len(set(slots)) != len(slots):
            problems.append(f"job {job['id']} repeats a slot")
        if len(slots) != job["p"]:
            problems.append(f"job {job['id']} got {len(slots)} slots, needs {job['p']}")
        for t in slots:
            if not job["r"] <= t < job["d"]:
                problems.append(f"job {job['id']} runs at {t} outside [{job['r']},{job['d']})")
        load.update(set(slots))
    over = [t for t, k in load.items() if k > doc["g"]]
    if over:
        problems.append(f"{len(over)} slot(s) exceed g={doc['g']}, first {min(over)}")
    if len(load) != active_time:
        problems.append(f"reported active_time {active_time}, slots in use {len(load)}")
    if active_time < lp_value - _EPS:
        problems.append(f"active_time {active_time} below LP {lp_value}")
    if active_time > RATIO_BOUND * lp_value + _EPS:
        problems.append(f"active_time {active_time} above 9/5 * LP {lp_value}")
    return problems
