"""Differential verification and fuzzing for the active-time pipeline.

Three layers, consumed by tests, the ``active-time fuzz`` CLI, and CI:

* :mod:`repro.verify.properties` — the paper's quantitative claims as
  reusable property checks returning :class:`~repro.verify.properties.Violation`
  lists;
* :mod:`repro.verify.oracle` — runs the full pipeline on one instance and
  applies every property, cross-checking against the exact baseline;
* :mod:`repro.verify.fuzz` + :mod:`repro.verify.shrinker` — randomized
  campaigns that minimize any failure to a committable counterexample.

:mod:`repro.verify.reference` holds the from-scratch flow probers,
per-row LP builds, per-slot paths and the twin's cold re-solve and
per-event cross-check the production fast paths are checked against, and
:mod:`repro.verify.simplex` the dense tableau simplex the tests check
HiGHS against.
"""

from repro.verify.fuzz import (
    FAMILIES,
    FuzzConfig,
    FuzzFailure,
    FuzzResult,
    TwinFuzzConfig,
    TwinFuzzResult,
    campaign_family,
    campaign_instances,
    fuzz_report_dict,
    load_checkpoint,
    merge_fuzz_reports,
    render_fuzz_result,
    render_twin_fuzz_result,
    run_fuzz,
    run_twin_fuzz,
    sample_instance,
    stable_fuzz_report,
    twin_fuzz_report_dict,
    twin_trace_for,
    write_fuzz_report,
    write_twin_fuzz_report,
)
from repro.verify.oracle import OracleReport, verify_instance
from repro.verify.properties import (
    PROPERTY_NAMES,
    Violation,
    check_budget,
    check_classification,
    check_node_flow,
    check_repairs,
    check_rounding_reference,
    check_sandwich,
    check_schedule,
    check_transform,
    reference_round,
)
from repro.verify.shrinker import ShrinkResult, shrink_instance

__all__ = [
    "FAMILIES",
    "FuzzConfig",
    "FuzzFailure",
    "FuzzResult",
    "OracleReport",
    "PROPERTY_NAMES",
    "ShrinkResult",
    "TwinFuzzConfig",
    "TwinFuzzResult",
    "Violation",
    "check_budget",
    "check_classification",
    "check_node_flow",
    "check_repairs",
    "check_rounding_reference",
    "check_sandwich",
    "check_schedule",
    "check_transform",
    "campaign_family",
    "campaign_instances",
    "fuzz_report_dict",
    "load_checkpoint",
    "merge_fuzz_reports",
    "stable_fuzz_report",
    "reference_round",
    "render_fuzz_result",
    "render_twin_fuzz_result",
    "run_fuzz",
    "run_twin_fuzz",
    "sample_instance",
    "shrink_instance",
    "twin_fuzz_report_dict",
    "twin_trace_for",
    "verify_instance",
    "write_fuzz_report",
    "write_twin_fuzz_report",
]
