"""``verify-campaign``: the differential fuzz campaign, as CI's fuzz smoke runs it.

``run_fuzz`` with the mixed family, ``max_jobs`` 12, ``exact_max_jobs`` 8
and shrinking on, in chunks of campaigns seeded from the benchmark seed.
The program generates its own instances here, so this is the workload
that exercises ``instances.generators``, ``verify``, ``baselines.exact``
and the ``flow.incremental`` probers.  An operation is one verified
instance; its latency runs from the end of the previous one, so it covers
generation, the oracle and the campaign loop.  Times are this process's CPU
time scaled to the reference host speed, as in the closed loops (see
``closed_loop.measure``).
"""

from __future__ import annotations

import math
from time import process_time

from common import ScaledTimes, own_peak_rss_mb, ready

#: Instances per ``run_fuzz`` call.
CHUNK = 100
#: Fewest chunks a run measures.  A few instances need long exact searches
#: (one took 1.4 s, a tenth of its 1000-instance run), so throughput
#: depends on how many of them a seed draws: over ten seeds it spread 0.19
#: (interquartile range over median) with ten chunks and 0.08 with twenty.
#: Fifteen keep a run near 28 s.
MIN_CHUNKS = 15
#: Instances per second at the time the benchmark was defined.  A run
#: measures a fixed number of chunks, about ``--seconds`` of work at this
#: rate, so the parent and a change verify exactly the same instances.
NOMINAL_IPS = 75.0
FUZZ = {"family": "mixed", "max_jobs": 12, "exact_max_jobs": 8, "shrink": True}


class Campaign:
    """Runs campaign chunks and records one sample per verified instance."""

    def __init__(self, seed: int) -> None:
        from repro.solver import clear_solver_cache
        from repro.solver.cache import clear_basis_cache
        from repro.verify.fuzz import FuzzConfig, run_fuzz
        from repro.verify.oracle import verify_instance

        self.seed = seed
        self.config = FuzzConfig
        self.run_fuzz = run_fuzz
        self.oracle = verify_instance
        self.clear_caches = lambda: (clear_solver_cache(), clear_basis_cache())
        #: Set by the untraced run to collect one time per instance.
        self.clock: ScaledTimes | None = None
        self.ratios: list[float] = []
        self._last = 0.0

    def _verify(self, instance, **kwargs):
        report = self.oracle(instance, **kwargs)
        if self.clock is not None:
            self.clock.add(process_time() - self._last)
        self._last = process_time()  # after the clock's probe, if one ran
        if instance.is_laminar and report.status == "ok" and report.lp_value:
            self.ratios.append(report.active_time / report.lp_value)
        return report

    def chunk(self, index: int, verify=None):
        """Run chunk ``index``; returns (FuzzResult, CPU seconds)."""
        config = self.config(n_instances=CHUNK, seed=self.seed * 1000 + index, **FUZZ)
        self._last = t0 = process_time()
        result = self.run_fuzz(config, verify=verify or self._verify)
        return result, process_time() - t0


def setup(seed: int) -> Campaign:
    """Import the program and run a small warm-up campaign."""
    campaign = Campaign(seed)
    from repro.verify.fuzz import FuzzConfig

    campaign.run_fuzz(FuzzConfig(n_instances=12, seed=-1 - seed, **FUZZ))
    return campaign


def setup_only(workload: str, seed: int, seconds: float) -> None:
    setup(seed)
    ready()


def _failures(result) -> list[str]:
    return [
        f"instance {f.index} ({f.family}): {', '.join(f.report.property_names())}"
        for f in result.failures
    ]


def measure(workload: str, seed: int, seconds: float) -> dict:
    """The untraced run: throughput is instances over the summed time of
    their samples."""
    campaign = setup(seed)
    ready()
    campaign.clock = clock = ScaledTimes()
    attempted = failed = 0
    problems: list[str] = []
    for index in range(max(MIN_CHUNKS, math.ceil(seconds * NOMINAL_IPS / CHUNK))):
        result = campaign.chunk(index)[0]
        attempted += result.checked + result.skipped_infeasible
        failed += len(result.failures)
        problems += _failures(result)
    clock.flush()
    latencies = clock.times
    ratios = campaign.ratios
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:5],
        "samples": len(latencies),
        "throughput_ips": attempted / sum(latencies),
        "latencies_ms": [t * 1e3 for t in latencies],
        "lp_ratio_mean": sum(ratios) / len(ratios),
        "peak_rss_mb": own_peak_rss_mb(),
    }


def traced(workload: str, seed: int, seconds: float, tracer) -> dict:
    """Each chunk twice, untraced and traced (alternating which is first)."""
    import repro.baselines.exact as exact
    import repro.verify.fuzz as fuzz
    from repro.flow.incremental import flow_stats

    campaign = setup(seed)
    ready()
    nodes = [0]

    def count_nodes(result):
        nodes[0] += result.nodes_explored

    def spanned_verify(instance, **kwargs):
        with tracer.span("verify.oracle"):
            return campaign.oracle(instance, **kwargs)

    plain = spanned = 0.0
    attempted = failed = 0
    problems: list[str] = []
    probes = avoided = 0
    index = 0
    while plain + spanned < seconds:
        for side in ((0, 1) if index % 2 == 0 else (1, 0)):
            campaign.clear_caches()
            if side == 0:
                plain += campaign.chunk(index)[1]
                continue
            undo = [
                tracer.wrap(fuzz, "sample_instance", "instances.generators"),
                tracer.wrap(exact, "solve_exact", "baselines.exact", count_nodes),
            ]
            before = flow_stats()
            tracer.op = index
            try:
                with tracer.span("op"):
                    result, cpu = campaign.chunk(index, verify=spanned_verify)
            finally:
                for restore in undo:
                    restore()
            after = flow_stats()
            spanned += cpu
            probes += after["probes"] - before["probes"]
            avoided += after["rebuilds_avoided"] - before["rebuilds_avoided"]
            attempted += result.checked + result.skipped_infeasible
            failed += len(result.failures)
            problems += _failures(result)
        index += 1
    per_op = {name: t * 1e3 / attempted for name, t in tracer.self_times().items()}
    layers = {
        "instances.generators_ms": per_op.get("instances.generators", 0.0),
        "verify.oracle_ms": per_op.get("verify.oracle", 0.0),
        "baselines.exact_ms": per_op.get("baselines.exact", 0.0),
        "baselines.exact.nodes": nodes[0] / attempted,
        "flow.incremental.probes": probes / attempted,
        "flow.incremental.reuse_ratio": avoided / probes if probes else 0.0,
        "trace.overhead_frac": spanned / plain - 1.0,
    }
    return {"attempted": attempted, "failed": failed, "problems": problems[:5], "layers": layers}
