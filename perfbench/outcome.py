"""What one workload run produced, and the per-layer metrics of a trace."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import tracing


@dataclass
class Outcome:
    """Operations, checks and measurements of one workload run."""

    attempted: int = 0
    failed: int = 0
    #: One line per failed check of an output or a process; the run's
    #: outputs are correct when there is none.
    problems: list[str] = field(default_factory=list)
    #: Operations counted as failed though their output was right
    #: (queries over the latency limit).
    misses: list[str] = field(default_factory=list)
    #: ``BENCHMARK.json``'s end-to-end metrics: name -> (value, unit).
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: The workload's own end-to-end metrics, printed by name.
    named: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Samples behind each timing: metric name -> count.
    samples: dict[str, int] = field(default_factory=dict)
    #: Traced iteration: span files, program process-seconds, extras.
    span_files: list[Path] = field(default_factory=list)
    traced_wall_s: float = 0.0
    untraced_wall_s: float = 0.0
    layer_extra: dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool, problem: str) -> bool:
        """Record ``problem`` unless ``ok``; returns ``ok``."""
        if not ok:
            self.problems.append(problem)
        return ok

    def ops(self, attempted: int, failed: int = 0) -> None:
        """Count operations (jobs, steps, points, batches, queries)."""
        self.attempted += attempted
        self.failed += failed


#: Every per-layer metric: name -> unit.  Layers a workload does not
#: exercise read 0.
PER_LAYER = {
    "cli.import_s": "s",
    "sensors.sysfs_reads": "count",
    "sensors.sysfs_read_s": "s",
    "sensors.counter_reads": "count",
    "sensors.counter_read_s": "s",
    "pmt.reads": "count",
    "pmt.read_s": "s",
    "pmt.sampler_ticks": "count",
    "pmt.substitutions": "count",
    "instrumentation.snapshots": "count",
    "instrumentation.snapshot_s": "s",
    "instrumentation.regions": "count",
    "hardware.clock_advances": "count",
    "hardware.advance_s": "s",
    "mpi.phases": "count",
    "mpi.phase_s": "s",
    "slurm.job_s": "s",
    "audit.s": "s",
    "audit.findings": "count",
    "timeseries.records": "count",
    "timeseries.record_s": "s",
    "timeseries.export_s": "s",
    "timeseries.export_bytes": "bytes",
    "timeseries.extend_calls": "count",
    "timeseries.extend_s": "s",
    "timeseries.range_query_s": "s",
    "sph.FindNeighbors_s": "s",
    "sph.Density_s": "s",
    "sph.IADVelocityDivCurl_s": "s",
    "sph.MomentumEnergy_s": "s",
    "sph.TurbulenceDriving_s": "s",
    "sph.Gravity_s": "s",
    "sph.other_s": "s",
    "sph.pairs_per_step": "count",
    "sph.rebuild_ratio": "ratio",
    "campaign.executed": "count",
    "campaign.cached": "count",
    "campaign.execute_key_s": "s",
    "campaign.store_put_s": "s",
    "campaign.store_get_s": "s",
    "campaign.worker_busy_ratio": "ratio",
    "campaign.lease_steals": "count",
    "campaign.failures": "count",
    "service.frames": "count",
    "service.decode_s": "s",
    "service.parse_s": "s",
    "service.offer_s": "s",
    "service.drain_s": "s",
    "service.drained_samples": "count",
    "service.publish_blocked_s": "s",
    "service.shed": "count",
    "service.rejected": "count",
    "service.query_overhead_ms": "ms",
    "fail_ratio": "ratio",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_ratio": "ratio",
}

#: The solver functions with a metric of their own; the rest are ``other``.
SPH_FUNCTIONS = (
    "FindNeighbors", "Density", "IADVelocityDivCurl", "MomentumEnergy",
    "TurbulenceDriving", "Gravity",
)


def _is_fork_file(path: Path) -> bool:
    return not path.name.endswith(".npz")


def attribution(outcome: Outcome) -> tuple[dict, dict[str, float], float, float]:
    """Summary, per-layer self seconds, traced wall and the remainder.

    The traced wall is the sum of the program processes' wall times
    (spawn to exit) plus each forked worker's drain, so parallel workers
    count once each; what no span covers is ``unattributed``.
    """
    summary = tracing.summarize(outcome.span_files)
    wall = outcome.traced_wall_s
    for path in outcome.span_files:
        if _is_fork_file(path):
            roots = tracing.summarize([path])["roots"]
            wall += sum(end - start for _, start, end in roots)
    layers: dict[str, float] = {}
    for name, entry in summary["spans"].items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + entry["self_s"]
    return summary, layers, wall, wall - sum(layers.values())


def layer_metrics(outcome: Outcome) -> tuple[dict[str, float], dict[str, float], float, float]:
    """The per-layer metrics of a traced run, plus its attribution."""
    summary, layers, wall, unattributed = attribution(outcome)
    spans, counters = summary["spans"], summary["counters"]

    def count(*names):
        return sum(spans.get(n, {}).get("count", 0) for n in names)

    def self_s(*names):
        return sum(spans.get(n, {}).get("self_s", 0.0) for n in names)

    steps = count("sph.step")
    sph_other = sum(
        entry["self_s"]
        for name, entry in spans.items()
        if name.startswith("sph.") and name[4:] not in SPH_FUNCTIONS
    )
    values = {
        "cli.import_s": self_s("cli.import"),
        "sensors.sysfs_reads": count("sensors.sysfs_read"),
        "sensors.sysfs_read_s": self_s("sensors.sysfs_read"),
        "sensors.counter_reads": count("sensors.counter_read"),
        "sensors.counter_read_s": self_s("sensors.counter_read"),
        "pmt.reads": count("pmt.read"),
        "pmt.read_s": self_s("pmt.read"),
        "pmt.sampler_ticks": counters.get("pmt.sampler_ticks", 0),
        "pmt.substitutions": counters.get("pmt.substitutions", 0),
        "instrumentation.snapshots": count("instrumentation.snapshot"),
        "instrumentation.snapshot_s": self_s("instrumentation.snapshot"),
        "instrumentation.regions": count("instrumentation.end"),
        "hardware.clock_advances": count("hardware.clock_advance"),
        "hardware.advance_s": self_s("hardware.clock_advance"),
        "mpi.phases": count("mpi.phase"),
        "mpi.phase_s": self_s("mpi.phase"),
        "slurm.job_s": self_s("slurm.job"),
        "audit.s": self_s("audit.hook"),
        "audit.findings": counters.get("audit.findings", 0),
        "timeseries.records": count("timeseries.record"),
        "timeseries.record_s": self_s("timeseries.record"),
        "timeseries.export_s": self_s("timeseries.export"),
        "timeseries.export_bytes": counters.get("timeseries.export_bytes", 0),
        "timeseries.extend_calls": count("timeseries.extend"),
        "timeseries.extend_s": self_s("timeseries.extend"),
        "timeseries.range_query_s": self_s("timeseries.range_query"),
        "sph.other_s": sph_other / steps if steps else 0.0,
        "campaign.execute_key_s": self_s("campaign.execute_key"),
        "campaign.store_put_s": self_s("campaign.store_put"),
        "campaign.store_get_s": self_s("campaign.store_get"),
        "campaign.lease_steals": counters.get("campaign.lease_steals", 0),
        "campaign.executed": counters.get("campaign.executed", 0),
        "campaign.cached": counters.get("campaign.cached", 0),
        "service.frames": counters.get("service.frames", 0),
        "service.drained_samples": counters.get("service.drained_samples", 0),
        "service.decode_s": self_s("service.decode"),
        "service.parse_s": self_s("service.parse"),
        "service.offer_s": self_s("service.offer"),
        "service.drain_s": self_s("service.drain"),
        "trace.wall_s": wall,
        "trace.unattributed_s": unattributed,
    }
    for function in SPH_FUNCTIONS:
        total = self_s(f"sph.{function}")
        values[f"sph.{function}_s"] = total / steps if steps else 0.0
    if outcome.untraced_wall_s > 0:
        values["trace.overhead_ratio"] = (
            outcome.traced_wall_s / outcome.untraced_wall_s - 1.0
        )
    for name, value in outcome.layer_extra.items():
        if name in PER_LAYER:
            values[name] = value
    values["fail_ratio"] = outcome.failed / max(outcome.attempted, 1)
    metrics = {name: float(values.get(name, 0.0)) for name in PER_LAYER}
    return metrics, layers, wall, unattributed
