"""Workload ``report-lumig``: the paper's per-device, per-function report.

Each iteration runs, in a fresh process::

    python -m repro report --system LUMI-G --case "Subsonic Turbulence" \\
        --cards 32 --steps 20 --timeseries --audit-strict

with its artifacts in the iteration's scratch directory.  Almost all of
its host time is the measurement path (sysfs parsing, counter reads,
profiler snapshots, sampler ticks into the tiered store, exporters);
the real solver does no work here.
"""

from __future__ import annotations

import re
from pathlib import Path

import common
from outcome import Outcome

STEPS = 20
ARTIFACT_KINDS = (".trace.json", ".prom", ".samples.csv", ".samples.jsonl")


def argv(artifacts_dir: Path) -> list[str]:
    return [
        "report", "--system", "LUMI-G", "--case", "Subsonic Turbulence",
        "--cards", "32", "--steps", str(STEPS), "--timeseries",
        "--audit-strict", "--artifacts-dir", str(artifacts_dir),
    ]


def gpu_function_table(stdout: str) -> str:
    """The ``Function-level GPU energy`` block of a report."""
    lines = stdout.splitlines()
    for start, line in enumerate(lines):
        if line.startswith("Function-level GPU energy"):
            end = start
            while end < len(lines) and lines[end].strip():
                end += 1
            return "\n".join(lines[start:end])
    return ""


def pmt_slurm_line(stdout: str) -> str:
    found = re.search(r"^PMT/Slurm = .*$", stdout, re.MULTILINE)
    return found.group(0) if found else ""


def check_report(outcome: Outcome, stdout: str, artifacts_dir: Path, reference: dict | None) -> bool:
    """Strict audit clean, PMT/Slurm quality ok, artifacts written and,
    with a reference, the ratio and GPU function table equal to it."""
    checks = []
    audit = re.search(r"^Energy audit: ok .* (\d+) checks, 0 findings", stdout, re.MULTILINE)
    checks.append(outcome.check(audit is not None and int(audit.group(1)) > 0,
                  "report: strict audit not clean"))
    ratio = pmt_slurm_line(stdout)
    checks.append(outcome.check(ratio.endswith("(quality: ok)"),
                                f"report: PMT/Slurm line {ratio!r}"))
    table = gpu_function_table(stdout)
    checks.append(outcome.check(table.count("\n") >= 3,
                                "report: no per-function GPU energy table"))
    written = sorted(p.name for p in artifacts_dir.glob("*") if p.stat().st_size > 0)
    checks.append(outcome.check(
        all(any(name.endswith(kind) for name in written) for kind in ARTIFACT_KINDS),
        f"report: artifacts missing, found {written}",
    ))
    if reference is not None:
        checks.append(outcome.check(ratio == reference["pmt_slurm"],
                                    "report: PMT/Slurm ratio differs from the reference"))
        checks.append(outcome.check(
            table == reference["gpu_function_table"],
            "report: GPU function table differs from the reference",
        ))
    return all(checks)


def run(seed: int, seconds: float, trace: bool, scratch: Path, reference: dict | None) -> Outcome:
    outcome = Outcome()
    setups, hosts, walls, rss = [], [], [], []
    for i, traced in common.iterations(seconds, trace, min_untraced=2):
        workdir = scratch / f"report{i}"
        workdir.mkdir()
        artifacts = workdir / "artifacts"
        job = {
            "mode": "cli", "argv": argv(artifacts), "seed": seed,
            "iteration": i,
            "trace_out": str(workdir / "spans.npz") if traced else "",
        }
        child = common.launch(job, workdir, "report")
        ran = outcome.check(
            child.code == 0 and child.result is not None,
            f"report: exit code {child.code}: {common.stderr_tail(workdir, 'report')}",
        )
        ok = ran and check_report(outcome, child.stdout, artifacts, reference)
        outcome.ops(1, 0 if ok else 1)
        if not ran:
            continue
        if traced:
            outcome.span_files.append(workdir / "spans.npz")
            outcome.traced_wall_s = child.wall_s
            continue
        result = child.result
        outcome.untraced_wall_s = child.wall_s
        setups.append(result["t_ready"] - child.t_spawn)
        hosts.append(result["t_done"] - result["t_ready"])
        walls.append(child.wall_s)
        rss.append(child.max_rss_mb)
    if hosts:
        rate = STEPS / min(hosts)
        outcome.metrics = {
            "setup_s": (common.median(setups), "s"),
            "peak_rss_mb": (max(rss), "MB"),
            "throughput": (rate, "1/s"),
            "latency_ms": (min(walls) * 1e3, "ms"),
        }
        outcome.named = {
            "report_steps_per_s": (rate, "steps/s"),
            "report_command_s": (min(walls), "s"),
        }
        outcome.samples = {
            "report_steps_per_s": len(hosts), "report_command_s": len(walls),
            "setup_s": len(setups),
        }
    return outcome
