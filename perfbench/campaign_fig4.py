"""Workload ``campaign-fig4``: the fig4 sweep, cold and then warm.

Each iteration, in a fresh cache root, runs in fresh processes::

    python -m repro campaign run fig4 --federate 2 --cache-dir <root> --seed <seed>

once cold and then ``WARM_RUNS`` times warm.  The cold run drains the 9
miniHPC points through 2 lease-queue workers (store writes); a warm run
finds 9 cache hits (store reads), which is where CLI start-up shows.
A warm run takes about half a second, so it is repeated for a steadier
mean.  It measures through the NVML+RAPL
composite and the resilient ladder on one node, with no sampler, so a
change to the Cray/sysfs path shows in ``report-lumig`` and not here.
"""

from __future__ import annotations

import re
from pathlib import Path

import common
import tracing
from outcome import Outcome

POINTS = 9
WORKERS = 2
WARM_RUNS = 3


def argv(cache: Path, seed: int) -> list[str]:
    return [
        "campaign", "run", "fig4", "--federate", str(WORKERS),
        "--cache-dir", str(cache), "--seed", str(seed),
    ]


def fig4_table(stdout: str) -> str:
    """The normalised EDP table (header plus one row per cube side)."""
    lines = stdout.replace("\r", "\n").splitlines()
    for start, line in enumerate(lines):
        if line.startswith("side^3"):
            return "\n".join(lines[start:start + 4])
    return ""


def summary_counts(stdout: str) -> tuple[int, int] | None:
    """``(cached, executed)`` from the campaign summary line."""
    found = re.search(
        rf"Campaign 'fig4': {POINTS} points \((\d+) cached, (\d+) executed", stdout
    )
    return (int(found.group(1)), int(found.group(2))) if found else None


def census(cache: Path) -> tuple[int, int]:
    """``(lost, duplicated)`` runs of a drain, from the store and journals."""
    from repro.campaign import ResultStore
    from repro.campaign.queue import Journal

    archived = {path.stem for path in ResultStore(cache).entries()}
    journalled = Journal.executed_digests(cache)
    lost = POINTS - len(archived & set(journalled))
    return lost, len(journalled) - len(set(journalled))


def check_cold(outcome: Outcome, cold: str, cache: Path, reference: dict | None) -> bool:
    """9 executed, nothing lost or run twice, QC ok, and the reference table."""
    table = fig4_table(cold)
    lost, duplicated = census(cache)
    return all([
        outcome.check(summary_counts(cold) == (0, POINTS),
                      f"campaign: cold run counts {summary_counts(cold)}"),
        outcome.check(table.count("\n") == 3, "campaign: no fig4 table"),
        outcome.check((lost, duplicated) == (0, 0),
                      f"campaign: census lost={lost} duplicated={duplicated}"),
        outcome.check("Telemetry QC: ok" in cold, "campaign: telemetry QC not ok"),
        outcome.check(reference is None or table == reference["fig4_table"],
                      "campaign: fig4 table differs from the reference"),
    ])


def check_warm(outcome: Outcome, warm: str, cold: str) -> bool:
    """9 cached, 0 executed, and the cold run's table."""
    return all([
        outcome.check(summary_counts(warm) == (POINTS, 0),
                      f"campaign: warm run counts {summary_counts(warm)}"),
        outcome.check(fig4_table(warm) == fig4_table(cold),
                      "campaign: warm table differs from the cold one"),
    ])


def _worker_metrics(cold_spans: Path) -> tuple[dict[str, float], list[Path]]:
    """Busy ratio of the drain workers, execute time / (workers x drain
    wall), and the span files the forked workers wrote."""
    forks = sorted(cold_spans.parent.glob(cold_spans.name + ".*"))
    busy, starts, ends = 0.0, [], []
    for path in forks:
        spans = tracing.load_spans(path)
        names = spans["names"]
        for index, name_id in enumerate(spans["name"]):
            name = names[name_id]
            duration = spans["end"][index] - spans["start"][index]
            if name == "campaign.execute_key":
                busy += duration
            elif name == "campaign.drain":
                starts.append(spans["start"][index])
                ends.append(spans["end"][index])
    wall = max(ends) - min(starts) if starts else 0.0
    return {"campaign.worker_busy_ratio": busy / (WORKERS * wall) if wall else 0.0}, forks


def run(seed: int, seconds: float, trace: bool, scratch: Path, reference: dict | None) -> Outcome:
    outcome = Outcome()
    setups, colds, warms, rss = [], [], [], []
    for i, traced in common.iterations(seconds, trace, min_untraced=3):
        workdir = scratch / f"campaign{i}"
        workdir.mkdir()
        cache = workdir / "cache"
        children = {}
        for phase in ("cold", *(f"warm{k}" for k in range(WARM_RUNS))):
            job = {
                "mode": "cli", "argv": argv(cache, seed), "seed": seed,
                "iteration": i,
                "trace_out": str(workdir / f"{phase}.npz") if traced else "",
            }
            children[phase] = common.launch(job, workdir, phase)
        ran = all(
            outcome.check(
                child.code == 0 and child.result is not None,
                f"campaign: {phase} exit code {child.code}: "
                f"{common.stderr_tail(workdir, phase)}",
            )
            for phase, child in children.items()
        )
        cold = children.pop("cold")
        warm = list(children.values())
        if not ran:
            outcome.ops(POINTS * (1 + WARM_RUNS), POINTS * (1 + WARM_RUNS))
            continue
        cold_ok = check_cold(outcome, cold.stdout, cache, reference)
        outcome.ops(POINTS, 0 if cold_ok else POINTS)
        for child in warm:
            warm_ok = check_warm(outcome, child.stdout, cold.stdout)
            outcome.ops(POINTS, 0 if warm_ok else POINTS)
        walls = cold.wall_s + sum(child.wall_s for child in warm)
        if traced:
            extra, forks = _worker_metrics(workdir / "cold.npz")
            outcome.layer_extra.update(extra)
            from repro.campaign.queue import FailureLog

            outcome.layer_extra["campaign.failures"] = len(FailureLog(cache).all_failures())
            outcome.span_files += sorted(workdir.glob("*.npz")) + forks
            outcome.traced_wall_s = walls
            continue
        outcome.untraced_wall_s = walls
        for child in (cold, *warm):
            setups.append(child.result["t_ready"] - child.t_spawn)
            rss.append(child.max_rss_mb)
        colds.append(cold.wall_s)
        warms.extend(child.wall_s for child in warm)
    if colds:
        cold_s, warm_s = min(colds), min(warms)
        outcome.metrics = {
            "setup_s": (common.median(setups), "s"),
            "peak_rss_mb": (max(rss), "MB"),
            "throughput": (POINTS / cold_s, "1/s"),
            "latency_ms": (warm_s * 1e3, "ms"),
        }
        outcome.named = {
            "campaign_cold_s": (cold_s, "s"),
            "campaign_warm_s": (warm_s, "s"),
        }
        outcome.samples = {
            "campaign_cold_s": len(colds), "campaign_warm_s": len(warms),
            "setup_s": len(setups),
        }
    return outcome
