"""Workload ``sph-solver``: the real SPH solver, bypassing the measurement path.

Each iteration is a fresh process running the default engine (CSR, ``accel="numpy"``, one
BLAS thread): driven subsonic turbulence at N = 27^3 = 19 683
(``make_turbulence`` + ``TurbulenceDriver``) and an Evrard collapse at
N = 4 000 with Barnes-Hut gravity.  Set-up is the imports, the initial
conditions and each box's first step, which builds the Verlet list
cold; the timed steps come after, the two boxes taking turns.  The step
counts are fixed, so every iteration does the same work for a given
seed, and a run makes at least two, so set-up is timed more than once.
A box's step time is its fastest timed step in the run (the
minimum-of-repeats rule, see ``run.py``).  That is a step reusing the
Verlet list: the steps that rebuild it are slower, and their cost shows
in ``setup_s``, whose first steps build it cold.
"""

from __future__ import annotations

import math
from pathlib import Path

import common
from outcome import Outcome

SPH = {"turb_n_side": 27, "turb_steps": 3, "evrard_n": 4000, "evrard_steps": 6}
#: Relative tolerance of the conservation totals against the reference
#: (the same arithmetic on another BLAS may round differently).
TOTALS_RTOL = 1e-9


def _close(a: list[float], b: list[float]) -> bool:
    return len(a) == len(b) and all(
        math.isclose(x, y, rel_tol=TOTALS_RTOL, abs_tol=1e-12) for x, y in zip(a, b)
    )


def check_solver(outcome: Outcome, result: dict, reference: dict | None) -> dict[str, int]:
    """Failed steps per box: non-finite state, mass not conserved, or
    (with a reference) ``n_pairs`` or conservation totals that differ."""
    failed = {}
    for box in ("turb", "evrard"):
        steps = [result["cold"][box], result["timed"][box]]
        bad = not all(
            outcome.check(s["finite"], f"sph: {box} state is not finite") for s in steps
        )
        bad |= not outcome.check(
            math.isclose(steps[-1]["mass"], result["mass0"][box], rel_tol=1e-12),
            f"sph: {box} mass changed",
        )
        if reference is not None:
            pairs = steps[0]["n_pairs"] + steps[1]["n_pairs"]
            totals = steps[0]["totals"] + steps[1]["totals"]
            bad |= not outcome.check(
                pairs == reference[box]["n_pairs"],
                f"sph: {box} n_pairs {pairs} differ from the reference",
            )
            bad |= not outcome.check(
                all(_close(a, b) for a, b in zip(totals, reference[box]["totals"])),
                f"sph: {box} conservation totals differ from the reference",
            )
        failed[box] = len(steps[1]["step_s"]) if bad else 0
    return failed


def reference_of(result: dict) -> dict:
    """The reference entry a run's result would produce."""
    return {
        box: {
            "n_pairs": result["cold"][box]["n_pairs"] + result["timed"][box]["n_pairs"],
            "totals": result["cold"][box]["totals"] + result["timed"][box]["totals"],
        }
        for box in ("turb", "evrard")
    }


def run(seed: int, seconds: float, trace: bool, scratch: Path, reference: dict | None) -> Outcome:
    outcome = Outcome()
    setups, turb, evrard, rss = [], [], [], []
    for i, traced in common.iterations(seconds, trace, min_untraced=2):
        workdir = scratch / f"sph{i}"
        workdir.mkdir()
        job = {
            "mode": "sph", "sph": SPH, "seed": seed, "iteration": i,
            "trace_out": str(workdir / "spans.npz") if traced else "",
        }
        child = common.launch(job, workdir, "sph")
        steps = SPH["turb_steps"] + SPH["evrard_steps"]
        if not outcome.check(
            child.code == 0 and child.result is not None,
            f"sph: exit code {child.code}: {common.stderr_tail(workdir, 'sph')}",
        ):
            outcome.ops(steps, steps)
            continue
        result = child.result
        failed = check_solver(outcome, result, reference)
        outcome.ops(steps, sum(failed.values()))
        if traced:
            timed = [result["cold"][b] for b in ("turb", "evrard")] + [
                result["timed"][b] for b in ("turb", "evrard")
            ]
            pairs = [p for s in timed for p in s["n_pairs"]]
            rebuilt = [r for s in timed for r in s["rebuilt"]]
            outcome.layer_extra.update({
                "sph.pairs_per_step": sum(pairs) / len(pairs),
                "sph.rebuild_ratio": sum(rebuilt) / len(rebuilt),
            })
            outcome.span_files.append(workdir / "spans.npz")
            outcome.traced_wall_s = child.wall_s
            continue
        outcome.untraced_wall_s = child.wall_s
        setups.append(result["t_ready"] - child.t_spawn)
        turb += result["timed"]["turb"]["step_s"]
        evrard += result["timed"]["evrard"]["step_s"]
        rss.append(child.max_rss_mb)
    if turb:
        turb_rate, evrard_rate = 1 / min(turb), 1 / min(evrard)
        outcome.metrics = {
            "setup_s": (common.median(setups), "s"),
            "peak_rss_mb": (max(rss), "MB"),
            "throughput": (turb_rate, "1/s"),
            "latency_ms": (1e3 / evrard_rate, "ms"),
        }
        outcome.named = {
            "solver_turb_steps_per_s": (turb_rate, "steps/s"),
            "solver_evrard_steps_per_s": (evrard_rate, "steps/s"),
        }
        outcome.samples = {
            "solver_turb_steps_per_s": len(turb),
            "solver_evrard_steps_per_s": len(evrard),
            "setup_s": len(setups),
        }
    return outcome
