"""One benchmark iteration inside a fresh process.

Usage (from the parent benchmark only)::

    python perfbench/launch.py <job.json>

The job file names the mode, the seed, the iteration id, where to write
the result and, for a traced iteration, the span file.  Modes:

``cli``
    Import ``repro.cli`` (the end of set-up), then call
    ``repro.cli.main(argv)``.  ``report`` has no ``--seed`` option, so
    the job's seed is handed to ``run_scaled_experiment``, the function
    the command calls, as its default (commands that pass a seed of
    their own keep it).
``sph``
    Build the turbulence and Evrard boxes, take each box's first
    (cold-build) step as set-up, then time a fixed number of steps of
    each, the two boxes taking turns.

The result file holds ``CLOCK_MONOTONIC`` stamps, so the parent can
measure from the moment it spawned this process.
"""

from __future__ import annotations

import json
import sys
import time


def _seed_experiment(seed: int) -> None:
    import repro.experiments.runner as runner

    original = runner.run_scaled_experiment

    def seeded(*args, **kwargs):
        kwargs.setdefault("seed", seed)
        return original(*args, **kwargs)

    runner.run_scaled_experiment = seeded


def run_cli(job: dict, recorder) -> dict:
    if recorder is not None:
        with recorder.span("cli.import"):
            import repro.cli
    else:
        import repro.cli
    t_ready = time.monotonic()
    _seed_experiment(job["seed"])
    if recorder is not None:
        import tracing

        tracing.install(recorder)
    code = repro.cli.main(job["argv"])
    return {"t_ready": t_ready, "t_done": time.monotonic(), "code": code}


def _step_schedule(steps: dict[str, int]) -> list[str]:
    """Box names in step order, each box's steps spread evenly over the run."""
    slots = [((k + 0.5) / n, box) for box, n in steps.items() for k in range(n)]
    return [box for _, box in sorted(slots)]


def _run_steps(sims: dict, steps: dict[str, int]) -> dict:
    """Step the boxes in :func:`_step_schedule` order, timing each step."""
    import numpy as np

    record = {box: {"step_s": [], "n_pairs": [], "rebuilt": [], "totals": []} for box in sims}
    for box in _step_schedule(steps):
        t0 = time.monotonic()
        stats = sims[box].step()
        out = record[box]
        out["step_s"].append(time.monotonic() - t0)
        out["n_pairs"].append(int(stats.n_pairs))
        out["rebuilt"].append(bool(stats.neighbors_rebuilt))
        t = stats.totals
        out["totals"].append(
            [t.kinetic, t.internal, t.potential,
             *map(float, t.momentum), *map(float, t.angular_momentum)]
        )
    for box, sim in sims.items():
        ps = sim.ps
        record[box]["mass"] = ps.total_mass()
        record[box]["finite"] = all(
            bool(np.isfinite(getattr(ps, field)).all())
            for field in ("pos", "vel", "u", "h", "rho", "mass")
        )
    return record


def run_sph(job: dict, recorder) -> dict:
    from repro.sph import ProfilingHooks, Simulation
    from repro.sph.driving import TurbulenceDriver
    from repro.sph.initial_conditions import make_evrard, make_turbulence
    from repro.sph.propagator import Propagator

    if recorder is not None:
        import tracing

        tracing.install(recorder)
    seed = job["seed"]
    sph = job["sph"]

    def hooks():
        h = ProfilingHooks()
        if recorder is not None:
            h.subscribe(tracing.SphRegions(recorder))
        return h

    ps, box = make_turbulence(n_side=sph["turb_n_side"], seed=seed)
    driver = TurbulenceDriver(box, amplitude=2.0, correlation_time=0.5, seed=seed)
    sims = {"turb": Simulation(ps, Propagator(box, driver=driver), hooks())}
    mass0 = {"turb": ps.total_mass()}
    cold = _run_steps(sims, {"turb": 1})
    ps, box = make_evrard(n=sph["evrard_n"], seed=seed)
    sims["evrard"] = Simulation(ps, Propagator(box, gravity=True), hooks())
    mass0["evrard"] = ps.total_mass()
    cold.update(_run_steps({"evrard": sims["evrard"]}, {"evrard": 1}))
    t_ready = time.monotonic()
    # The boxes take turns, so both rates are measured over the same span
    # of time and a change in the host's speed reaches both alike.
    timed = _run_steps(sims, {"turb": sph["turb_steps"], "evrard": sph["evrard_steps"]})
    return {
        "t_ready": t_ready,
        "t_done": time.monotonic(),
        "code": 0,
        "cold": cold,
        "timed": timed,
        "mass0": mass0,
    }


def main(job_path: str) -> int:
    with open(job_path) as handle:
        job = json.load(handle)
    recorder = None
    if job.get("trace_out"):
        import tracing

        recorder = tracing.SpanRecorder(job["trace_out"], job["iteration"])
    try:
        result = (run_sph if job["mode"] == "sph" else run_cli)(job, recorder)
    finally:
        if recorder is not None:
            recorder.flush()
    with open(job["result"], "w") as handle:
        json.dump(result, handle)
    return int(result["code"] or 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
