"""The repository benchmark: one workload, timed end to end or traced by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload report-lumig --seed 0 --seconds 26 --trace 0

Workloads (see each module's docstring):

``report-lumig``   the ``report`` command on LUMI-G, 32 cards: the measurement path
``sph-solver``     the real SPH solver: N = 19 683 driven turbulence, N = 4 000 Evrard
``campaign-fig4``  ``campaign run fig4 --federate 2``, cold then warm
``service-ingest`` ``serve`` in its own process under a 1 000-node, 1 kHz publisher

Every operation's output is checked, and each failed check counts in
``failed``; ``correct`` is true when no check failed.  A query over the
service's latency limit also counts in ``failed``, though its output is
right.  For the default seed the outputs must also equal the
committed ``reference.json``; other seeds check the invariants only.
With ``--trace 0`` the last line carries the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` an untraced and a traced
iteration run, and it carries the per-layer metrics, while the lines
before it attribute the traced wall time to layers.

The iterations of a run do identical work, so each timing is the
fastest of its repeats in the run (the minimum-of-repeats rule: on a
shared host, interference only ever adds time); ``setup_s`` is the
median of the run's set-ups.

The program runs in child processes with every ``REPRO_*`` variable
removed, one BLAS/OpenMP thread, and all caches, artifacts and span
files in a scratch directory under ``.perfbench_tmp/`` that is removed
at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import sys

import common

WORKLOADS = ("report-lumig", "sph-solver", "campaign-fig4", "service-ingest")
#: The seed whose outputs ``reference.json`` holds.
DEFAULT_SEED = 0
REFERENCE = common.HERE / "reference.json"


def workload_module(name: str):
    """The module of a workload: ``report-lumig`` is ``report_lumig``."""
    return importlib.import_module(name.replace("-", "_"))


def reference_for(workload: str, seed: int) -> dict | None:
    if seed != DEFAULT_SEED:
        return None
    return json.loads(REFERENCE.read_text())[workload]


def _git_sha() -> str | None:
    """The checkout's commit, read from ``.git`` without leaving it."""
    git = common.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((common.SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(common.SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _ram_mb() -> float:
    return round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20, 1)


def _l3_size() -> str | None:
    try:
        size = os.sysconf("SC_LEVEL3_CACHE_SIZE")
    except (ValueError, OSError):
        size = 0
    if size > 0:
        return f"{size // 1024}K"
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size") as handle:
            return handle.read().strip()
    except OSError:
        return None


def provenance(workload: str, seed: int) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "l3": _l3_size(),
        "ram_mb": _ram_mb(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def print_attribution(layers: dict[str, float], wall: float, unattributed: float,
                      overhead: float) -> None:
    print(f"attribution of {wall:.3f} traced process-seconds:")
    for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:>16} {seconds:9.3f} s  {seconds / wall:6.1%}")
    print(f"  {'unattributed':>16} {unattributed:9.3f} s  {unattributed / wall:6.1%}")
    total = sum(layers.values()) + unattributed
    print(f"  {'sum':>16} {total:9.3f} s  (traced wall {wall:.3f} s)")
    print(f"tracing overhead: {overhead:+.1%} of the untraced iteration's wall")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        common.require_program()
    except common.BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    common.use_program_in_this_process()
    common.compile_program()
    module = workload_module(args.workload)
    record = {"provenance": provenance(args.workload, args.seed)}
    with common.Scratch() as scratch:
        outcome = module.run(
            args.seed, args.seconds, bool(args.trace), scratch,
            reference_for(args.workload, args.seed),
        )
        if args.trace:
            import outcome as outcome_mod

            metrics, layers, wall, unattributed = outcome_mod.layer_metrics(outcome)
            units = outcome_mod.PER_LAYER
    for problem in outcome.problems:
        print(f"FAILED: {problem}")
    for miss in outcome.misses:
        print(f"MISSED: {miss}")
    if args.trace:
        if not outcome.span_files:
            print("error: the traced iteration produced no spans", file=sys.stderr)
            return 1
        print_attribution(layers, wall, unattributed, metrics["trace.overhead_ratio"])
        result_metrics = {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        }
    else:
        if not outcome.metrics:
            print("error: no iteration completed", file=sys.stderr)
            return 1
        for name, (value, unit) in {**outcome.named, **outcome.metrics}.items():
            count = outcome.samples.get(name)
            suffix = f"  (n={count})" if count else ""
            print(f"{name:>28} = {value:.6g} {unit}{suffix}")
        print(f"{'fail_ratio':>28} = {outcome.failed}/{outcome.attempted}")
        result_metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        }
    record.update(
        attempted=outcome.attempted,
        failed=outcome.failed,
        samples=outcome.samples,
        named={k: {"value": v, "unit": u} for k, (v, u) in outcome.named.items()},
    )
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not outcome.problems,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
