"""Write ``reference.json``: the default seed's outputs the benchmark checks.

Run from the root of a checkout, only when the program's outputs change
on purpose::

    python3 perfbench/make_reference.py

``service-ingest`` has no entry: its checks (ledger identity, exact
energies) are invariants that hold for every seed.
"""

from __future__ import annotations

import json
import sys

import campaign_fig4
import common
import report_lumig
import run
import sph_solver


def main() -> int:
    common.require_program()
    common.use_program_in_this_process()
    common.compile_program()
    seed = run.DEFAULT_SEED
    reference = {}
    with common.Scratch() as scratch:
        artifacts = scratch / "artifacts"
        job = {"mode": "cli", "argv": report_lumig.argv(artifacts), "seed": seed,
               "iteration": 0, "trace_out": ""}
        child = common.launch(job, scratch, "report")
        reference["report-lumig"] = {
            "pmt_slurm": report_lumig.pmt_slurm_line(child.stdout),
            "gpu_function_table": report_lumig.gpu_function_table(child.stdout),
        }
        job = {"mode": "cli", "argv": campaign_fig4.argv(scratch / "cache", seed),
               "seed": seed, "iteration": 0, "trace_out": ""}
        child = common.launch(job, scratch, "cold")
        reference["campaign-fig4"] = {"fig4_table": campaign_fig4.fig4_table(child.stdout)}
        job = {"mode": "sph", "sph": sph_solver.SPH, "seed": seed, "iteration": 0,
               "trace_out": ""}
        child = common.launch(job, scratch, "sph")
        reference["sph-solver"] = sph_solver.reference_of(child.result)
    reference["service-ingest"] = None
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
