"""Tests of the benchmark's own logic (not of the program it measures).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import campaign_fig4  # noqa: E402
import common  # noqa: E402
import report_lumig  # noqa: E402
import service_ingest  # noqa: E402
import tracing  # noqa: E402
from outcome import Outcome, attribution  # noqa: E402


# -- spans and self time -------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > b [2, 3];  root > c [5, 9]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    import numpy as np

    self_s = tracing.self_times(np.array(parent), np.array(start), np.array(end))
    assert list(self_s) == [3.0, 2.0, 1.0, 4.0]
    assert self_s.sum() == 10.0  # the root's duration, nothing counted twice


def test_recorded_nested_spans_add_up_to_the_root(tmp_path, monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(tracing, "now", lambda: float(next(ticks)))
    recorder = tracing.SpanRecorder(tmp_path / "spans.npz", iteration=7)
    inner = tracing.wrap(recorder, "b.inner", lambda: None)

    def middle():
        inner()
        inner()

    outer = tracing.wrap(recorder, "a.outer", tracing.wrap(recorder, "a.middle", middle))
    outer()
    recorder.count("a.things", 3)
    recorder.flush()

    summary = tracing.summarize([tmp_path / "spans.npz"])
    spans = summary["spans"]
    assert spans["b.inner"] == {"count": 2, "self_s": 2.0}
    assert spans["a.middle"]["self_s"] == 3.0  # 5 ticks minus two 1-tick children
    assert spans["a.outer"]["self_s"] == 2.0
    assert summary["counters"] == {"a.things": 3}
    (root,) = summary["roots"]
    assert root[2] - root[1] == sum(s["self_s"] for s in spans.values())
    assert set(tracing.load_spans(tmp_path / "spans.npz")["iteration"]) == {7}


def test_attribution_remainder_closes_the_sum(tmp_path, monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(tracing, "now", lambda: float(next(ticks)))
    recorder = tracing.SpanRecorder(tmp_path / "spans.npz", iteration=0)
    tracing.wrap(recorder, "sensors.read", lambda: None)()
    recorder.flush()
    outcome = Outcome(span_files=[tmp_path / "spans.npz"], traced_wall_s=5.0)
    _, layers, wall, unattributed = attribution(outcome)
    assert layers == {"sensors": 1.0}
    assert wall == 5.0 and unattributed == 4.0


# -- percentiles ---------------------------------------------------------------


def test_percentile_needs_ten_samples_beyond_it():
    assert not common.tail_ok(99, 90)
    assert common.tail_ok(100, 90)
    assert common.tail_ok(20, 50) and not common.tail_ok(19, 50)
    assert not common.tail_ok(999, 99) and common.tail_ok(1000, 99)


def test_percentile_interpolates_between_ranks():
    values = list(range(1, 101))
    assert common.percentile(values, 50) == 50.5
    assert common.percentile(values, 90) == pytest.approx(90.1)
    assert common.percentile([3.0], 90) == 3.0


def test_iterations_end_near_the_deadline(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(common.time, "monotonic", lambda: clock[0])

    def run(seconds, **kwargs):
        clock[0] = 0.0
        ran = []
        for i, traced in common.iterations(seconds, **kwargs):
            ran.append((i, traced))
            clock[0] += 3.0  # each iteration takes 3 s
        return ran

    # A fourth iteration would be half done at 10.5 s.
    assert run(10.0, trace=False) == [(0, False), (1, False), (2, False)]
    assert len(run(11.0, trace=False)) == 4
    assert len(run(1.0, trace=False, min_untraced=2)) == 2
    assert run(10.0, trace=True) == [(0, False), (1, True)]


# -- output checks count as failures --------------------------------------------

REPORT = """\
Function-level GPU energy, Subsonic Turbulence on LUMI-G:
                Function  Energy [MJ]    Share   Time [s]
          MomentumEnergy        3.508   41.1%      237.4
      IADVelocityDivCurl        2.140   25.1%      140.0

PMT/Slurm = 0.831 (quality: ok)

Energy audit: ok — 832029 checks, 0 findings (region-window: 352000)
"""


def _artifacts(tmp_path: Path) -> Path:
    for kind in report_lumig.ARTIFACT_KINDS:
        (tmp_path / f"run{kind}").write_text("x")
    return tmp_path


def test_report_matching_reference_passes(tmp_path):
    reference = {
        "pmt_slurm": report_lumig.pmt_slurm_line(REPORT),
        "gpu_function_table": report_lumig.gpu_function_table(REPORT),
    }
    outcome = Outcome()
    assert report_lumig.check_report(outcome, REPORT, _artifacts(tmp_path), reference)
    assert outcome.problems == []


def test_tampered_report_reference_is_a_failure(tmp_path):
    reference = {
        "pmt_slurm": "PMT/Slurm = 0.832 (quality: ok)",
        "gpu_function_table": report_lumig.gpu_function_table(REPORT),
    }
    outcome = Outcome()
    assert not report_lumig.check_report(outcome, REPORT, _artifacts(tmp_path), reference)
    assert outcome.problems == ["report: PMT/Slurm ratio differs from the reference"]


def test_report_with_audit_findings_is_a_failure(tmp_path):
    stdout = REPORT.replace("0 findings", "2 findings")
    outcome = Outcome()
    assert not report_lumig.check_report(outcome, stdout, _artifacts(tmp_path), None)


FIG4 = """\
side^3     1410    1230    1005
  200^3   1.000   0.872   0.754
  300^3   1.000   0.892   0.794
  450^3   1.000   0.913   0.834
"""


COLD = FIG4 + "Campaign 'fig4': 9 points (0 cached, 9 executed)\nTelemetry QC: ok\n"
WARM = FIG4 + "Campaign 'fig4': 9 points (9 cached, 0 executed)\n"


def test_tampered_campaign_reference_is_a_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(campaign_fig4, "census", lambda cache: (0, 0))
    good = {"fig4_table": FIG4.rstrip("\n")}
    assert campaign_fig4.check_cold(Outcome(), COLD, tmp_path, good)
    tampered = {"fig4_table": FIG4.replace("0.913", "0.914").rstrip("\n")}
    outcome = Outcome()
    assert not campaign_fig4.check_cold(outcome, COLD, tmp_path, tampered)
    assert outcome.problems == ["campaign: fig4 table differs from the reference"]


def test_campaign_lost_run_is_a_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(campaign_fig4, "census", lambda cache: (1, 0))
    assert not campaign_fig4.check_cold(Outcome(), COLD, tmp_path, None)


def test_warm_run_that_executes_is_a_failure():
    assert campaign_fig4.check_warm(Outcome(), WARM, COLD)
    rerun = WARM.replace("(9 cached, 0 executed)", "(8 cached, 1 executed)")
    assert not campaign_fig4.check_warm(Outcome(), rerun, COLD)


class _Frames:
    total_samples = 1000

    def integrated(self, node):
        return 5.0


def _ledger(**changes):
    ledger = {
        "samples_offered": 1000, "samples_ingested": 1000, "samples_shed": 0,
        "samples_rejected": 0, "pending_samples": 0,
    }
    ledger.update(changes)
    return {"ledger": ledger, "energy": {3: 5.0}}


def test_clean_ingest_passes():
    assert service_ingest.check_ingest(Outcome(), _Frames(), _ledger())


def test_forced_shed_is_a_failure():
    outcome = Outcome()
    measured = _ledger(samples_ingested=800, samples_shed=200)
    assert not service_ingest.check_ingest(outcome, _Frames(), measured)
    assert any("shed 200" in p for p in outcome.problems)


def test_wrong_energy_is_a_failure():
    measured = _ledger()
    measured["energy"] = {3: 5.000001}
    assert not service_ingest.check_ingest(Outcome(), _Frames(), measured)


# -- the benchmark stays out of the repository's own test and bench runs --------


def test_benchmark_files_are_not_collected_by_tier1_or_bench():
    config = tomllib.loads((ROOT / "pyproject.toml").read_text())["tool"]["pytest"]
    assert config["ini_options"]["testpaths"] == ["tests"]
    # `make bench` / `make bench-smoke` collect `benchmarks/`; tier-1 `tests/`.
    for collected in ("tests", "benchmarks"):
        assert not (ROOT / collected).resolve().is_relative_to(HERE)
        assert not HERE.is_relative_to((ROOT / collected).resolve())
    # pyproject collects bench_*.py files and bench_* functions.
    assert not list(HERE.rglob("bench_*.py"))
    for path in HERE.rglob("*.py"):
        assert "\ndef bench_" not in path.read_text(), path


def test_collection_of_bench_dir_holds_no_benchmark_file():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "benchmarks"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env=common.child_env(),
    )
    assert proc.returncode == 0, proc.stdout[-2000:]
    assert "perfbench" not in proc.stdout
