"""Workload ``service-ingest``: the telemetry service under ingest and queries.

``python -m repro serve`` runs in a process of its own (an in-process
server would share the benchmark's interpreter lock).  This process
holds one publisher connection, a wait-mode tenant of 1 000 nodes at
1 kHz sent as pre-encoded 200-sample frames (``SyntheticSource``,
PowerSensor3 cadence), and one query thread issuing closed-loop
``/query/range`` requests.  Each iteration:

1. set-up: launch ``serve``, read its ports, send ``hello`` and wait for
   the ``sync`` ack;
2. one round of frames (every node's first batch), synced, so every
   queried channel exists;
3. the fixed-rate phase: an open loop sending frames on a schedule of
   ``FIXED_RATE`` samples/s while the query thread runs; each send's
   lateness against its schedule and each query's latency (from its
   send) are recorded, and a query slower than ``QUERY_LIMIT_MS``
   counts as failed;
4. the unthrottled phase: ``UNTHROTTLED_ROUNDS`` rounds sent as fast as
   the service takes them, each timed from its first send to the
   ``sync`` ack that follows it;
5. checks: the ledger identity with nothing shed or rejected, and the
   full-range energy of sampled channels equal to what their sources
   integrated.

Every iteration does the same work, so the timings follow the
minimum-of-repeats rule (see ``run.py``): ``throughput`` is the fastest
unthrottled round's ingest rate and ``latency_ms`` that round's time
from first send to ``sync`` ack.  The query latencies are printed by
name but are not in ``BENCHMARK.json``: a query is a ping-pong between
processes, and on a shared 2-vCPU host its time moved by up to 2x
between stretches of minutes, whichever percentile or window of a run's
queries was taken.

The tenant's name derives from the seed, and the sources' random
streams from the tenant's name.
"""

from __future__ import annotations

import math
import random
import signal
import threading
import time
from pathlib import Path

import common
import tracing
from outcome import Outcome

NODES = 1000
RATE_HZ = 1000.0
BATCH = 200
CHANNEL = "ch0"
#: The fixed-rate phase's offered load: under a fifth of the slowest
#: capacity seen on a 2-vCPU Xeon host (340 k samples/s), so a query's
#: latency is the query path's and not the queue of frames ahead of it,
#: which grows steeply as a slowed host nears its capacity.
FIXED_RATE = 60_000.0
FIXED_ROUNDS = 1
UNTHROTTLED_ROUNDS = 6
QUERY_LIMIT_MS = 50.0
#: Channels whose full-range energy is checked per iteration.
ENERGY_CHECKS = 16
SERVE_TIMEOUT_S = 20.0


class Frames:
    """Every frame one iteration publishes, encoded before anything is timed."""

    def __init__(self, seed: int) -> None:
        from repro.service import SyntheticSource
        from repro.service.protocol import batch_message, encode_frame

        self.tenant = f"bench-{seed}"
        sources = [SyntheticSource(self.tenant, n, CHANNEL, RATE_HZ) for n in range(NODES)]
        self.rounds: list[list[bytes]] = []
        self.first_joules = [0.0] * NODES
        self.last_joules = [0.0] * NODES
        for r in range(1 + FIXED_ROUNDS + UNTHROTTLED_ROUNDS):
            frames = []
            for src in sources:
                columns = src.batch(BATCH)
                if r == 0:
                    self.first_joules[src.node] = columns["joules"][0]
                self.last_joules[src.node] = columns["joules"][-1]
                frames.append(encode_frame(batch_message(src.node, {CHANNEL: columns})))
            self.rounds.append(frames)

    @property
    def total_samples(self) -> int:
        return len(self.rounds) * NODES * BATCH

    def integrated(self, node: int) -> float:
        """Joules the source integrated over everything it sent."""
        return self.last_joules[node] - self.first_joules[node]


def _read_ports(out_path: Path, proc, deadline: float) -> tuple[int, int]:
    while time.monotonic() < deadline:
        text = out_path.read_text() if out_path.is_file() else ""
        for line in text.splitlines():
            if line.startswith("telemetry service on"):
                stream, http = line.split("stream :")[1].split(", http :")
                return int(stream), int(http)
        if proc.poll() is not None:
            break
        time.sleep(0.002)
    raise common.BenchmarkError("serve did not announce its ports")


def _queries(http_port: int, tenant: str, rng: random.Random, stop: threading.Event,
             latencies: list[float], errors: list[str]) -> None:
    from repro.service import http_get_json

    while not stop.is_set():
        node = rng.randrange(NODES)
        t0 = rng.uniform(0.0, 0.1)
        t1 = t0 + rng.uniform(0.05, 0.1)
        path = (f"/query/range?tenant={tenant}&node={node}&channel={CHANNEL}"
                f"&t0={t0:.6f}&t1={t1:.6f}")
        start = time.monotonic()
        try:
            reply = http_get_json("127.0.0.1", http_port, path)
        except Exception as exc:  # noqa: BLE001 - a failed query is counted
            errors.append(repr(exc))
            continue
        latencies.append((time.monotonic() - start) * 1e3)
        if reply["n"] < 1:
            errors.append(f"empty range reply for node {node}")


def iteration(frames: Frames, seed: int, i: int, traced: bool, workdir: Path) -> dict:
    """One serve process under load; returns what was measured."""
    from repro.service import ServiceClient, http_get_json

    job = {
        "mode": "cli", "argv": ["serve"], "seed": seed, "iteration": i,
        "trace_out": str(workdir / "spans.npz") if traced else "",
    }
    proc, t_spawn, result_path = common.start(job, workdir, "serve")
    measured: dict = {"t_spawn": t_spawn}
    try:
        port, http_port = _read_ports(
            workdir / "serve.out", proc, t_spawn + SERVE_TIMEOUT_S
        )
        with ServiceClient("127.0.0.1", port, frames.tenant, source="perfbench") as client:
            client.sync()
            measured["setup_s"] = time.monotonic() - t_spawn
            blocked_s = 0.0

            def send(frame: bytes) -> None:
                # The time a send blocks is the service's backpressure.
                nonlocal blocked_s
                sent = time.monotonic()
                client.publish_encoded(frame, BATCH)
                blocked_s += time.monotonic() - sent

            for frame in frames.rounds[0]:
                send(frame)
            client.sync()

            stop = threading.Event()
            latencies: list[float] = []
            errors: list[str] = []
            query = threading.Thread(
                target=_queries,
                args=(http_port, frames.tenant, random.Random(seed * 1000 + i), stop,
                      latencies, errors),
            )
            query.start()
            lags = []
            interval = BATCH / FIXED_RATE
            try:
                start = time.monotonic()
                k = 0
                for frames_of_round in frames.rounds[1:1 + FIXED_ROUNDS]:
                    for frame in frames_of_round:
                        due = start + k * interval
                        now = time.monotonic()
                        if now < due:
                            time.sleep(due - now)
                            now = time.monotonic()
                        lags.append((now - due) * 1e3)
                        send(frame)
                        k += 1
            finally:
                stop.set()
                query.join()
            client.sync()

            rounds_s = []
            for frames_of_round in frames.rounds[1 + FIXED_ROUNDS:]:
                start = time.monotonic()
                for frame in frames_of_round:
                    send(frame)
                ledger = client.sync()
                rounds_s.append(time.monotonic() - start)

            nodes = random.Random(seed + i).sample(range(NODES), ENERGY_CHECKS)
            energy = {
                node: http_get_json(
                    "127.0.0.1", http_port,
                    f"/query/energy?tenant={frames.tenant}&node={node}&channel={CHANNEL}",
                )["joules"]
                for node in nodes
            }
        measured.update(
            lags=lags, latencies=latencies, errors=errors, ledger=ledger,
            energy=energy, blocked_s=blocked_s,
            rounds_s=rounds_s,
            batches=(FIXED_ROUNDS + UNTHROTTLED_ROUNDS + 1) * NODES,
        )
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
        child = common.finish(proc, t_spawn, result_path, workdir, "serve",
                              timeout_s=SERVE_TIMEOUT_S)
    measured["child"] = child
    return measured


def check_ingest(outcome: Outcome, frames: Frames, measured: dict) -> bool:
    """The ledger identity, nothing shed or rejected, exact energies."""
    ledger = measured["ledger"]
    identity = ledger["samples_offered"] == (
        ledger["samples_ingested"] + ledger["samples_shed"]
        + ledger["samples_rejected"] + ledger["pending_samples"]
    )
    checks = [
        outcome.check(identity, f"service: ledger identity broken: {ledger}"),
        outcome.check(
            ledger["samples_shed"] == 0 and ledger["samples_rejected"] == 0,
            f"service: wait mode shed {ledger['samples_shed']} and rejected "
            f"{ledger['samples_rejected']} samples",
        ),
        outcome.check(
            ledger["samples_offered"] == frames.total_samples,
            f"service: offered {ledger['samples_offered']} of {frames.total_samples}",
        ),
    ]
    for node, joules in measured["energy"].items():
        checks.append(outcome.check(
            math.isclose(joules, frames.integrated(node), rel_tol=1e-12),
            f"service: node {node} energy {joules!r} != source {frames.integrated(node)!r}",
        ))
    return all(checks)


def run(seed: int, seconds: float, trace: bool, scratch: Path, reference: dict | None) -> Outcome:
    from repro.errors import ReproError

    outcome = Outcome()
    encoding = time.monotonic()
    frames = Frames(seed)
    # Encoding the frames counts against the run's time, so a run lasts
    # about ``seconds`` on a slow host too.
    seconds -= time.monotonic() - encoding
    setups, rounds_s, lags, latencies, rss = [], [], [], [], []
    for i, traced in common.iterations(seconds, trace, min_untraced=2):
        workdir = scratch / f"service{i}"
        workdir.mkdir()
        try:
            measured = iteration(frames, seed, i, traced, workdir)
        except (OSError, common.BenchmarkError, ReproError) as exc:
            outcome.check(False, f"service: {exc!r}: {common.stderr_tail(workdir, 'serve')}")
            outcome.ops(1, 1)
            continue
        child = measured["child"]
        ok = check_ingest(outcome, frames, measured)
        outcome.check(child.code == 0, f"service: serve exit code {child.code}")
        over = sum(1 for ms in measured["latencies"] if ms > QUERY_LIMIT_MS)
        if over:
            outcome.misses.append(
                f"service: {over} of {len(measured['latencies'])} queries over the "
                f"{QUERY_LIMIT_MS:g} ms limit"
            )
        for error in measured["errors"][:3]:
            outcome.check(False, f"service: query failed: {error}")
        queries = len(measured["latencies"]) + len(measured["errors"])
        outcome.ops(
            measured["batches"] + queries,
            (0 if ok else measured["batches"]) + over + len(measured["errors"]),
        )
        if traced:
            outcome.span_files.append(workdir / "spans.npz")
            outcome.traced_wall_s = child.wall_s
            outcome.layer_extra.update(_service_extra(workdir / "spans.npz", measured))
            continue
        outcome.untraced_wall_s = child.wall_s
        setups.append(measured["setup_s"])
        rounds_s += measured["rounds_s"]
        lags += measured["lags"]
        latencies += measured["latencies"]
        rss.append(child.max_rss_mb)
    if rounds_s:
        enough = outcome.check(
            common.tail_ok(len(latencies), 90),
            f"service: {len(latencies)} queries are too few for a p90",
        )
        if not enough:
            outcome.ops(1, 1)
        fastest_round = min(rounds_s)
        rate = NODES * BATCH / fastest_round
        outcome.metrics = {
            "setup_s": (common.median(setups), "s"),
            "peak_rss_mb": (max(rss), "MB"),
            "throughput": (rate, "1/s"),
            "latency_ms": (fastest_round * 1e3, "ms"),
        }
        outcome.named = {
            "ingest_samples_per_s": (rate, "samples/s"),
            "ingest_lag_p90_ms": (common.percentile(lags, 90), "ms"),
            "query_p50_ms": (common.percentile(latencies, 50), "ms"),
            "query_p90_ms": (common.percentile(latencies, 90), "ms"),
        }
        outcome.samples = {
            "ingest_samples_per_s": len(rounds_s), "ingest_lag_p90_ms": len(lags),
            "query_p50_ms": len(latencies), "query_p90_ms": len(latencies),
            "setup_s": len(setups),
        }
    return outcome


def _service_extra(spans_path: Path, measured: dict) -> dict[str, float]:
    spans = tracing.load_spans(spans_path)
    names = spans["names"]
    query_ms = [
        (spans["end"][k] - spans["start"][k]) * 1e3
        for k, name_id in enumerate(spans["name"])
        if names[name_id] == "timeseries.range_query"
    ]
    ledger = measured["ledger"]
    overhead = 0.0
    if query_ms and measured["latencies"]:
        overhead = common.median(measured["latencies"]) - common.median(query_ms)
    return {
        "service.publish_blocked_s": measured["blocked_s"],
        "service.shed": ledger["samples_shed"],
        "service.rejected": ledger["samples_rejected"],
        "service.query_overhead_ms": overhead,
    }
