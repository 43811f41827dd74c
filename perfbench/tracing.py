"""Spans around calls into each layer of ``repro``, recorded from outside.

A traced child process builds one :class:`SpanRecorder`, calls
:func:`install` to wrap the public functions named in :data:`METHODS` and
:data:`FUNCTIONS`, runs the program's entry point, and calls
:meth:`SpanRecorder.flush` on the way out.  Each span records its name,
start, end, parent span and the iteration id; spans are kept in
per-thread arrays (a few bytes each, because the measurement path makes
millions of calls) and written as one ``.npz`` file when the process
ends.  Forked children (the campaign's drain workers) inherit the
wrappers, start an empty recorder of their own and flush when their
drain returns, since a forked ``multiprocessing`` child never runs
``atexit``.

Self time is a span's duration minus the time its child spans cover
(:func:`self_times`); the layer of a span is the text before the first
dot of its name.

NumPy is imported only where spans are written or read, so that a traced
process imports ``repro.cli`` as fresh as an untraced one.
"""

from __future__ import annotations

import array
import contextlib
import functools
import importlib
import json
import os
import threading
import time
from pathlib import Path

now = time.monotonic

#: ``(span name, module, class, method)`` of every wrapped method.
METHODS = (
    ("sensors.sysfs_read", "repro.sensors.sysfs", "VirtualSysfs", "read"),
    ("sensors.counter_read", "repro.sensors.base", "SampledEnergyCounter", "read"),
    ("pmt.read", "repro.pmt.base", "PMT", "read"),
    ("instrumentation.snapshot", "repro.instrumentation.profiler",
     "EnergyProfiler", "snapshot"),
    ("instrumentation.begin", "repro.instrumentation.profiler",
     "EnergyProfiler", "begin"),
    ("instrumentation.end", "repro.instrumentation.profiler",
     "EnergyProfiler", "end"),
    ("hardware.clock_advance", "repro.hardware.clock", "VirtualClock", "advance"),
    ("mpi.phase", "repro.mpi.engine", "SpmdEngine", "run_phase"),
    ("slurm.job", "repro.slurm.scheduler", "SlurmController", "run_job"),
    *(
        ("audit.hook", "repro.audit.hooks", "EnergyAuditor", hook)
        for hook in (
            "on_counters", "on_region", "watch_sampler", "on_tick",
            "audit_run", "audit_accounting", "audit_store",
        )
    ),
    ("timeseries.record", "repro.timeseries.store", "SampleStore", "record"),
    ("timeseries.extend", "repro.timeseries.store", "ChannelSeries", "extend"),
    ("timeseries.range_query", "repro.timeseries.store",
     "ChannelSeries", "range_query"),
    ("service.decode", "repro.service.protocol", "FrameDecoder", "feed"),
    ("service.offer", "repro.service.tenants", "Tenant", "offer"),
    ("service.drain", "repro.service.tenants", "TenantRegistry", "drain_all"),
    ("campaign.store_put", "repro.campaign.store", "ResultStore", "put"),
    ("campaign.store_get", "repro.campaign.store", "ResultStore", "lookup"),
    ("sph.step", "repro.sph.simulation", "Simulation", "step"),
)

#: ``(span name, module, function)`` of every wrapped module function;
#: callers look these up as module attributes at call time.
FUNCTIONS = (
    ("service.parse", "repro.service.protocol", "parse_batch"),
    ("campaign.execute_key", "repro.campaign.executor", "execute_key"),
    ("timeseries.export", "repro.timeseries.export", "export_bundle"),
    ("timeseries.export", "repro.timeseries", "export_bundle"),
)


#: Counters taken from a wrapped call's return value: span name ->
#: (counter name, amount of the result).
RESULT_COUNTERS = {
    "service.decode": ("service.frames", len),
    "service.drain": ("service.drained_samples", lambda applied: sum(applied.values())),
    "timeseries.export": (
        "timeseries.export_bytes",
        lambda artifacts: sum(Path(p).stat().st_size for p in artifacts.values()),
    ),
}


class _ThreadSpans:
    """The spans one thread opened, in opening order."""

    __slots__ = ("name", "start", "end", "parent", "stack")

    def __init__(self) -> None:
        self.name = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("q")
        self.stack: list[int] = []

    def open(self, name_id: int) -> int:
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(now())
        return index

    def close(self, index: int) -> None:
        self.end[index] = now()
        self.stack.pop()


class SpanRecorder:
    """In-memory spans and counters of one process, flushed on exit."""

    def __init__(self, out_path: str | Path, iteration: int) -> None:
        self.out_path = str(out_path)
        self.iteration = int(iteration)
        self.pid = self.root_pid = os.getpid()
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        self._local = threading.local()
        self._threads: list[_ThreadSpans] = []
        self._lock = threading.Lock()

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def thread_spans(self) -> _ThreadSpans:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = _ThreadSpans()
            self._local.spans = spans
            with self._lock:
                self._threads.append(spans)
        return spans

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the ``with`` block as one span (for code no wrapper covers)."""
        spans = self.thread_spans()
        index = spans.open(self.name_id(name))
        try:
            yield
        finally:
            spans.close(index)

    def after_fork(self) -> None:
        """Start empty in a forked child, writing to a file of its own."""
        self.pid = os.getpid()
        self.out_path = f"{self.out_path}.{self.pid}"
        self.counters = {}
        self._local = threading.local()
        self._threads = []
        self._lock = threading.Lock()

    def flush(self) -> None:
        """Write every span (open ones end now) and counter to ``out_path``."""
        import numpy as np

        names, starts, ends, parents, threads = [], [], [], [], []
        offset = 0
        for thread_index, spans in enumerate(self._threads):
            end = np.frombuffer(spans.end, dtype=np.float64).copy()
            if spans.stack:
                end[np.asarray(spans.stack)] = now()
            parent = np.frombuffer(spans.parent, dtype=np.int64).copy()
            parent[parent >= 0] += offset
            names.append(np.frombuffer(spans.name, dtype=np.int32))
            starts.append(np.frombuffer(spans.start, dtype=np.float64))
            ends.append(end)
            parents.append(parent)
            threads.append(np.full(len(end), thread_index, dtype=np.int32))
            offset += len(end)

        def joined(parts, dtype):
            return np.concatenate(parts) if parts else np.zeros(0, dtype)

        meta = {
            "names": self.names,
            "counters": self.counters,
            "pid": self.pid,
        }
        with open(self.out_path, "wb") as handle:
            np.savez(
                handle,
                name=joined(names, np.int32),
                start=joined(starts, np.float64),
                end=joined(ends, np.float64),
                parent=joined(parents, np.int64),
                thread=joined(threads, np.int32),
                iteration=np.full(offset, self.iteration, dtype=np.int32),
                meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
            )


def wrap(recorder: SpanRecorder, name: str, fn):
    """``fn`` with every call recorded as a span called ``name``."""
    name_id = recorder.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        spans = recorder.thread_spans()
        index = spans.open(name_id)
        try:
            return fn(*args, **kwargs)
        finally:
            spans.close(index)

    return wrapper


def _capture_experiment(recorder: SpanRecorder, fn):
    """Count what a finished ``run_scaled_experiment`` reports."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        recorder.count(
            "pmt.sampler_ticks", sum(len(s.rows) for s in result.power_samplers)
        )
        recorder.count(
            "pmt.substitutions",
            sum(
                h.gaps_interpolated + h.glitches_rejected + h.stuck_reads
                for h in result.run.telemetry_health
            ),
        )
        if result.audit is not None:
            recorder.count("audit.findings", len(result.audit.findings))
        return result

    return wrapper


def _counted(recorder: SpanRecorder, name: str, fn):
    """``fn`` traced as ``name``, counting its result per RESULT_COUNTERS."""
    traced = wrap(recorder, name, fn)
    if name not in RESULT_COUNTERS:
        return traced
    counter, amount = RESULT_COUNTERS[name]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = traced(*args, **kwargs)
        recorder.count(counter, amount(result))
        return result

    return wrapper


def _drain_worker(recorder: SpanRecorder, fn):
    """Span, count and (in a forked worker) flush around one drain."""
    traced = wrap(recorder, "campaign.drain", fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            stats = traced(*args, **kwargs)
            recorder.count("campaign.lease_steals", stats.steals)
            return stats
        finally:
            if os.getpid() != recorder.root_pid:
                recorder.flush()

    return wrapper


def _capture_campaign(recorder: SpanRecorder, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        results, stats = fn(*args, **kwargs)
        recorder.count("campaign.executed", stats.misses)
        recorder.count("campaign.cached", stats.hits)
        return results, stats

    return wrapper


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer's public functions in this process and its forks."""
    import repro.pmt  # noqa: F401 - registers the PMT backends

    for name, module, cls_name, method in METHODS:
        cls = getattr(importlib.import_module(module), cls_name)
        setattr(cls, method, _counted(recorder, name, getattr(cls, method)))
    for name, module, function in FUNCTIONS:
        mod = importlib.import_module(module)
        setattr(mod, function, _counted(recorder, name, getattr(mod, function)))
    runner = importlib.import_module("repro.experiments.runner")
    runner.run_scaled_experiment = _capture_experiment(
        recorder, runner.run_scaled_experiment
    )
    campaign = importlib.import_module("repro.campaign")
    campaign.execute = _capture_campaign(recorder, campaign.execute)
    queue = importlib.import_module("repro.campaign.queue")
    queue.drain = _drain_worker(recorder, queue.drain)
    os.register_at_fork(after_in_child=recorder.after_fork)


class SphRegions:
    """``ProfilingHooks`` subscriber recording each solver function as a span."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self._recorder = recorder
        self._open: list[tuple[_ThreadSpans, int]] = []

    def on_enter(self, name: str) -> None:
        spans = self._recorder.thread_spans()
        self._open.append((spans, spans.open(self._recorder.name_id(f"sph.{name}"))))

    def on_exit(self, name: str) -> None:
        spans, index = self._open.pop()
        spans.close(index)


def load_spans(path: str | Path) -> dict:
    """A flushed span file as arrays plus its ``names``/``counters`` meta."""
    import numpy as np

    with np.load(path) as data:
        spans = {key: data[key] for key in data.files if key != "meta"}
        meta = json.loads(bytes(data["meta"]).decode())
    spans.update(meta)
    return spans


def self_times(parent, start, end):
    """Each span's duration minus the durations of its direct children.

    Spans nest within one thread (a child opens and closes inside its
    parent), so the children's durations are exactly the part of the
    parent's interval they cover.
    """
    import numpy as np

    duration = end - start
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=len(duration)
    )
    return duration - covered


def summarize(paths) -> dict:
    """Per span name: ``count``, ``self_s``, and the counters, over files."""
    import numpy as np

    by_name: dict[str, dict[str, float]] = {}
    counters: dict[str, float] = {}
    roots: list[tuple[str, float, float]] = []
    for path in paths:
        spans = load_spans(path)
        self_s = self_times(spans["parent"], spans["start"], spans["end"])
        names = spans["names"]
        ids = spans["name"]
        for name_id, name in enumerate(names):
            mask = ids == name_id
            if not mask.any():
                continue
            entry = by_name.setdefault(name, {"count": 0, "self_s": 0.0})
            entry["count"] += int(mask.sum())
            entry["self_s"] += float(self_s[mask].sum())
        for key, value in spans["counters"].items():
            counters[key] = counters.get(key, 0) + value
        for index in np.flatnonzero(spans["parent"] < 0):
            roots.append(
                (names[ids[index]], float(spans["start"][index]),
                 float(spans["end"][index]))
            )
    return {"spans": by_name, "counters": counters, "roots": roots}
