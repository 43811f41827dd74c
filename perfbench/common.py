"""Paths, child-process hygiene, process spawning and statistics."""

from __future__ import annotations

import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: The checkout the benchmark runs in (the directory holding ``perfbench/``).
ROOT = HERE.parent
SRC = ROOT / "src"
#: Every cache, artifact and span file of a run lives under here.
SCRATCH = ROOT / ".perfbench_tmp"
LAUNCH = HERE / "launch.py"

#: A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 150.0

#: The program's own environment switches; a developer's shell must not
#: change what is measured (``REPRO_AUDIT`` alone changes the work done).
PROGRAM_ENV_PREFIX = "REPRO_"


class BenchmarkError(Exception):
    """The benchmark cannot run here (not a failed operation)."""


def require_program() -> None:
    """Refuse to run in a directory that does not hold the program."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program to measure: {SRC / 'repro'} is missing")


def child_env() -> dict[str, str]:
    """The environment every program process runs with."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith(PROGRAM_ENV_PREFIX)
    }
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    return env


def use_program_in_this_process() -> None:
    """Apply :func:`child_env`'s settings to the benchmark process itself."""
    for key in [k for k in os.environ if k.startswith(PROGRAM_ENV_PREFIX)]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))


def compile_program() -> None:
    """Byte-compile the sources so no timed import pays for compiling."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC / "repro")],
        check=True,
        env=child_env(),
        stdout=subprocess.DEVNULL,
    )


class Scratch:
    """A fresh directory under :data:`SCRATCH`, removed on exit."""

    def __enter__(self) -> Path:
        SCRATCH.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(dir=SCRATCH))
        return self.path

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run's directory is still there


@dataclass
class Child:
    """A finished child process."""

    code: int
    t_spawn: float
    t_exit: float
    max_rss_mb: float
    stdout: str
    result: dict | None

    @property
    def wall_s(self) -> float:
        return self.t_exit - self.t_spawn


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def wait_child(proc: subprocess.Popen, timeout_s: float = CHILD_TIMEOUT_S):
    """Reap ``proc`` (killing its group after ``timeout_s``).

    Returns ``(exit code, exit time, peak RSS in MB)``; the RSS is the
    largest of the child and every descendant it reaped.
    """
    timer = threading.Timer(timeout_s, _kill_group, (proc,))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    t_exit = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, t_exit, usage.ru_maxrss / 1024.0


def spawn(argv: list[str], workdir: Path, name: str) -> tuple[subprocess.Popen, float]:
    """Start ``argv`` in its own process group with output to files and
    temporary files in ``workdir``."""
    env = dict(child_env(), TMPDIR=str(workdir))
    out = open(workdir / f"{name}.out", "wb")
    err = open(workdir / f"{name}.err", "wb")
    with out, err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            argv,
            cwd=workdir,
            env=env,
            stdout=out,
            stderr=err,
            start_new_session=True,
        )
    return proc, t_spawn


def start(job: dict, workdir: Path, name: str) -> tuple[subprocess.Popen, float, Path]:
    """Start one :mod:`launch` job in a fresh process."""
    job = dict(job, result=str(workdir / f"{name}.result.json"))
    job_path = workdir / f"{name}.job.json"
    job_path.write_text(json.dumps(job))
    proc, t_spawn = spawn([sys.executable, str(LAUNCH), str(job_path)], workdir, name)
    return proc, t_spawn, Path(job["result"])


def finish(proc: subprocess.Popen, t_spawn: float, result_path: Path, workdir: Path,
           name: str, timeout_s: float = CHILD_TIMEOUT_S) -> Child:
    """Wait for a started job and collect what it wrote."""
    code, t_exit, rss = wait_child(proc, timeout_s)
    result = json.loads(result_path.read_text()) if result_path.is_file() else None
    stdout = (workdir / f"{name}.out").read_text(errors="replace")
    return Child(code, t_spawn, t_exit, rss, stdout, result)


def launch(job: dict, workdir: Path, name: str) -> Child:
    """Run one :mod:`launch` job in a fresh process and wait for it."""
    return finish(*start(job, workdir, name), workdir, name)


def stderr_tail(workdir: Path, name: str, lines: int = 5) -> str:
    path = workdir / f"{name}.err"
    if not path.is_file():
        return ""
    return "\n".join(path.read_text(errors="replace").splitlines()[-lines:])


# -- statistics ---------------------------------------------------------------


def percentile(values, q: float) -> float:
    """The ``q``-th percentile, interpolating linearly between ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * q / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail_ok(count: int, q: float) -> bool:
    """Whether ``count`` samples leave at least ten beyond the ``q``-th
    percentile, the least for that percentile to mean anything."""
    return count * (1.0 - q / 100.0) >= 10.0 - 1e-9


def median(values) -> float:
    return statistics.median(values)


def iterations(seconds: float, trace: bool, min_untraced: int = 1):
    """Yield ``(iteration id, traced)`` for one run.

    Untraced runs repeat (at least ``min_untraced`` times) while the next
    iteration, taking as long as the mean so far, would be half done
    within ``seconds``, so a run lasts about ``seconds`` however long an
    iteration takes.  A traced run makes one untraced iteration, to
    measure the tracing overhead against, and one traced iteration.
    """
    if trace:
        yield 0, False
        yield 1, True
        return
    start = time.monotonic()
    i = 0
    while True:
        elapsed = time.monotonic() - start
        if i >= min_untraced and elapsed * (i + 0.5) / i > seconds:
            return
        yield i, False
        i += 1
