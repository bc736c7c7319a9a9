"""Plumbing shared by every workload: pinned child processes, set-up
timing, process accounting, the span recorder and the yardstick.

The noise rules of ``bench/README.md`` are enforced here so a workload
cannot forget one: every child gets :data:`PINNED_ENV`, every timed
start happens after :func:`prime_pycache`, and every temp directory and
child process is owned by a ``with`` block that removes it.
"""

from __future__ import annotations

import compileall
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Sequence

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
GOLDEN = BENCH / "golden"

#: One BLAS thread and a fixed hash seed in every child: thread pools
#: and hash-order effects were measurable run-to-run noise.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

NPROC = os.cpu_count() or 1
_CLK_TCK = os.sysconf("SC_CLK_TCK")
_KB_PER_MB = 1024.0


class BenchError(Exception):
    """The benchmark itself could not run (not a failed op)."""


def require_repo() -> None:
    """Refuse to run where the program under test is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program to measure: {SRC / 'repro'} is missing")


def child_env(**extra: str) -> dict[str, str]:
    env = os.environ.copy()
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(SRC)
    env.update(extra)
    return env


def prime_pycache() -> None:
    """Compile ``src`` and ``bench`` once, untimed.

    A fresh checkout has no ``__pycache__``; without this the first
    timed start pays ~0.4 s of compilation and ``setup_s`` is bimodal.
    A no-op (stat calls only) when the cache is current.
    """
    for tree in (SRC, BENCH):
        compileall.compile_dir(str(tree), quiet=2, workers=1)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1) of a non-empty sample."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return float(ordered[rank])


# ----------------------------------------------------------------------
# process accounting
# ----------------------------------------------------------------------
def self_cpu_seconds() -> float:
    """User+sys CPU of this process and of every child it has waited for."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def self_peak_rss_mb() -> float:
    """Largest resident set among this process and its waited-for children."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / _KB_PER_MB


def pid_cpu_seconds(pid: int) -> float:
    """User+sys CPU of another live process (and its reaped children)."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    fields = stat[stat.rindex(")") + 2 :].split()
    # utime, stime, cutime, cstime are fields 14-17 of proc(5); the
    # slice above starts at field 3.
    return sum(int(fields[i]) for i in (11, 12, 13, 14)) / _CLK_TCK


def pid_peak_rss_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / _KB_PER_MB
    raise BenchError(f"no VmHWM for pid {pid}")


def scratch_dir(prefix: str) -> tempfile.TemporaryDirectory[str]:
    """A temp directory inside the checkout (``artifacts/`` is
    git-ignored), removed when the ``with`` block ends."""
    root = ROOT / "artifacts" / "bench" / "tmp"
    root.mkdir(parents=True, exist_ok=True)
    return tempfile.TemporaryDirectory(prefix=prefix, dir=root)


def shm_segments() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


# ----------------------------------------------------------------------
# children
# ----------------------------------------------------------------------
def reap(proc: subprocess.Popen[str], timeout: float) -> None:
    """Wait for ``proc`` to end, killing it after ``timeout`` seconds."""
    if proc.stdout is not None:
        proc.stdout.close()
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


class Child:
    """A fresh interpreter running one role of ``bench/child.py``.

    The child speaks JSON lines on stdout: ``{"event": "ready"}`` once
    its imports and fixtures are done, then ``{"event": "result", ...}``.
    ``ready_s`` is what the caller waited from ``Popen`` to the ready
    line — interpreter start, imports and fixtures.
    """

    def __init__(self, role: str, args: dict[str, Any], **env: str) -> None:
        self._t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), role, json.dumps(args)],
            env=child_env(**env),
            stdout=subprocess.PIPE,
            text=True,
            cwd=str(ROOT),
        )
        self.ready_s = 0.0

    def __enter__(self) -> Child:
        try:
            self._expect("ready")
        except BaseException:
            self.__exit__(None, None, None)
            raise
        self.ready_s = time.perf_counter() - self._t0
        return self

    def _expect(self, event: str) -> dict[str, Any]:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            if line.startswith("{"):
                message = json.loads(line)
                if message.get("event") == event:
                    return message
        raise BenchError(
            f"child exited ({self.proc.wait()}) before sending {event!r}"
        )

    def result(self) -> dict[str, Any]:
        return self._expect("result")

    def __exit__(self, *exc: object) -> None:
        if self.proc.poll() is None and exc[0] is not None:
            self.proc.kill()
        reap(self.proc, timeout=60)


def run_child(role: str, args: dict[str, Any], **env: str) -> dict[str, Any]:
    """Run one child to completion; its result carries ``ready_s``."""
    with Child(role, args, **env) as child:
        result = child.result()
    result["ready_s"] = child.ready_s
    return result


def fresh_starts(role: str, args: dict[str, Any], count: int = 5) -> list[float]:
    """Time-to-ready of ``count`` fresh interpreters that then exit."""
    times = []
    for _ in range(count):
        with Child(role, dict(args, ready_only=True)) as child:
            pass
        times.append(child.ready_s)
    return times


# ----------------------------------------------------------------------
# the yardstick
# ----------------------------------------------------------------------
def yardstick_ms() -> float:
    """A fixed pure-Python kernel (~15 ms), timed.

    Sampled between ops.  It does not *correct* anything — a
    cache-resident loop tracks memory-bound slowdowns poorly — it only
    says whether the interpreter itself ran slower during this run.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return (time.perf_counter() - t0) * 1e3


class Yardstick:
    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        # Best of three: the first pass after other work runs cache-cold.
        self.samples.append(min(yardstick_ms() for _ in range(3)))

    def report(self) -> tuple[float, str]:
        """Median and a warning when it sits >10 % above the run's minimum."""
        mid, low = median(self.samples), min(self.samples)
        warning = ""
        if mid > 1.10 * low:
            warning = (
                f"machine.yardstick_ms median {mid:.2f} is "
                f"{(mid / low - 1) * 100:.0f}% above this run's minimum "
                f"{low:.2f}: the machine was busy, read timings with care"
            )
        return mid, warning


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class Spans:
    """In-memory span recorder: name, start, end, parent, op id.

    Kept in memory and written out as Chrome-trace JSON when the run
    ends.  One stack per thread, so concurrent client connections nest
    independently.
    """

    def __init__(self) -> None:
        self.rows: list[dict[str, Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._origin = time.perf_counter()

    @contextmanager
    def span(
        self, name: str, op: int | None = None, **args: Any
    ) -> Iterator[dict[str, Any]]:
        """Record a span around the ``with`` body; yields its row, whose
        duration :meth:`ms` reads once the body has ended."""
        stack: list[int] = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        if op is None and parent is not None:
            op = self.rows[parent]["op"]
        row = {
            "name": name,
            "start": time.perf_counter() - self._origin,
            "end": 0.0,
            "parent": parent,
            "op": op,
            "pid": 0,
            "tid": threading.get_ident() % 100_000,
            "args": args,
        }
        with self._lock:
            index = len(self.rows)
            self.rows.append(row)
        stack.append(index)
        try:
            yield row
        finally:
            stack.pop()
            row["end"] = time.perf_counter() - self._origin

    @staticmethod
    def ms(row: dict[str, Any]) -> float:
        return (row["end"] - row["start"]) * 1e3

    def adopt(self, rows: list[dict[str, Any]], pid: int) -> None:
        """Take over rows recorded in a child process (parents re-based)."""
        base = len(self.rows)
        for row in rows:
            parent = row["parent"]
            self.rows.append(
                dict(row, pid=pid, parent=None if parent is None else parent + base)
            )

    def self_ms(self) -> dict[str, float]:
        """Per-name self time: duration minus the time covered by children."""
        child_ms = [0.0] * len(self.rows)
        for row in self.rows:
            if row["parent"] is not None:
                child_ms[row["parent"]] += self.ms(row)
        out: dict[str, float] = {}
        for row, covered in zip(self.rows, child_ms):
            out[row["name"]] = out.get(row["name"], 0.0) + self.ms(row) - covered
        return out

    def write_chrome(self, path: Path) -> None:
        events = [
            {
                "name": row["name"],
                "ph": "X",
                "ts": row["start"] * 1e6,
                "dur": self.ms(row) * 1e3,
                "pid": row["pid"],
                "tid": row["tid"],
                "args": dict(row["args"], op=row["op"], parent=row["parent"]),
            }
            for row in self.rows
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))


# ----------------------------------------------------------------------
# the planner service, as a subprocess
# ----------------------------------------------------------------------
def http_json(
    address: tuple[str, int],
    method: str,
    path: str,
    body: dict[str, Any] | None = None,
    timeout: float = 120.0,
) -> tuple[int, dict[str, Any], int]:
    """One request on a fresh connection: (status, payload, body bytes)."""
    import http.client

    conn = http.client.HTTPConnection(*address, timeout=timeout)
    try:
        payload = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if payload else {}
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        raw = response.read()
    finally:
        conn.close()
    return response.status, json.loads(raw) if raw else {}, len(raw)


class Server:
    """``python -m repro serve`` on a free port with its own cache dir.

    ``ready_s`` runs from ``Popen`` until the first ``GET /v1/healthz``
    answers — what an operator waits for after starting the service.
    """

    def __init__(self, cache_dir: Path) -> None:
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            env=child_env(REPRO_CACHE_DIR=str(cache_dir)),
            stdout=subprocess.PIPE,
            text=True,
            cwd=str(ROOT),
        )
        try:
            assert self.proc.stdout is not None
            line = self.proc.stdout.readline()
            if "listening on http://" not in line:
                raise BenchError(f"server did not start: {line!r}")
            host, port = line.split("http://")[1].split()[0].split(":")
            self.address = (host, int(port))
            status, _, _ = http_json(self.address, "GET", "/v1/healthz")
            if status != 200:
                raise BenchError(f"healthz answered {status}")
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - t0
        self.pid = self.proc.pid

    def cpu_seconds(self) -> float:
        return pid_cpu_seconds(self.pid)

    def peak_rss_mb(self) -> float:
        return pid_peak_rss_mb(self.pid)

    def stats(self) -> dict[str, Any]:
        return http_json(self.address, "GET", "/v1/healthz")[1]["stats"]

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)  # the service's clean exit
        reap(self.proc, timeout=30)

    def __enter__(self) -> Server:
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()
