"""Estimators, spans and host diagnostics shared by the benchmark's processes.

Gated timings are host-corrected medians.  The shared 2-core reference
host changes speed: within a run it has slow episodes lasting seconds,
and between runs a quarter of an hour apart it ran the same requests
30-50% slower.  Raw wall time therefore measures the neighbours, even a
request type's fastest repetition.  So every round starts by timing a
fixed reference kernel, each sample of the round is scaled by
``REFERENCE_KERNEL_S / kernel``, and each request type's median scaled
time is its time on a host of reference speed.  NOTES.md gives the
spreads behind this choice; raw best-of figures are still printed as
diagnostics.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import select
import signal
import statistics
import subprocess
import time
from pathlib import Path


def digest(data: bytes) -> bytes:
    return hashlib.blake2b(data, digest_size=16).digest()


# -- estimators ---------------------------------------------------------


def best_of(samples: dict[str, list[float]]) -> dict[str, float]:
    """Each request type's fastest sample (seconds); types without one are left out."""
    return {key: min(values) for key, values in samples.items() if values}


def typical(samples: dict[str, list[float]]) -> dict[str, float]:
    """Each request type's median sample (seconds); types without one are left out."""
    return {key: statistics.median(values) for key, values in samples.items() if values}


def end_to_end(per_type: dict[str, float], type_bytes: dict[str, int]) -> dict[str, float]:
    """The three gated timing metrics from one time per request type.

    ``throughput_mbps``: input MB of one pass over the request list over
    the sum of the types' times.  ``latency_p50_ms``: the median over
    the list of the types' times.  ``latency_max_ms``: the slowest
    type's time.  A type with no successful sample (the run then
    reports failures) is left out of all three.
    """
    if not per_type:
        return {"throughput_mbps": 0.0, "latency_p50_ms": 0.0, "latency_max_ms": 0.0}
    return {
        "throughput_mbps": sum(type_bytes[k] for k in per_type) / 1e6 / sum(per_type.values()),
        "latency_p50_ms": statistics.median(per_type.values()) * 1e3,
        "latency_max_ms": max(per_type.values()) * 1e3,
    }


class Recorder:
    """Per-type samples of one closed loop, with output checking.

    The first output of each type is kept for verification against the
    reference oracle; every later output is compared to it by digest,
    outside the timer.  A failed request contributes no sample.
    ``corrupt`` (test hook) is the index of one attempt whose output is
    deliberately damaged before checking.
    """

    def __init__(self, keys: list[str], corrupt: int = -1) -> None:
        #: Wall time of every successful request, per type.
        self.samples: dict[str, list[float]] = {key: [] for key in keys}
        #: The same samples scaled to reference host speed.
        self.corrected: dict[str, list[float]] = {key: [] for key in keys}
        #: Reference-kernel time at the start of each round.
        self.kernels: list[float] = []
        self._speed = 1.0
        self.first: dict[str, bytes] = {}
        self._digests: dict[str, bytes] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.corrupt = corrupt

    def start_round(self) -> None:
        """Time the reference kernel; it scales the samples of this round."""
        self.kernels.append(reference_kernel())
        self._speed = REFERENCE_KERNEL_S / self.kernels[-1]

    def record(self, key: str, out: bytes, elapsed: float) -> None:
        if self.attempted == self.corrupt:
            out = b"corrupted:" + out
        self.attempted += 1
        d = digest(out)
        expected = self._digests.setdefault(key, d)
        if d != expected:
            self.fail_checked(key, "output differs from the first response")
            return
        self.first.setdefault(key, out)
        self.samples[key].append(elapsed)
        self.corrected[key].append(elapsed * self._speed)

    def fail(self, key: str, reason: str) -> None:
        self.attempted += 1
        self.fail_checked(key, reason)

    def fail_checked(self, key: str, reason: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{key}: {reason}")

    def reject(self, key: str, reason: str) -> None:
        """The first output of ``key`` failed verification, and every
        counted sample of ``key`` matched it: all of them failed."""
        self.failed += len(self.samples[key])
        self.samples[key] = []
        self.corrected[key] = []
        if len(self.errors) < 20:
            self.errors.append(f"{key}: {reason}")


def wall_percentiles(samples: dict[str, list[float]]) -> tuple[float, float, int]:
    """Wall-clock p50/p95 (ms) over every sample, with the sample count.

    A diagnostic only: it includes the host's slow episodes.
    """
    values = [v for vs in samples.values() for v in vs]
    if len(values) < 2:
        only = values[0] * 1e3 if values else 0.0
        return only, only, len(values)
    cuts = statistics.quantiles(values, n=20, method="inclusive")
    return cuts[9] * 1e3, cuts[18] * 1e3, len(values)


# -- host-speed diagnostic ----------------------------------------------


#: The reference kernel's typical time on a quiet host (seconds).  Scaled
#: times are times on a host where the kernel takes this long.
REFERENCE_KERNEL_S = 0.014


def reference_kernel() -> float:
    """Time a fixed pure-Python loop (seconds); run once per round."""
    start = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc = (acc * 31 + i) & 0xFFFF_FFFF
    return time.perf_counter() - start


def slow_share(kernel_times: list[float], factor: float = 1.25) -> float:
    """Share of rounds whose kernel ran at least ``factor`` x the fastest."""
    if not kernel_times:
        return 0.0
    fastest = min(kernel_times)
    return sum(t >= factor * fastest for t in kernel_times) / len(kernel_times)


def steal_ticks() -> int:
    """Aggregate CPU steal ticks from ``/proc/stat`` (0 where unavailable)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return 0
    return int(fields[8]) if len(fields) > 8 else 0


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of a process, in MB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError(f"no VmHWM for process {pid}")


def read_until(proc, pattern: bytes, timeout: float) -> re.Match:
    """Read ``proc``'s unbuffered stdout until ``pattern`` matches.

    Raises ``RuntimeError`` when the process ends or ``timeout`` passes
    first, so a child that never gets ready cannot hang the benchmark.
    """
    fd = proc.stdout.fileno()
    seen = b""
    deadline = time.monotonic() + timeout
    while True:
        match = re.search(pattern, seen)
        if match:
            return match
        remaining = deadline - time.monotonic()
        if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
            raise RuntimeError(f"no {pattern!r} from {proc.args[:3]} within {timeout:.0f} s")
        chunk = os.read(fd, 65536)
        if not chunk:
            raise RuntimeError(f"{proc.args[:3]} exited before printing {pattern!r}")
        seen += chunk


def stop(proc, sig: int | None = signal.SIGTERM, timeout: float = 30.0) -> bytes:
    """Signal ``proc`` (``sig=None``: let it finish), collect its remaining
    stdout and wait for its end; kill it if it outlives ``timeout``."""
    if sig is not None and proc.poll() is None:
        proc.send_signal(sig)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
    return out or b""


# -- spans --------------------------------------------------------------


class SpanLog:
    """In-memory spans: (id, parent, request, name, start, end).

    Spans of one request share its request id; the parent is the span
    open when this one started.  Written out once, when the run ends.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next = 0

    def span(self, name: str, request: int) -> "_Span":
        return _Span(self, name, request)

    def durations(self, name: str) -> dict[int, float]:
        """Total duration of ``name`` spans per request id (seconds)."""
        out: dict[int, float] = {}
        for _sid, _parent, request, span_name, start, end in self.spans:
            if span_name == name:
                out[request] = out.get(request, 0.0) + (end - start)
        return out

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its children cover."""
        child_time: dict[int, float] = {}
        for _sid, parent, _req, _name, start, end in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        out: dict[str, float] = {}
        for sid, _parent, _req, name, start, end in self.spans:
            out[name] = out.get(name, 0.0) + (end - start) - child_time.get(sid, 0.0)
        return out

    def write(self, path: Path) -> None:
        with open(path, "w") as f:
            for sid, parent, request, name, start, end in self.spans:
                f.write(json.dumps({
                    "id": sid, "parent": parent, "request": request, "name": name,
                    "start": start, "end": end,
                }) + "\n")


class _Span:
    __slots__ = ("log", "name", "request", "sid", "parent", "start")

    def __init__(self, log: SpanLog, name: str, request: int) -> None:
        self.log, self.name, self.request = log, name, request

    def __enter__(self) -> "_Span":
        log = self.log
        self.sid = log._next
        log._next += 1
        self.parent = log._stack[-1] if log._stack else None
        log._stack.append(self.sid)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        log = self.log
        log._stack.pop()
        log.spans.append((self.sid, self.parent, self.request, self.name, self.start, end))


def best_per_type(per_request: dict[int, float], types: dict[int, str]) -> dict[str, float]:
    """Fastest per-request value of each request type."""
    out: dict[str, float] = {}
    for request, value in per_request.items():
        key = types[request]
        out[key] = min(out.get(key, value), value)
    return out
