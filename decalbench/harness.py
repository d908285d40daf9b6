"""Shared measurement plumbing: repeated set-up, percentiles, the host
fingerprint, peak RSS and the result line every run prints last."""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Minimum samples a tail percentile must keep beyond it.
TAIL_MIN_BEYOND = 10


class Stop(BaseException):
    """Raised from a progress hook to end a training loop at the deadline.

    A ``BaseException`` so no ``except Exception`` in the program under
    test swallows it.
    """


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def tail_summary(samples: Sequence[float], q: float) -> dict:
    """The fixed tail percentile ``q`` of ``samples`` plus the two checks
    behind its choice: how many samples lie beyond it (≥ 10 wanted) and
    whether the two interleaved halves of the run agree on it within a
    tenth."""
    beyond = int(round(len(samples) * (1.0 - q / 100.0)))
    halves = [percentile(samples[i::2], q) for i in (0, 1)] if len(samples) > 3 else []
    agree = (bool(halves) and
             abs(halves[0] - halves[1]) <= 0.1 * max(min(halves), 1e-12))
    return {"percentile": q, "value": percentile(samples, q),
            "samples": len(samples), "beyond": beyond,
            "beyond_ok": beyond >= TAIL_MIN_BEYOND,
            "split_half": halves, "split_half_within_tenth": agree}


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child
    (the serving worker), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _steal_seconds() -> float:
    """Host-wide CPU time stolen by the hypervisor so far (``/proc/stat``)."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


_REF_RNG = np.random.default_rng(0)
_REF_FRAME = _REF_RNG.random((1, 3, 64, 64), dtype=np.float32)
_REF_WEIGHT = _REF_RNG.random((16, 27), dtype=np.float32)


def host_reference_ms(repeats: int = 5) -> float:
    """Median time of a fixed pure-numpy kernel (im2col, small GEMM and a
    leaky epilogue on one 64² frame, ~0.5 ms). It does not depend on the
    program, so it tells how fast the host ran at that moment. On a shared
    VM it drifts by ±25% over seconds."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        windows = np.lib.stride_tricks.sliding_window_view(
            _REF_FRAME, (3, 3), axis=(2, 3))
        cols = np.ascontiguousarray(windows.transpose(0, 2, 3, 1, 4, 5)).reshape(-1, 27)
        out = cols @ _REF_WEIGHT.T
        np.maximum(out, 0.1 * out).sum()
        times.append(time.perf_counter() - start)
    return 1e3 * median(times)


#: Reference-kernel time (ms) that normalised unit times are scaled to:
#: roughly what :func:`host_reference_ms` reads on a quiet 2-CPU Xeon VM.
REF_NOMINAL_MS = 0.5


class Window:
    """Wall time, this process's CPU time, host steal and the host
    reference kernel around a measured window, so a reader can tell a
    disturbed run from a slower program."""

    def __init__(self) -> None:
        self.ref_before = host_reference_ms(30)
        self.start = (time.perf_counter(), time.process_time(), _steal_seconds())

    def close(self) -> dict:
        wall, cpu, steal = (b - a for a, b in zip(self.start, (
            time.perf_counter(), time.process_time(), _steal_seconds())))
        return {"wall_s": wall, "cpu_s": cpu, "host_steal_s": steal,
                "host_ref_ms": [self.ref_before, host_reference_ms(30)]}


def host_fingerprint(env_keys) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "machine": platform.machine(),
        "system": platform.system(),
        "release": platform.release(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "env": {key: os.environ.get(key) for key in env_keys},
    }


class Outcome:
    """Units attempted/failed plus run-level check failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def fail(self, problem: str, units: int = 1) -> None:
        self.failed += units
        self.problems.append(problem)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def repeated_setup(build: Callable[[int], object], count: int,
                   release: Optional[Callable[[object], None]] = None):
    """Run ``build(i)`` ``count`` times; return the last product and, per
    set-up, its wall time and the host reference timed around it (the
    mean of one reading before and one after). ``release`` shuts down a
    product that holds processes or threads, untimed, before the next
    set-up."""
    setups = []
    product = None
    for index in range(count):
        if product is not None and release is not None:
            release(product)
        product = None  # free the previous set-up before timing the next
        gc.collect()
        ref_before = host_reference_ms(30)
        start = time.perf_counter()
        product = build(index)
        seconds = time.perf_counter() - start
        setups.append((seconds, 0.5 * (ref_before + host_reference_ms(30))))
    return product, setups


def _child_pids() -> List[int]:
    pids: List[int] = []
    try:
        for task in os.listdir("/proc/self/task"):
            with open(f"/proc/self/task/{task}/children") as handle:
                pids.extend(int(pid) for pid in handle.read().split())
    except OSError:
        pass
    return pids


def stop_children(timeout: float = 10.0) -> None:
    """Stop every process this one started and wait until each has ended.

    Multiprocessing children (serving's pool workers) are terminated and
    joined, and the exit-time finalizers that unlink their queues'
    semaphores run now. Then the shared-memory resource tracker, which
    would otherwise outlive this process by up to a second, is told to
    exit and reaped. Any other child left over is sent SIGTERM, then
    SIGKILL, and reaped.
    """
    import multiprocessing
    import signal
    from multiprocessing import resource_tracker, util

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout)
        if child.is_alive():
            child.kill()
            child.join(timeout)
    util._run_finalizers()
    resource_tracker._resource_tracker._stop()
    for sig in (signal.SIGTERM, signal.SIGKILL):
        pids = _child_pids()
        if not pids:
            return
        for pid in pids:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + timeout
        while pids and time.monotonic() < deadline:
            pids = [pid for pid in pids if not _reaped(pid)]
            time.sleep(0.01)


def _reaped(pid: int) -> bool:
    try:
        return os.waitpid(pid, os.WNOHANG)[0] != 0
    except ChildProcessError:
        return True


def emit(outcome: Outcome, metrics: Dict[str, tuple], report: dict) -> None:
    """Print the detail report, then the one-line result (always last)."""
    print(json.dumps({"report": report}, default=str))
    result = {
        "correct": outcome.correct,
        "attempted": max(int(outcome.attempted), 1),
        "failed": int(outcome.failed),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()


def digest_array(array: np.ndarray) -> str:
    data = np.ascontiguousarray(array)
    return hashlib.sha256(data.tobytes() + str(data.shape).encode()).hexdigest()


def scaled(seconds: float, ref_ms: float) -> float:
    """``seconds`` on a host where the reference kernel takes
    :data:`REF_NOMINAL_MS`."""
    return seconds * REF_NOMINAL_MS / ref_ms


def summarize_units(unit_ms: Sequence[float], work: Sequence[int],
                    tail_q: float, setups: Sequence[Tuple[float, float]],
                    refs: Optional[Sequence[float]] = None,
                    throughput: Optional[float] = None) -> tuple:
    """The five end-to-end metrics plus their detail entries.

    ``unit_ms[i]`` is the wall time of unit ``i``, which did ``work[i]``
    items (frames, steps); latencies are per item. With ``refs`` (the
    host reference kernel timed next to each unit), unit times are scaled
    to a host on which the kernel takes :data:`REF_NOMINAL_MS`; the raw
    wall-clock figures stay in the detail report. ``setup_s`` is always
    scaled. ``throughput`` defaults to items per second of (scaled) unit
    time.
    """
    raw = [ms / n for ms, n in zip(unit_ms, work)]
    per_item = raw if refs is None else [
        scaled(value, ref) for value, ref in zip(raw, refs)]
    raw_throughput = 1e3 * sum(work) / sum(unit_ms)
    if throughput is None:
        throughput = 1e3 * sum(work) / sum(s * n for s, n in zip(per_item, work))
    tail = tail_summary(per_item, tail_q)
    metrics = {
        "setup_s": (median([scaled(s, ref) for s, ref in setups]), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "latency_p50_ms": (percentile(per_item, 50), "ms"),
        "latency_tail_ms": (tail["value"], "ms"),
        "throughput_per_s": (throughput, "1/s"),
    }
    detail = {"samples": len(per_item), "tail": tail,
              "percentiles_ms": {q: percentile(per_item, q) for q in (75, 90, 95, 99)},
              "setups": [{"wall_s": s, "host_ref_ms": ref} for s, ref in setups],
              "wall_clock": {"setup_s": median([s for s, _ in setups]),
                             "latency_p50_ms": percentile(raw, 50),
                             "latency_tail_ms": percentile(raw, tail_q),
                             "throughput_per_s": raw_throughput}}
    if refs is not None:
        detail["host_ref_ms"] = {"nominal": REF_NOMINAL_MS,
                                 "median": median(refs),
                                 "min": min(refs), "max": max(refs)}
    return metrics, detail
