"""Process control, the round runner and result assembly shared by the workloads."""

from __future__ import annotations

import json
import os
import resource
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One BLAS/OpenMP thread in every process: the host has two vCPUs, and the
# benchmark's own client needs one of them.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

SETUP_SAMPLES = 5  # set-up is repeated this many times per run; the median is reported
CHILD_TIMEOUT_S = 150


def pinned_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args: list[str], **kwargs) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, *args], env=pinned_env(), cwd=ROOT, **kwargs)


def stop(proc: subprocess.Popen, timeout: float = 10.0) -> None:
    """Terminate a child if it still runs, and always reap it."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    for stream in (proc.stdout, proc.stderr):
        if stream:
            stream.close()


def read_line(proc: subprocess.Popen, timeout: float) -> str:
    """Next stdout line of a child, or RuntimeError when it dies or stays silent."""
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    line = proc.stdout.readline().decode() if ready else ""
    if not line:
        raise RuntimeError(f"child {proc.args[1:3]} gave no line within {timeout} s (exit {proc.poll()})")
    return line.strip()


def worker_run(workload: str, workdir: Path, seconds: int, trace: bool) -> tuple[list[float], dict]:
    """Set-up samples of the workload's child, and the result of its timed run.

    Each sample is the wall time from starting a child until it reports
    that the program is set up; the last child goes on to the timed phase.
    """
    samples, result_path = [], workdir / "worker.json"
    n = 1 if trace else SETUP_SAMPLES
    for k in range(n):
        last = k == n - 1
        started = time.perf_counter()
        proc = spawn([str(HERE / "worker.py"), workload, str(workdir), str(seconds),
                      str(int(trace)), str(int(last))], stdout=subprocess.PIPE)
        try:
            if read_line(proc, 60) != "ready":
                raise RuntimeError("worker did not report ready")
            samples.append(time.perf_counter() - started)
            if last:
                proc.wait(CHILD_TIMEOUT_S)
                if proc.returncode != 0:
                    raise RuntimeError(f"{workload} worker exited with {proc.returncode}")
        finally:
            stop(proc)
    return samples, json.loads(result_path.read_text())


def run_rounds(round_fn, state, seconds: float) -> dict:
    """Repeat whole rounds until their program time reaches `seconds`.

    round_fn returns (program seconds, units of work, summary); the time a
    round spends on the benchmark's own checks is not counted.
    """
    busy, work, summaries = 0.0, 0, []
    while busy < seconds:
        elapsed, units, summary = round_fn(state)
        busy += elapsed
        work += units
        summaries.append(summary)
    return {"busy_s": busy, "work": work, "rounds": summaries}


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set of another process, from /proc/<pid>/status."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def end_to_end(setup: list[float], work: float, seconds: float, latencies_ms: list[float], rss_mb: float) -> dict:
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "throughput_per_s": {"value": work / seconds, "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(latencies_ms), "unit": "ms"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def per_layer(values: dict[str, float]) -> dict:
    from tracing import PER_LAYER

    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def check(condition: bool, what: str, failures: list[str]) -> None:
    if not condition:
        failures.append(what)
