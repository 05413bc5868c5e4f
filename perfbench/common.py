"""Paths, child processes and small statistics shared by the benchmark."""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch stores of running benchmarks (one fresh directory per run).
TMP_ROOT = ROOT / ".perfbench-tmp"
#: Chrome traces of traced runs.
OUT_DIR = ROOT / ".perfbench-out"


def require_program() -> None:
    """Exit with code 2 unless the program's sources sit beside the
    benchmark (the benchmark never falls back to an installed copy)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}/repro", file=sys.stderr)
        raise SystemExit(2)


def use_program() -> None:
    """Make this process import ``repro`` from the checkout's sources."""
    require_program()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """The environment of every process the benchmark starts: the
    checkout's sources first on the path, and no ``REPRO_*`` settings
    inherited from the caller (they would move stores or inject faults)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def python_cmd(script: str, *args: object) -> list[str]:
    return [sys.executable, str(BENCH_DIR / script), *map(str, args)]


def fresh_dir(label: str) -> Path:
    TMP_ROOT.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{label}-", dir=TMP_ROOT))


#: Files kept beside a run's store directory, never inside it, so they do
#: not count as store bytes.
SIDE_FILES = (".stderr", ".report.json")


def side_file(path: Path, suffix: str) -> Path:
    return path.with_name(path.name + suffix)


def remove_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    for suffix in SIDE_FILES:
        side_file(path, suffix).unlink(missing_ok=True)
    try:
        TMP_ROOT.rmdir()  # only when no other run is using it
    except OSError:
        pass


def dir_bytes(path: Path) -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.lstat(os.path.join(dirpath, name)).st_size
            except OSError:
                pass
    return total


def cpu_count() -> int:
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def quantile(values, q: float) -> float:
    """Nearest-rank quantile of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of an empty sample")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def run_json_child(cmd: list[str], *, timeout: float) -> dict:
    """Run a child that prints one JSON object as its last stdout line."""
    proc = subprocess.run(
        cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{Path(cmd[1]).name} exited {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


class BenchFailure(AssertionError):
    """An output check failed: the program produced a wrong result."""


def run_ready_child(cmd: list[str], *, timeout: float, stderr_path: Path):
    """Run a child that prints ``READY`` once set up and one JSON object as
    its last stdout line. Returns ((seconds from spawn to ``READY``, the
    host's steal share meanwhile), the JSON object)."""
    with open(stderr_path, "w+", encoding="utf-8") as err:
        meter = HostMeter()
        proc = subprocess.Popen(
            cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
            stderr=err, text=True,
        )
        ready = None
        try:
            for line in proc.stdout:
                if line.strip() == "READY":
                    ready = meter.stop()
                    break
            out, _ = proc.communicate(timeout=timeout)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        err.seek(0)
        if proc.returncode != 0 or ready is None:
            raise RuntimeError(
                f"{Path(cmd[1]).name} exited {proc.returncode}:\n{err.read()[-4000:]}"
            )
    return ready, json.loads(out.strip().splitlines()[-1])


def cpu_ticks() -> tuple[int, int]:
    """(busy, stolen) clock ticks of all CPUs so far, from /proc/stat.

    Stolen ticks are the ``steal`` column: time a CPU of this virtual
    machine had work to run but the host ran another tenant instead."""
    with open("/proc/stat", encoding="ascii") as fh:
        user, nice, system, _idle, _iowait, irq, softirq, steal = (
            int(x) for x in fh.readline().split()[1:9]
        )
    return user + nice + system + irq + softirq, steal


class HostMeter:
    """Wall time of an interval, and the share of the CPU time asked for in
    it that the host took for other tenants (steal / (busy + steal))."""

    def __init__(self):
        self._clock = time.perf_counter
        self.start = self._clock()
        self._busy, self._steal = cpu_ticks()

    def stop(self) -> tuple[float, float]:
        wall = self._clock() - self.start
        busy, steal = cpu_ticks()
        busy, steal = busy - self._busy, steal - self._steal
        return wall, steal / (busy + steal) if busy + steal else 0.0


def uncontended(wall: float, steal_share: float) -> float:
    """``wall`` less the time the host took: a process that keeps its CPUs
    busy is delayed by exactly the stolen share of its CPU time."""
    return wall * (1.0 - steal_share)


def load_benchmark() -> dict:
    """``BENCHMARK.json``: the command, workloads, metrics and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
