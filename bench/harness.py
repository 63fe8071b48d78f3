"""Shared machinery: ops, the closed loop, statistics, CLI runs, environment.

A workload is a list of library ops (one cycle) plus a list of CLI ops.
`interleaved` runs the two lists in one closed loop until its time
budget is spent, always finishing at least one whole cycle of each.  Every
op's output is checked outside the timed region; an exception, a timeout
or a failed check counts as a failed op.

PINNED holds bipsand_pinned, a frozen copy of the package.  Each op has a
twin that runs the same call on the pinned copy right beside it, so the
pair sees the same state of a shared host; see run.py.
"""
from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(ROOT, ".bench_results")
PINNED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned")
PACKAGE, PINNED_PACKAGE = "bipsand", "bipsand_pinned"

# Linux refuses one argv entry of 32 pages (MAX_ARG_STRLEN) or more,
# counting the terminating NUL.
MAX_ARG_BYTES = 32 * 4096 - 1
CLI_TIMEOUT_S = 60.0


@dataclass
class Op:
    """One library call.  `key` names the input; repeats of a key are
    grouped, so statistics are taken per input before across inputs."""

    kind: str
    key: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    work: float = 0.0


@dataclass
class CliOp:
    kind: str
    key: str
    argv: list
    check: Callable[[int, str], bool]


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)


class Samples:
    """Latencies per op kind, grouped by key."""

    def __init__(self):
        self.by_kind: dict = {}
        self.work: dict = {}

    def add(self, kind: str, key: str, seconds: float, work: float = 0.0) -> None:
        self.by_kind.setdefault(kind, {}).setdefault(key, []).append(seconds)
        self.work[(kind, key)] = work

    def raw(self, kind: str) -> list:
        return [s for vals in self.by_kind.get(kind, {}).values() for s in vals]

    def medians(self, kind: str) -> dict:
        return {k: statistics.median(v) for k, v in self.by_kind.get(kind, {}).items()}

    def p50(self, kind: str) -> float:
        """Median over inputs of each input's median time, in seconds."""
        return statistics.median(self.medians(kind).values())

    def tail(self, kind: str) -> tuple:
        """(seconds, percentile, sample count) at the highest whole
        percentile that leaves at least ten samples above it."""
        vals = sorted(self.raw(kind))
        n = len(vals)
        if n <= 10:
            return vals[-1], 100, n
        pct = math.floor(100 * (n - 10) / n)
        rank = max(1, math.ceil(pct / 100 * n))
        return vals[rank - 1], pct, n

    def rate(self, kind: str) -> float:
        """Work per second over one pass of every input, each input timed
        at its median."""
        meds = self.medians(kind)
        return sum(self.work[(kind, k)] for k in meds) / sum(meds.values())


def run_op(op: Op, tally: Tally, samples: Optional[Samples]) -> float:
    """Run and check one op; returns its duration in seconds (0 if it raised)."""
    try:
        t0 = time.perf_counter()
        out = op.run()
        dt = time.perf_counter() - t0
    except Exception as exc:  # a raising op is a failed op; the run goes on
        tally.record(False, f"{op.kind}/{op.key}: {type(exc).__name__}: {exc}")
        return 0.0
    try:
        ok = bool(op.check(out))
    except Exception as exc:
        tally.record(False, f"{op.kind}/{op.key}: check raised {type(exc).__name__}: {exc}")
        return dt
    tally.record(ok, f"{op.kind}/{op.key}: output check failed")
    if ok and samples is not None:
        samples.add(op.kind, op.key, dt, op.work)
    return dt


def import_pinned():
    """The frozen copy of the package, importable beside `bipsand`."""
    if PINNED not in sys.path:
        sys.path.insert(0, PINNED)
    return importlib.import_module(PINNED_PACKAGE)


def in_turn(first: Callable, second: Callable, flip: bool) -> tuple:
    """Run first() then second(), or the other way round when flip is set,
    so neither side of a pair always runs on a warmer cache; returns their
    results as (first, second)."""
    if flip:
        b = second()
        return first(), b
    a = first()
    return a, second()


def interleaved(lib_ops: list, cli_ops: list, seconds: float, lib_share: float,
                run_lib: Callable, run_cli: Callable) -> tuple:
    """One closed loop over both legs for `seconds`.

    Library ops and CLI ops each run in order, cycle after cycle; the next
    op comes from whichever leg is behind its share of the time spent, so
    both legs see the whole run.  The first cycle of each leg always
    completes.  Returns the numbers of library and CLI ops run.
    """
    start = time.perf_counter()
    spent = [0.0, 0.0]
    count = [0, 0]
    while True:
        if (time.perf_counter() - start >= seconds
                and count[0] >= len(lib_ops) and count[1] >= len(cli_ops)):
            return count[0], count[1]
        leg = 1 if spent[1] * lib_share < spent[0] * (1 - lib_share) else 0
        if count[0] < len(lib_ops) and count[1] >= len(cli_ops):
            leg = 0
        t0 = time.perf_counter()
        if leg == 0:
            run_lib(lib_ops[count[0] % len(lib_ops)])
        else:
            run_cli(cli_ops[count[1] % len(cli_ops)])
        spent[leg] += time.perf_counter() - t0
        count[leg] += 1


def child_env() -> dict:
    env = dict(os.environ)
    path = SRC + os.pathsep + PINNED
    env["PYTHONPATH"] = path + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("PYTHONHASHSEED", None)
    return env


def cli_argv(args: list, package: str = PACKAGE) -> list:
    return [sys.executable, "-m", f"{package}.cli", *args]


def run_cli(argv: list, timeout: float = CLI_TIMEOUT_S) -> tuple:
    """Run one subprocess to completion; (returncode, stdout, seconds).

    A timeout kills the child, waits for it, and reports returncode None.
    """
    t0 = time.perf_counter()
    with subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
        cwd=ROOT, text=True,
    ) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None, "", time.perf_counter() - t0
    return proc.returncode, out, time.perf_counter() - t0


def run_cli_op(op: CliOp, tally: Tally, samples: Optional[Samples], argv=None) -> float:
    """Run and check one CLI op (through `argv`, if given); returns its
    wall time in seconds, or 0 if it failed."""
    rc, out, dt = run_cli(argv or cli_argv(op.argv))
    what = f"cli {op.kind}/{op.key}: rc={rc}"
    if rc is None:
        tally.record(False, f"{what}: timed out after {CLI_TIMEOUT_S}s")
        return 0.0
    try:
        ok = bool(op.check(rc, out))
    except Exception as exc:
        tally.record(False, f"{what}: check raised {type(exc).__name__}: {exc}")
        return 0.0
    tally.record(ok, f"{what}: output check failed")
    if not ok:
        return 0.0
    if samples is not None:
        samples.add("cli", op.key, dt)
    return dt


def measure_spawn(module: str) -> tuple:
    """Wall time from spawning a fresh interpreter to `import module` done,
    read by the parent when the child reports; (wall s, in-child import s).
    `setup_s` spawns bipsand, and its twin the pinned copy."""
    code = (f"import time; t = time.perf_counter(); import {module}; "
            "print(repr(time.perf_counter() - t), flush=True)")
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", code], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True,
    ) as proc:
        ready, _, _ = select.select([proc.stdout], [], [], CLI_TIMEOUT_S)
        reported = proc.stdout.readline() if ready else ""
        wall = time.perf_counter() - t0
        if not ready:
            proc.kill()
        _, err = proc.communicate(timeout=CLI_TIMEOUT_S)
    if proc.returncode != 0 or not reported:
        raise RuntimeError(f"cannot import {module} from {SRC}: {err.strip() or 'timed out'}")
    return wall, float(reported)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "loadavg_at_start": list(os.getloadavg()),
    }


def digest(obj) -> str:
    """sha256 of the canonical JSON text of obj (tuples become lists)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def histogram_items(visits) -> list:
    """A simulate() Counter as a sorted [[top, bottom, count], ...] list."""
    return sorted([list(c.top), list(c.bottom), k] for c, k in visits.items())


def load_golden() -> dict:
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")) as fh:
        return json.load(fh)


def write_result(name: str, obj) -> str:
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, name)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
    return path
