"""Process launching and summary statistics shared by the benchmark.

Every timed operation is a cold child process.  ``spawn`` reaps it with
``os.wait4`` so the wall time and the peak resident set come from the
same call: on Linux the rusage of a reaped child also covers the
descendants it reaped itself (the forked ``serve`` workers), so
``rss_mb`` is the largest resident set of any process in the tree.
"""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

#: The checkout the benchmark runs in: the parent of this directory.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Wall-clock cap of one child; a child past it is killed and counted
#: as a failed operation.
CHILD_TIMEOUT_S = 120.0


@dataclass
class Proc:
    """The observable outcome of one child process."""

    code: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str
    timed_out: bool = False


def spawn(
    argv: Sequence[str],
    env: Dict[str, str],
    cwd: str,
    scratch: str,
    timeout: float = CHILD_TIMEOUT_S,
) -> Proc:
    """Run ``python3 argv...`` to completion; never raises on failure.

    A child still running after ``timeout`` seconds is killed with its
    whole process group and reported with ``timed_out`` set.

    stdout/stderr go to files under ``scratch`` (no pipe can fill up
    and stall the child), and are read back after the child is reaped.
    """
    out_path = os.path.join(scratch, "child.out")
    err_path = os.path.join(scratch, "child.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, *argv], stdout=out, stderr=err,
            stdin=subprocess.DEVNULL, env=env, cwd=cwd,
            start_new_session=True,
        )
        fired = threading.Event()

        def kill() -> None:
            # The whole group: a killed ``serve`` takes its workers.
            fired.set()
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass  # exited just as the timer fired

        killer = threading.Timer(timeout, kill)
        killer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - started
        child.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as handle:
        stdout = handle.read()
    with open(err_path, encoding="utf-8", errors="replace") as handle:
        stderr = handle.read()
    return Proc(
        code=child.returncode, wall_s=wall,
        rss_mb=usage.ru_maxrss / 1024.0, stdout=stdout, stderr=stderr,
        timed_out=fired.is_set(),
    )


def scratch_dir(prefix: str) -> str:
    """A fresh private directory inside the checkout (caller removes)."""
    parent = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(parent, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=parent)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(percentile, value)`` of the highest percentile with at least
    ten samples beyond it; ``None`` unless that percentile is at least
    the median (21 samples or more)."""
    ordered = sorted(values)
    index = len(ordered) - 11
    if index < 0 or 2 * index < len(ordered) - 1:
        return None
    return 100.0 * index / (len(ordered) - 1), ordered[index]


class Tally:
    """Operations attempted and failed, with the reason of each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, ok: bool, reason: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(reason)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)
