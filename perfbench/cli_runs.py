"""Timed cold-process runs of one CLI workload (tracing off).

One iteration runs the set-up argv (``--samples 1``) and then the full
argv, each as a cold ``python3 -m repro`` process.  Iterations repeat
while the next one is predicted to finish inside the run's budget (or
inside ``OVERRUN`` times it, to reach ``MIN_FULL``), and the time left
is filled with set-up runs (at least ``MIN_SETUP`` in all).  Medians
are reported, so a single slow process does not move a metric.
"""

from __future__ import annotations

import time
from typing import Dict

import workloads as wl
from measure import Tally, median, spawn

MIN_FULL = 2
MIN_SETUP = 2
#: How far past its budget a run may go to reach ``MIN_FULL``: on a
#: slow host one full run is reported rather than overrunning.
OVERRUN = 1.25


def run(workload: wl.CliWorkload, seed: int, seconds: float,
        env: Dict[str, str], cwd: str, scratch: str) -> dict:
    tally = Tally()
    verdicts_ok = matched = 0
    walls, setups, rss = [], [], []

    def one(samples):
        nonlocal verdicts_ok, matched
        argv = workload.argv(seed, samples)
        proc = spawn(["-m", "repro", *argv], env, cwd, scratch)
        exited = proc.code == 0 and not proc.timed_out
        same = exited and wl.matches(
            proc.stdout, wl.read_golden(workload.golden_path(seed, samples)),
            partial=False,
        )
        verdict = samples is not None or workload.verdict(proc.stdout)
        matched += same
        verdicts_ok += samples is None and verdict
        problem = (
            f"exit {proc.code}" if not exited
            else "golden mismatch" if not same
            else "wrong verdict" if not verdict else ""
        )
        tally.check(not problem, f"{problem}: {' '.join(argv)}")
        rss.append(proc.rss_mb)
        return proc.wall_s

    started = time.perf_counter()
    while True:
        setups.append(one(1))
        walls.append(one(None))
        ends = time.perf_counter() - started + median(walls) + median(setups)
        if ends > (OVERRUN if len(walls) < MIN_FULL else 1.0) * seconds:
            break
    while (len(setups) < MIN_SETUP
           or time.perf_counter() - started + median(setups) <= seconds):
        setups.append(one(1))

    wall, setup = median(walls), median(setups)
    marginal = workload.samples(workload.full_samples) - workload.samples(1)
    return {
        "tally": tally,
        "metrics": {
            "wall_s": (wall, "s", len(walls)),
            "setup_s": (setup, "s", len(setups)),
            "samples_per_s": (marginal / (wall - setup), "1/s", len(walls)),
            "peak_rss_mb": (max(rss), "MB", len(rss)),
            "verdict_ok": (verdicts_ok / len(walls), "share", len(walls)),
            "report_match": (matched / tally.attempted, "share",
                             tally.attempted),
        },
    }
