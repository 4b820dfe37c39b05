"""The service-mix workload: a closed-loop served campaign (tracing off).

One client (this process) runs campaign rounds back to back, each on a
fresh job store, so a round never waits on another:

1. cold ``repro submit`` of every spec of the round's mix (all
   distinct), then ``repro serve --drain --workers 2``: every job misses
   the cache, executes, appends to the WAL and puts a cache entry;
2. the same specs resubmitted unchanged, then a second drain: every
   job is a cache hit, served by reads alone.

Latencies come from the WAL's own timestamps (submit to done), set-up
from ``serve`` launch to its first ``claim`` event.  After each round
an untimed probe submits the ``--json`` twin of one check spec
and compares the served bytes with the direct ``repro check ... --json``:
the result cache keys both formats to one scope (a known defect), so
the probe is expected to mismatch until that is fixed.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Optional, Tuple

import workloads as wl
from measure import Proc, Tally, median, spawn, tail

MIN_ROUNDS = 1
SERVE_WORKERS = min(2, os.cpu_count() or 1)


class Campaign:
    """Accumulates one run's rounds."""

    def __init__(self, seed: int, env: Dict[str, str], cwd: str,
                 scratch: str, launcher: Tuple[str, ...] = ("-m", "repro")):
        self.seed = seed
        #: How each ``repro`` process starts (``tracer.py`` when traced).
        self.launcher = launcher
        self.env = env
        self.cwd = cwd
        self.scratch = scratch
        self.specs = wl.service_specs(seed)
        self.tally = Tally()
        self.rounds: List[float] = []
        self.submits: List[float] = []
        self.setups: List[float] = []
        self.miss: List[float] = []
        self.hit: List[float] = []
        self.rss: List[float] = []
        self.samples = 0
        self.sampling_s = 0.0
        self.verdicts_ok = 0
        self.outputs = 0
        self.matched = 0
        self.summaries: List[dict] = []
        self.events: List[dict] = []

    def repro(self, *argv: str) -> Proc:
        proc = spawn([*self.launcher, *argv], self.env, self.cwd,
                     self.scratch)
        self.rss.append(proc.rss_mb)
        return proc

    def submit(self, store: str, argv: List[str]) -> float:
        proc = self.repro("submit", "--store", store, "--", *argv)
        self.tally.check(proc.code == 0, f"submit exit {proc.code}: {argv}")
        return proc.wall_s

    def serve(self, store: str) -> Tuple[dict, float, float]:
        """Drain the store; ``(summary, launched_at, wall_s)``."""
        launched = time.time()
        proc = self.repro(
            "serve", "--store", store, "--drain", "--workers",
            str(SERVE_WORKERS), "--poll", "0.05", "--json",
        )
        try:
            summary = json.loads(proc.stdout)
        except ValueError:
            summary = {}
        self.summaries.append(summary)
        self.tally.check(
            proc.code == 0 and summary.get("failures_recorded") == 0
            and summary.get("workers_restarted") == 0,
            f"serve exit {proc.code}: {proc.stderr[-200:]}",
        )
        return summary, launched, proc.wall_s

    def round(self, store: str) -> None:
        started = time.perf_counter()
        phases = []
        for _ in range(2):
            for _, argv in self.specs:
                self.submits.append(self.submit(store, argv))
            phases.append(self.serve(store))
        self.rounds.append(time.perf_counter() - started)
        events = self.events = _wal(store)
        setups = []
        for _, launched, _ in phases:
            claims = [e["at"] for e in events
                      if e["event"] == "claim" and e["at"] >= launched]
            setups.append(min(claims) - launched if claims else 0.0)
        self.setups += setups
        count = len(self.specs)
        (miss, _, miss_wall), (hit, _, _) = phases
        self.tally.check(miss.get("executed") == count,
                         f"phase 1 executed {miss.get('executed')}")
        self.tally.check(hit.get("served_from_cache") == count,
                         f"phase 2 hits {hit.get('served_from_cache')}")
        self.sampling_s += miss_wall - setups[0]
        jobs = _jobs(events)
        for index, (kind, _) in enumerate(self.specs):
            for phase, latencies in ((0, self.miss), (1, self.hit)):
                position = phase * count + index
                job = jobs[position] if position < len(jobs) else {}
                if self.tally.check("done" in job, f"job {position} lost"):
                    latencies.append(job["done"]["at"] - job["submit"]["at"])
                    self.check_output(store, job, kind, index)

    def check_output(self, store: str, job: dict, kind: str,
                     index: int) -> None:
        spec = wl.JOB_KINDS[kind]
        stdout, status = _served(store, job)
        golden = wl.read_golden(wl.service_golden_path(self.seed, index))
        same = status == 0 and wl.matches(stdout, golden, spec.partial)
        verdict = status == 0 and spec.verdict(stdout)
        self.outputs += 1
        self.matched += same
        self.verdicts_ok += verdict
        if not job["done"]["cached"]:
            self.samples += _sample_count(kind, stdout)
        self.tally.check(same and verdict,
                         f"served output of {job['submit']['argv']}")

    def probe(self, store: str) -> bool:
        """Served ``--json`` twin vs the direct ``--json`` run (untimed).

        The direct run's bytes are its golden, recorded once."""
        self.submit(store, wl.probe_argv(self.seed))
        self.serve(store)
        jobs = _jobs(_wal(store))
        served, status = _served(store, jobs[-1] if jobs else {})
        direct = wl.read_golden(wl.service_golden_path(self.seed, "probe"))
        return status == 0 and served == direct


def _wal(store: str) -> List[dict]:
    """The store's WAL events; none when no submit ever landed."""
    try:
        with open(os.path.join(store, "jobs.jsonl"), encoding="utf-8") as f:
            return [json.loads(line) for line in f if line.strip()]
    except FileNotFoundError:
        return []


def _jobs(events: List[dict]) -> List[dict]:
    """Per job in submit order: its ``submit`` and ``done`` events."""
    jobs: Dict[str, dict] = {}
    for event in events:
        if event["event"] in ("submit", "done"):
            jobs.setdefault(event["job"], {})[event["event"]] = event
    return sorted(jobs.values(), key=lambda job: job["submit"]["seq"])


def _served(store: str, job: dict) -> Tuple[str, Optional[int]]:
    """The stdout and exit status the service holds for ``job``."""
    if "done" not in job:
        return "", None
    path = os.path.join(store, "cache", f"{job['submit']['scope']}.json")
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)["payload"]
    except (OSError, ValueError, KeyError):
        return "", None
    return payload["stdout"], job["done"]["exit_status"]


def _sample_count(kind: str, stdout: str) -> int:
    """Sampled executions a miss job drew, read from its own report."""
    if kind == "check":
        return 9 * 8 * 8  # 9 adversaries x 8 starts x 8 samples
    if kind == "expected-time":
        return 3 * 8  # 3 adversaries x 8 samples (one start)
    for line in stdout.splitlines():
        if line.startswith("verifier.samples "):
            return int(line.split()[1])
    return 0


def run(seed: int, seconds: float, env: Dict[str, str], cwd: str,
        scratch: str) -> dict:
    campaign = Campaign(seed, env, cwd, scratch)
    started = time.perf_counter()
    probes_ok = 0
    while True:
        store = os.path.join(scratch, f"store-{len(campaign.rounds)}")
        campaign.round(store)
        probes_ok += campaign.probe(store)
        elapsed = time.perf_counter() - started
        if (len(campaign.rounds) >= MIN_ROUNDS
                and elapsed + median(campaign.rounds) > seconds):
            break
    c = campaign
    rounds = len(c.rounds)
    outputs = c.outputs + rounds
    hit_tail = tail(c.hit)
    metrics = {
        "wall_s": (median(c.rounds), "s", rounds),
        "setup_s": (median(c.setups), "s", len(c.setups)),
        "samples_per_s": (c.samples / c.sampling_s, "1/s", rounds),
        "peak_rss_mb": (max(c.rss), "MB", len(c.rss)),
        "verdict_ok": (c.verdicts_ok / c.outputs, "share", c.outputs),
        "report_match": ((c.matched + probes_ok) / outputs, "share",
                         outputs),
        "jobs_per_s": (c.outputs / sum(c.rounds), "1/s", c.outputs),
        "submit_s": (median(c.submits), "s", len(c.submits)),
        "miss_latency_s.p50": (median(c.miss), "s", len(c.miss)),
        "hit_latency_s.p50": (median(c.hit), "s", len(c.hit)),
    }
    if hit_tail is not None:
        metrics["hit_latency_s.tail"] = (hit_tail[1], "s", len(c.hit))
    return {
        "tally": c.tally,
        "probe_ok": probes_ok == rounds,
        "failed_frac": (c.tally.failed + rounds - probes_ok)
        / (c.tally.attempted + rounds),
        "metrics": metrics,
        "notes": [] if hit_tail is None else [
            f"hit_latency_s.tail is p{hit_tail[0]:.0f}"
        ],
    }
