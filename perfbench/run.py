#!/usr/bin/env python3
"""End-to-end benchmark of the repro verifier, from cold call to verdict.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S [--trace 1]

Run from the root of a checkout.  ``--trace 0`` times cold ``repro``
processes with tracing off and reports the end-to-end metrics;
``--trace 1`` pairs an untraced execution with one whose every
``repro`` process starts through ``tracer.py``, and reports the
per-layer metrics plus the tracing overhead (traced wall minus
untraced wall).  Every output is checked
against its golden and its known answer.  The last stdout line is one
JSON object ``{correct, attempted, failed, metrics}``; the lines above
it are the human-readable rows.  ``--workload all`` prints one row per
workload instead and no JSON.  Exit status 1 when a check fails (the
known cache-key probe of service-mix excepted), 2 when the checkout
holds no program to measure.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import sys
import time
from typing import Dict, List, Optional

import cli_runs
import service_mix
import workloads as wl
from measure import ROOT, Tally, median, scratch_dir, spawn
from tracer import disagreements, layer_metrics, merged_ledger, read_spans

WORKLOADS = (*wl.CLI_WORKLOADS, "service-mix")
TRACER = os.path.join(wl.HERE, "tracer.py")

#: Every end-to-end metric of the human-readable rows.
ROW_METRICS = (
    "wall_s", "setup_s", "samples_per_s", "peak_rss_mb", "verdict_ok",
    "report_match", "failed_frac", "jobs_per_s", "submit_s",
    "miss_latency_s.p50", "hit_latency_s.p50", "hit_latency_s.tail",
)


def declared() -> Dict[str, Dict[str, str]]:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}`` as
    BENCHMARK.json declares them, in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {
        kind: {metric["name"]: metric["unit"] for metric in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def child_env(scratch: str) -> Dict[str, str]:
    """Program on the path; manifests and the default job store kept
    in this run's private directory."""
    return dict(
        os.environ,
        PYTHONPATH=os.path.join(ROOT, "src"),
        REPRO_RUNS_DIR=os.path.join(scratch, "runs"),
        REPRO_SERVICE_DIR=os.path.join(scratch, "service"),
    )


def untraced(name: str, seed: int, seconds: float, scratch: str) -> dict:
    env = child_env(scratch)
    if name == "service-mix":
        return service_mix.run(seed, seconds, env, ROOT, scratch)
    result = cli_runs.run(wl.CLI_WORKLOADS[name], seed, seconds, env, ROOT,
                          scratch)
    tally = result["tally"]
    result["failed_frac"] = tally.failed / tally.attempted
    return result


def traced(name: str, seed: int, seconds: float, scratch: str,
           layer_units: Dict[str, str]) -> dict:
    """Pairs of one untraced and one traced execution; the per-layer
    metrics are medians over the pairs."""
    env = child_env(scratch)
    tally = Tally()
    samples: Dict[str, List[float]] = {key: [] for key in layer_units}
    started = time.perf_counter()
    for pair in itertools.count():
        ledger_dir = os.path.join(scratch, f"ledgers-{pair}")
        os.makedirs(ledger_dir)
        launcher = (TRACER, "--ledger-dir", ledger_dir, "--")
        failed_before = tally.failed
        if name == "service-mix":
            walls = []
            for index, launch in enumerate((("-m", "repro"), launcher)):
                campaign = service_mix.Campaign(seed, env, ROOT, scratch,
                                                launch)
                campaign.round(os.path.join(scratch, f"store-{pair}-{index}"))
                tally.attempted += campaign.tally.attempted
                tally.failures += campaign.tally.failures
                walls.append(campaign.rounds[0])
            spans: Dict[str, float] = {}
            events, summaries = campaign.events, campaign.summaries
            expected = None
        else:
            workload = wl.CLI_WORKLOADS[name]
            argv = workload.argv(seed)
            golden = wl.read_golden(workload.golden_path(seed))
            spans_path = os.path.join(ledger_dir, "spans.jsonl")
            walls = []
            for launch, extra in ((("-m", "repro"), []),
                                  (launcher, ["--trace-out", spans_path])):
                proc = spawn([*launch, *argv, *extra], env, ROOT, scratch)
                report = proc.stdout.rpartition("\nwrote ")[0] if extra \
                    else proc.stdout
                tally.check(
                    proc.code == 0 and workload.verdict(report)
                    and wl.matches(report, golden, partial=False),
                    f"{'traced' if extra else 'untraced'} exit {proc.code}: "
                    f"{' '.join(argv)}",
                )
                walls.append(proc.wall_s)
            spans, events, summaries = read_spans(spans_path), [], []
            expected = workload.samples(workload.full_samples)
        metrics = layer_metrics(merged_ledger(ledger_dir), spans, events,
                                summaries)
        shutil.rmtree(ledger_dir, ignore_errors=True)
        drawn = metrics["engine.table.samples"] + metrics["engine.tree.samples"]
        if expected is not None:
            tally.check(drawn == expected,
                        f"traced run drew {drawn:.0f} samples, not {expected}")
        for problem in disagreements(metrics, spans):
            tally.check(False, f"ledger disagrees with spans: {problem}")
        metrics["trace.overhead_s"] = walls[1] - walls[0]
        if set(metrics) != set(layer_units):
            raise SystemExit("tracer metrics differ from BENCHMARK.json")
        if tally.failed == failed_before:
            for key, value in metrics.items():
                samples[key].append(value)
        elapsed = time.perf_counter() - started
        pairs = len(samples["trace.overhead_s"])
        if not pairs or elapsed * (pairs + 1) / pairs > seconds:
            break
    metrics = {
        key: (median(values), layer_units[key], len(values))
        for key, values in samples.items() if values
    }
    return {"tally": tally, "metrics": metrics,
            "failed_frac": tally.failed / max(1, tally.attempted)}


def measure_one(name: str, seed: int, seconds: float,
                layer_units: Optional[Dict[str, str]]) -> dict:
    """One workload, traced when ``layer_units`` is given."""
    scratch = scratch_dir("run-")
    try:
        spawn(["-c", "import repro.cli"], child_env(scratch), ROOT, scratch)
        if layer_units is not None:
            return traced(name, seed, seconds, scratch, layer_units)
        return untraced(name, seed, seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def print_rows(name: str, result: dict) -> None:
    for metric, (value, unit, count) in result["metrics"].items():
        print(f"{name:18s} {metric:30s} {value:14.6g} {unit:6s} n={count}")
    for note in result.get("notes", []):
        print(f"{name:18s} note: {note}")
    for failure in result["tally"].failures:
        print(f"{name:18s} FAILED: {failure}")
    if result.get("probe_ok") is False:
        print(f"{name:18s} known defect: served --json output differs "
              "from the direct run (result cache keys both formats to "
              "one scope); counted in report_match and failed_frac")


def print_table(results: Dict[str, dict], columns) -> None:
    width = max(len(c) for c in columns)
    print(f"{'metric':{width}s}  " + "  ".join(
        f"{name:>18s}" for name in results
    ))
    for column in columns:
        cells = []
        for result in results.values():
            metrics = dict(result["metrics"])
            metrics["failed_frac"] = (result["failed_frac"], "share", 0)
            cell = metrics.get(column)
            cells.append(
                "-" if cell is None else f"{cell[0]:.6g} {cell[1]}"
            )
        print(f"{column:{width}s}  " + "  ".join(
            f"{cell:>18s}" for cell in cells
        ))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        print(f"perfbench: no program to measure under {ROOT}/src",
              file=sys.stderr)
        return 2
    metrics = declared()
    wanted = metrics["per_layer"] if args.trace else metrics["end_to_end"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {
        name: measure_one(name, args.seed, args.seconds,
                          metrics["per_layer"] if args.trace else None)
        for name in names
    }
    correct = all(r["tally"].failed == 0 for r in results.values())
    if args.workload == "all":
        print_table(results, wanted if args.trace else ROW_METRICS)
        for name, result in results.items():
            print_rows(name, {**result, "metrics": {}})
        return 0 if correct else 1

    (name, result), = results.items()
    print_rows(name, result)
    tally = result["tally"]
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            key: {"value": result["metrics"][key][0],
                  "unit": result["metrics"][key][1]}
            for key in wanted if key in result["metrics"]
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
