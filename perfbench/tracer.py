#!/usr/bin/env python3
"""Traced ``repro`` entry point: per-layer time and counts, from outside.

    python3 perfbench/tracer.py --ledger-dir DIR -- <repro argv...>

Behaves like ``python3 -m repro <argv>`` (same stdout, same exit code)
after wrapping the public entry points of each layer: module attributes
and class methods, replaced from here, so ``src/`` is never edited.
Every wrapper adds its wall time to one ``Ledger`` key; a key re-entered
while already open is not counted twice.  The ledger is written to
``DIR/ledger-<pid>.json`` when the command ends.  Forked ``serve``
workers inherit the wrappers, start from an empty ledger and write
their own file on exit.  ``run.py --trace 1`` launches every process of
a workload through this entry point, merges the files
(``merged_ledger``) and derives the per-layer metrics
(``layer_metrics``).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import glob
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List

from measure import ROOT

#: Allowed disagreement between a ledger time and the program's span.
CROSSCHECK_TOLERANCE = 0.15
#: Spans shorter than this are too short to compare meaningfully.
CROSSCHECK_MIN_S = 0.2


class Ledger:
    """Seconds, call counts and plain counts per key, plus the identity
    of each compiled space and each Clopper-Pearson evaluation."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.spaces: set = set()
        self.cp_keys: set = set()
        self._open: Dict[str, int] = defaultdict(int)

    def timed(self, key: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._open[key]:
                return fn(*args, **kwargs)
            self._open[key] += 1
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[key] += time.perf_counter() - started
                self.counts[key + ".calls"] += 1
                self._open[key] -= 1
        return wrapper

    def reset(self) -> None:
        """Empty in place: the wrappers hold these very containers."""
        for container in (self.seconds, self.counts, self.spaces,
                          self.cp_keys, self._open):
            container.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "seconds": self.seconds, "counts": self.counts,
                "spaces": sorted(self.spaces), "cp": sorted(self.cp_keys),
            }, handle)

    def merge(self, path: str) -> None:
        with open(path, encoding="utf-8") as handle:
            other = json.load(handle)
        for key, value in other["seconds"].items():
            self.seconds[key] += value
        for key, value in other["counts"].items():
            self.counts[key] += value
        self.spaces.update(map(tuple, other["spaces"]))
        self.cp_keys.update(map(tuple, other["cp"]))


def install(ledger: Ledger, ledger_dir: str) -> None:
    """Wrap each layer's public entry points (see the module doc)."""
    import repro.models
    from repro import durable_io
    from repro.analysis import montecarlo
    from repro.mdp import expected_time
    from repro.obs import manifest
    from repro.proofs import verifier
    from repro.service import cache, jobs, store, worker
    from repro.statespace import compile as ss_compile
    from repro.statespace import engine as ss_engine

    timed = ledger.timed
    seconds, counts = ledger.seconds, ledger.counts

    get_model = repro.models.get_model

    def timed_get_model(name):
        model = get_model(name)
        return dataclasses.replace(
            model, build=timed("models.build_s", model.build)
        )

    repro.models.get_model = timed_get_model
    montecarlo.start_states_for = timed(
        "analysis.start_states_s", montecarlo.start_states_for
    )

    # -- statespace: the body of the program's statespace.compile span.
    compile_space = ss_engine.compile_space

    def counted_compile_space(automaton, roots, spec, **kwargs):
        space = compile_space(automaton, roots, spec, **kwargs)
        ledger.spaces.add((
            type(automaton).__name__, repr(tuple(roots)), space.n_states,
            space.n_transitions,
        ))
        counts["statespace.compile_calls"] += 1
        return space

    ss_engine.compile_space = timed(
        "statespace.compile_s", counted_compile_space
    )
    ss_engine.compile_adversary = timed(
        "statespace.compile_s", ss_engine.compile_adversary
    )
    ss_compile.CompiledSpace.flags = timed(
        "statespace.compile_s", ss_compile.CompiledSpace.flags
    )

    # -- engine: every sample, split by the path its adversary takes.
    build_engine = verifier.build_engine

    def traced_build_engine(*args, **kwargs):
        engine = build_engine(*args, **kwargs)
        adversaries = len(args[1])
        if kwargs.get("engine", "tree") != "tree":
            counts["statespace.attempted"] += adversaries
        tables = getattr(engine, "tables", None)
        if tables is not None:
            counts["statespace.tabled"] += sum(t is not None for t in tables)
            counts["statespace.flat_nodes"] += getattr(
                engine, "flat_nodes", 0
            )
        _wrap_engine(engine, tables, seconds, counts)
        return engine

    verifier.build_engine = timed("engine.build_s", traced_build_engine)

    # -- verifier: verdict statistics and the arrow-check harness.
    report = verifier.ArrowCheckReport
    for name in ("refuted", "supported"):
        prop = getattr(report, name)
        setattr(report, name,
                property(timed("verifier.verdict_s", prop.fget)))
    for name in ("summary_line", "to_dict"):
        setattr(report, name,
                timed("verifier.verdict_s", getattr(report, name)))
    for name in ("clopper_pearson_lower", "clopper_pearson_upper"):
        setattr(verifier, name, _counted_cp(
            ledger, name, getattr(verifier, name)
        ))

    children = ("statespace.compile_s", "engine.table", "engine.tree",
                "verifier.verdict_s")
    check_arrow = montecarlo.check_arrow_by_sampling

    def traced_check_arrow(*args, **kwargs):
        before = [seconds[key] for key in children]
        started = time.perf_counter()
        try:
            return check_arrow(*args, **kwargs)
        finally:
            total = time.perf_counter() - started
            inner = sum(seconds[k] for k in children) - sum(before)
            seconds["verifier.arrow_check.self_s"] += total - inner

    montecarlo.check_arrow_by_sampling = timed(
        "verifier.verify_s", traced_check_arrow
    )
    montecarlo.measure_time_to_target = timed(
        "verifier.verify_s", montecarlo.measure_time_to_target
    )

    expected_time.extremal_expected_time_rounds = timed(
        "mdp.value_iteration_s", expected_time.extremal_expected_time_rounds
    )
    for name in ("new_manifest", "git_revision", "append_manifest"):
        setattr(manifest, name,
                timed("obs.manifest_append_s", getattr(manifest, name)))
    durable_io.DurableAppender.append_line = timed(
        "durable_io.append_s", durable_io.DurableAppender.append_line
    )

    # -- service: submit, cache, WAL folds; workers report on exit.
    parse = jobs.JobSpec.parse.__func__
    jobs.JobSpec.parse = classmethod(timed("service.parse_s", parse))
    store.JobStore.submit = timed("service.store_submit_s",
                                  store.JobStore.submit)
    store.fold_events = timed("service.fold_s", store.fold_events)
    cache.ResultCache.put = timed("service.cache_put_s",
                                  cache.ResultCache.put)
    cache_get = cache.ResultCache.get

    def counted_get(self, scope):
        payload = cache_get(self, scope)
        counts["service.cache_gets"] += 1
        counts["service.cache_hits"] += payload is not None
        return payload

    cache.ResultCache.get = timed("service.cache_get_s", counted_get)
    worker_main = worker.worker_process_main

    def traced_worker_main(*args, **kwargs):
        ledger.reset()
        try:
            return worker_main(*args, **kwargs)
        finally:
            ledger.dump(
                os.path.join(ledger_dir, f"ledger-{os.getpid()}.json")
            )

    worker.worker_process_main = traced_worker_main


def _wrap_engine(engine, tables, seconds, counts) -> None:
    """Time ``engine.sample``/``time_to_target`` per call, keyed by
    whether the adversary's table exists (``engine.tables[i] is None``
    means the tree walk)."""
    sample, time_to_target = engine.sample, engine.time_to_target

    def path(index):
        return "tree" if tables is None or tables[index] is None else "table"

    def timed_sample(adversary, start, rng, *, want_fragment=False):
        started = time.perf_counter()
        result = sample(adversary, start, rng, want_fragment=want_fragment)
        key = "engine." + path(adversary)
        seconds[key] += time.perf_counter() - started
        counts[key + ".samples"] += 1
        if key == "engine.tree":
            counts["engine.tree.steps"] += result.steps
            counts["engine.tree.stepped"] += 1
        return result

    def timed_time_to_target(adversary, start, rng):
        started = time.perf_counter()
        result = time_to_target(adversary, start, rng)
        key = "engine." + path(adversary)
        seconds[key] += time.perf_counter() - started
        counts[key + ".samples"] += 1
        return result

    engine.sample = timed_sample
    engine.time_to_target = timed_time_to_target


def _counted_cp(ledger: Ledger, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(summary, confidence=0.99):
        ledger.counts["probability.cp_calls"] += 1
        ledger.cp_keys.add(
            (name, summary.successes, summary.trials, confidence)
        )
        return fn(summary, confidence)
    return wrapper


def read_spans(path: str) -> Dict[str, float]:
    """Total duration per span name in a ``--trace-out`` JSONL file."""
    totals: Dict[str, float] = defaultdict(float)
    try:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                if record.get("type") == "span":
                    totals[record["name"]] += record["duration_s"]
    except OSError:
        pass
    return totals


def merged_ledger(ledger_dir: str) -> Ledger:
    """Every process's ledger in ``ledger_dir``, summed."""
    ledger = Ledger()
    for path in glob.glob(os.path.join(ledger_dir, "ledger-*.json")):
        ledger.merge(path)
    return ledger


def _ratio(ours: float, theirs: float) -> float:
    return ours / theirs if theirs else 0.0


def layer_metrics(ledger: Ledger, spans: Dict[str, float],
                  events: List[dict], summaries: List[dict]
                  ) -> Dict[str, float]:
    """The per-layer metrics of one traced execution of a workload.

    ``spans`` are the program's own span totals (empty when it wrote
    none); ``events`` and ``summaries`` are the job store's WAL and the
    ``serve --json`` summaries (empty for CLI runs).
    """
    s, c = ledger.seconds, ledger.counts
    table_n, tree_n = c["engine.table.samples"], c["engine.tree.samples"]
    at: Dict[str, Dict[str, float]] = defaultdict(dict)
    cached = set()
    for event in events:
        at[event["job"]].setdefault(event["event"], event["at"])
        if event["event"] == "done" and event["cached"]:
            cached.add(event["job"])
    waits = [t["claim"] - t["submit"] for t in at.values() if "claim" in t]
    runs = [t["done"] - t["claim"] for job, t in at.items()
            if job not in cached and "done" in t]
    return {
        "cli.import_s": _ratio(s["cli.import_s"], c["cli.import_s.calls"]),
        "models.build_s": s["models.build_s"],
        "analysis.start_states_s": s["analysis.start_states_s"],
        "statespace.compile_s": s["statespace.compile_s"],
        "statespace.compile_calls": c["statespace.compile_calls"],
        "statespace.distinct_spaces": len(ledger.spaces),
        "statespace.states": sum(key[2] for key in ledger.spaces),
        "statespace.transitions": sum(key[3] for key in ledger.spaces),
        "statespace.flat_nodes": c["statespace.flat_nodes"],
        "statespace.table_adversaries": _ratio(
            c["statespace.tabled"], c["statespace.attempted"]
        ),
        "engine.table.samples": table_n,
        "engine.table.samples_per_s": _ratio(table_n, s["engine.table"]),
        "engine.tree.samples": tree_n,
        "engine.tree.samples_per_s": _ratio(tree_n, s["engine.tree"]),
        "engine.tree.steps_per_sample": _ratio(
            c["engine.tree.steps"], c["engine.tree.stepped"]
        ),
        "engine.tree.share_s": s["engine.tree"],
        "verifier.verdict_s": s["verifier.verdict_s"],
        "probability.cp_calls": c["probability.cp_calls"],
        "probability.cp_useful_ratio": _ratio(
            len(ledger.cp_keys), c["probability.cp_calls"]
        ),
        "verifier.arrow_check.self_s": s["verifier.arrow_check.self_s"],
        "mdp.value_iteration_s": s["mdp.value_iteration_s"],
        "obs.manifest_append_s": s["obs.manifest_append_s"],
        "durable_io.append_s": s["durable_io.append_s"],
        "service.submit_s": _ratio(
            s["service.parse_s"] + s["service.store_submit_s"],
            c["service.store_submit_s.calls"],
        ),
        "service.queue_wait_s": statistics.median(waits) if waits else 0.0,
        "service.execute_s": statistics.median(runs) if runs else 0.0,
        "service.cache_get_s": s["service.cache_get_s"],
        "service.cache_put_s": s["service.cache_put_s"],
        "service.fold_s": s["service.fold_s"],
        "service.cache_hit_ratio": _ratio(
            c["service.cache_hits"], c["service.cache_gets"]
        ),
        "service.workers_restarted": sum(
            summary.get("workers_restarted", 0) for summary in summaries
        ),
        "service.failures_recorded": sum(
            summary.get("failures_recorded", 0) for summary in summaries
        ),
        "crosscheck.compile_ratio": _ratio(
            s["statespace.compile_s"], spans.get("statespace.compile", 0.0)
        ),
        "crosscheck.verify_ratio": _ratio(
            s["verifier.verify_s"] - s["engine.build_s"],
            spans.get("verify.arrow_check", 0.0)
            + spans.get("verify.time_to_target", 0.0),
        ),
    }


def disagreements(metrics: Dict[str, float],
                  spans: Dict[str, float]) -> List[str]:
    """Ledger totals that contradict the program's own spans."""
    found = []
    for metric, names in (
        ("crosscheck.compile_ratio", ("statespace.compile",)),
        ("crosscheck.verify_ratio",
         ("verify.arrow_check", "verify.time_to_target")),
    ):
        if sum(spans.get(name, 0.0) for name in names) < CROSSCHECK_MIN_S:
            continue
        if abs(metrics[metric] - 1.0) > CROSSCHECK_TOLERANCE:
            found.append(f"{metric} = {metrics[metric]:.3f}")
    return found


def main() -> int:
    """Run ``repro ARGV`` with every layer wrapped; exit with its code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ledger-dir", required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    started = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro import cli
    ledger = Ledger()
    ledger.seconds["cli.import_s"] += time.perf_counter() - started
    ledger.counts["cli.import_s.calls"] += 1
    install(ledger, args.ledger_dir)
    try:
        code = cli.main(argv)
    finally:
        ledger.dump(
            os.path.join(args.ledger_dir, f"ledger-{os.getpid()}.json")
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
