#!/usr/bin/env python3
"""Record the benchmark's golden reports, or self-check them.

    python3 perfbench/goldens.py           # record every golden (tree)
    python3 perfbench/goldens.py --check   # auto == tree for every argv

Goldens are the stdout of each workload argv under ``--engine tree``,
so the timed ``--engine auto`` runs are compared against the reference
engine's bytes.  Recording also asserts each golden's known answer, so
a variant whose verdict is wrong can never become a golden.  The check
mode runs every argv under ``--engine auto`` and diffs it against the
recorded golden: the one-off self-check that the engine the benchmark
times prints what the reference engine prints.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

import workloads as wl
from measure import ROOT, scratch_dir, spawn


def _verdict_for(path: str):
    name = os.path.basename(os.path.dirname(path))
    if name == "service-mix":
        seed, index = os.path.basename(path)[:-4].split("-")
        if index == "probe":
            return wl.arrow_json_not_refuted
        kind, _ = wl.service_specs(int(seed))[int(index)]
        return wl.JOB_KINDS[kind].verdict
    if path.endswith("-full.txt"):
        return wl.CLI_WORKLOADS[name].verdict
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare --engine auto against the goldens")
    args = parser.parse_args()
    scratch = scratch_dir("goldens-")
    env = dict(
        os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
        REPRO_RUNS_DIR=os.path.join(scratch, "runs"),
    )
    bad = 0
    try:
        for path, argv, partial in wl.all_golden_argvs():
            run_argv = argv if args.check else wl.tree_argv(argv)
            proc = spawn(["-m", "repro", *run_argv], env, ROOT, scratch)
            verdict = _verdict_for(path)
            problem = None
            if proc.code != 0:
                problem = f"exit {proc.code}: {proc.stderr[-300:]}"
            elif verdict is not None and not verdict(proc.stdout):
                problem = "known answer not met"
            elif args.check and not wl.matches(
                proc.stdout, wl.read_golden(path), partial
            ):
                problem = "auto differs from the tree golden"
            if problem is None and not args.check:
                os.makedirs(os.path.dirname(path), exist_ok=True)
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(proc.stdout)
            bad += problem is not None
            print(
                f"{'FAIL' if problem else 'ok  '} {proc.wall_s:7.2f}s "
                f"{os.path.relpath(path, wl.HERE)}  {' '.join(run_argv)}"
                + (f"\n     {problem}" if problem else ""),
                flush=True,
            )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"{'check' if args.check else 'record'}: {bad} problem(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
