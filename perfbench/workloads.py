"""The four workloads: argv from the benchmark seed, known answers, goldens.

A workload's inputs are a pure function of the benchmark ``--seed``:
the seed picks one of ``VARIANTS`` repro ``--seed`` values, and the
golden report of every argv of every variant is committed under
``goldens/`` (recorded once under ``--engine tree`` by ``goldens.py``).
Every argv pins ``--engine auto``, the path that compiles, samples
tables and falls back to the tree walk.

Known answers come from the paper and EXPERIMENTS.md, never from the
samplers' own output: the composed statement is supported at >= 1/8,
H.1 at >= 15/16, every Lehmann-Rabin mean is <= 63 with nothing
unreached, and the round-synchronous worst case is 4.6667 rounds (E7).
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "goldens")

#: Distinct repro ``--seed`` values the benchmark seed maps onto.
VARIANTS = 8


def variant(seed: int) -> int:
    return seed % VARIANTS


# -- known answers -------------------------------------------------------

_SUMMARY = re.compile(
    r"min estimate ([0-9.]+) \(claimed >= ([0-9.]+)\) under \S+ -- (\w+)"
)


def arrow_verdict_ok(claimed: float) -> Callable[[str], bool]:
    """The check's summary line says ``supported`` at ``claimed``."""

    def ok(stdout: str) -> bool:
        found = _SUMMARY.findall(stdout)
        if len(found) != 1:
            return False
        estimate, stated, verdict = found[0]
        return (
            verdict == "supported"
            and abs(float(stated) - claimed) < 1e-4
            and float(estimate) >= claimed
        )

    return ok


def arrow_not_refuted(stdout: str) -> bool:
    """For tiny sample counts: the verdict must not be ``REFUTED``."""
    found = _SUMMARY.findall(stdout)
    return len(found) == 1 and found[0][2] in ("supported", "consistent")


def arrow_json_not_refuted(stdout: str) -> bool:
    """``arrow_not_refuted`` for a ``check --json`` report."""
    try:
        return json.loads(stdout)["refuted"] is False
    except (ValueError, KeyError, TypeError):
        return False


def time_verdict_ok(bound: Fraction) -> Callable[[str], bool]:
    """Every adversary's mean is within ``bound`` with 0 unreached."""

    def ok(stdout: str) -> bool:
        stated = re.search(r"\(bound: ([0-9/]+)\)", stdout)
        if stated is None or Fraction(stated.group(1)) != bound:
            return False
        lines = stdout.splitlines()
        try:
            first = next(
                i for i, line in enumerate(lines) if line.startswith("---")
            ) + 1
        except StopIteration:
            return False
        rows = [line.split() for line in lines[first:] if line.strip()]
        return bool(rows) and all(
            len(row) == 5
            and Fraction(row[1]) <= bound
            and row[3] == "0"
            and row[4] == "ok"
            for row in rows
        )

    return ok


STATS_LINES = (
    "worst-case expected rounds to C (round-synchronous): ",
    "refuted statements: ",
)


def stats_lines(stdout: str) -> List[str]:
    """The value-iteration and verdict lines of ``stats`` (its span
    timings vary run to run, so only these are compared)."""
    return [
        line for line in stdout.splitlines()
        if line.startswith(STATS_LINES)
    ]


def stats_verdict_ok(stdout: str) -> bool:
    return stats_lines(stdout) == [
        STATS_LINES[0] + "4.6667", STATS_LINES[1] + "0",
    ]


# -- CLI workloads -------------------------------------------------------


@dataclass(frozen=True)
class CliWorkload:
    """One ``repro`` command timed as a cold process.

    ``samples`` maps the ``--samples`` value to the number of sampled
    executions the command draws, so the marginal sampling rate is
    ``(samples(full) - samples(1)) / (wall_s - setup_s)``.
    """

    name: str
    base: Tuple[str, ...]
    full_samples: int
    samples: Callable[[int], int]
    verdict: Callable[[str], bool]

    def argv(self, seed: int, samples: Optional[int] = None) -> List[str]:
        count = self.full_samples if samples is None else samples
        return [
            *self.base, "--samples", str(count), "--engine", "auto",
            "--seed", str(variant(seed)),
        ]

    def golden_path(self, seed: int, samples: Optional[int] = None) -> str:
        kind = "setup" if samples == 1 else "full"
        return os.path.join(
            GOLDEN_DIR, self.name, f"{variant(seed)}-{kind}.txt"
        )


CLI_WORKLOADS = {
    w.name: w for w in (
        CliWorkload(
            name="lr-check",
            base=("check", "--model", "lr", "--n", "3", "--prop",
                  "composed"),
            full_samples=100,
            # 9 adversaries x 12 start states.
            samples=lambda count: 108 * count,
            verdict=arrow_verdict_ok(1 / 8),
        ),
        CliWorkload(
            name="herman-check-deep",
            base=("check", "--model", "herman", "--n", "5", "--prop",
                  "H.1"),
            full_samples=1000,
            # 3 adversaries x 2 start states.
            samples=lambda count: 6 * count,
            verdict=arrow_verdict_ok(15 / 16),
        ),
        CliWorkload(
            name="lr-expected-time",
            base=("expected-time", "--model", "lr", "--n", "3"),
            full_samples=150,
            # 9 adversaries x 12 starts x ceil(samples / 12) each.
            samples=lambda count: 9 * 12 * -(-count // 12),
            verdict=time_verdict_ok(Fraction(63)),
        ),
    )
}


# -- service-mix ---------------------------------------------------------

@dataclass(frozen=True)
class JobKind:
    base: Tuple[str, ...]
    verdict: Callable[[str], bool]
    #: Compare only the value-iteration and verdict lines.
    partial: bool = False


JOB_KINDS = {
    "check": JobKind(
        ("check", "--prop", "A.14", "--n", "3", "--samples", "8"),
        arrow_not_refuted,
    ),
    "expected-time": JobKind(
        ("expected-time", "--model", "herman", "--samples", "8"),
        time_verdict_ok(Fraction(4, 3)),
    ),
    "stats": JobKind(
        ("stats", "--n", "3", "--samples", "2"),
        stats_verdict_ok, partial=True,
    ),
}

#: One campaign round's job mix: (kind, copies), in submit order.  Copies
#: differ only in their repro ``--seed``, so every job of a round is a
#: distinct spec.  The long ``stats`` job goes first, so the second
#: worker drains the short jobs while it runs.
SERVICE_MIX = (("stats", 1), ("check", 3), ("expected-time", 3))


def service_specs(seed: int) -> List[Tuple[str, List[str]]]:
    """The round's job specs as ``(kind, argv)``, in submit order."""
    specs = []
    for kind, copies in SERVICE_MIX:
        for copy in range(copies):
            specs.append((kind, [
                *JOB_KINDS[kind].base, "--engine", "auto",
                "--seed", str(10 * variant(seed) + copy),
            ]))
    return specs


def probe_argv(seed: int) -> List[str]:
    """The ``--json`` twin of the round's first check spec."""
    argv = next(a for kind, a in service_specs(seed) if kind == "check")
    return [*argv, "--json"]


def service_golden_path(seed: int, index: object) -> str:
    """Golden of spec ``index``, or of the probe when it is "probe"."""
    return os.path.join(
        GOLDEN_DIR, "service-mix", f"{variant(seed)}-{index}.txt"
    )


# -- goldens -------------------------------------------------------------


def tree_argv(argv: List[str]) -> List[str]:
    """The same argv under ``--engine tree`` (how goldens are taken)."""
    out = list(argv)
    out[out.index("--engine") + 1] = "tree"
    return out


def read_golden(path: str) -> Optional[str]:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError:
        return None


def matches(stdout: str, golden: Optional[str], partial: bool) -> bool:
    if golden is None:
        return False
    if partial:
        return stats_lines(stdout) == stats_lines(golden)
    return stdout == golden


def all_golden_argvs() -> List[Tuple[str, List[str], bool]]:
    """Every ``(golden path, argv, partial)`` the benchmark compares."""
    out = []
    for seed in range(VARIANTS):
        for workload in CLI_WORKLOADS.values():
            for samples in (None, 1):
                out.append((
                    workload.golden_path(seed, samples),
                    workload.argv(seed, samples), False,
                ))
        for index, (kind, argv) in enumerate(service_specs(seed)):
            out.append((
                service_golden_path(seed, index), argv,
                JOB_KINDS[kind].partial,
            ))
        out.append((service_golden_path(seed, "probe"), probe_argv(seed),
                    False))
    return out
