"""Speedup and byte-identity of the compile-once state-space engine.

Two claims about ``--engine batched`` (``docs/statespace.md``):

* **Equivalence** — the composed ``T --13--> C`` check produces a
  byte-identical report under the tree, batched, and auto engines, for
  the full adversary family including the uncompilable hashed-random
  members (which fall back to the tree walk per adversary).
* **Speedup** — on the n=3 ring, the batched engine completes the
  arrow check at least 2x faster than the tree walk once the sampling
  load amortises the one-off compile.  The timed workload restricts
  the family to its compilable (Markov round-policy) members so the
  ratio measures the engine, not the fallback.  Skipped cleanly when
  the compile blows its state budget or the tree baseline finishes too
  fast to time reliably on constrained hardware (this container has
  1 CPU).
"""

from __future__ import annotations

import json
import time

import pytest

from repro.algorithms import lehmann_rabin as lr
from repro.analysis.montecarlo import LRExperimentSetup, check_lr_statement
from repro.errors import StateBudgetExceeded

SAMPLES = 60
SPEEDUP_SAMPLES = 1000


def run_check(setup, engine, samples):
    statement = lr.lehmann_rabin_proof().final_statement
    return check_lr_statement(
        statement, setup, seed=0, samples_per_pair=samples,
        random_starts=4, engine=engine,
    )


def test_batched_report_matches_tree(setup3):
    tree = run_check(setup3, "tree", SAMPLES)
    try:
        batched = run_check(setup3, "batched", SAMPLES)
    except StateBudgetExceeded as error:
        pytest.skip(f"compile budget exceeded: {error}")
    auto = run_check(setup3, "auto", SAMPLES)
    tree_json = json.dumps(tree.to_dict(), sort_keys=True)
    assert tree_json == json.dumps(batched.to_dict(), sort_keys=True)
    assert tree_json == json.dumps(auto.to_dict(), sort_keys=True)


def test_batched_at_least_2x_faster():
    # Only Markov round policies: the coin-peeking hashed-random
    # adversaries always sample through the tree walk and would dilute
    # the measured ratio with identical work on both sides.
    setup = LRExperimentSetup.build(3, random_seeds=())
    run_check(setup, "tree", SAMPLES)  # warm transition caches

    started = time.perf_counter()
    tree_report = run_check(setup, "tree", SPEEDUP_SAMPLES)
    tree_seconds = time.perf_counter() - started
    if tree_seconds < 0.5:
        pytest.skip(
            f"tree baseline finished in {tree_seconds:.3f}s — too fast "
            "to time a 2x ratio reliably on this hardware"
        )

    started = time.perf_counter()
    try:
        batched_report = run_check(setup, "batched", SPEEDUP_SAMPLES)
    except StateBudgetExceeded as error:
        pytest.skip(f"compile budget exceeded: {error}")
    batched_seconds = time.perf_counter() - started

    assert json.dumps(tree_report.to_dict(), sort_keys=True) == json.dumps(
        batched_report.to_dict(), sort_keys=True
    )
    speedup = tree_seconds / batched_seconds
    print(
        f"\ntree: {tree_seconds:.2f}s, batched: {batched_seconds:.2f}s "
        f"({speedup:.2f}x, compile amortised over "
        f"{SPEEDUP_SAMPLES} samples/pair)"
    )
    assert speedup >= 2.0, (
        f"batched speedup {speedup:.2f}x below the required 2x"
    )
