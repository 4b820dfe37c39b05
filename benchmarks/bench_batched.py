"""Byte identity of the batched flat-array engine.

One claim about ``--engine batched`` (``docs/statespace.md``): the
composed ``T --13--> C`` check produces a byte-identical report under
the tree and batched engines, for the full adversary family including
the uncompilable hashed-random members (which fall back to the tree
walk per adversary).  The batched engine's speed over the tree walk is
asserted end to end in ``bench_statespace.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.algorithms import lehmann_rabin as lr
from repro.analysis.montecarlo import check_lr_statement
from repro.errors import StateBudgetExceeded

SAMPLES = 60


def test_batched_report_matches_tree(setup3):
    statement = lr.lehmann_rabin_proof().final_statement

    def run(engine):
        return check_lr_statement(
            statement, setup3, seed=0, samples_per_pair=SAMPLES,
            random_starts=4, engine=engine,
        )

    tree = run("tree")
    try:
        batched = run("batched")
    except StateBudgetExceeded as error:
        pytest.skip(f"compile budget exceeded: {error}")
    assert json.dumps(tree.to_dict(), sort_keys=True) == json.dumps(
        batched.to_dict(), sort_keys=True
    )
