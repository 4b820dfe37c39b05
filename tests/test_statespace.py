"""Cross-engine equivalence suite for the compiled state-space core.

The contract under test (``docs/statespace.md``): a verification report
is a pure function of the problem and the root seed — *never* of the
evaluation strategy.  ``--engine tree``, ``--engine batched``, and
``--engine auto`` must produce byte-identical CLI JSON for every seed,
worker count, and guard mode, and the interned
representation itself is pinned by golden state/transition counts for
the n=3 ring.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from repro.algorithms import lehmann_rabin as lr
from repro.analysis.montecarlo import LRExperimentSetup, check_lr_statement
from repro.cli import main
from repro.contracts import OFF_CONFIG, WARN, GuardConfig
from repro.errors import StateBudgetExceeded, VerificationError
from repro.parallel import fork_available
from repro.statespace import (
    ENGINE_NAMES,
    BatchedEngine,
    SpaceSpec,
    TreeEngine,
    build_engine,
    compile_adversary,
    compile_space,
    resolve_engine_name,
)

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

SAMPLES = 12
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def setup3() -> LRExperimentSetup:
    return LRExperimentSetup.build(3, random_seeds=(1,))


@pytest.fixture(scope="module")
def space3(setup3):
    starts = tuple(lr.canonical_states(3).values())
    return compile_space(setup3.automaton, starts, setup3.space_spec())


@pytest.fixture(scope="module")
def statement():
    return lr.lehmann_rabin_proof().final_statement


def engine_for(setup3, statement, **kwargs):
    return build_engine(
        setup3.automaton,
        setup3.adversaries,
        tuple(lr.canonical_states(3).values()),
        statement.target.contains,
        lr.lr_time_of,
        statement.time_bound,
        200,
        spec=setup3.space_spec(),
        **kwargs,
    )


class TestGoldenCounts:
    """The interned n=3 space is pinned exactly.

    These counts change only when the model itself changes — any drift
    here means the Lehmann-Rabin dynamics (or the untimed quotient)
    moved, which invalidates every cached intuition about the space.
    """

    def test_state_count(self, space3):
        assert space3.n_states == 4338

    def test_transition_count(self, space3):
        assert sum(len(steps) for steps in space3.steps) == 18024

    def test_probabilities_are_exact_and_normalised(self, space3):
        for steps in space3.steps:
            for step in steps:
                total = sum(step.weights, Fraction(0))
                assert total == 1
                assert step.cum[-1] == pytest.approx(1.0)


class TestCompileUnit:
    def test_budget_exceeded_raises(self, setup3):
        starts = tuple(lr.canonical_states(3).values())
        with pytest.raises(StateBudgetExceeded):
            compile_space(
                setup3.automaton, starts, setup3.space_spec(), max_states=10
            )

    def test_markov_adversary_compiles(self, setup3, space3):
        by_name = dict(setup3.adversaries)
        starts = tuple(lr.canonical_states(3).values())
        table = compile_adversary(
            space3, by_name["fifo"], starts, max_nodes=200_000
        )
        assert table is not None
        assert len(table.start_nodes) == len(starts)

    def test_hashed_random_adversary_does_not_compile(self, setup3, space3):
        by_name = dict(setup3.adversaries)
        starts = tuple(lr.canonical_states(3).values())
        assert compile_adversary(
            space3, by_name["hashed-1"], starts, max_nodes=200_000
        ) is None

    def test_resolve_engine_name_rejects_unknown(self):
        with pytest.raises(VerificationError):
            resolve_engine_name("quantum")


class TestEngineSelection:
    def test_tree_requested_gives_tree(self, setup3, statement):
        engine = engine_for(setup3, statement, engine="tree")
        assert type(engine) is TreeEngine

    def test_batched_requested_gives_batched(self, setup3, statement):
        engine = engine_for(setup3, statement, engine="batched")
        assert type(engine) is BatchedEngine

    def test_auto_prefers_batched(self, setup3, statement):
        engine = engine_for(setup3, statement, engine="auto")
        assert type(engine) is BatchedEngine

    def test_batched_with_fuel_is_refused(self, setup3, statement):
        fuelled = GuardConfig(mode=WARN, fuel_steps=500).validate()
        with pytest.raises(VerificationError):
            engine_for(
                setup3, statement, engine="batched", guards=fuelled
            )

    def test_batched_with_tiny_budget_raises(self, setup3, statement):
        with pytest.raises(StateBudgetExceeded):
            engine_for(
                setup3, statement, engine="batched", state_budget=10
            )

    def test_auto_with_fuel_falls_back_to_tree(self, setup3, statement):
        fuelled = GuardConfig(mode=WARN, fuel_steps=500).validate()
        engine = engine_for(setup3, statement, engine="auto", guards=fuelled)
        assert type(engine) is TreeEngine

    def test_auto_with_tiny_budget_falls_back_to_tree(self, setup3, statement):
        engine = engine_for(
            setup3, statement, engine="auto", state_budget=10
        )
        assert type(engine) is TreeEngine

    def test_identity_spec_blows_budget_on_timed_states(self, setup3, statement):
        # Without the untimed quotient the clock makes the space
        # unbounded; auto must notice and walk the tree instead.
        engine = build_engine(
            setup3.automaton,
            setup3.adversaries,
            tuple(lr.canonical_states(3).values()),
            statement.target.contains,
            lr.lr_time_of,
            statement.time_bound,
            200,
            engine="auto",
            state_budget=20_000,
            guards=OFF_CONFIG,
        )
        assert type(engine) is TreeEngine


class TestReportEquivalence:
    """API-level: the report object is identical whichever engine ran."""

    @pytest.mark.parametrize("seed", (0, 11))
    def test_check_reports_identical(self, setup3, statement, seed):
        reports = {
            engine: check_lr_statement(
                statement, setup3, seed=seed,
                samples_per_pair=SAMPLES, random_starts=2, engine=engine,
            )
            for engine in ENGINE_NAMES
        }
        baseline = json.dumps(reports["tree"].to_dict(), sort_keys=True)
        for engine in ENGINE_NAMES[1:]:
            assert baseline == json.dumps(
                reports[engine].to_dict(), sort_keys=True
            ), f"engine {engine!r} diverged from tree at seed {seed}"


CLI_MATRIX = [
    (workers, guards)
    for workers in (1, 4)
    for guards in ("off", "warn", "strict")
]


class TestCliByteIdentity:
    """CLI-level: stdout bytes and exit status match across engines."""

    @pytest.mark.parametrize("workers,guards", CLI_MATRIX)
    def test_check_json_identical(self, capsys, workers, guards):
        if workers > 1 and not fork_available():
            pytest.skip("parallel backend needs the fork method")
        runs = {}
        for engine in ENGINE_NAMES:
            code = main([
                "check", "--prop", "composed", "--n", "3",
                "--seed", "5", "--samples", str(SAMPLES),
                "--workers", str(workers), "--guards", guards,
                "--engine", engine, "--json",
            ])
            runs[engine] = (code, capsys.readouterr().out)
        assert all(
            run == runs["tree"] for run in runs.values()
        ), f"CLI output diverged at workers={workers} guards={guards}"

    def test_state_budget_exit_code(self, capsys):
        code = main([
            "check", "--prop", "composed", "--n", "3",
            "--seed", "5", "--samples", "4",
            "--engine", "batched", "--state-budget", "10", "--json",
        ])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("retired", ("compiled", "batched-pure"))
    def test_retired_engine_names_are_usage_errors(self, capsys, retired):
        with pytest.raises(SystemExit) as exit_info:
            main([
                "check", "--prop", "composed", "--n", "3",
                "--samples", "4", "--engine", retired,
            ])
        assert exit_info.value.code == 2
        (error,) = [
            line for line in capsys.readouterr().err.splitlines()
            if "invalid choice" in line
        ]
        assert retired in error
        for name in ENGINE_NAMES:
            assert name in error


def test_cli_import_leaves_numpy_unloaded():
    # The library is pure python: a cold ``import repro.cli`` must not
    # pay numpy's import time and memory on every ``repro`` process.
    probe = (
        "import sys, repro.cli; "
        "sys.exit(1 if 'numpy' in sys.modules else 0)"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr or "numpy was imported"


class TestSpaceSpecQuotient:
    def test_quotient_keys_drop_time(self, setup3):
        spec = setup3.space_spec()
        state = next(iter(lr.canonical_states(3).values()))
        advanced = state.advanced(Fraction(7))
        assert spec.key(state) == spec.key(advanced)
        assert spec.time_of(advanced) - spec.time_of(state) == 7


def test_space_spec_requires_callables():
    spec = SpaceSpec(key=lambda s: s, time_of=lambda s: Fraction(0))
    assert spec.key("x") == "x"
