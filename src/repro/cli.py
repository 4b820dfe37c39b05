"""Command-line interface: ``python -m repro <command>``.

Each subcommand regenerates one slice of the reproduction and prints a
plain-text report:

* ``prove``          — the Section 6.2 ledger derivation and bounds;
* ``verify``         — Monte-Carlo checks of the leaf and composed
  statements under the hostile adversary family;
* ``check``          — Monte-Carlo check of one named statement, with a
  canonical JSON report (``--json``) for byte-identity comparisons;
* ``chain``          — the composed ``T --13-->_1/8 C`` chain: its
  ledger derivation plus a Monte-Carlo check of the final statement;
* ``exact``          — exact worst-case minima over the
  round-synchronous Unit-Time subclass;
* ``appendix``       — the appendix lemmas, exactly;
* ``expected-time``  — measured time-to-critical vs the bound 63;
* ``sweep``          — ring-size and deadline ablations;
* ``election``       — the leader-election case study;
* ``benor``          — the Ben-Or consensus case study;
* ``independence``   — Example 4.1 / Proposition 4.2, exactly;
* ``stats``          — an instrumented Lehmann-Rabin run: span tree and
  metric tables (samples drawn, steps simulated, value-iteration
  residuals);
* ``audit``          — static well-formedness audit of the selected
  model's automaton (Definition 2.1 obligations);
* ``models``         — list the registered case-study models with
  their instance-size range, adversary family, and quotient support;
* ``trace``          — run any other subcommand with instrumentation on
  and render its span tree and metric tables afterwards;
* ``runs``           — list, show, and diff the provenance manifests
  every run appends to ``.repro/runs`` (opt-out: ``--no-manifest``);
* ``profile``        — fold a recorded span tree (a ``--trace-out``
  file or a manifest) into per-phase self/cumulative hotspots, with
  ``--folded`` flamegraph output;
* ``submit``         — append a verification command to the durable
  job store (validated now, run by ``serve`` later);
* ``serve``          — run supervised workers over the job store:
  leases with heartbeats, crash restarts with backoff, a
  content-addressed result cache, graceful SIGTERM drain;
* ``jobs``           — list, show, and cancel stored jobs
  (see ``docs/service.md``).

Every subcommand accepts ``--trace-out FILE.jsonl`` to record spans and
metrics to a JSONL trace file (see ``docs/observability.md``).  The
sampling subcommands accept ``--progress`` for a live stderr status
line (tasks done, rate, ETA, retry/quarantine/degradation counters);
stdout is byte-identical with progress on or off.  The
sampling subcommands accept ``--workers N`` to fan (adversary, start
state) pair checks out over a process pool; reports are bit-identical
for every worker count (see ``docs/parallel.md``).  They also accept
the fault-tolerance flags ``--timeout``, ``--retries``,
``--checkpoint FILE``, ``--resume``, and ``--inject-faults SPEC``
(crash-safe pooling, checkpoint/resume, and deterministic chaos
testing — see ``docs/robustness.md``); none of them changes a report's
bytes.  ``--guards {off,warn,strict}`` and ``--fuel SPEC`` select the
model-contract enforcement mode (Definitions 2.1/2.2/3.3) and
per-execution budgets; on healthy models ``warn`` output is
byte-identical to ``off`` for every worker count, and strict-mode
violations exit with the dedicated status 4 (see ``docs/contracts.md``).
``--engine {tree,batched,auto}`` selects the evaluation strategy —
the historical tree walk, or the compile-once interned state space
sampled as flat arrays — and
``--state-budget`` caps the compile; reports are byte-identical
whichever engine ran (see ``docs/statespace.md``).  The sampling
subcommands, ``audit``, and ``fuzz`` accept ``--model NAME`` to select
a registered case study from :mod:`repro.models`; the default ``lr``
is the paper's Lehmann-Rabin ring and reproduces the historical output
byte for byte (see ``docs/models.md``).
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from typing import Optional, Sequence

# Retries a pooled task gets by default before its failure aborts the
# run: survives transient worker losses at zero cost on healthy runs.
DEFAULT_RETRIES = 2

# Exit status for model-contract violations: a strict-mode guard
# raised, or a run completed with quarantined (adversary, start) pairs.
# Distinct from 1 (statement refuted) so callers can tell "the model is
# broken" from "the claim is false".
EXIT_CONTRACT = 4

# Exit status for engine divergence: a defect-corpus replay or a fuzz
# campaign found two engines classifying the same case differently (or
# an entry classified other than its registry expectation).  Distinct
# from every other failure — it means the *harness itself* is broken,
# not the model or the claim.
EXIT_DIVERGENCE = 5

EXIT_STATUS_EPILOG = """\
exit status:
  0  success: every checked claim held
  1  a checked claim was refuted (or a measured bound failed)
  2  usage error (unknown flags, models or propositions, an instance
     size outside the model's range, contradictory flags, or
     --engine batched blew its --state-budget)
  3  infrastructure failure: a pooled run exhausted its
     fault-tolerance budget, a checkpoint file was unusable, or the
     job service failed (lease lost, job store corrupt, workers
     crash-looping — docs/service.md)
  4  model-contract violation: a --guards strict check failed, the
     audit found findings, or pairs were quarantined (docs/contracts.md)
  5  engine divergence: a corpus replay or fuzz campaign saw two
     engines disagree, or an entry defied its expected classification
     (docs/corpus.md)
"""

MODELS_EPILOG = """\
models:
  the sampling subcommands (verify, check, chain, expected-time,
  stats, sweep), audit, and fuzz take --model NAME to select a
  registered case study; the default 'lr' is the paper's Lehmann-Rabin
  ring and reproduces the historical output byte for byte.
  'repro models' lists every registered model with its instance-size
  range, adversary family, and quotient support (docs/models.md)

"""


def _build_policy(args: argparse.Namespace):
    """The fault-tolerance policy described by the CLI flags.

    Raises :class:`~repro.errors.VerificationError` for contradictory
    flags (``--resume`` without ``--checkpoint``, hang injection
    without ``--timeout``, malformed ``--inject-faults`` specs).
    """
    from repro.parallel import Checkpoint, FaultPlan, RunPolicy

    policy = RunPolicy(
        timeout=args.timeout,
        retries=args.retries,
        faults=(
            FaultPlan.parse(args.inject_faults)
            if args.inject_faults else None
        ),
        checkpoint=(
            Checkpoint(args.checkpoint) if args.checkpoint else None
        ),
        resume=args.resume,
    )
    policy.validate()
    return policy


def _checkpoint_scope(policy):
    """Context manager closing the policy's checkpoint, if any."""
    if policy.checkpoint is not None:
        return policy.checkpoint
    return nullcontext()


def _build_guards(args: argparse.Namespace):
    """The contract-guard configuration described by the CLI flags.

    Raises :class:`~repro.errors.VerificationError` for contradictory
    flags (``--fuel`` with ``--guards off``, malformed fuel specs).
    Resets the once-per-site warning dedup so repeated in-process
    invocations (tests, ``trace``) warn afresh.
    """
    from repro import contracts

    contracts.reset_warnings()
    config = contracts.GuardConfig.from_flags(
        getattr(args, "guards", "off"), getattr(args, "fuel", None)
    )
    config.validate()
    return config


def _quarantine_lines(*reports) -> list:
    """Human-readable skip lines for every quarantined pair."""
    lines = []
    for report in reports:
        for pair in getattr(report, "quarantined", ()):
            lines.append(f"repro: {pair.describe()}")
    return lines


def _resolve_model(args: argparse.Namespace):
    """The registry model named by ``--model``, with defaults filled in.

    The parser leaves the model-dependent flags (``--n``, ``--prop``,
    ``--sizes``) as ``None``; this resolves them to the selected
    model's own defaults, so downstream code and the run manifest
    always see concrete values.  Raises
    :class:`~repro.errors.ModelRegistryError` (exit status 2 in
    :func:`main`) for an unregistered name, a malformed ``--sizes``,
    or an instance size (``--n`` or any ``--sizes`` entry) outside the
    model's range.
    """
    from repro.errors import ModelRegistryError, VerificationError
    from repro.models import get_model

    model = get_model(getattr(args, "model", "lr"))
    if getattr(args, "n", 0) is None:
        args.n = model.n_default
    if getattr(args, "prop", 0) is None:
        args.prop = model.default_prop
    if getattr(args, "sizes", 0) is None:
        args.sizes = ",".join(str(size) for size in model.sweep_sizes)
    sizes = [args.n] if hasattr(args, "n") else []
    if hasattr(args, "sizes"):
        try:
            sizes += [int(size) for size in args.sizes.split(",")]
        except ValueError:
            raise ModelRegistryError(
                f"--sizes takes comma-separated integers, got "
                f"{args.sizes!r}"
            ) from None
    for size in sizes:
        try:
            model.validate_n(size)
        except VerificationError as error:
            raise ModelRegistryError(str(error)) from None
    return model


def _cmd_prove(args: argparse.Namespace) -> int:
    from repro.models.lr import lr_exact_commands

    return lr_exact_commands().cmd_prove(args)


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.analysis.montecarlo import check_all_leaves, check_statement
    from repro.analysis.reporting import arrow_report_row, banner, format_table

    model = _resolve_model(args)
    policy = _build_policy(args)
    guards = _build_guards(args)
    setup = model.build(args.n)
    print(banner(f"Monte-Carlo verification, {model.size_noun} {args.n}"))
    with _checkpoint_scope(policy):
        reports = check_all_leaves(
            setup, seed=args.seed, samples_per_pair=args.samples,
            workers=args.workers, policy=policy, guards=guards,
            engine=args.engine, state_budget=args.state_budget,
        )
        rows = []
        failures = 0
        for name, report in sorted(reports.items()):
            failures += report.refuted
            rows.append(arrow_report_row(f"Prop {name}", report))
        chain = model.proof_chain(args.n)
        final = check_statement(
            chain.final_statement, setup, seed=args.seed,
            samples_per_pair=args.samples, workers=args.workers,
            policy=policy, guards=guards, engine=args.engine,
            state_budget=args.state_budget,
        )
    failures += final.refuted
    rows.append(arrow_report_row("composed", final))
    print(format_table(("claim", "statement", "worst estimate", "verdict"),
                       rows))
    skips = _quarantine_lines(final, *reports.values())
    if skips:
        print()
        print("\n".join(skips))
    if failures:
        return 1
    return EXIT_CONTRACT if skips else 0


def _resolve_statement(model, n: int, prop: str):
    """The arrow statement named ``prop`` ('composed' or a leaf name).

    ``composed`` always names the model's end-to-end chain conclusion;
    anything else is looked up among the leaf statements.  Returns
    ``None`` when the name is unknown (the caller reports the
    available choices).
    """
    if prop == "composed":
        return model.proof_chain(n).final_statement
    return model.leaf_statements(n).get(prop)


def _cmd_check(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.montecarlo import check_statement
    from repro.analysis.reporting import arrow_report_row, banner, format_table

    model = _resolve_model(args)
    statement = _resolve_statement(model, args.n, args.prop)
    if statement is None:
        choices = ", ".join(
            ["composed", *sorted(model.leaf_statements(args.n))]
        )
        print(
            f"repro: error: unknown proposition {args.prop!r} "
            f"(choices: {choices})",
            file=sys.stderr,
        )
        return 2
    policy = _build_policy(args)
    guards = _build_guards(args)
    setup = model.build(args.n)
    with _checkpoint_scope(policy):
        report = check_statement(
            statement, setup, seed=args.seed, samples_per_pair=args.samples,
            workers=args.workers, early_stop=args.early_stop, policy=policy,
            guards=guards, engine=args.engine,
            state_budget=args.state_budget,
        )
    if args.json:
        print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
    else:
        print(banner(
            f"Monte-Carlo check of {args.prop}, {model.size_noun} {args.n}"
        ))
        print(format_table(
            ("claim", "statement", "worst estimate", "verdict"),
            [arrow_report_row(args.prop, report)],
        ))
        print()
        print(report.summary_line())
        skips = _quarantine_lines(report)
        if skips:
            print("\n".join(skips))
    if report.refuted:
        return 1
    return EXIT_CONTRACT if report.quarantined else 0


def _cmd_chain(args: argparse.Namespace) -> int:
    from repro.analysis.montecarlo import check_statement
    from repro.analysis.reporting import banner

    model = _resolve_model(args)
    chain = model.proof_chain(args.n)
    setup = model.build(args.n)
    print(banner(f"The composed chain, {model.size_noun} {args.n}"))
    print(chain.ledger.explain(chain.final_id))
    print()
    policy = _build_policy(args)
    guards = _build_guards(args)
    with _checkpoint_scope(policy):
        report = check_statement(
            chain.final_statement, setup, seed=args.seed,
            samples_per_pair=args.samples, workers=args.workers,
            early_stop=args.early_stop, policy=policy, guards=guards,
            engine=args.engine, state_budget=args.state_budget,
        )
    print(report.summary_line())
    skips = _quarantine_lines(report)
    if skips:
        print("\n".join(skips))
    if report.refuted:
        return 1
    return EXIT_CONTRACT if report.quarantined else 0


def _cmd_exact(args: argparse.Namespace) -> int:
    from repro.models.lr import lr_exact_commands

    return lr_exact_commands().cmd_exact(args)


def _cmd_appendix(args: argparse.Namespace) -> int:
    from repro.models.lr import lr_exact_commands

    return lr_exact_commands().cmd_appendix(args)


def _cmd_expected_time(args: argparse.Namespace) -> int:
    from repro.analysis.montecarlo import measure_expected_time
    from repro.analysis.reporting import banner, format_table, time_report_row

    model = _resolve_model(args)
    bound = model.expected_time_bound(args.n)
    setup = model.build(args.n)
    print(banner(f"Time to {model.target_label}, {model.size_noun} {args.n} "
                 f"(bound: {bound})"))
    policy = _build_policy(args)
    guards = _build_guards(args)
    with _checkpoint_scope(policy):
        reports = measure_expected_time(
            setup, seed=args.seed, samples=args.samples,
            workers=args.workers, policy=policy, guards=guards,
            engine=args.engine, state_budget=args.state_budget,
        )
    rows = []
    failures = 0
    quarantined = 0
    for name, report in sorted(reports.items()):
        quarantined += len(report.quarantined)
        if not report.times:
            # Every start was quarantined (or nothing reached the
            # target): there is no mean to compare against the bound.
            verdict = "QUARANTINED" if report.quarantined else "FAILS"
            failures += verdict == "FAILS"
            rows.append(time_report_row(name, report) + (verdict,))
            continue
        ok = report.unreached == 0 and report.mean <= float(bound)
        failures += not ok
        rows.append(time_report_row(name, report) + ("ok" if ok else "FAILS",))
    print(format_table(
        ("adversary", "mean", "max", "unreached", "verdict"), rows
    ))
    skips = _quarantine_lines(*reports.values())
    if skips:
        print()
        print("\n".join(skips))
    if failures:
        return 1
    return EXIT_CONTRACT if quarantined else 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.experiments import horizon_sweep, ring_size_sweep
    from repro.analysis.reporting import banner, format_table

    model = _resolve_model(args)
    policy = _build_policy(args)
    guards = _build_guards(args)
    sizes = tuple(int(s) for s in args.sizes.split(","))
    final = model.proof_chain(model.n_default).final_statement
    source, target = final.source.name, final.target.name
    print(banner(f"{model.sweep_noun} sweep"))
    with _checkpoint_scope(policy):
        rows = ring_size_sweep(
            sizes=sizes, seed=args.seed, samples_per_pair=args.samples,
            time_samples=args.samples, workers=args.workers, policy=policy,
            guards=guards, engine=args.engine,
            state_budget=args.state_budget, model=model,
        )
    print(format_table(
        ("n", f"min P[{source} -{final.time_bound}-> {target}]",
         "claimed", "worst mean time"),
        [
            (r.n, f"{r.min_success_estimate:.3f}", f"{r.claimed:.3f}",
             f"{r.mean_time_to_c:.2f}")
            for r in rows
        ],
    ))
    print()
    print(banner(f"Deadline sweep (n = {model.n_default})"))
    with _checkpoint_scope(policy):
        hrows = horizon_sweep(
            n=model.n_default, seed=args.seed,
            samples_per_pair=args.samples,
            workers=args.workers, policy=policy, guards=guards,
            engine=args.engine, state_budget=args.state_budget,
            model=model,
        )
    print(format_table(
        ("deadline", f"min P[{source} -t-> {target}]"),
        [(r.time_bound, f"{r.min_success_estimate:.3f}") for r in hrows],
    ))
    return 0


def _cmd_election(args: argparse.Namespace) -> int:
    from repro.algorithms import election as el
    from repro.analysis.reporting import banner

    chain = el.election_proof(args.n)
    print(banner(f"Leader election, {args.n} candidates"))
    print(chain.ledger.explain(chain.final_id))
    print(f"\nexpected-time bound: {el.election_expected_time_bound(args.n)}")
    return 0


def _cmd_benor(args: argparse.Namespace) -> int:
    from repro.algorithms import benor as bo
    from repro.analysis.reporting import banner

    statement = bo.benor_progress_statement(args.n)
    print(banner(f"Ben-Or consensus, {args.n} processes"))
    print(f"progress statement: {statement!r}")
    print(f"expected-time bound: {bo.benor_expected_time_bound(args.n)}")
    return 0


def _cmd_independence(args: argparse.Namespace) -> int:
    from repro.algorithms.coins import (
        FLIP_P,
        FLIP_Q,
        HEADS,
        TAILS,
        both_flip_adversary,
        never_flip_q_adversary,
        p_heads,
        peek_adversary,
        q_tails,
        two_coin_automaton,
    )
    from repro.analysis.reporting import banner, format_table
    from repro.automaton.execution import ExecutionFragment
    from repro.events.independence import proposition_4_2_claims
    from repro.execution.automaton import ExecutionAutomaton
    from repro.execution.measure import exact_event_probability

    automaton = two_coin_automaton()
    first_claim, next_claim = proposition_4_2_claims(
        automaton,
        [(FLIP_P, p_heads), (FLIP_Q, q_tails)],
        automaton.states,
    )
    start = ExecutionFragment.initial((None, None))
    print(banner("Example 4.1 / Proposition 4.2 (exact)"))
    rows = []
    failures = 0
    for name, adversary in [
        ("both-flip", both_flip_adversary()),
        ("peek-q-on-H", peek_adversary(HEADS)),
        ("peek-q-on-T", peek_adversary(TAILS)),
        ("never-flip-q", never_flip_q_adversary()),
    ]:
        tree = ExecutionAutomaton(automaton, adversary, start)
        conj = exact_event_probability(tree, first_claim.event, 4)
        nxt = exact_event_probability(tree, next_claim.event, 4)
        ok = conj >= first_claim.lower_bound and nxt >= next_claim.lower_bound
        failures += not ok
        rows.append((name, str(conj), str(nxt), "ok" if ok else "FAILS"))
    print(format_table(
        ("adversary", f"conjunction (>= {first_claim.lower_bound})",
         f"next (>= {next_claim.lower_bound})", "verdict"),
        rows,
    ))
    return 1 if failures else 0


def _write_trace(registry, path: str, reports: Sequence[dict] = ()) -> int:
    """Write the run's trace as JSONL; returns a process exit code."""
    from repro.obs.sinks import JsonlSink

    try:
        written = JsonlSink(path).write_run(registry, reports=reports)
    except OSError as error:
        print(f"repro: error: cannot write trace to {path}: {error}",
              file=sys.stderr)
        return 1
    print(f"\nwrote {written} trace records to {path}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.analysis.montecarlo import check_all_leaves
    from repro.analysis.reporting import banner
    from repro.mdp.expected_time import extremal_expected_time_rounds
    from repro.obs.profile import profile_tracer
    from repro.obs.sinks import (
        metric_records,
        render_metric_tables,
        render_span_tree,
    )

    model = _resolve_model(args)
    target_name = model.proof_chain(args.n).final_statement.target.name
    policy = _build_policy(args)
    guards = _build_guards(args)
    with obs.recording() as registry, _checkpoint_scope(policy):
        with obs.span(
            "stats.run", n=args.n, seed=args.seed, samples=args.samples
        ):
            setup = model.build(args.n)
            reports = check_all_leaves(
                setup, seed=args.seed, samples_per_pair=args.samples,
                workers=args.workers, policy=policy, guards=guards,
                engine=args.engine, state_budget=args.state_budget,
            )
            with obs.span("stats.value_iteration", n=args.n):
                worst_rounds = extremal_expected_time_rounds(
                    setup.automaton,
                    setup.view,
                    model.target,
                    model.mdp_reference(args.n),
                    model.untimed,
                    maximise=True,
                )
    # Stash the recording for the run manifest main() writes.
    args.final_metrics = metric_records(registry.metrics)
    args.final_profile = profile_tracer(registry.tracer)
    failures = sum(report.refuted for report in reports.values())
    print(banner(f"Instrumented {model.title} run, "
                 f"{model.size_noun} {args.n}"))
    print("\nspan tree")
    print("---------")
    print(render_span_tree(registry.tracer))
    print()
    print(render_metric_tables(registry.metrics))
    print(f"\nworst-case expected rounds to {target_name} "
          f"(round-synchronous): {worst_rounds:.4f}")
    print(f"refuted statements: {failures}")
    skips = _quarantine_lines(*reports.values())
    if skips:
        print()
        print("\n".join(skips))
    sink_code = _write_trace(
        registry, args.trace_out,
        reports=[report.to_dict() for report in reports.values()],
    ) if args.trace_out else 0
    if failures:
        return 1
    return EXIT_CONTRACT if skips else sink_code


def _cmd_audit(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.reporting import banner
    from repro.contracts import audit_automaton

    model = _resolve_model(args)
    automaton = model.build(args.n).automaton
    report = audit_automaton(automaton, horizon=args.horizon)
    if args.json:
        print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
    else:
        print(banner(
            f"Definition 2.1 audit of the {model.title} automaton, "
            f"{model.size_noun} {args.n}"
        ))
        print(report.summary_line())
        for finding in report.findings:
            print(f"  {finding.describe()}")
        if report.findings_dropped:
            print(f"  ... and {report.findings_dropped} more finding(s)")
        if report.exhausted:
            print(
                "note: the reachable-state walk hit the horizon "
                f"({args.horizon} states); raise --horizon for full "
                "coverage"
            )
    return 0 if report.ok else EXIT_CONTRACT


def _cmd_models(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.reporting import banner, format_table
    from repro.models import registered_models

    records = []
    for model in registered_models():
        setup = model.build(model.n_default)
        records.append({
            "name": model.name,
            "title": model.title,
            "description": model.description,
            "schema": model.schema_name,
            "n_default": model.n_default,
            "n_range": model.n_range,
            "default_prop": model.default_prop,
            "adversaries": [name for name, _ in setup.adversaries],
            "quotient": (
                "untimed+symmetry" if model.symmetry_spec is not None
                else "untimed"
            ),
            "sweep_sizes": list(model.sweep_sizes),
        })
    if args.json:
        print(json.dumps(records, sort_keys=True, indent=2))
        return 0
    print(banner("Registered models"))
    print(format_table(
        ("model", "title", "default n", "n-range", "adversaries",
         "quotient"),
        [
            (
                record["name"],
                record["title"],
                record["n_default"],
                record["n_range"],
                len(record["adversaries"]),
                record["quotient"],
            )
            for record in records
        ],
    ))
    for record in records:
        print(f"\n{record['name']}: {record['description']}")
        print(f"  adversary family: {', '.join(record['adversaries'])}")
        print(f"  schema: {record['schema']}; default proposition: "
              f"{record['default_prop']}; sweep sizes: "
              f"{','.join(str(s) for s in record['sweep_sizes'])}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.analysis.reporting import banner
    from repro.obs.profile import profile_tracer
    from repro.obs.sinks import (
        metric_records,
        render_metric_tables,
        render_span_tree,
    )

    parser = build_parser()
    inner = parser.parse_args(args.rest)
    if getattr(inner, "manages_tracing", False):
        parser.error(
            f"cannot trace {inner.command!r}: it manages instrumentation "
            "itself"
        )
    with obs.recording() as registry:
        code = inner.func(inner)
    args.final_metrics = metric_records(registry.metrics)
    args.final_profile = profile_tracer(registry.tracer)
    print()
    print(banner(f"trace of 'repro {' '.join(args.rest)}'"))
    print(render_span_tree(registry.tracer))
    print()
    print(render_metric_tables(registry.metrics))
    trace_out = args.trace_out or getattr(inner, "trace_out", None)
    sink_code = _write_trace(registry, trace_out) if trace_out else 0
    return code or sink_code


def _cmd_runs(args: argparse.Namespace) -> int:
    import json

    from repro.obs import manifest as mf

    if args.runs_cmd == "list":
        manifests = mf.load_manifests(args.runs_dir)
        if args.json:
            print(json.dumps(manifests, sort_keys=True, indent=2))
        else:
            print(mf.render_runs_table(manifests))
        return 0
    if args.runs_cmd == "show":
        record = mf.find_manifest(args.id, args.runs_dir)
        if record is None:
            print(f"repro: error: no recorded run matches {args.id!r}",
                  file=sys.stderr)
            return 2
        if args.json:
            print(json.dumps(record, sort_keys=True, indent=2))
        else:
            print(mf.render_manifest(record))
        return 0
    # diff
    old = mf.find_manifest(args.old, args.runs_dir)
    new = mf.find_manifest(args.new, args.runs_dir)
    missing = [
        run_id for run_id, record in ((args.old, old), (args.new, new))
        if record is None
    ]
    if missing:
        print(
            f"repro: error: no recorded run matches "
            f"{', '.join(repr(run_id) for run_id in missing)}",
            file=sys.stderr,
        )
        return 2
    comparison = mf.diff_manifests(old, new)
    if args.json:
        print(json.dumps(comparison, sort_keys=True, indent=2))
    else:
        print(mf.render_diff(comparison))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs import manifest as mf
    from repro.obs import profile as prof
    from repro.obs.sinks import read_jsonl

    if args.run and args.source:
        print("repro: error: give a trace file or --run, not both",
              file=sys.stderr)
        return 2
    if args.run:
        record = mf.find_manifest(args.run, args.runs_dir)
        if record is None:
            print(f"repro: error: no recorded run matches {args.run!r}",
                  file=sys.stderr)
            return 2
        rows = prof.merge_profiles([record.get("profile") or []])
    elif args.source:
        try:
            records = read_jsonl(args.source)
        except OSError as error:
            print(f"repro: error: cannot read {args.source}: {error}",
                  file=sys.stderr)
            return 2
        rows = prof.aggregate_spans(records)
    else:
        print("repro: error: give a --trace-out JSONL file or --run ID",
              file=sys.stderr)
        return 2
    if args.folded:
        print(prof.render_folded(rows))
    else:
        print(prof.render_profile(rows, top=args.top))
    return 0


def _scope_free(action: argparse.Action) -> argparse.Action:
    """Declare a flag that cannot change stdout: it stays out of the scope.

    Two runs differing only in scope-free flags share a scope
    fingerprint, so ``repro runs diff`` compares them and the job
    service serves one's cached report to the other.  Unmarked means
    "in the scope": a missing mark can only split a scope, never merge
    two runs that print different bytes.
    """
    action.scope_value = None
    return action


def _corpus_file_scope(path: Optional[str]) -> dict:
    """``--corpus-file``'s scope entry: the path and the file's sha256.

    A replay runs the entries the file holds, so the same path with
    other contents is another scope ("absent" before the first
    ``corpus add``).
    """
    import hashlib
    from pathlib import Path

    from repro.corpus import DEFAULT_CORPUS_FILE

    try:
        content = Path(path or DEFAULT_CORPUS_FILE).read_bytes()
        digest = hashlib.sha256(content).hexdigest()
    except FileNotFoundError:
        digest = "absent"
    except OSError:
        digest = "unreadable"
    return {"path": path, "sha256": digest}


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    from repro.statespace import ENGINE_NAMES

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of Lynch/Saias/Segala, 'Proving Time Bounds "
            "for Randomized Distributed Algorithms' (PODC 1994)."
        ),
        epilog=MODELS_EPILOG + EXIT_STATUS_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    traceable = argparse.ArgumentParser(add_help=False)
    # --trace-out appends a "wrote N trace records" line, yet stays
    # scope-free so a traced and an untraced run share a ``runs diff``
    # scope; the job service rejects it at submit instead.
    _scope_free(traceable.add_argument(
        "--trace-out", metavar="FILE.jsonl", default=None,
        help="record spans and metrics to a JSONL trace file",
    ))
    _scope_free(traceable.add_argument(
        "--no-manifest", action="store_false", dest="manifest",
        help="do not append a provenance record for this run to the "
             "manifest store (default: record one)",
    ))
    _scope_free(traceable.add_argument(
        "--runs-dir", metavar="DIR", default=None, dest="runs_dir",
        help="manifest store location (default: $REPRO_RUNS_DIR or "
             ".repro/runs)",
    ))

    def add_command(name, **kwargs):
        return sub.add_parser(name, parents=[traceable], **kwargs)

    def robust(p):
        """Fault-tolerance flags shared by the sampling subcommands."""
        _scope_free(p.add_argument(
            "--progress", action="store_true",
            help="render a live progress line (tasks done, rate, ETA, "
                 "retry/quarantine/degradation counters) on stderr; "
                 "stdout stays byte-identical with or without it",
        ))
        _scope_free(p.add_argument(
            "--timeout", type=float, default=None, metavar="SECONDS",
            help="per-task wall-clock timeout; hung workers are "
                 "terminated and the task is retried",
        ))
        _scope_free(p.add_argument(
            "--retries", type=int, default=DEFAULT_RETRIES, metavar="N",
            help="retries per task after a worker crash, timeout, or "
                 "corrupted result (default: %(default)s)",
        ))
        _scope_free(p.add_argument(
            "--checkpoint", metavar="FILE.jsonl", default=None,
            help="append completed task results to a crash-safe JSONL "
                 "checkpoint",
        ))
        _scope_free(p.add_argument(
            "--resume", action="store_true",
            help="skip tasks already recorded in --checkpoint; the "
                 "resumed report is bit-identical to an uninterrupted run",
        ))
        _scope_free(p.add_argument(
            "--inject-faults", metavar="SPEC", default=None,
            help="deterministically inject worker failures, e.g. "
                 "'crash=0.1,hang=0.05,corrupt=0.02,seed=7' "
                 "(see docs/robustness.md)",
        ))
        p.add_argument(
            "--guards", choices=("off", "warn", "strict"), default="warn",
            help="model-contract enforcement: 'off' skips all checks, "
                 "'warn' reports violations once per site on stderr, "
                 "'strict' quarantines the offending (adversary, start) "
                 "pair and exits with status 4 (default: %(default)s; "
                 "see docs/contracts.md)",
        )
        p.add_argument(
            "--fuel", metavar="SPEC", default=None,
            help="per-execution budget surfacing nontermination, e.g. "
                 "'5000' (steps) or 'steps=5000,seconds=2.5'; requires "
                 "--guards warn or strict",
        )
        _scope_free(p.add_argument(
            "--engine",
            choices=ENGINE_NAMES,
            default="tree",
            help="evaluation strategy: 'tree' walks the live object "
                 "graph, 'batched' interns the reachable state space "
                 "once and samples it as flat arrays (errors when the "
                 "--state-budget is exceeded), 'auto' prefers the "
                 "batched walk when the space fits and falls back to "
                 "the tree walk otherwise; reports are byte-identical "
                 "whichever engine ran (default: %(default)s; see "
                 "docs/statespace.md)",
        ))
        _scope_free(p.add_argument(
            "--state-budget", type=int, default=None, metavar="N",
            dest="state_budget",
            help="cap on interned states (and per-adversary product "
                 "nodes) for --engine batched/auto "
                 "(default: 200000)",
        ))

    def model_flag(p):
        p.add_argument(
            "--model", default="lr", metavar="NAME",
            help="registered case-study model to verify (default: "
                 "%(default)s; list them with 'repro models')",
        )

    def common(p, samples_default=80):
        model_flag(p)
        p.add_argument(
            "--n", type=int, default=None,
            help="instance size (default: the model's own, 3 for lr)",
        )
        p.add_argument("--seed", type=int, default=0, help="RNG seed")
        p.add_argument(
            "--samples", type=int, default=samples_default,
            help="Monte-Carlo samples per (adversary, start) pair",
        )
        _scope_free(p.add_argument(
            "--workers", type=int, default=1,
            help="sampling worker processes (1 = sequential; results "
                 "are identical for every count)",
        ))
        robust(p)

    add_command("prove", help="print the Section 6.2 derivation")\
        .set_defaults(func=_cmd_prove)

    p = add_command("verify", help="Monte-Carlo check of all statements")
    common(p)
    p.set_defaults(func=_cmd_verify)

    p = add_command(
        "check", help="Monte-Carlo check of one statement (see --prop)"
    )
    common(p)
    p.add_argument(
        "--prop", default=None,
        help="leaf proposition name (e.g. A.14) or 'composed' "
             "(default: the model's own, 'composed' for lr)",
    )
    p.add_argument(
        "--early-stop", action="store_true", dest="early_stop",
        help="stop a pair early once its confidence bounds decide it",
    )
    p.add_argument(
        "--json", action="store_true",
        help="print the full report as canonical JSON",
    )
    p.set_defaults(func=_cmd_check)

    p = add_command(
        "chain", help="derive and check the composed T --13-->_1/8 C chain"
    )
    common(p)
    p.add_argument(
        "--early-stop", action="store_true", dest="early_stop",
        help="stop a pair early once its confidence bounds decide it",
    )
    p.set_defaults(func=_cmd_chain)

    p = add_command("exact", help="exact round-synchronous minima")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--states", type=int, default=6,
                   help="sampled start states per region")
    p.set_defaults(func=_cmd_exact)

    p = add_command("appendix", help="check the appendix lemmas exactly")
    p.add_argument("--n", type=int, default=3)
    p.set_defaults(func=_cmd_appendix)

    p = add_command("expected-time", help="measured time-to-critical")
    common(p)
    p.set_defaults(func=_cmd_expected_time)

    p = add_command("sweep", help="instance-size and deadline ablations")
    model_flag(p)
    p.add_argument(
        "--sizes", default=None,
        help="comma-separated instance sizes (default: the model's "
             "own, 3,4,5 for lr)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=40)
    _scope_free(p.add_argument("--workers", type=int, default=1))
    robust(p)
    p.set_defaults(func=_cmd_sweep)

    p = add_command("election", help="the leader-election case study")
    p.add_argument("--n", type=int, default=4)
    p.set_defaults(func=_cmd_election)

    p = add_command("benor", help="the Ben-Or consensus case study")
    p.add_argument("--n", type=int, default=3)
    p.set_defaults(func=_cmd_benor)

    add_command(
        "independence", help="Example 4.1 / Proposition 4.2, exactly"
    ).set_defaults(func=_cmd_independence)

    p = sub.add_parser(
        "models",
        help="list the registered case-study models "
             "(see docs/models.md)",
    )
    p.add_argument(
        "--json", action="store_true",
        help="print the model table as canonical JSON",
    )
    p.set_defaults(func=_cmd_models, manages_tracing=True,
                   skip_manifest=True)

    p = add_command(
        "exhaustive",
        help="leaf propositions over their entire regions (n = 3), "
        "optionally the composed statement over all T states",
    )
    p.add_argument("--composed", action="store_true",
                   help="also sweep T --13--> C over all 3896 T states "
                        "(about 40 seconds)")
    p.set_defaults(func=_cmd_exhaustive)

    p = add_command(
        "all", help="the fast exact suite: prove, exact, appendix, "
        "independence",
    )
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--states", type=int, default=5)
    p.set_defaults(func=_cmd_all)

    p = add_command(
        "audit",
        help="static Definition 2.1 audit of the selected model's "
             "automaton",
    )
    model_flag(p)
    p.add_argument(
        "--n", type=int, default=None,
        help="instance size (default: the model's own, 3 for lr)",
    )
    p.add_argument(
        "--horizon", type=int, default=2000,
        help="cap on reachable states to expand before reporting "
             "'unknown' (default: %(default)s)",
    )
    p.add_argument(
        "--json", action="store_true",
        help="print the full audit report as canonical JSON",
    )
    p.set_defaults(func=_cmd_audit)

    p = add_command(
        "stats",
        help="instrumented Lehmann-Rabin run: span tree and metric tables",
    )
    common(p, samples_default=40)
    p.set_defaults(func=_cmd_stats, manages_tracing=True)

    p = add_command(
        "trace",
        help="run another subcommand with instrumentation on and render "
        "its span tree and metric tables",
    )
    p.add_argument(
        "rest", nargs=argparse.REMAINDER, metavar="command ...",
        help="the subcommand (and its arguments) to trace",
    )
    p.set_defaults(func=_cmd_trace, manages_tracing=True)

    p = sub.add_parser(
        "runs",
        help="list, show, and diff recorded run manifests "
        "(see docs/observability.md)",
    )
    runs_sub = p.add_subparsers(dest="runs_cmd", required=True)

    def runs_store_flags(rp):
        rp.add_argument(
            "--runs-dir", metavar="DIR", default=None, dest="runs_dir",
            help="manifest store location (default: $REPRO_RUNS_DIR or "
                 ".repro/runs)",
        )
        rp.add_argument(
            "--json", action="store_true",
            help="print the result as canonical JSON",
        )

    rp = runs_sub.add_parser("list", help="one row per recorded run")
    runs_store_flags(rp)
    rp = runs_sub.add_parser("show", help="one manifest, fully expanded")
    rp.add_argument("id", help="run id (any unique prefix)")
    runs_store_flags(rp)
    rp = runs_sub.add_parser(
        "diff", help="metric and timing deltas between two runs "
        "(meaningful for runs of the same scope)",
    )
    rp.add_argument("old", help="baseline run id (any unique prefix)")
    rp.add_argument("new", help="comparison run id (any unique prefix)")
    runs_store_flags(rp)
    p.set_defaults(
        func=_cmd_runs, manages_tracing=True, skip_manifest=True
    )

    p = sub.add_parser(
        "profile",
        help="fold a recorded span tree into per-phase self/cumulative "
        "hotspots (from a --trace-out JSONL file or a run manifest)",
    )
    p.add_argument(
        "source", nargs="?", default=None, metavar="FILE.jsonl",
        help="a --trace-out JSONL trace file to profile",
    )
    p.add_argument(
        "--run", metavar="ID", default=None,
        help="profile the span aggregate stored in this run's manifest",
    )
    p.add_argument(
        "--runs-dir", metavar="DIR", default=None, dest="runs_dir",
        help="manifest store location for --run (default: "
             "$REPRO_RUNS_DIR or .repro/runs)",
    )
    p.add_argument(
        "--top", type=int, default=20, metavar="N",
        help="hotspots to show, ranked by self time (default: "
             "%(default)s)",
    )
    p.add_argument(
        "--folded", action="store_true",
        help="emit folded 'stack self_microseconds' lines for "
             "flamegraph tooling instead of the table",
    )
    p.set_defaults(
        func=_cmd_profile, manages_tracing=True, skip_manifest=True
    )

    p = sub.add_parser(
        "corpus",
        help="list, replay, and extend the standing defect corpus "
        "(see docs/corpus.md)",
    )
    corpus_sub = p.add_subparsers(dest="corpus_cmd", required=True)

    def corpus_file_flag(cp):
        cp.add_argument(
            "--corpus-file", metavar="FILE.jsonl", default=None,
            dest="corpus_file",
            help="fuzz-emitted / user-added entries replayed alongside "
                 "the built-ins (default: .repro/corpus/extra.jsonl)",
        ).scope_value = _corpus_file_scope

    cp = corpus_sub.add_parser(
        "list", help="one row per corpus entry (built-in and file)"
    )
    corpus_file_flag(cp)
    cp.add_argument(
        "--json", action="store_true",
        help="print the entry table as canonical JSON",
    )
    cp.set_defaults(skip_manifest=True)

    cp = corpus_sub.add_parser(
        "run", parents=[traceable],
        help="replay entries across engines x guard modes x worker "
             "counts, asserting identical classification",
    )
    corpus_file_flag(cp)
    cp.add_argument(
        "--entry", metavar="NAME", default=None,
        help="replay only the named entry (default: all)",
    )
    cp.add_argument(
        "--json", action="store_true",
        help="print the full matrix report as canonical JSON",
    )

    cp = corpus_sub.add_parser(
        "add", help="validate fuzz finding records and append them to "
                    "the corpus file",
    )
    cp.add_argument(
        "finding", metavar="FINDINGS.jsonl",
        help="a JSONL file of finding records (e.g. from "
             "'repro fuzz --emit')",
    )
    corpus_file_flag(cp)
    cp.set_defaults(skip_manifest=True)
    p.set_defaults(func=_cmd_corpus)

    p = add_command(
        "fuzz",
        help="deterministic differential fuzzing of the sampling "
        "engines (see docs/corpus.md)",
    )
    p.add_argument(
        "--budget", type=int, default=50, metavar="N",
        help="generated cases to diff before declaring the campaign "
             "clean (default: %(default)s)",
    )
    p.add_argument(
        "--seed", type=int, default=0,
        help="campaign root seed; the same seed and budget reproduce "
             "the identical campaign byte for byte",
    )
    _scope_free(p.add_argument(
        "--workers", type=int, default=1,
        help="worker processes per engine run (results are identical "
             "for every count)",
    ))
    p.add_argument(
        "--sabotage", metavar="ENGINE", default=None,
        help="deliberately perturb this engine's classification before "
             "diffing — a smoke test that the harness catches, shrinks, "
             "and reports a divergence",
    )
    p.add_argument(
        "--model", default=None, metavar="NAME",
        help="also target this registered model's automaton: every "
             "generated case runs the model with a deterministically "
             "mutated (or healthy) build (default: the tiny synthetic "
             "automaton only)",
    )
    _scope_free(p.add_argument(
        "--emit", metavar="FILE.jsonl", default=None,
        help="append ready-to-commit corpus records for any findings "
             "(replay with 'repro corpus run --corpus-file FILE.jsonl')",
    ))
    p.add_argument(
        "--json", action="store_true",
        help="print the campaign report as canonical JSON",
    )
    p.set_defaults(func=_cmd_fuzz)

    def service_store_flag(sp):
        sp.add_argument(
            "--store", metavar="DIR", default=None,
            help="job store location (default: $REPRO_SERVICE_DIR or "
                 ".repro/service)",
        )

    p = sub.add_parser(
        "submit",
        help="validate a verification command and append it to the "
             "durable job store (see docs/service.md)",
    )
    service_store_flag(p)
    p.add_argument(
        "--max-attempts", type=int, default=3, metavar="N",
        dest="max_attempts",
        help="execution failures before the job is marked failed "
             "(default: %(default)s)",
    )
    p.add_argument(
        "--json", action="store_true",
        help="print the submitted job record as canonical JSON",
    )
    p.add_argument(
        "spec", nargs=argparse.REMAINDER, metavar="command ...",
        help="the verification command to run, e.g. "
             "'check --prop A.14 --samples 200'",
    )
    p.set_defaults(func=_cmd_submit, skip_manifest=True)

    p = sub.add_parser(
        "serve", parents=[traceable],
        help="run supervised workers over the job store until drained "
             "or stopped (see docs/service.md)",
    )
    service_store_flag(p)
    p.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker processes to supervise (default: %(default)s)",
    )
    p.add_argument(
        "--lease", type=float, default=30.0, metavar="SECONDS",
        help="job lease duration; a worker silent this long is "
             "presumed dead and its job is reclaimed (default: "
             "%(default)s)",
    )
    p.add_argument(
        "--drain", action="store_true",
        help="exit once every job is settled instead of serving "
             "forever",
    )
    p.add_argument(
        "--poll", type=float, default=0.1, metavar="SECONDS",
        help="supervisor/worker polling interval (default: "
             "%(default)s)",
    )
    p.add_argument(
        "--backoff", type=float, default=0.2, metavar="SECONDS",
        help="base restart backoff, doubled per consecutive young "
             "crash (default: %(default)s)",
    )
    p.add_argument(
        "--max-restarts", type=int, default=5, metavar="N",
        dest="max_restarts",
        help="consecutive young unclean worker exits a slot tolerates "
             "before the supervisor declares a crash loop (default: "
             "%(default)s)",
    )
    p.add_argument(
        "--healthy-seconds", type=float, default=5.0, metavar="SECONDS",
        dest="healthy_seconds",
        help="a worker living this long resets its slot's crash "
             "streak (default: %(default)s)",
    )
    p.add_argument(
        "--inject-faults", metavar="SPEC", default=None,
        help="deterministically inject service failures, e.g. "
             "'kill=0.3,steal=0.2,torn=0.1,cache=0.1,seed=7' "
             "(see docs/service.md)",
    )
    p.add_argument(
        "--json", action="store_true",
        help="print the serve summary as canonical JSON",
    )
    p.set_defaults(func=_cmd_serve, skip_manifest=True)

    p = sub.add_parser(
        "jobs",
        help="list, show, and cancel jobs in the durable job store "
             "(see docs/service.md)",
    )
    jobs_sub = p.add_subparsers(dest="jobs_cmd", required=True)
    jp = jobs_sub.add_parser("list", help="one row per stored job")
    service_store_flag(jp)
    jp.add_argument(
        "--json", action="store_true",
        help="print the job table as canonical JSON",
    )
    jp = jobs_sub.add_parser("show", help="one job, fully expanded")
    jp.add_argument("id", help="job id (any unique prefix)")
    service_store_flag(jp)
    jp.add_argument(
        "--json", action="store_true",
        help="print the job record as canonical JSON",
    )
    jp = jobs_sub.add_parser(
        "cancel", help="cancel a pending or running job"
    )
    jp.add_argument("id", help="job id (any unique prefix)")
    service_store_flag(jp)
    jp.add_argument(
        "--json", action="store_true",
        help="print the cancelled job record as canonical JSON",
    )
    p.set_defaults(func=_cmd_jobs, skip_manifest=True)

    return parser


def _cmd_exhaustive(args: argparse.Namespace) -> int:
    from repro.models.lr import lr_exact_commands

    return lr_exact_commands().cmd_exhaustive(args)


def _cmd_all(args: argparse.Namespace) -> int:
    """Run the exact (non-sampling) commands back to back."""
    failures = 0
    failures += _cmd_prove(args)
    print()
    failures += _cmd_exact(args)
    print()
    failures += _cmd_appendix(args)
    print()
    failures += _cmd_independence(args)
    return 1 if failures else 0


def _cmd_corpus(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro import corpus
    from repro.analysis.reporting import banner, format_table
    from repro.errors import VerificationError

    corpus_file = Path(
        getattr(args, "corpus_file", None) or corpus.DEFAULT_CORPUS_FILE
    )

    if args.corpus_cmd == "list":
        try:
            entries = list(corpus.builtin_entries()) + list(
                corpus.load_file_entries(corpus_file)
            )
        except VerificationError as error:
            print(f"repro: error: {error}", file=sys.stderr)
            return 2
        if args.json:
            print(json.dumps(
                [
                    {
                        "name": entry.name,
                        "source": entry.source,
                        "kind": entry.kind,
                        "expected_class": entry.expected_class,
                        "engines": list(entry.engines),
                        "workers": list(entry.workers),
                        "description": entry.description,
                    }
                    for entry in entries
                ],
                sort_keys=True, indent=2,
            ))
            return 0
        print(banner("Defect corpus"))
        print(format_table(
            ("entry", "kind", "expected class", "source"),
            [
                (
                    entry.name,
                    entry.kind,
                    entry.expected_class or "(agreement)",
                    entry.source,
                )
                for entry in entries
            ],
        ))
        return 0

    if args.corpus_cmd == "add":
        source = Path(args.finding)
        if not source.exists():
            print(
                f"repro: error: finding file {source} does not exist",
                file=sys.stderr,
            )
            return 2
        records = []
        try:
            for lineno, line in enumerate(
                source.read_text(encoding="utf-8").splitlines(), start=1
            ):
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                if not isinstance(record, dict) or "case" not in record:
                    raise VerificationError(
                        f"{source}:{lineno}: expected an object with a "
                        f"'case' field"
                    )
                # Validation: the record must materialise into a
                # runnable case before it is allowed into the corpus.
                corpus.entry_from_record(record, source=str(source)).build()
                records.append(record)
        except (json.JSONDecodeError, VerificationError, KeyError) as error:
            print(f"repro: error: bad finding record: {error}",
                  file=sys.stderr)
            return 2
        if not records:
            print(f"repro: error: no records found in {source}",
                  file=sys.stderr)
            return 2
        from repro import durable_io

        corpus_file.parent.mkdir(parents=True, exist_ok=True)
        with durable_io.DurableAppender(str(corpus_file)) as appender:
            for record in records:
                appender.append_json(record)
        print(
            f"corpus: added {len(records)} entr"
            f"{'y' if len(records) == 1 else 'ies'} to {corpus_file}"
        )
        return 0

    # corpus run
    try:
        entries = list(corpus.builtin_entries()) + list(
            corpus.load_file_entries(corpus_file)
        )
        if args.entry:
            entries = [corpus.entry_by_name(args.entry, tuple(entries))]
    except VerificationError as error:
        print(f"repro: error: {error}", file=sys.stderr)
        return 2
    report = corpus.run_corpus(entries)
    if args.json:
        print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
    else:
        print(report.describe())
        for problem in report.problems:
            print(f"repro: corpus divergence: {problem}")
    return report.exit_status


def _cmd_fuzz(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro import corpus
    from repro.errors import VerificationError

    try:
        report = corpus.run_fuzz(
            seed=args.seed,
            budget=args.budget,
            workers=args.workers,
            sabotage=args.sabotage,
            model=args.model,
        )
    except VerificationError as error:
        print(f"repro: error: {error}", file=sys.stderr)
        return 2
    if args.emit and report.findings:
        from repro import durable_io

        emit_path = Path(args.emit)
        if emit_path.parent != Path("."):
            emit_path.parent.mkdir(parents=True, exist_ok=True)
        with durable_io.DurableAppender(str(emit_path)) as appender:
            for finding in report.findings:
                appender.append_json(
                    corpus.corpus_record(finding, seed=args.seed)
                )
    if args.json:
        print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
    else:
        print(report.describe())
        for finding in report.findings:
            print("minimal repro (ready for 'repro corpus add'):")
            print(json.dumps(
                corpus.corpus_record(finding, seed=args.seed),
                sort_keys=True,
            ))
    return 0 if report.ok else EXIT_DIVERGENCE


def _cmd_submit(args: argparse.Namespace) -> int:
    import json

    from repro import service
    from repro.errors import VerificationError

    spec_argv = list(args.spec)
    if spec_argv and spec_argv[0] == "--":
        spec_argv = spec_argv[1:]
    try:
        spec = service.JobSpec.parse(spec_argv)
        store = service.JobStore(service.resolve_store_dir(args.store))
        with store:
            view = store.submit(spec, max_attempts=args.max_attempts)
    except VerificationError as error:
        print(f"repro: error: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(view.to_dict(), sort_keys=True, indent=2))
    else:
        print(
            f"submitted {view.job_id} "
            f"(command: {' '.join(spec.argv)}; scope {spec.scope[:12]})"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import json

    from repro import service
    from repro.errors import VerificationError
    from repro.parallel.faults import FaultPlan

    try:
        if args.inject_faults:
            FaultPlan.parse(args.inject_faults)  # fail fast on typos
        supervisor = service.Supervisor(
            root=service.resolve_store_dir(args.store),
            workers=args.workers,
            lease_seconds=args.lease,
            drain=args.drain,
            fault_spec=args.inject_faults,
            poll_seconds=args.poll,
            backoff_seconds=args.backoff,
            max_restarts=args.max_restarts,
            healthy_seconds=args.healthy_seconds,
        )
        summary = supervisor.run()
    except VerificationError as error:
        print(f"repro: error: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(summary, sort_keys=True, indent=2))
    else:
        states = ", ".join(
            f"{state}={count}"
            for state, count in sorted(summary["jobs"].items())
        )
        print(
            f"serve: {summary['completed_this_run']} job(s) completed "
            f"this run ({summary['served_from_cache']} from cache), "
            f"{summary['workers_restarted']} worker restart(s), "
            f"{summary['leases_reclaimed']} lease(s) reclaimed"
        )
        print(f"jobs: {states or 'none submitted'}")
    return 3 if summary["jobs"].get("failed") else 0


def _cmd_jobs(args: argparse.Namespace) -> int:
    import json

    from repro import service
    from repro.errors import VerificationError
    from repro.obs.sinks import _table

    store = service.JobStore(service.resolve_store_dir(args.store))
    try:
        with store:
            if args.jobs_cmd == "list":
                views = sorted(
                    store.jobs().values(), key=lambda view: view.seq
                )
                if args.json:
                    print(json.dumps(
                        [view.to_dict() for view in views],
                        sort_keys=True, indent=2,
                    ))
                elif not views:
                    print("jobs: none submitted")
                else:
                    print(_table(
                        ("job", "state", "command", "claims", "fails",
                         "exit", "cached"),
                        [
                            (
                                view.job_id,
                                view.state,
                                " ".join(view.argv)[:48],
                                view.claims,
                                view.failures,
                                "" if view.exit_status is None
                                else view.exit_status,
                                "yes" if view.cached else "",
                            )
                            for view in views
                        ],
                    ))
                return 0
            view = store.find(args.id)
            if args.jobs_cmd == "cancel":
                view = store.cancel(view.job_id)
    except VerificationError as error:
        print(f"repro: error: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(view.to_dict(), sort_keys=True, indent=2))
    else:
        record = view.to_dict()
        record["argv"] = " ".join(view.argv)
        for key in sorted(record):
            print(f"{key:>12}: {record[key]}")
    return 0


def _scope_actions(parser: argparse.ArgumentParser, args: argparse.Namespace):
    """The argument actions of the subcommand ``args`` was parsed into.

    Descends through nested subcommands (``corpus run``), yielding each
    level's actions — its own subcommand choice included, the top-level
    command name (hashed separately) excluded.
    """
    while True:
        choices = [
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        if not choices:
            return
        parser = choices[0].choices[getattr(args, choices[0].dest)]
        yield from parser._actions


def _manifest_config(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> dict:
    """The configuration a run's scope fingerprint hashes.

    Every argument the subcommand declares, except those declared
    scope-free at their ``add_argument`` call (:func:`_scope_free`); an
    argument declaring a ``scope_value`` function contributes that
    function of its value (``--corpus-file`` adds the file's digest).
    Run commands resolve the model-dependent defaults (``--n``,
    ``--prop``, ``--sizes``) into ``args`` through
    :func:`_resolve_model` before this is called, so spelling out a
    default and omitting it share a scope.
    """
    config = {}
    for action in _scope_actions(parser, args):
        if not hasattr(args, action.dest):
            continue  # --help and friends store nothing
        value = getattr(args, action.dest)
        if not hasattr(action, "scope_value"):
            config[action.dest] = value
        elif action.scope_value is not None:
            config[action.dest] = action.scope_value(value)
    return dict(sorted(config.items()))


def _maybe_write_manifest(
    parser: argparse.ArgumentParser,
    args: argparse.Namespace,
    argv: Sequence[str],
    started_at: str,
    wall_s: float,
    exit_status: int,
) -> None:
    """Append this run's provenance record, unless opted out.

    Meta-commands (``runs``, ``profile``) set ``skip_manifest`` — they
    inspect the store, they are not verification runs.  Failures are
    soft and stderr-only: provenance must never break or reorder the
    run's own output.
    """
    if getattr(args, "skip_manifest", False):
        return
    if not getattr(args, "manifest", True):
        return
    from repro.obs import manifest as mf

    record = mf.new_manifest(
        args.command,
        argv,
        _manifest_config(parser, args),
        started_at=started_at,
        wall_s=wall_s,
        exit_status=exit_status,
        metrics=getattr(args, "final_metrics", None),
        profile=getattr(args, "final_profile", None),
        git_rev=mf.git_revision(),
    )
    mf.append_manifest(record, getattr(args, "runs_dir", None))


def _dispatch(args: argparse.Namespace) -> int:
    """Run the selected subcommand, wiring tracing and progress."""
    from contextlib import ExitStack

    with ExitStack() as stack:
        if getattr(args, "progress", False):
            from repro.obs import progress as progress_mod

            stack.enter_context(progress_mod.reporting(
                progress_mod.ProgressReporter(label=args.command)
            ))
        trace_out = getattr(args, "trace_out", None)
        if trace_out and not getattr(args, "manages_tracing", False):
            from repro import obs
            from repro.obs.profile import profile_tracer
            from repro.obs.sinks import metric_records

            with obs.recording() as registry:
                code = args.func(args)
            args.final_metrics = metric_records(registry.metrics)
            args.final_profile = profile_tracer(registry.tracer)
            return code or _write_trace(registry, trace_out)
        return args.func(args)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code.

    ``--trace-out`` on an ordinary subcommand wraps it in a recording
    registry and writes the JSONL trace afterwards; ``trace`` and
    ``stats`` manage their own recording.  A pooled run that exhausts
    its fault-tolerance budget exits with status 3 (completed work is
    already checkpointed when ``--checkpoint`` was given); a
    model-contract violation that escapes quarantine (strict guards on
    a non-pooled code path) exits with status 4.  Whatever the outcome,
    a provenance manifest is appended to the run store unless
    ``--no-manifest`` was given (``repro runs`` inspects the store).
    """
    import time
    from datetime import datetime, timezone

    from repro.errors import (
        CheckpointError,
        ContractViolation,
        ModelRegistryError,
        PoolFaultError,
        ServiceError,
        StateBudgetExceeded,
    )

    parser = build_parser()
    args = parser.parse_args(argv)
    recorded_argv = list(argv) if argv is not None else sys.argv[1:]
    started_at = datetime.now(timezone.utc).isoformat()
    started = time.perf_counter()
    try:
        code = _dispatch(args)
    except ContractViolation as error:
        print(f"repro: contract violation: {error}", file=sys.stderr)
        code = EXIT_CONTRACT
    except ModelRegistryError as error:
        print(f"repro: error: {error}", file=sys.stderr)
        code = 2
    except StateBudgetExceeded as error:
        print(f"repro: error: {error}", file=sys.stderr)
        code = 2
    except (PoolFaultError, CheckpointError, ServiceError) as error:
        print(f"repro: error: {error}", file=sys.stderr)
        if getattr(args, "checkpoint", None) and not isinstance(
            error, (CheckpointError, ServiceError)
        ):
            print(
                "repro: completed tasks were checkpointed; rerun with "
                "--resume to pick up where this run stopped",
                file=sys.stderr,
            )
        code = 3
    _maybe_write_manifest(
        parser, args, recorded_argv, started_at,
        time.perf_counter() - started, code,
    )
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
