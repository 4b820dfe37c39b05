"""Job specifications: validated CLI invocations with a cache scope.

A job is nothing more exotic than an ordinary ``repro`` command line.
:meth:`JobSpec.parse` validates the argv against the real CLI parser
and resolves its model — a spec that would die with a usage error at
run time is rejected at submit time instead — and computes the job's
*scope*: the run-manifest scope fingerprint
(:func:`repro.obs.manifest.scope_fingerprint`) of the command plus its
configuration.

The scope is the service's unit of work identity and its result-cache
key.  It hashes every argument of the command except the flags the
parser declares scope-free — those that cannot change stdout
(``--workers``, ``--engine``, the fault-tolerance and manifest flags;
see :func:`repro.cli._scope_free`) — so two submissions differing only
in those share one cache entry, and any flag that shapes the output
(``--json``) splits it.  ``--trace-out`` is scope-free yet writes a
file and a trailing stdout line that a cache hit cannot reproduce, so
a spec carrying it is rejected.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.errors import VerificationError

#: Commands a job may run.  Verification workloads only: the service
#: meta-commands (``serve``/``submit``/``jobs``) and the store
#: inspectors (``runs``/``profile``/``trace``) are excluded — a job
#: that submits jobs is a fork bomb, not a campaign.
ALLOWED_COMMANDS = frozenset({
    "check", "chain", "verify", "expected-time", "stats", "sweep",
    "corpus",
})


@dataclass(frozen=True)
class JobSpec:
    """One validated, scope-fingerprinted verification command."""

    argv: Tuple[str, ...]
    command: str
    scope: str

    @classmethod
    def parse(cls, argv: Sequence[str]) -> "JobSpec":
        """Validate ``argv`` and fingerprint its scope.

        Raises :class:`~repro.errors.VerificationError` for an empty
        spec, a command outside :data:`ALLOWED_COMMANDS`, a ``corpus``
        subcommand other than ``run``, a ``--trace-out``, an unknown
        ``--model`` or an instance size outside its range, or anything
        the CLI parser itself rejects (the parser's own message is
        preserved).
        """
        from repro import cli
        from repro.obs import manifest as mf

        argv = tuple(str(part) for part in argv)
        if not argv:
            raise VerificationError(
                "empty job spec: give a verification command, e.g. "
                "'check --prop A.14 --samples 200'"
            )
        command = argv[0]
        if command not in ALLOWED_COMMANDS:
            allowed = ", ".join(sorted(ALLOWED_COMMANDS))
            raise VerificationError(
                f"command {command!r} cannot be served as a job "
                f"(allowed: {allowed})"
            )
        parser = cli.build_parser()
        captured = io.StringIO()
        try:
            with contextlib.redirect_stderr(captured):
                args = parser.parse_args(list(argv))
        except SystemExit:
            detail = captured.getvalue().strip().splitlines()
            raise VerificationError(
                "job spec rejected by the CLI parser"
                + (f": {detail[-1]}" if detail else "")
            ) from None
        if command == "corpus" and getattr(args, "corpus_cmd", "") != "run":
            raise VerificationError(
                "only 'corpus run' can be served as a job ('corpus "
                f"{getattr(args, 'corpus_cmd', '?')}' mutates or lists "
                "the registry locally)"
            )
        if args.trace_out:
            raise VerificationError(
                "--trace-out cannot be served as a job: a cache hit "
                "writes no trace file (trace a direct run instead)"
            )
        if hasattr(args, "model"):
            cli._resolve_model(args)
        scope = mf.scope_fingerprint(
            command, cli._manifest_config(parser, args)
        )
        return cls(argv=argv, command=command, scope=scope)
