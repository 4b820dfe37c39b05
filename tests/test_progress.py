"""Live progress: the reporter, the pool hooks, and byte-identity.

The load-bearing invariant: ``--progress`` renders to stderr only, so
every report is byte-identical with progress on or off, across worker
counts and engines.  The matrix test at the bottom pins it.
"""

from __future__ import annotations

import io
import itertools

import pytest

from repro.cli import main
from repro.obs import progress
from repro.statespace import ENGINE_NAMES


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def reporter(min_interval=0.0):
    clock = FakeClock()
    stream = io.StringIO()
    rep = progress.ProgressReporter(
        stream=stream, min_interval=min_interval, clock=clock
    )
    return rep, stream, clock


class TestReporter:
    def test_line_counts_and_rate(self):
        rep, stream, clock = reporter()
        rep.add_total(10)
        clock.now = 2.0
        for _ in range(4):
            rep.task_done()
        line = rep._line()
        assert "4/10 tasks" in line
        assert "2.0/s" in line
        assert "eta 3s" in line

    def test_retries_and_degradation_render(self):
        rep, stream, clock = reporter()
        rep.add_total(2)
        rep.task_retried()
        rep.pool_degraded()
        line = rep._line()
        assert "retries 1" in line
        assert "DEGRADED" in line

    def test_quarantine_counted_from_result_violation(self):
        class Outcome:
            violation = "distribution"

        class Clean:
            violation = None

        rep, stream, clock = reporter()
        rep.add_total(2)
        rep.task_done(Outcome())
        rep.task_done(Clean())
        assert rep.quarantined == 1
        assert "quarantined 1" in rep._line()

    def test_throttle_skips_interim_renders(self):
        rep, stream, clock = reporter(min_interval=1.0)
        rep.add_total(5)
        before = stream.getvalue()
        rep.task_done()  # within the interval: no write
        assert stream.getvalue() == before
        clock.now = 2.0
        rep.task_done()
        assert stream.getvalue() != before

    def test_close_terminates_the_line(self):
        rep, stream, clock = reporter()
        rep.add_total(1)
        rep.task_done()
        rep.close()
        assert stream.getvalue().endswith("\n")


class TestHooks:
    def test_hooks_are_noops_without_a_reporter(self):
        assert progress.active() is None
        progress.add_total(3)
        progress.task_done()
        progress.task_retried()
        progress.pool_degraded()
        assert progress.active() is None

    def test_reporting_installs_and_restores(self):
        rep, stream, clock = reporter()
        with progress.reporting(rep):
            assert progress.active() is rep
            progress.add_total(2)
            progress.task_done()
        assert progress.active() is None
        assert rep.done == 1
        assert stream.getvalue().endswith("\n")

    def test_reporting_restores_on_error(self):
        rep, stream, clock = reporter()
        with pytest.raises(RuntimeError):
            with progress.reporting(rep):
                raise RuntimeError("boom")
        assert progress.active() is None


class TestPoolFeedsProgress:
    def test_inline_run_counts_tasks(self):
        from repro.parallel.pool import run_tasks

        rep, stream, clock = reporter()
        with progress.reporting(rep):
            results = run_tasks(
                lambda context, task: task * 2, None, [1, 2, 3], workers=1
            )
        assert results == [2, 4, 6]
        assert rep.total == 3 and rep.done == 3

    def test_pooled_run_counts_tasks(self):
        from repro.parallel.pool import fork_available, run_tasks

        if not fork_available():
            pytest.skip("fork start method unavailable")
        rep, stream, clock = reporter()
        with progress.reporting(rep):
            results = run_tasks(
                _double, None, [1, 2, 3, 4], workers=2
            )
        assert results == [2, 4, 6, 8]
        assert rep.total == 4 and rep.done == 4


def _double(context, task):
    return task * 2


class TestCliByteIdentity:
    CHECK = ["check", "--prop", "A.14", "--json", "--samples", "4"]

    def run_stdout(self, argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_progress_goes_to_stderr_only(self, capsys):
        code, out, err = self.run_stdout(
            [*self.CHECK, "--progress"], capsys
        )
        assert code == 0
        assert "tasks" in err
        assert "tasks" not in out

    def test_reports_identical_across_progress_workers_engines(
        self, capsys
    ):
        baseline_code, baseline, _ = self.run_stdout(self.CHECK, capsys)
        assert baseline_code == 0
        for flag, workers, engine in itertools.product(
            ((), ("--progress",)),
            ("1", "4"),
            ENGINE_NAMES,
        ):
            argv = [
                *self.CHECK, *flag,
                "--workers", workers, "--engine", engine,
            ]
            code, out, err = self.run_stdout(argv, capsys)
            assert code == baseline_code, argv
            assert out == baseline, argv
            if flag:
                assert "tasks" in err, argv

    def test_expected_time_identical_with_progress(self, capsys):
        base = ["expected-time", "--samples", "2"]
        code_a, out_a, _ = self.run_stdout(base, capsys)
        code_b, out_b, err = self.run_stdout(
            [*base, "--progress", "--workers", "4"], capsys
        )
        assert (code_a, out_a) == (code_b, out_b)
        assert "tasks" in err
