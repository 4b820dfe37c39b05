"""Unit tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_defaults(self):
        # --n and --prop parse as None and resolve to the selected
        # model's own defaults (3 / "composed" for lr) at dispatch.
        args = build_parser().parse_args(["verify"])
        assert args.n is None and args.seed == 0 and args.samples == 80
        assert args.workers == 1 and args.model == "lr"

    def test_workers_flag(self):
        args = build_parser().parse_args(["check", "--workers", "4"])
        assert args.workers == 4 and args.prop is None
        assert not args.early_stop and not args.json

    def test_overrides(self):
        args = build_parser().parse_args(
            ["verify", "--n", "4", "--seed", "7", "--samples", "10"]
        )
        assert (args.n, args.seed, args.samples) == (4, 7, 10)


class TestCommands:
    def test_prove(self, capsys):
        assert main(["prove"]) == 0
        out = capsys.readouterr().out
        assert "T --13-->_1/8 C" in out
        assert "63" in out

    def test_verify_small(self, capsys):
        assert main(["verify", "--samples", "6"]) == 0
        out = capsys.readouterr().out
        assert "Prop A.11" in out
        assert "REFUTED" not in out

    def test_check_leaf(self, capsys):
        assert main(["check", "--prop", "A.14", "--samples", "6"]) == 0
        out = capsys.readouterr().out
        assert "A.14" in out and "REFUTED" not in out

    def test_check_unknown_prop(self, capsys):
        assert main(["check", "--prop", "A.99"]) == 2
        err = capsys.readouterr().err
        assert "unknown proposition" in err

    def test_check_json_identical_across_workers(self, capsys):
        argv = ["check", "--samples", "5", "--seed", "3", "--json"]
        assert main([*argv, "--workers", "1"]) == 0
        sequential = capsys.readouterr().out
        assert main([*argv, "--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        assert sequential == parallel
        assert '"kind": "arrow_check"' in sequential

    def test_chain(self, capsys):
        assert main(["chain", "--samples", "5"]) == 0
        out = capsys.readouterr().out
        assert "T --13-->_1/8 C" in out
        assert "REFUTED" not in out

    def test_exact_small(self, capsys):
        assert main(["exact", "--states", "2"]) == 0
        out = capsys.readouterr().out
        assert "A.14" in out and "FAILS" not in out

    def test_appendix(self, capsys):
        assert main(["appendix"]) == 0
        out = capsys.readouterr().out
        assert "A.9" in out and "FAILS" not in out

    def test_expected_time_small(self, capsys):
        assert main(["expected-time", "--samples", "8"]) == 0
        out = capsys.readouterr().out
        assert "adversary" in out and "FAILS" not in out

    def test_election(self, capsys):
        assert main(["election", "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert "A1 | A2 | A3" in out

    def test_benor(self, capsys):
        assert main(["benor"]) == 0
        out = capsys.readouterr().out
        assert "Init --10-->_1/8 Decided" in out

    def test_independence(self, capsys):
        assert main(["independence"]) == 0
        out = capsys.readouterr().out
        assert "peek-q-on-T" in out and "FAILS" not in out

    def test_exhaustive(self, capsys):
        assert main(["exhaustive"]) == 0
        out = capsys.readouterr().out
        assert "A.11" in out and "1/2" in out
        assert "FAILS" not in out

    def test_all(self, capsys):
        assert main(["all", "--states", "2"]) == 0
        out = capsys.readouterr().out
        assert "T --13-->_1/8 C" in out
        assert "A.12" in out
        assert "peek-q-on-H" in out
        assert "FAILS" not in out and "REFUTED" not in out


class TestModelsFrontEnd:
    def test_models_lists_every_registered_model(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "Registered models" in out
        for name in ("lr", "benor", "election", "herman"):
            assert name in out
        assert "untimed+symmetry" in out

    def test_models_json_is_canonical(self, capsys):
        import json

        assert main(["models", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {row["name"] for row in rows} == {
            "lr", "benor", "election", "herman",
        }
        lr = next(row for row in rows if row["name"] == "lr")
        assert lr["default_prop"] == "composed"
        assert lr["n_default"] == 3

    def test_unknown_model_is_a_usage_error(self, capsys):
        assert main(["check", "--model", "nope", "--no-manifest"]) == 2
        err = capsys.readouterr().err
        assert "unknown model" in err and "herman" in err

    @pytest.mark.parametrize("argv, message", [
        (["check", "--n", "1"], "at least two processes, got 1"),
        (["expected-time", "--model", "herman", "--n", "4"],
         "odd number of processes >= 3, got 4"),
        (["audit", "--n", "1"], "at least two processes, got 1"),
        (["sweep", "--sizes", "3,1"], "at least two processes, got 1"),
        (["sweep", "--sizes", "3,x"], "comma-separated integers"),
    ])
    def test_out_of_range_instance_size_is_a_usage_error(
        self, capsys, argv, message
    ):
        # One "repro: error:" line and the usage status, not a
        # traceback under the "claim refuted" status 1.
        assert main([*argv, "--no-manifest"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro: error: ")
        assert message in captured.err
        assert len(captured.err.splitlines()) == 1

    def test_check_herman_end_to_end(self, capsys):
        assert main([
            "check", "--model", "herman", "--samples", "4",
            "--no-manifest",
        ]) == 0
        out = capsys.readouterr().out
        assert "H.1" in out and "REFUTED" not in out

    def test_lr_flag_matches_omitted_flag(self, capsys):
        argv = ["check", "--samples", "5", "--no-manifest"]
        assert main(argv) == 0
        implicit = capsys.readouterr().out
        assert main([*argv, "--model", "lr"]) == 0
        explicit = capsys.readouterr().out
        assert implicit == explicit
