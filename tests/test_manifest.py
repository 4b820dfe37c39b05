"""Run manifests: provenance records, the store, and ``repro runs``."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs import manifest as mf

CHECK = ["check", "--prop", "A.14", "--samples", "4", "--json"]


def store_records(tmp_path):
    return mf.load_manifests(tmp_path / "runs")


class TestScopeFingerprint:
    def test_same_config_same_scope(self):
        config = {"prop": "A.14", "samples": 4, "seed": 0}
        assert mf.scope_fingerprint("check", config) == \
            mf.scope_fingerprint("check", dict(config))

    def test_result_affecting_change_changes_scope(self):
        base = {"prop": "A.14", "samples": 4, "seed": 0}
        bumped = dict(base, samples=8)
        assert mf.scope_fingerprint("check", base) != \
            mf.scope_fingerprint("check", bumped)

    def test_command_is_part_of_the_scope(self):
        config = {"n": 3, "seed": 0}
        assert mf.scope_fingerprint("check", config) != \
            mf.scope_fingerprint("verify", config)


class TestStore:
    def test_append_load_roundtrip(self, tmp_path):
        record = mf.new_manifest(
            "check", ["check"], {"samples": 4},
            started_at="2026-08-08T00:00:00+00:00",
            wall_s=0.25, exit_status=0,
        )
        path = mf.append_manifest(record, tmp_path)
        assert path is not None and path.exists()
        loaded = mf.load_manifests(tmp_path)
        assert loaded == [record]

    def test_find_by_prefix_returns_newest_match(self, tmp_path):
        first = mf.new_manifest(
            "check", ["check"], {"samples": 4},
            started_at="a", wall_s=0.1, exit_status=0,
        )
        second = mf.new_manifest(
            "check", ["check"], {"samples": 4},
            started_at="b", wall_s=0.2, exit_status=0,
        )
        mf.append_manifest(first, tmp_path)
        mf.append_manifest(second, tmp_path)
        assert mf.find_manifest(second["id"][:6], tmp_path) == second
        assert mf.find_manifest("nope", tmp_path) is None

    def test_corrupt_lines_are_skipped(self, tmp_path):
        record = mf.new_manifest(
            "check", ["check"], {},
            started_at="a", wall_s=0.1, exit_status=0,
        )
        mf.append_manifest(record, tmp_path)
        store = tmp_path / mf.MANIFEST_FILE
        store.write_text("not json\n" + store.read_text())
        assert mf.load_manifests(tmp_path) == [record]

    def test_write_failure_is_soft(self, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file where the store dir should be")
        record = mf.new_manifest(
            "check", ["check"], {},
            started_at="a", wall_s=0.1, exit_status=0,
        )
        assert mf.append_manifest(record, blocker / "runs") is None
        assert "could not write run manifest" in capsys.readouterr().err


class TestCliManifests:
    def test_every_run_appends_one_record(self, tmp_path, capsys):
        assert main(CHECK) == 0
        assert main(CHECK) == 0
        capsys.readouterr()
        records = store_records(tmp_path)
        assert len(records) == 2
        assert all(r["command"] == "check" for r in records)
        assert records[0]["scope"] == records[1]["scope"]
        assert records[0]["id"] != records[1]["id"]
        assert all(r["exit_status"] == 0 for r in records)
        assert all(r["wall_s"] > 0 for r in records)

    def test_no_manifest_opts_out(self, tmp_path, capsys):
        assert main([*CHECK, "--no-manifest"]) == 0
        capsys.readouterr()
        assert store_records(tmp_path) == []

    def test_runs_dir_flag_overrides_env(self, tmp_path, capsys):
        other = tmp_path / "elsewhere"
        assert main([*CHECK, "--runs-dir", str(other)]) == 0
        capsys.readouterr()
        assert store_records(tmp_path) == []
        assert len(mf.load_manifests(other)) == 1

    def test_workers_and_engine_do_not_change_the_scope(
        self, tmp_path, capsys
    ):
        assert main(CHECK) == 0
        assert main([*CHECK, "--workers", "4"]) == 0
        assert main([*CHECK, "--engine", "batched"]) == 0
        capsys.readouterr()
        scopes = {r["scope"] for r in store_records(tmp_path)}
        assert len(scopes) == 1

    def test_samples_change_the_scope(self, tmp_path, capsys):
        assert main(CHECK) == 0
        assert main(
            ["check", "--prop", "A.14", "--samples", "8", "--json"]
        ) == 0
        capsys.readouterr()
        scopes = {r["scope"] for r in store_records(tmp_path)}
        assert len(scopes) == 2

    def test_meta_commands_do_not_append(self, tmp_path, capsys):
        assert main(CHECK) == 0
        assert main(["runs", "list"]) == 0
        assert main(["profile", "--run", "nope"]) == 2
        capsys.readouterr()
        assert len(store_records(tmp_path)) == 1

    def test_stats_manifest_carries_metrics_and_profile(
        self, tmp_path, capsys
    ):
        assert main(["stats", "--samples", "2"]) == 0
        capsys.readouterr()
        (record,) = store_records(tmp_path)
        names = {m["name"] for m in record["metrics"]}
        assert "verifier.samples" in names
        stacks = {row["stack"] for row in record["profile"]}
        assert "stats.run" in stacks


class TestRunsCommands:
    @pytest.fixture
    def two_runs(self, tmp_path, capsys):
        main(CHECK)
        main(CHECK)
        capsys.readouterr()
        return store_records(tmp_path)

    def test_list_renders_one_row_per_run(self, two_runs, capsys):
        assert main(["runs", "list"]) == 0
        out = capsys.readouterr().out
        for record in two_runs:
            assert record["id"] in out

    def test_show_json_roundtrips_the_record(self, two_runs, capsys):
        record = two_runs[0]
        assert main(["runs", "show", record["id"], "--json"]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown == record

    def test_show_unknown_id_is_a_usage_error(self, two_runs, capsys):
        assert main(["runs", "show", "doesnotexist"]) == 2
        assert "no recorded run" in capsys.readouterr().err

    def test_diff_json_roundtrip(self, two_runs, capsys):
        old, new = two_runs
        assert main(
            ["runs", "diff", old["id"], new["id"], "--json"]
        ) == 0
        diff = json.loads(capsys.readouterr().out)
        assert diff == mf.diff_manifests(old, new)
        assert diff["same_scope"] is True
        assert diff["old"] == old["id"] and diff["new"] == new["id"]
        assert diff["wall_s"]["delta"] == pytest.approx(
            new["wall_s"] - old["wall_s"], abs=1e-6
        )

    def test_diff_warns_on_mismatched_scopes(self, tmp_path, capsys):
        main(CHECK)
        main(["check", "--prop", "A.14", "--samples", "8", "--json"])
        capsys.readouterr()
        first, second = store_records(tmp_path)
        assert main(["runs", "diff", first["id"], second["id"]]) == 0
        out = capsys.readouterr().out
        assert "different scopes" in out

    def test_diff_unknown_ids_are_usage_errors(self, two_runs, capsys):
        assert main(["runs", "diff", "nope", two_runs[0]["id"]]) == 2
        assert "no recorded run" in capsys.readouterr().err


class TestDiffMetrics:
    def test_metric_deltas_between_runs_of_the_same_scope(self):
        def record(metrics):
            return mf.new_manifest(
                "stats", ["stats"], {"samples": 4},
                started_at="a", wall_s=1.0, exit_status=0,
                metrics=metrics,
            )

        old = record([
            {"type": "counter", "name": "verifier.samples", "value": 10},
            {"type": "gauge", "name": "statespace.states", "value": 5},
            {"type": "histogram", "name": "sampler.steps_per_sample",
             "summary": {"count": 10, "mean": 3.0}},
        ])
        new = record([
            {"type": "counter", "name": "verifier.samples", "value": 14},
            {"type": "gauge", "name": "statespace.states", "value": 5},
            {"type": "histogram", "name": "sampler.steps_per_sample",
             "summary": {"count": 12, "mean": 3.5}},
        ])
        diff = mf.diff_manifests(old, new)
        assert diff["same_scope"] is True
        rows = {row["name"]: row for row in diff["metrics"]}
        assert rows["verifier.samples"]["delta"] == 4
        assert rows["sampler.steps_per_sample.count"]["delta"] == 2
        assert "statespace.states" not in rows
