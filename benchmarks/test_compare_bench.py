"""Tests for the bench-trajectory regression gate used by the CI perf job."""

from __future__ import annotations

import json
import os

from . import compare_bench


def _snapshot(sha: str, datetime: str, guards: dict) -> dict:
    return {"sha": sha, "datetime": datetime, "guards": guards}


def _write(tmp_path, name: str, payload: dict) -> None:
    (tmp_path / name).write_text(json.dumps(payload))


def _baselines(tmp_path, *payloads) -> str:
    baselines = tmp_path / "baselines"
    baselines.mkdir()
    for payload in payloads:
        _write(baselines, f"BENCH_{payload['sha']}.json", payload)
    return str(baselines)


GUARDS = {
    "test_swap.speedup": 40.0,
    "test_shard.parity": 1.0,
    "test_celf.celf_fraction": 0.10,
    "test_serve.serve_qps": 1000.0,
    "test_serve.serve_p99_ms": 60.0,
}


class TestCompareGuards:
    def test_identical_guards_pass(self):
        lines, regressions = compare_bench.compare_guards(GUARDS, dict(GUARDS))
        assert not regressions
        assert len(lines) == len(GUARDS)

    def test_higher_is_better_drop_fails(self):
        fresh = dict(GUARDS, **{"test_serve.serve_qps": 500.0})  # -50% QPS
        _, regressions = compare_bench.compare_guards(fresh, GUARDS)
        assert len(regressions) == 1
        assert "serve_qps" in regressions[0]

    def test_lower_is_better_rise_fails(self):
        # +233% p99: beyond the 30% ratio plus the 50 ms runner slack.
        fresh = dict(GUARDS, **{"test_serve.serve_p99_ms": 200.0})
        _, regressions = compare_bench.compare_guards(fresh, GUARDS)
        assert len(regressions) == 1
        assert "serve_p99_ms" in regressions[0]

    def test_within_threshold_passes_both_directions(self):
        fresh = dict(
            GUARDS,
            **{
                "test_serve.serve_qps": 800.0,  # -20%
                "test_serve.serve_p99_ms": 70.0,  # +17%
                "test_swap.speedup": 50.0,  # improvement
            },
        )
        _, regressions = compare_bench.compare_guards(fresh, GUARDS)
        assert not regressions

    def test_near_zero_lower_is_better_gets_absolute_slack(self):
        base = {"test_dyn.dynamic_drift": 0.001}
        fresh = {"test_dyn.dynamic_drift": 0.01}  # 10x, but tiny absolute move
        _, regressions = compare_bench.compare_guards(fresh, base)
        assert not regressions
        fresh = {"test_dyn.dynamic_drift": 0.05}  # beyond the 0.02 slack
        _, regressions = compare_bench.compare_guards(fresh, base)
        assert len(regressions) == 1

    def test_disjoint_keys_never_fail(self):
        fresh = {"test_new.speedup": 5.0}
        base = {"test_old.speedup": 50.0}
        lines, regressions = compare_bench.compare_guards(fresh, base)
        assert not regressions
        assert any("no baseline (new)" in line for line in lines)
        assert any("missing fresh (skip)" in line for line in lines)


class TestSnapshots:
    def test_newest_by_datetime_wins(self, tmp_path):
        baselines = _baselines(
            tmp_path,
            _snapshot("new1", "2026-08-02T00:00:00", {"k.speedup": 2.0}),
            _snapshot("old1", "2026-08-01T00:00:00", {"k.speedup": 1.0}),
        )
        snapshots = compare_bench.load_snapshots(baselines)
        assert [s["sha"] for s in snapshots] == ["old1", "new1"]

    def test_exclude_sha(self, tmp_path):
        baselines = _baselines(
            tmp_path,
            _snapshot("aaa", "2026-08-01T00:00:00", {}),
            _snapshot("bbb", "2026-08-02T00:00:00", {}),
        )
        snapshots = compare_bench.load_snapshots(baselines, exclude_sha="bbb")
        assert [s["sha"] for s in snapshots] == ["aaa"]


class TestMain:
    def test_regression_exits_nonzero(self, tmp_path, capsys):
        baselines = _baselines(
            tmp_path, _snapshot("base1", "2026-08-01T00:00:00", GUARDS)
        )
        fresh = dict(GUARDS, **{"test_swap.speedup": 10.0})  # -75%
        _write(tmp_path, "fresh.json", _snapshot("head1", "2026-08-02T00:00:00", fresh))
        code = compare_bench.main(
            [str(tmp_path / "fresh.json"), "--baselines", baselines]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "REGRESSED" in out
        assert "guard trajectory" in out

    def test_clean_run_exits_zero_and_prints_trajectory(self, tmp_path, capsys):
        baselines = _baselines(
            tmp_path,
            _snapshot("base1", "2026-08-01T00:00:00", GUARDS),
            _snapshot("base2", "2026-08-02T00:00:00", GUARDS),
        )
        _write(
            tmp_path, "fresh.json", _snapshot("head1", "2026-08-03T00:00:00", GUARDS)
        )
        code = compare_bench.main(
            [str(tmp_path / "fresh.json"), "--baselines", baselines]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "all shared guards within threshold" in out
        # Trajectory table: one column per snapshot plus the fresh run.
        assert "base1" in out and "base2" in out and "(fresh)" in out

    def test_missing_baselines_pass_with_note(self, tmp_path, capsys):
        _write(
            tmp_path, "fresh.json", _snapshot("head1", "2026-08-03T00:00:00", GUARDS)
        )
        code = compare_bench.main(
            [
                str(tmp_path / "fresh.json"),
                "--baselines",
                str(tmp_path / "does-not-exist"),
            ]
        )
        assert code == 0
        assert "no baseline snapshots" in capsys.readouterr().out

    def test_exclude_sha_skips_own_snapshot(self, tmp_path, capsys):
        baselines = _baselines(
            tmp_path, _snapshot("self", "2026-08-02T00:00:00", GUARDS)
        )
        _write(tmp_path, "fresh.json", _snapshot("self", "2026-08-02T00:00:00", GUARDS))
        code = compare_bench.main(
            [
                str(tmp_path / "fresh.json"),
                "--baselines",
                baselines,
                "--exclude-sha",
                "self",
            ]
        )
        assert code == 0
        assert "no baseline snapshots" in capsys.readouterr().out

    def test_custom_threshold(self, tmp_path):
        baselines = _baselines(
            tmp_path, _snapshot("base1", "2026-08-01T00:00:00", {"k.speedup": 100.0})
        )
        _write(
            tmp_path,
            "fresh.json",
            _snapshot("head1", "2026-08-02T00:00:00", {"k.speedup": 85.0}),
        )
        args = [str(tmp_path / "fresh.json"), "--baselines", baselines]
        assert compare_bench.main(args) == 0  # -15% passes at 30%
        assert compare_bench.main(args + ["--threshold", "0.10"]) == 1


class TestCommittedBaseline:
    def test_baselines_hold_a_loadable_snapshot(self):
        """The gate diffs against ``benchmarks/baselines/``; with no snapshot
        there it passes vacuously, so the directory must hold at least one."""
        baselines = os.path.join(os.path.dirname(__file__), "baselines")
        snapshots = compare_bench.load_snapshots(baselines)
        assert snapshots, f"{baselines} holds no BENCH_*.json snapshot"
        guards = snapshots[-1]["guards"]
        assert guards, f"{snapshots[-1]['_path']} carries no guard numbers"
        assert all(isinstance(value, (int, float)) for value in guards.values())
