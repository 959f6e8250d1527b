"""Integration tests for the ``repro store`` and ``repro bench`` CLI subcommands."""

import json

import pytest

from repro.cli import main


class TestStoreCli:
    def test_default_run_succeeds(self, capsys):
        assert main(["store", "--ops", "80", "--keys", "8"]) == 0
        out = capsys.readouterr().out
        assert "per-key atomic" in out
        assert "yes" in out

    def test_zipfian_with_crashes(self, capsys):
        code = main(
            [
                "store",
                "--ops",
                "120",
                "--keys",
                "12",
                "--dist",
                "zipfian",
                "--crashes",
                "2",
                "--seed",
                "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2 crash(es)" in out

    def test_every_algorithm_backend(self):
        for algorithm in ("two-bit", "abd", "abd-mwmr"):
            assert main(["store", "--ops", "40", "--algorithm", algorithm]) == 0

    def test_crashes_rejected_without_budget(self, capsys):
        assert main(["store", "--ops", "10", "--replication", "2", "--crashes", "1"]) == 2
        assert "replication" in capsys.readouterr().err

    def test_more_crashes_than_shards_rejected(self, capsys):
        assert main(["store", "--ops", "10", "--shards", "2", "--crashes", "3"]) == 2
        assert "shards" in capsys.readouterr().err

    def test_deterministic_output(self, capsys):
        main(["store", "--ops", "60", "--seed", "5"])
        first = capsys.readouterr().out
        main(["store", "--ops", "60", "--seed", "5"])
        second = capsys.readouterr().out
        assert first == second

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            main(["store", "--algorithm", "bogus"])


class TestOpenLoopCli:
    def test_poisson_arrivals(self, capsys):
        code = main(
            ["store", "--ops", "80", "--keys", "8", "--arrival", "poisson", "--rate", "6"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "poisson arrivals @ 6.0" in out
        assert "offered load" in out
        assert "p99" in out  # metrics table rides along

    def test_uniform_arrivals_deterministic(self, capsys):
        argv = ["store", "--ops", "60", "--arrival", "uniform", "--rate", "4", "--seed", "2"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert first == capsys.readouterr().out

    def test_nonpositive_rate_rejected(self, capsys):
        assert main(["store", "--ops", "10", "--arrival", "poisson", "--rate", "0"]) == 2
        assert "arrival_rate" in capsys.readouterr().err


class TestLiveTransportCli:
    def test_live_store_run_reports_wall_clock_metrics(self, capsys):
        code = main(
            ["store", "--transport", "live", "--replicas", "3",
             "--ops", "40", "--keys", "4", "--seed", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "store [live]" in out
        assert "asyncio loopback, 3 replica processes" in out
        assert "ops per wall second" in out
        assert "wall-clock seconds" in out
        assert "per-key linearizable" in out and "yes" in out

    def test_replicas_flag_aliases_replication_on_sim_backend(self, capsys):
        assert main(["store", "--ops", "40", "--keys", "4", "--replicas", "5"]) == 0
        out = capsys.readouterr().out
        assert "/ 5" in out  # keys / shards / replication row

    def test_sim_only_flags_rejected_on_live(self, capsys):
        for flag in (["--crashes", "1"], ["--no-coalesce"], ["--algorithms", "abd,two-bit"]):
            code = main(["store", "--transport", "live", "--ops", "10"] + flag)
            assert code == 2
            assert "simulated-only" in capsys.readouterr().err


class TestBenchCli:
    def test_quick_bench_emits_baselines(self, capsys, tmp_path):
        code = main(["bench", "--quick", "--out-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "store throughput" in out and "open-loop sweep" in out
        def strict_loads(path):
            def forbid(name):
                raise AssertionError(f"non-finite JSON constant {name!r} in {path.name}")

            return json.loads(path.read_text(), parse_constant=forbid)

        # Strict parse: bare Infinity/NaN (invalid JSON) must never appear.
        store = strict_loads(tmp_path / "BENCH_store_throughput.json")
        assert store["mode"] == "quick"
        assert store["batched"]["virtual_throughput"] > store["per_op"]["virtual_throughput"]
        openloop = strict_loads(tmp_path / "BENCH_openloop.json")
        assert [entry["offered_load"] for entry in openloop["sweep"]] == [2.0, 8.0]
        assert all(entry["p99"] >= entry["p50"] for entry in openloop["sweep"])


class TestMixedAndCoalescingCli:
    def test_algorithms_flag_maps_round_robin_onto_shards(self, capsys):
        code = main(
            ["store", "--ops", "60", "--keys", "8", "--shards", "4",
             "--algorithms", "two-bit,abd"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "s0=two-bit, s1=abd, s2=two-bit, s3=abd" in out

    def test_unknown_mixed_algorithm_rejected(self, capsys):
        assert main(["store", "--ops", "10", "--algorithms", "abd,paxos"]) == 2
        assert "paxos" in capsys.readouterr().err

    def test_blank_algorithms_list_rejected(self, capsys):
        assert main(["store", "--ops", "10", "--algorithms", " , "]) == 2
        assert "at least one" in capsys.readouterr().err

    def test_no_coalesce_flag_reported_and_equivalent(self, capsys):
        assert main(["store", "--ops", "60", "--keys", "8", "--no-coalesce"]) == 0
        off = capsys.readouterr().out
        assert "message coalescing" in off and "| off" in off
        assert main(["store", "--ops", "60", "--keys", "8"]) == 0
        on = capsys.readouterr().out
        assert "message coalescing" in on and "on (" in on

    def test_coalescing_report_counts_with_fixed_delay_workload(self, capsys):
        # The default store scenarios sample continuous delays (no same-instant
        # collisions); the mixed flag run still reports the counter row.
        assert main(["store", "--ops", "40", "--keys", "4", "--algorithms", "two-bit"]) == 0
        out = capsys.readouterr().out
        assert "message coalescing" in out


class TestSerialOnlyCommands:
    """Store, bench and consensus runs have one code path: no worker option."""

    @pytest.mark.parametrize("command", ["store", "bench", "consensus"])
    def test_workers_flag_is_rejected(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--workers", "2"])
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err
