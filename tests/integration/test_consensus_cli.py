"""Integration tests for the ``repro consensus`` subcommand."""

from repro.cli import main


class TestConsensusCli:
    def test_smoke_scenario_is_green(self, capsys):
        code = main(["consensus"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "consensus: consensus_smoke (mmr-cas" in out
        assert "per-key SMR-linearizable      | yes" in out
        assert "agreement/validity invariants | hold" in out

    def test_counter_scenario_with_overrides(self, capsys):
        code = main(["consensus", "--scenario", "kv_counter", "--keys", "4", "--ops", "80"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "(mmr-counter" in out
        assert "operations completed          | 80" in out

    def test_algorithm_override_runs_the_local_coin_variant(self, capsys):
        code = main(
            ["consensus", "--ops", "60", "--algorithm", "mmr-cas-localcoin"]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "mmr-cas-localcoin" in out
        assert "agreement/validity invariants | hold" in out

    def test_output_is_deterministic(self, capsys):
        assert main(["consensus", "--ops", "60"]) == 0
        first = capsys.readouterr().out
        assert main(["consensus", "--ops", "60"]) == 0
        assert first == capsys.readouterr().out
