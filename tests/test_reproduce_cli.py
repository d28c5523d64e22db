"""Smoke tests for the command-line reproduction entry point."""

import pytest

from repro.reproduce import main, run_table3, run_table4
from repro.riscv.device import effective_engine


class TestCli:
    def test_table3(self, capsys):
        main(["table3"])
        out = capsys.readouterr().out
        assert "without hints" in out
        assert "382.25" in out  # the paper reference is printed

    def test_table4(self, capsys):
        main(["table4"])
        out = capsys.readouterr().out
        assert "signs alone cannot" in out

    def test_fig3(self, capsys):
        main(["fig3"])
        out = capsys.readouterr().out
        assert out.count("window") == 3

    def test_rejects_unknown_target(self):
        with pytest.raises(SystemExit):
            main(["table9"])

    def test_table1_prints_campaign_timings(self, capsys):
        main(["table1", "--traces", "8"])
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "sign accuracy" in out
        assert "per-stage timings" in out
        for stage in ("capture", "segment", "classify", "wall"):
            assert stage in out
        assert f"{effective_engine(None)} engine" in out

    def test_table1_engine_flag(self, capsys):
        main(["table1", "--traces", "8", "--engine", "compiled"])
        out = capsys.readouterr().out
        assert "Table I" in out
        assert f"{effective_engine('compiled')} engine" in out

    @pytest.mark.parametrize("traces", ["0", "-1", "x"])
    def test_rejects_bad_traces(self, traces, capsys):
        with pytest.raises(SystemExit):
            main(["table1", "--traces", traces])
        assert "argument --traces" in capsys.readouterr().err

    def test_rejects_unknown_engine(self):
        with pytest.raises(SystemExit):
            main(["table1", "--engine", "warp"])
        with pytest.raises(SystemExit):
            main(["table1", "--engine", "lanes"])

    def test_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            main(["table1", "--backend", "cuda"])

    def test_bad_backend_env_caught_at_parse_time(self, monkeypatch):
        from repro.errors import ParameterError

        monkeypatch.setenv("REVEAL_BACKEND", "cuda")
        with pytest.raises(ParameterError, match="unknown REVEAL_BACKEND"):
            main(["table3"])

    def test_backend_flag_selects_backend(self, capsys, monkeypatch):
        from repro import backends

        monkeypatch.delenv("REVEAL_BACKEND", raising=False)
        backends.reset_backend()
        try:
            main(["table3", "--backend", "reference"])
            assert backends.get_backend().name == "reference"
        finally:
            backends.reset_backend()
        assert "without hints" in capsys.readouterr().out


class TestCampaignCli:
    def test_campaign_prints_orchestrator_summary(self, capsys, tmp_path):
        main([
            "campaign", "--traces", "6", "--workers", "1", "--grain", "2",
            "--profile-cache", str(tmp_path / "profiles"),
        ])
        out = capsys.readouterr().out
        assert "profile cache: miss" in out
        assert "orchestrated campaign:" in out
        assert "sign accuracy" in out
        assert "orchestrator: grain=2" in out

    def test_campaign_checkpoint_then_resume(self, capsys, tmp_path):
        cache = str(tmp_path / "profiles")
        args = [
            "campaign", "--traces", "6", "--workers", "1", "--grain", "2",
            "--campaign-dir", str(tmp_path / "camp"), "--shard-size", "2",
            "--profile-cache", cache,
        ]
        main(args)
        first = capsys.readouterr().out
        assert (tmp_path / "camp" / "manifest.json").exists()
        main(args + ["--resume"])
        resumed = capsys.readouterr().out
        assert "profile cache: hit" in resumed
        keys = ("traces attacked", "sign accuracy", "value accuracy")
        pick = lambda text: [
            line for line in text.splitlines() if line.startswith(keys)
        ]
        assert pick(first) == pick(resumed)

    def test_campaign_resume_needs_dir(self):
        with pytest.raises(SystemExit):
            main(["campaign", "--traces", "4", "--resume"])
