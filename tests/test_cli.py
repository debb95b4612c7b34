"""The python -m repro command-line interface."""

import pytest

from repro.__main__ import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig06" in out and "ext_interference" in out

    def test_run_experiment(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_TRIALS", "2")
        assert main(["run", "fig10"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 10" in out
        assert "duty cycle" in out

    def test_run_with_trials_and_seed(self, capsys):
        assert main(["run", "ablation_correlator",
                     "--trials", "2", "--seed", "9"]) == 0
        assert "threshold" in capsys.readouterr().out

    def test_run_with_jobs_matches_sequential(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert main(["run", "ablation_correlator",
                     "--trials", "2", "--seed", "9", "--jobs", "1"]) == 0
        sequential = capsys.readouterr().out
        assert main(["run", "ablation_correlator",
                     "--trials", "2", "--seed", "9", "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        # identical tables; only the timing line may differ
        strip = lambda text: [line for line in text.splitlines()
                              if not line.startswith("[")]
        assert strip(sequential) == strip(parallel)

    def test_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    @pytest.mark.parametrize("variable, value", [
        ("REPRO_ENGINE", "SOA"),
        ("REPRO_JOBS", "two"),
        ("REPRO_TRIALS", "lots"),
    ])
    def test_bad_env_value_fails_before_any_journal(
            self, variable, value, monkeypatch, tmp_path):
        """A malformed REPRO_* value stops the run with a ValueError that
        names the variable, before any journal is bound to it."""
        monkeypatch.setenv("REPRO_RESUME_DIR", str(tmp_path / "journals"))
        monkeypatch.setenv(variable, value)
        with pytest.raises(ValueError, match=variable):
            main(["run", "fig07", "--trials", "1"])
        assert not list(tmp_path.rglob("*.jsonl"))
