"""The python -m repro command-line interface."""

import re
import threading
import time

import pytest

from repro.__main__ import main
from repro.experiments.common import (
    PROGRESS_ENV_VAR,
    TIMELINE_DIR_ENV_VAR,
    timeline_dir,
)
from repro.stats.fabric import FABRIC_ENV_VAR, FabricExecutor
from repro.stats.montecarlo import TrialOutcome
from repro.stats.store import RESUME_DIR_ENV_VAR, ResultStore


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
        ("REPRO_JOBS", "two"),
        ("REPRO_TRIALS", "lots"),
        ("REPRO_CHAOS", "seed=7,crash=lots"),
        ("REPRO_FABRIC", "workers=two"),
        ("REPRO_PROGRESS", "fast"),
        ("REPRO_BIT_ACCURATE", "maybe"),
        ("REPRO_TIMELINE_DIR", "a-file"),
    ])
    def test_bad_env_value_fails_before_any_journal(
            self, variable, value, monkeypatch, tmp_path):
        """A malformed REPRO_* value stops the run with a ValueError that
        names the variable, before any journal is bound to it."""
        monkeypatch.setenv("REPRO_RESUME_DIR", str(tmp_path / "journals"))
        if variable == "REPRO_TIMELINE_DIR":
            # a path that exists and is not a directory
            path = tmp_path / value
            path.write_text("")
            value = str(path)
        monkeypatch.setenv(variable, value)
        with pytest.raises(ValueError, match=variable):
            main(["run", "fig07", "--trials", "1"])
        assert not list(tmp_path.rglob("*.jsonl"))


@pytest.fixture
def flag_env(monkeypatch):
    """``main`` hands --resume-dir, --fabric and --progress to every
    experiment through the environment.  Record and clear the three
    variables (a bare ``delenv`` of an unset variable records nothing), so
    monkeypatch undoes those writes after the test."""
    for variable in (RESUME_DIR_ENV_VAR, FABRIC_ENV_VAR, PROGRESS_ENV_VAR):
        monkeypatch.setenv(variable, "")
        monkeypatch.delenv(variable)
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.delenv("REPRO_TRIALS", raising=False)


def _table(text: str) -> list[str]:
    """The printed tables, without the ``[... in Ns]`` timing lines."""
    return [line for line in text.splitlines() if not line.startswith("[")]


FIG07 = ["run", "fig07", "--trials", "1"]


class TestCliFlags:
    def test_resume_dir_serves_a_rerun_from_the_journal(
            self, flag_env, capsys, tmp_path):
        journals = tmp_path / "journals"
        assert main(FIG07 + ["--resume-dir", str(journals)]) == 0
        first = capsys.readouterr().out
        (journal,) = journals.glob("*.jsonl")
        written = journal.read_bytes()
        assert len(written.splitlines()) > 1  # a header and the trials
        assert main(FIG07 + ["--resume-dir", str(journals)]) == 0
        assert _table(capsys.readouterr().out) == _table(first)
        assert journal.read_bytes() == written  # no trial ran again

    def test_fabric_prints_the_sequential_table(self, flag_env, capsys):
        assert main(FIG07) == 0
        sequential = capsys.readouterr().out
        assert main(FIG07 + ["--fabric", "workers=2"]) == 0
        assert _table(capsys.readouterr().out) == _table(sequential)

    @pytest.mark.parametrize("flag, lines", [
        (["--progress", "1"], 1),
        (["--progress", "0"], 0),  # 0 turns the line off
        (["--progress"], 1),  # every second
    ], ids=["1", "0", "bare"])
    def test_progress_line_on_stderr(self, flag, lines, flag_env, capsys):
        assert main(FIG07 + flag) == 0
        final = [line for line in capsys.readouterr().err.splitlines()
                 if re.match(r"\[repro\] (\d+)/\1 trials", line)]
        assert len(final) == lines


class TestStoreCompact:
    def _journal(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        store = ResultStore(str(path), "0123456789abcdef")
        for trial in range(3):
            store.record((0, 0, trial, trial),
                         TrialOutcome(seed=trial, success=True, value=1.0))
        store.close()
        return path

    def test_drops_a_duplicate_line(self, tmp_path, capsys):
        path = self._journal(tmp_path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines + lines[-1:]))
        assert main(["store-compact", str(path)]) == 0
        out = capsys.readouterr().out
        assert "3 records kept, 1 duplicate/stale lines dropped" in out
        assert path.read_text() == "".join(lines)

    def test_corrupt_journal_fails_with_one_line(self, tmp_path, capsys):
        path = tmp_path / "campaign.jsonl"
        path.write_text("not a journal\n")
        assert main(["store-compact", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("store-compact: ")
        assert err.count("\n") == 1

    def test_truncated_tail_is_cut(self, tmp_path, capsys):
        path = self._journal(tmp_path)
        complete = path.read_text()
        path.write_text(complete + '{"k": [0, 0, 3')  # a kill mid-append
        with pytest.warns(RuntimeWarning, match="truncated"):
            assert main(["store-compact", str(path)]) == 0
        assert "3 records kept" in capsys.readouterr().out
        assert path.read_text() == complete

    def test_missing_journal_fails_with_one_line(self, tmp_path, capsys):
        assert main(["store-compact", str(tmp_path / "none.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("store-compact: ")
        assert err.count("\n") == 1


def _double(task):
    return 2 * task[3]


#: Journal-keyed tasks, ``(sweep, point, trial, seed)``.
TASKS = [(0, 0, trial, trial) for trial in range(6)]


class TestFabricWorkerCommand:
    """``python -m repro fabric-worker`` against a coordinator that
    serves external workers only."""

    def _serve(self, results):
        executor = FabricExecutor(workers=0, chaos=None, chunk_size=2,
                                  spec_digest="campaign-a")
        runner = threading.Thread(
            target=lambda: results.append(
                executor.map_keyed(_double, TASKS, TASKS)),
            daemon=True)
        runner.start()
        deadline = time.monotonic() + 5.0
        while executor.last_address is None \
                and time.monotonic() < deadline:
            time.sleep(0.01)
        host, port = executor.last_address
        return runner, f"{host}:{port}"

    def test_worker_serves_the_campaign(self, capsys):
        results = []
        runner, address = self._serve(results)
        assert main(["fabric-worker", address, "--digest", "campaign-a",
                     "--name", "cli"]) == 0
        runner.join(timeout=30.0)
        assert results == [[0, 2, 4, 6, 8, 10]]
        assert re.search(r"fabric-worker cli: [1-9]\d* leases completed",
                         capsys.readouterr().out)

    def test_worker_of_another_campaign_is_refused(self, capsys):
        results = []
        runner, address = self._serve(results)
        assert main(["fabric-worker", address, "--digest", "campaign-b",
                     "--reconnects", "0"]) == 3
        assert "fabric-worker refused" in capsys.readouterr().out
        # a worker of the campaign finishes it
        assert main(["fabric-worker", address, "--digest",
                     "campaign-a"]) == 0
        runner.join(timeout=30.0)
        assert results == [[0, 2, 4, 6, 8, 10]]


class TestTimelineDir:
    @pytest.mark.parametrize("value", ["", "  ", "missing", "directory"])
    def test_accepts_off_a_missing_path_or_a_directory(
            self, value, monkeypatch, tmp_path):
        # archiving creates a missing directory when a trial writes to it
        (tmp_path / "directory").mkdir()
        path = str(tmp_path / value) if value.strip() else value
        monkeypatch.setenv(TIMELINE_DIR_ENV_VAR, path)
        assert timeline_dir() == (path.strip() or None)

    def test_a_file_fails_before_any_trial_runs(self, flag_env, monkeypatch,
                                                tmp_path, capsys):
        # the parent ran ext_afh's trials on two workers and ended in a
        # TrialExecutionError around the archive's FileExistsError
        path = tmp_path / "a-file"
        path.write_text("")
        monkeypatch.setenv(TIMELINE_DIR_ENV_VAR, str(path))
        monkeypatch.setenv("REPRO_JOBS", "2")
        with pytest.raises(ValueError, match=TIMELINE_DIR_ENV_VAR):
            main(["run", "ext_afh", "--trials", "2"])
        assert path.read_text() == ""
