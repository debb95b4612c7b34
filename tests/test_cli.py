"""The python -m repro command-line interface."""

import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.api import Session
from repro.experiments import fig07_page_ber
from repro.options import (
    BIT_ACCURATE_ENV_VAR,
    FABRIC_ENV_VAR,
    JOBS_ENV_VAR,
    PROGRESS_ENV_VAR,
    RESUME_DIR_ENV_VAR,
    TIMELINE_DIR_ENV_VAR,
    TRIALS_ENV_VAR,
    RunOptions,
)
from repro.stats.fabric import FabricExecutor
from repro.stats.montecarlo import TrialOutcome
from repro.stats.store import ResultStore
from repro.stats.sweep import Sweep

ROOT = Path(__file__).resolve().parents[1]


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

    # fig05, fig09 and ext_power run no campaign: they used to build and
    # run their worlds under any of these values
    @pytest.mark.parametrize("experiment",
                             ["fig07", "fig05", "fig09", "ext_power"])
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
            self, variable, value, experiment, monkeypatch, tmp_path):
        """A malformed REPRO_* value stops the run with a ValueError that
        names the variable, before any journal is bound to it and before
        any world is built."""
        monkeypatch.setenv("REPRO_RESUME_DIR", str(tmp_path / "journals"))
        if variable == "REPRO_TIMELINE_DIR":
            # a path that exists and is not a directory
            path = tmp_path / value
            path.write_text("")
            value = str(path)
        monkeypatch.setenv(variable, value)
        built = []
        init = Session.__init__

        def spy(session, *args, **kwargs):
            built.append(session)
            init(session, *args, **kwargs)

        monkeypatch.setattr(Session, "__init__", spy)
        with pytest.raises(ValueError, match=variable):
            main(["run", experiment, "--trials", "1"])
        assert not list(tmp_path.rglob("*.jsonl"))
        assert not built


def _table(text: str) -> list[str]:
    """The printed tables, without the ``[... in Ns]`` timing lines."""
    return [line for line in text.splitlines() if not line.startswith("[")]


FIG07 = ["run", "fig07", "--trials", "1"]

#: The variables of main's ``--resume-dir``, ``--fabric`` and
#: ``--progress``: a flag wins over its variable and sets none of them.
FLAG_VARIABLES = (RESUME_DIR_ENV_VAR, FABRIC_ENV_VAR, PROGRESS_ENV_VAR)


def _main(argv: list[str], monkeypatch) -> int:
    """``main(argv)`` in an environment without the flag variables,
    ``REPRO_JOBS`` and ``REPRO_TRIALS``; asserts that it writes none of
    the flag variables."""
    for variable in FLAG_VARIABLES + (JOBS_ENV_VAR, TRIALS_ENV_VAR):
        monkeypatch.delenv(variable, raising=False)
    status = main(argv)
    assert [v for v in FLAG_VARIABLES if v in os.environ] == []
    return status


class TestCliFlags:
    def test_resume_dir_serves_a_rerun_from_the_journal(
            self, monkeypatch, capsys, tmp_path):
        journals = tmp_path / "journals"
        assert _main(FIG07 + ["--resume-dir", str(journals)],
                     monkeypatch) == 0
        first = capsys.readouterr().out
        (journal,) = journals.glob("*.jsonl")
        written = journal.read_bytes()
        assert len(written.splitlines()) > 1  # a header and the trials
        assert _main(FIG07 + ["--resume-dir", str(journals)],
                     monkeypatch) == 0
        assert _table(capsys.readouterr().out) == _table(first)
        assert journal.read_bytes() == written  # no trial ran again

    def test_fabric_prints_the_sequential_table(self, monkeypatch, capsys):
        assert _main(FIG07, monkeypatch) == 0
        sequential = capsys.readouterr().out
        assert _main(FIG07 + ["--fabric", "workers=2"], monkeypatch) == 0
        assert _table(capsys.readouterr().out) == _table(sequential)

    @pytest.mark.parametrize("flag, lines", [
        (["--progress", "1"], 1),
        (["--progress", "0"], 0),  # 0 turns the line off
        (["--progress"], 1),  # every second
    ], ids=["1", "0", "bare"])
    def test_progress_line_on_stderr(self, flag, lines, monkeypatch, capsys):
        assert _main(FIG07 + flag, monkeypatch) == 0
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


def _double_tasks(executor):
    return executor.map_keyed(_double, TASKS, TASKS)


class TestFabricWorkerCommand:
    """``python -m repro fabric-worker`` against a coordinator that
    serves external workers only."""

    def _serve(self, results, campaign=_double_tasks):
        executor = FabricExecutor(workers=0, chaos=None, chunk_size=2,
                                  spec_digest="campaign-a")
        runner = threading.Thread(
            target=lambda: results.append(campaign(executor)), daemon=True)
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

    def test_worker_runs_the_campaign_channel_mode(self, monkeypatch):
        """A worker started without the coordinator's REPRO_BIT_ACCURATE
        runs the campaign's bit-accurate trials, not its own statistical
        ones: the options travel with the trials."""
        xs = [(1 / 50, "1/50"), (1 / 30, "1/30")]

        def outcomes(executor=None):
            sweep = Sweep(master_seed=2, trials_per_point=2)
            return [point.extra for point in sweep.run(
                xs, fig07_page_ber.run_trial, executor=executor)]

        monkeypatch.delenv(BIT_ACCURATE_ENV_VAR, raising=False)
        statistical = outcomes()
        monkeypatch.setenv(BIT_ACCURATE_ENV_VAR, "1")
        bit_accurate = outcomes()
        assert bit_accurate != statistical
        results = []
        runner, address = self._serve(results, outcomes)
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        env["PYTHONPATH"] = str(ROOT / "src")
        worker = subprocess.run(
            [sys.executable, "-m", "repro", "fabric-worker", address],
            env=env, capture_output=True, text=True, timeout=60)
        assert worker.returncode == 0, worker.stderr
        assert re.search(r"[1-9]\d* leases completed", worker.stdout)
        runner.join(timeout=30.0)
        assert not runner.is_alive()
        assert results == [bit_accurate]


class TestTimelineDir:
    @pytest.mark.parametrize("value", ["", "  ", "missing", "directory"])
    def test_accepts_off_a_missing_path_or_a_directory(
            self, value, monkeypatch, tmp_path):
        # archiving creates a missing directory when a trial writes to it
        (tmp_path / "directory").mkdir()
        path = str(tmp_path / value) if value.strip() else value
        monkeypatch.setenv(TIMELINE_DIR_ENV_VAR, path)
        assert RunOptions.from_env().timeline_dir == (path.strip() or None)

    def test_a_file_fails_before_any_trial_runs(self, monkeypatch, tmp_path):
        # the parent ran ext_afh's trials on two workers and ended in a
        # TrialExecutionError around the archive's FileExistsError
        path = tmp_path / "a-file"
        path.write_text("")
        monkeypatch.setenv(TIMELINE_DIR_ENV_VAR, str(path))
        monkeypatch.setenv("REPRO_JOBS", "2")
        with pytest.raises(ValueError, match=TIMELINE_DIR_ENV_VAR):
            main(["run", "ext_afh", "--trials", "2"])
        assert path.read_text() == ""
