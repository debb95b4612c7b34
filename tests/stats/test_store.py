"""Result-journal tests: header binding, resume, corruption handling.

The journal's contract (see :mod:`repro.stats.store`): completed trials
are never recomputed, a truncated final line (kill mid-append) is
tolerated, any other malformation is refused loudly, and a journal can
never feed results into a campaign spec other than the one that wrote it.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.stats.lease import LeaseExecutor
from repro.stats.montecarlo import TrialOutcome
from repro.stats.store import (
    CorruptJournalError,
    ResultStore,
    SpecMismatchError,
    campaign_digest,
    compact_journal,
)

SPEC = {"version": 1, "campaign": "store-tests", "seed": 99}


def _outcome(seed: int) -> TrialOutcome:
    return TrialOutcome(seed=seed, success=True, value=float(seed) * 0.5,
                        extra=(seed, "tag"))


class TestCampaignDigest:
    def test_stable_and_key_order_independent(self):
        a = campaign_digest({"x": 1, "y": [2, 3]})
        b = campaign_digest({"y": [2, 3], "x": 1})
        assert a == b
        assert len(a) == 16
        assert a != campaign_digest({"x": 1, "y": [2, 4]})


class TestResultStore:
    def test_create_writes_bound_header(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with ResultStore(path, campaign_digest(SPEC), meta={"campaign": "t"}):
            pass
        with open(path, encoding="utf-8") as stream:
            header = json.loads(stream.readline())
        assert header["kind"] == "header"
        assert header["spec_digest"] == campaign_digest(SPEC)
        assert header["campaign"] == "t"

    def test_roundtrip_and_replay(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        keys = [(0, p, t, 100 + 2 * p + t) for p in range(2) for t in range(2)]
        with ResultStore(path, campaign_digest(SPEC)) as store:
            for key in keys:
                assert store.record(key, _outcome(key[3]))
            assert store.appended == len(keys)
        with ResultStore(path, campaign_digest(SPEC)) as reopened:
            assert len(reopened) == len(keys)
            assert reopened.appended == 0  # replayed, not appended
            for key in keys:
                assert reopened.get(key) == _outcome(key[3])
                assert key in reopened
            assert set(reopened.keys()) == set(keys)
            assert reopened.get((9, 9, 9, 9)) is None

    def test_duplicate_keys_keep_first_record(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with ResultStore(path, campaign_digest(SPEC)) as store:
            assert store.record((0, 0, 0, 7), _outcome(7))
            assert not store.record((0, 0, 0, 7), _outcome(999))
            assert store.get((0, 0, 0, 7)) == _outcome(7)
            assert store.appended == 1

    def test_spec_mismatch_refused(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with ResultStore(path, campaign_digest(SPEC)) as store:
            store.record((0, 0, 0, 1), _outcome(1))
        with pytest.raises(SpecMismatchError, match="refusing to resume"):
            ResultStore(path, campaign_digest({"other": "campaign"}))

    def test_truncated_final_line_tolerated_and_cut(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with ResultStore(path, campaign_digest(SPEC)) as store:
            store.record((0, 0, 0, 1), _outcome(1))
            store.record((0, 0, 1, 2), _outcome(2))
        clean_size = os.path.getsize(path)
        with open(path, "a", encoding="utf-8") as stream:
            stream.write('{"k": [0, 0, 2, 3], "v": "AAAA')  # kill mid-append
        with pytest.warns(RuntimeWarning, match="truncated final journal"):
            store = ResultStore(path, campaign_digest(SPEC))
        # the partial record is gone, the complete ones survive, and the
        # file was cut back so the next append starts on a fresh line
        assert len(store) == 2
        assert os.path.getsize(path) == clean_size
        store.record((0, 0, 2, 3), _outcome(3))
        store.close()
        with ResultStore(path, campaign_digest(SPEC)) as reopened:
            assert len(reopened) == 3
            assert reopened.get((0, 0, 2, 3)) == _outcome(3)

    def test_corrupt_interior_line_refused(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with ResultStore(path, campaign_digest(SPEC)) as store:
            store.record((0, 0, 0, 1), _outcome(1))
        with open(path, "a", encoding="utf-8") as stream:
            stream.write("not json at all\n")  # complete (newline-terminated)
            stream.write('{"k": [0, 0, 1, 2], "v": "zz"}\n')
        with pytest.raises(CorruptJournalError, match="malformed journal"):
            ResultStore(path, campaign_digest(SPEC))

    def test_missing_or_foreign_header_refused(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with open(path, "w", encoding="utf-8") as stream:
            stream.write('{"kind": "something-else"}\n')
        with pytest.raises(CorruptJournalError, match="header"):
            ResultStore(path, campaign_digest(SPEC))

    def test_flush_records_checkpoint_time(self, tmp_path):
        with ResultStore(str(tmp_path / "j.jsonl"),
                         campaign_digest(SPEC)) as store:
            assert store.last_checkpoint is None
            store.record((0, 0, 0, 1), _outcome(1))
            store.flush()
            assert store.last_checkpoint is not None


class TestCompact:
    """``compact()`` / ``python -m repro store-compact``: rewrite a
    journal dropping duplicate keys and the crash-truncated tail while
    preserving the spec-digest header."""

    @staticmethod
    def _raw_line(key, outcome) -> str:
        """One journal data line, encoded like ResultStore.record — for
        planting literal duplicates the in-process dedup would refuse."""
        import base64
        import pickle

        payload = base64.b64encode(
            pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL))
        return json.dumps({"k": list(key), "v": payload.decode("ascii")},
                          separators=(",", ":")) + "\n"

    def test_drops_duplicates_and_truncated_tail(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with ResultStore(path, campaign_digest(SPEC),
                         meta={"campaign": "t"}) as store:
            store.record((0, 0, 0, 7), _outcome(7))
            store.record((0, 0, 1, 8), _outcome(8))
        with open(path, "a", encoding="utf-8") as stream:
            # a straggler's duplicate records racing a kill...
            stream.write(self._raw_line((0, 0, 0, 7), _outcome(7)))
            stream.write(self._raw_line((0, 0, 1, 8), _outcome(8)))
            stream.write('{"k": [0, 0, 2')  # ...and the kill mid-append

        with pytest.warns(RuntimeWarning, match="truncated final journal"):
            stats = compact_journal(path)
        assert stats["records"] == 2
        assert stats["lines_dropped"] == 2
        assert stats["bytes_after"] < stats["bytes_before"]

        with open(path, encoding="utf-8") as stream:
            lines = [line for line in stream.read().splitlines() if line]
        assert len(lines) == 3  # header + exactly one line per key
        header = json.loads(lines[0])
        assert header["spec_digest"] == campaign_digest(SPEC)
        assert header["campaign"] == "t"  # meta preserved verbatim
        with ResultStore(path, campaign_digest(SPEC)) as reopened:
            assert reopened.get((0, 0, 0, 7)) == _outcome(7)
            assert reopened.get((0, 0, 1, 8)) == _outcome(8)

    def test_idempotent_and_appendable_afterwards(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        store = ResultStore(path, campaign_digest(SPEC))
        store.record((0, 0, 0, 1), _outcome(1))
        stats = store.compact()
        assert stats["lines_dropped"] == 0
        # the store stays live across its own compaction
        store.record((0, 0, 1, 2), _outcome(2))
        store.close()
        with ResultStore(path, campaign_digest(SPEC)) as reopened:
            assert len(reopened) == 2

    def test_headerless_journal_refused(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with open(path, "w", encoding="utf-8") as stream:
            stream.write('{"kind": "something-else"}\n')
        with pytest.raises(CorruptJournalError, match="header"):
            compact_journal(path)


class TestMapKeyedJournal:
    def test_full_journal_means_zero_recompute(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        keys = [(0, 0, t, 10 + t) for t in range(5)]
        items = list(range(5))
        with ResultStore(path, campaign_digest(SPEC)) as store:
            for key, item in zip(keys, items):
                store.record(key, item * item)

        calls = []

        def fn(item):
            calls.append(item)
            return item * item

        with ResultStore(path, campaign_digest(SPEC)) as store:
            results = LeaseExecutor().map_keyed(
                fn, items, keys, journal=store)
        assert results == [item * item for item in items]
        assert calls == []

    def test_partial_journal_computes_only_the_gap(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        keys = [(0, 0, t, 10 + t) for t in range(6)]
        items = list(range(6))
        with ResultStore(path, campaign_digest(SPEC)) as store:
            for index in (0, 2, 5):
                store.record(keys[index], items[index] * items[index])

        calls = []

        def fn(item):
            calls.append(item)
            return item * item

        with ResultStore(path, campaign_digest(SPEC)) as store:
            results = LeaseExecutor().map_keyed(
                fn, items, keys, journal=store)
            # fresh completions were journalled as they arrived
            assert len(store) == len(items)
        assert results == [item * item for item in items]
        assert calls == [1, 3, 4]

        # and the now-complete journal needs no compute at all
        with ResultStore(path, campaign_digest(SPEC)) as store:
            calls.clear()
            assert LeaseExecutor().map_keyed(
                fn, items, keys, journal=store) == results
        assert calls == []

    def test_interrupt_checkpoints_what_completed(self, tmp_path):
        """A Ctrl-C out of an in-process trial leaves the journal holding
        every task completed before it."""
        path = str(tmp_path / "j.jsonl")
        keys = [(0, 0, t, 10 + t) for t in range(6)]
        calls = []

        def fn(item):
            calls.append(item)
            if len(calls) > 3:
                raise KeyboardInterrupt
            return item * item

        with ResultStore(path, campaign_digest(SPEC)) as store:
            with pytest.raises(KeyboardInterrupt):
                LeaseExecutor().map_keyed(fn, list(range(6)), keys,
                                          journal=store)
        with ResultStore(path, campaign_digest(SPEC)) as store:
            assert len(store) == 3
