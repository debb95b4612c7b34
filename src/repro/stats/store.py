"""Seed-addressed, append-only on-disk result journal for campaigns.

Every trial in this codebase is a pure function of its derived seed, so a
completed trial never needs to run twice: journal its outcome under its
``(sweep_index, point_index, trial_index, seed)`` coordinates and any
restart of the same campaign can skip it.  This module supplies that
journal; the lease frame (:meth:`repro.stats.lease.LeaseExecutor.map_keyed`,
in process and on the fabric's workers alike) reads it before
dispatching and records every completed lease into it.

Format: one JSONL file per campaign.  The first line is a header binding
the journal to a **campaign spec digest** (master seeds, trial counts, x
grids, trial-function names — see :func:`campaign_digest`); re-opening
with a different digest is refused, so a journal can never silently feed
results into the wrong campaign.  Every further line is one completed
trial: its key plus the pickled :class:`~repro.stats.montecarlo.TrialOutcome`
(base64).  Appends are whole-line writes flushed per record; a process
killed mid-write can therefore leave at most one truncated final line,
which :class:`ResultStore` tolerates (dropped with a warning and cut off
so the next append starts clean).  Any other malformed line is corruption
and is refused loudly.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
import time
import warnings
from typing import Any, Optional, Sequence

#: Journal format version (header field; bumped on layout changes).
STORE_VERSION = 1


class StoreError(RuntimeError):
    """Base class of result-journal failures."""


class SpecMismatchError(StoreError):
    """The journal on disk belongs to a different campaign spec."""


class CorruptJournalError(StoreError):
    """The journal has a malformed line that is not a truncated tail."""


def campaign_digest(spec: Any) -> str:
    """Stable hex digest of a JSON-serialisable campaign spec.

    Canonical JSON (sorted keys, no whitespace) through SHA-256, truncated
    to 16 hex chars — collision-safe for the "am I resuming the campaign I
    think I am" check, and short enough to quote in filenames and logs.
    """
    canonical = json.dumps(spec, sort_keys=True, separators=(",", ":"),
                           default=repr)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


class ResultStore:
    """Append-only journal of completed trial outcomes, keyed by
    ``(sweep_index, point_index, trial_index, seed)``.

    Opening an existing journal replays it into memory (refusing a spec
    digest mismatch, tolerating a truncated last line); opening a fresh
    path writes the header.  :meth:`record` appends one outcome per key —
    duplicate keys keep the first record, which is safe because trials are
    deterministic.  :meth:`flush` is the checkpoint: it fsyncs, so
    everything recorded before it survives a kill.
    """

    def __init__(self, path: str, spec_digest: str,
                 meta: Optional[dict] = None):
        self.path = path
        self.spec_digest = spec_digest
        self._results: dict = {}
        #: wall-clock time of the last fsync checkpoint (None before one).
        self.last_checkpoint: Optional[float] = None
        #: records appended by this process (excludes replayed ones).
        self.appended = 0
        self._load_or_create(meta or {})
        self._stream = open(self.path, "a", encoding="utf-8")

    # -- construction ----------------------------------------------------

    def _load_or_create(self, meta: dict) -> None:
        if not os.path.exists(self.path):
            header = {"kind": "header", "version": STORE_VERSION,
                      "spec_digest": self.spec_digest, **meta}
            self._header = header
            with open(self.path, "w", encoding="utf-8") as stream:
                stream.write(json.dumps(header, sort_keys=True) + "\n")
                stream.flush()
                os.fsync(stream.fileno())
            return
        with open(self.path, "rb") as stream:
            raw = stream.read()
        lines = raw.split(b"\n")
        tail = lines.pop()  # content after the final newline
        if not lines or not lines[0]:
            raise CorruptJournalError(f"{self.path}: missing journal header")
        header = self._parse_line(lines[0], line_number=1)
        if header.get("kind") != "header" \
                or header.get("version") != STORE_VERSION:
            raise CorruptJournalError(
                f"{self.path}: unrecognised journal header {header!r}")
        self._header = header
        if header.get("spec_digest") != self.spec_digest:
            raise SpecMismatchError(
                f"{self.path}: journal belongs to campaign spec "
                f"{header.get('spec_digest')!r}, not {self.spec_digest!r} — "
                "refusing to resume; point REPRO_RESUME_DIR elsewhere or "
                "remove the stale journal")
        for number, line in enumerate(lines[1:], start=2):
            if not line:
                continue
            record = self._parse_line(line, line_number=number)
            key = tuple(record["k"])
            if key in self._results:
                continue  # deterministic duplicates: first record wins
            self._results[key] = pickle.loads(base64.b64decode(record["v"]))
        if tail:
            # a kill mid-append: drop the partial line and cut the file
            # back to the last complete record so appends start clean
            warnings.warn(
                f"{self.path}: dropping truncated final journal line "
                f"({len(tail)} bytes) — the interrupted trial will be "
                "recomputed", RuntimeWarning, stacklevel=3)
            with open(self.path, "r+b") as stream:
                stream.truncate(len(raw) - len(tail))

    def _parse_line(self, line: bytes, line_number: int) -> dict:
        try:
            parsed = json.loads(line)
            if not isinstance(parsed, dict):
                raise ValueError("journal lines are JSON objects")
            return parsed
        except ValueError as error:
            raise CorruptJournalError(
                f"{self.path}:{line_number}: malformed journal line "
                f"({error}); a truncated *final* line would have been "
                "tolerated — this journal is corrupt") from error

    # -- journalling -----------------------------------------------------

    def record(self, key: Sequence[int], outcome: Any) -> bool:
        """Append one completed outcome; False if the key is already
        journalled (the duplicate is discarded — outcomes are
        deterministic, so it is byte-identical anyway)."""
        key = tuple(key)
        if key in self._results:
            return False
        payload = base64.b64encode(
            pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL))
        line = json.dumps({"k": list(key), "v": payload.decode("ascii")},
                          separators=(",", ":"))
        self._stream.write(line + "\n")
        self._stream.flush()  # whole line reaches the OS buffer
        self._results[key] = outcome
        self.appended += 1
        return True

    def compact(self) -> dict:
        """Rewrite the journal as its canonical minimal form.

        The in-memory view is already canonical — loading dropped
        duplicate keys (first record wins) and cut any crash-truncated
        tail — so compaction is: write the preserved spec-digest header
        plus exactly one line per journalled key to a sibling temp file,
        fsync it, and atomically replace the journal.  Duplicate lines
        accumulate when straggler re-dispatch or fabric work-stealing
        races a kill (the loser's record can land after the winner's
        checkpoint but before the in-memory dedup is re-established by a
        resume), and every resumed run re-reads the whole file — compact
        reclaims that space.  Returns ``{"records", "lines_dropped",
        "bytes_before", "bytes_after"}``.
        """
        self._stream.flush()
        bytes_before = os.path.getsize(self.path)
        with open(self.path, "rb") as stream:
            data_lines = sum(1 for line in stream if line.strip()) - 1
        tmp_path = self.path + ".compact"
        with open(tmp_path, "w", encoding="utf-8") as stream:
            stream.write(json.dumps(self._header, sort_keys=True) + "\n")
            for key, outcome in self._results.items():
                payload = base64.b64encode(
                    pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL))
                stream.write(json.dumps(
                    {"k": list(key), "v": payload.decode("ascii")},
                    separators=(",", ":")) + "\n")
            stream.flush()
            os.fsync(stream.fileno())
        self._stream.close()
        os.replace(tmp_path, self.path)
        self._stream = open(self.path, "a", encoding="utf-8")
        self.flush()
        return {
            "records": len(self._results),
            "lines_dropped": data_lines - len(self._results),
            "bytes_before": bytes_before,
            "bytes_after": os.path.getsize(self.path),
        }

    def flush(self) -> None:
        """Checkpoint: fsync everything recorded so far."""
        if self._stream.closed:
            return
        self._stream.flush()
        os.fsync(self._stream.fileno())
        self.last_checkpoint = time.time()

    # -- queries ---------------------------------------------------------

    def get(self, key: Sequence[int]) -> Optional[Any]:
        """The journalled outcome of ``key``, or None."""
        return self._results.get(tuple(key))

    def __contains__(self, key) -> bool:
        return tuple(key) in self._results

    def __len__(self) -> int:
        return len(self._results)

    def keys(self):
        """The journalled task keys (completion set of the campaign)."""
        return self._results.keys()

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        if not self._stream.closed:
            self.flush()
            self._stream.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def compact_journal(path: str) -> dict:
    """Compact the journal at ``path`` in place (CLI entry point:
    ``python -m repro store-compact``).

    The header is read first so the rewrite is bound to whatever campaign
    digest the journal already carries — compaction can never change
    which campaign a journal belongs to.  Returns :meth:`ResultStore.compact`'s
    stats dict.
    """
    with open(path, "rb") as stream:
        first = stream.readline().strip()
    if not first:
        raise CorruptJournalError(f"{path}: missing journal header")
    try:
        header = json.loads(first)
    except ValueError as error:
        raise CorruptJournalError(
            f"{path}:1: malformed journal header ({error})") from error
    if not isinstance(header, dict) or header.get("kind") != "header":
        raise CorruptJournalError(
            f"{path}: unrecognised journal header {header!r}")
    store = ResultStore(path, header.get("spec_digest"))
    try:
        return store.compact()
    finally:
        store.close()
