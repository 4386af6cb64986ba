"""The persistent, resumable campaign result store.

Layout of a store directory::

    store/
      suite.json       # the normalized suite spec + its content hash
      results.jsonl    # one line per committed cell: {cell, key, record, sha}

Durability protocol: a cell is committed by one durable append of one
canonical line, whose ``sha`` is the SHA-256 of the canonical
``{"cell", "key", "record"}`` payload.  The line is its own commit point:
readers take only newline-terminated lines whose ``sha`` matches, so a
torn tail (a kill mid-write, truncated by the next append) or a damaged
line reads as a missing cell and is recomputed on resume.  Later lines
win, so a recomputed cell shadows any stale line without rewriting the
file.  A directory holding the commit log of the earlier two-file layout
is refused rather than read.

Everything is serialized through :mod:`repro.io`'s strict encoder —
non-finite metrics (``ratio = inf`` on cells where nothing was admitted)
round-trip as sentinel strings instead of the non-standard
``Infinity``/``NaN`` JSON tokens.

:meth:`ResultStore.content_hash` digests the committed ``(key, cell-hash,
record)`` payloads *sorted by key*, so the hash is independent of
completion order: an interrupted-and-resumed campaign hashes identically
to an uninterrupted one, at any ``--jobs`` (records themselves contain no
timing).
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.exceptions import InvalidInstanceError
from repro.io import dumps_canonical, loads_strict
from repro.scenarios.specs import normalize_suite, suite_hash
from repro.utils.jsonl import append_line, read_complete_lines, write_durable

__all__ = ["ResultStore"]

#: The commit log of the earlier two-file layout; its stores are refused.
_OLD_LAYOUT_FILE = "manifest.jsonl"


def _sha(payload: str) -> str:
    return hashlib.sha256(payload.encode()).hexdigest()


class ResultStore:
    """A directory-backed, append-only campaign result store."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.suite_path = self.root / "suite.json"
        self.results_path = self.root / "results.jsonl"

    # ------------------------------------------------------------------ #
    # Suite binding
    # ------------------------------------------------------------------ #
    def exists(self) -> bool:
        return self.suite_path.exists()

    def initialize(self, suite: Mapping[str, Any], *, fresh: bool = False) -> dict:
        """Bind the store to a suite (creating the directory).

        Re-initializing with the same suite is a no-op (that is what resume
        does).  An *edited* suite under the same name is accepted — the
        suite spec on disk is updated and the per-cell content hashes decide
        which stored cells are still valid, so "add a regime and re-run" is
        an incremental operation.  A suite with a *different name* raises
        unless ``fresh`` wipes the store first: silently mixing two
        campaigns in one store would corrupt both.  So does a store of the
        earlier two-file layout, which ``fresh`` also wipes.
        """
        suite = normalize_suite(suite)
        digest = suite_hash(suite)
        if fresh:
            for path in (
                self.suite_path,
                self.results_path,
                self.root / _OLD_LAYOUT_FILE,
            ):
                if path.exists():
                    path.unlink()
        self._refuse_old_layout()
        if self.suite_path.exists():
            existing = loads_strict(self.suite_path.read_text())
            if existing.get("name") != suite["name"]:
                raise InvalidInstanceError(
                    f"store at {self.root} holds a different suite "
                    f"({existing.get('name')!r}); use a new store directory "
                    "or pass fresh=True to wipe it"
                )
            if existing.get("suite_hash") == digest:
                return suite
        self.root.mkdir(parents=True, exist_ok=True)
        payload = {"name": suite["name"], "suite_hash": digest, "suite": suite}
        write_durable(self.suite_path, dumps_canonical(payload) + "\n")
        return suite

    def load_suite(self) -> dict:
        """The suite spec this store was initialized with."""
        if not self.suite_path.exists():
            raise InvalidInstanceError(f"no campaign store at {self.root}")
        return loads_strict(self.suite_path.read_text())["suite"]

    # ------------------------------------------------------------------ #
    # Cells
    # ------------------------------------------------------------------ #
    def append(self, key: str, cell_digest: str, record: Mapping[str, Any]) -> None:
        """Durably commit one completed cell: one line, one append."""
        payload = {"cell": cell_digest, "key": key, "record": dict(record)}
        payload["sha"] = _sha(dumps_canonical(payload))
        append_line(self.results_path, dumps_canonical(payload))

    def completed(self) -> dict[str, str]:
        """Map of committed cell key → cell hash."""
        return {key: entry["cell"] for key, (_, entry) in self._committed().items()}

    def records(self, keys: Iterable[str] | None = None) -> dict[str, dict]:
        """Committed records by key.

        ``keys`` optionally restricts the view to the given cell keys —
        the campaign runner passes the current suite's keys, so cells
        renamed or removed by a suite edit do not linger in reports.
        """
        return {
            key: entry["record"] for key, (_, entry) in self._committed(keys).items()
        }

    def content_hash(self, keys: Iterable[str] | None = None) -> str:
        """Order-independent digest of the committed campaign results
        (optionally restricted to ``keys``, see :meth:`records`)."""
        committed = self._committed(keys)
        digest = hashlib.sha256()
        for key in sorted(committed):
            digest.update(committed[key][0].encode())
            digest.update(b"\n")
        return digest.hexdigest()

    def _committed(
        self, keys: Iterable[str] | None = None
    ) -> dict[str, tuple[str, dict]]:
        """Key → (canonical payload, line) of every committed cell.

        A line is committed when it is newline-terminated and its ``sha``
        matches its ``{"cell", "key", "record"}`` payload; later lines win.
        """
        self._refuse_old_layout()
        wanted = None if keys is None else set(keys)
        committed: dict[str, tuple[str, dict]] = {}
        for entry in read_complete_lines(self.results_path)[0]:
            key = entry.get("key")
            if wanted is not None and key not in wanted:
                continue
            payload = dumps_canonical(
                {"cell": entry.get("cell"), "key": key, "record": entry.get("record")}
            )
            if entry.get("sha") == _sha(payload):
                committed[key] = (payload, entry)
        return committed

    def _refuse_old_layout(self) -> None:
        old = self.root / _OLD_LAYOUT_FILE
        if old.exists():
            raise InvalidInstanceError(
                f"{old} belongs to a store of the earlier two-file layout, "
                "which is no longer read; re-run the campaign into a new "
                "store directory or pass fresh=True to wipe it"
            )
