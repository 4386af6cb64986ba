"""Durable JSONL primitives shared by every append-only log in the repo.

The campaign :class:`~repro.scenarios.store.ResultStore` and the service
:class:`~repro.service.wal.WriteAheadLog` persist the same way: one JSON
document per line, appended with flush + fsync, read back by
:func:`read_complete_lines`.  This module is the single implementation of
that protocol, including its crash-hardening details:

* **Torn-tail repair** (:func:`repair_trailing`) — a kill mid-write leaves
  an unterminated final line.  An *append* onto it would merge the new
  record into the fragment, silently corrupting a committed line, so every
  append truncates back to the last complete line first.
* **Complete lines only** — :func:`read_complete_lines` is the one reader,
  and it never returns an unterminated tail, even a parseable one: the next
  append's repair erases that tail, so counting it would let a reader act
  on a line that is about to vanish.  A newline-terminated line is the
  commit point.
* **Directory fsync** (:func:`fsync_dir`) — ``fsync`` on the file makes the
  *bytes* durable, but a file created (or first written) moments before a
  power loss can vanish with its directory entry: the parent directory's
  metadata is a separate write.  :func:`append_line` fsyncs the parent
  directory whenever the append created the file, and
  :func:`write_durable` does the same for whole-file writes, so an
  acknowledged commit survives power loss — not just process death.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

try:  # POSIX only; the service degrades to in-process locking without it.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from repro.io import loads_strict

__all__ = [
    "append_line",
    "fsync_dir",
    "locked_file",
    "read_complete_lines",
    "repair_trailing",
    "write_durable",
]


def fsync_dir(directory: Path) -> None:
    """fsync a directory so entries created in it survive power loss.

    Best-effort: platforms/filesystems that cannot open a directory for
    reading (or reject fsync on one) are skipped silently — the file-level
    fsync already happened, and process-crash durability never needed this.
    """
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:  # pragma: no cover - platform dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform dependent
        pass
    finally:
        os.close(fd)


def repair_trailing(path: Path) -> bool:
    """Truncate a torn trailing line (kill mid-write left no ``\\n``).

    Readers never see an unterminated line, but an *append* onto a torn
    tail would merge the new record into the fragment — losing committed
    work and making content hashes diverge.  Truncating back to the last
    complete line turns the crash artifact into a plain missing entry,
    which the caller's resume/replay path then recomputes.  Returns
    whether a repair happened.
    """
    if not path.exists():
        return False
    with path.open("rb+") as handle:
        handle.seek(0, os.SEEK_END)
        size = handle.tell()
        if size == 0:
            return False
        handle.seek(size - 1)
        if handle.read(1) == b"\n":
            return False
        # Scan backwards for the last newline and cut everything after it.
        position = size
        last_newline = -1
        while position > 0 and last_newline < 0:
            start = max(0, position - 4096)
            handle.seek(start)
            data = handle.read(position - start)
            index = data.rfind(b"\n")
            if index >= 0:
                last_newline = start + index
            position = start
        handle.truncate(last_newline + 1 if last_newline >= 0 else 0)
        handle.flush()
        os.fsync(handle.fileno())
    return True


def append_line(path: Path, line: str) -> None:
    """Append one JSONL line durably.

    A torn final line is repaired first (so the new line can never merge
    with a crash fragment), the write is flushed and fsynced, and — when
    this append *created* the file — the parent directory is fsynced too,
    so a power loss right after the commit cannot lose the directory
    entry.  A lost-but-acknowledged line is never tolerated.
    """
    repair_trailing(path)
    created = not path.exists()
    with path.open("a", encoding="utf-8") as handle:
        handle.write(line + "\n")
        handle.flush()
        os.fsync(handle.fileno())
    if created:
        fsync_dir(path.parent)


def write_durable(path: Path, text: str) -> None:
    """Replace ``path``'s contents durably (fsync file, then directory).

    Written via a same-directory temp file + atomic rename, so a crash
    mid-write can never leave a half-written file under the real name.
    """
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    fsync_dir(path.parent)


def read_complete_lines(path: Path, offset: int = 0) -> tuple[list[dict], int]:
    """Parseable dict lines from byte ``offset``, plus the next offset.

    Only *complete* (newline-terminated) lines are consumed: a torn tail —
    a crash fragment or a line still being written — is left untouched and
    the returned offset stops right before it, so a tail-following reader
    picks the line up once it is finished (or repaired away).  Complete
    but unparseable lines (and non-object lines) advance the offset and
    yield nothing.  A missing file reads as empty at offset 0.
    """
    if not path.exists():
        return [], 0
    with path.open("rb") as handle:
        handle.seek(offset)
        data = handle.read()
    end = data.rfind(b"\n") + 1  # 0 when no complete line follows offset
    entries: list[dict] = []
    for raw in data[:end].splitlines():
        raw = raw.strip()
        if not raw:
            continue
        try:
            payload: Any = loads_strict(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            continue
        if isinstance(payload, dict):
            entries.append(payload)
    return entries, offset + end


@contextmanager
def locked_file(path: Path) -> Iterator[int]:
    """Hold an exclusive ``flock`` on ``path`` (created if missing).

    ``flock`` contends between distinct file descriptors even inside one
    process, so two :class:`~repro.service.queue.JobQueue` handles on the
    same root exclude each other whether they live in one process (tests,
    the chaos harness) or many (a real supervisor fleet).  On platforms
    without ``fcntl`` the lock degrades to creation-only — single-process
    use stays correct via the callers' thread locks.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(str(path), os.O_RDWR | os.O_CREAT, 0o644)
    try:
        if fcntl is not None:
            fcntl.flock(fd, fcntl.LOCK_EX)
        yield fd
    finally:
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)

