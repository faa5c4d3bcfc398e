"""Append-only JSONL result store with resume keying.

Every finished job becomes one JSON line; a run interrupted at row
``n`` resumes by loading the rows already present and skipping their
keys.  Keys are content hashes of ``(program source, config dict,
code version)``, so a row is reused only while all three match:
editing a program, changing a config knob, or upgrading the analysis
re-runs exactly the affected jobs.

The store is *at-least-once*: a job killed between completion and the
``append`` fsync is simply recomputed on resume.  Duplicate keys keep
the **last** row (rewrites happen when ``--retry-errors``,
``--retry-timeouts`` or ``--no-resume`` re-run a job): resume, ``repro
report`` and ``repro trajectory`` all read the file through
:func:`latest_rows`, as a log-structured map.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Iterable, Iterator, TextIO


def code_version() -> str:
    """The analysis version stamped into row keys.

    ``REPRO_CODE_VERSION`` overrides (CI stamps the commit SHA); the
    fallback reads ``.git/HEAD`` by hand -- no subprocess -- and
    degrades to the package version outside a checkout.
    """
    env = os.environ.get("REPRO_CODE_VERSION")
    if env:
        return env
    try:
        root = Path(__file__).resolve()
        for parent in root.parents:
            head = parent / ".git" / "HEAD"
            if head.is_file():
                text = head.read_text(encoding="utf-8").strip()
                if text.startswith("ref:"):
                    ref = parent / ".git" / text.split(None, 1)[1]
                    if ref.is_file():
                        return ref.read_text(encoding="utf-8").strip()[:12]
                    break
                return text[:12]
    except OSError:
        pass
    from repro import __version__
    return __version__


def job_key(program_name: str, source: str, config: dict,
            version: str | None = None) -> str:
    """Stable identity of one (program, config, code-version) job."""
    payload = json.dumps(
        {"program": program_name, "source": source, "config": config,
         "version": version if version is not None else code_version()},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:20]


def read_rows(path: str | Path) -> Iterator[dict]:
    """Yield the rows of a JSONL store, skipping blank/torn lines.

    A half-written trailing line (the process died mid-``write``) is
    dropped rather than raised: resume treats that job as not done.
    The file is read in binary and decoded per line because a tear can
    land *inside* a multi-byte UTF-8 sequence -- text-mode iteration
    would raise ``UnicodeDecodeError`` on the torn tail and lose every
    intact row behind the same buffered read.
    """
    path = Path(path)
    if not path.exists():
        return
    with path.open("rb") as fh:
        for raw in fh:
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError:
                continue
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(row, dict):
                yield row


def latest_rows(path: str | Path) -> list[dict]:
    """The store's current rows: the last row of each key, in the order
    keys first appear; unkeyed rows are kept as they are."""
    rows: dict = {}
    for index, row in enumerate(read_rows(path)):
        rows[row.get("key") or index] = row
    return list(rows.values())


class ResultStore:
    """One JSONL file of result rows, opened lazily for append."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._fh: TextIO | None = None

    def load(self) -> dict[str, dict]:
        """Map ``key -> row`` for every keyed row already on disk."""
        return {row["key"]: row for row in latest_rows(self.path)
                if row.get("key")}

    def append(self, row: dict) -> None:
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("a", encoding="utf-8")
            # A run killed mid-write leaves a torn line with no newline;
            # terminate it so the next row starts clean (the torn row
            # itself stays dropped by read_rows).
            if self._fh.tell() > 0:
                with self.path.open("rb") as check:
                    check.seek(-1, os.SEEK_END)
                    if check.read(1) != b"\n":
                        self._fh.write("\n")
        self._fh.write(json.dumps(row, sort_keys=True) + "\n")
        self._fh.flush()

    def append_all(self, rows: Iterable[dict]) -> None:
        for row in rows:
            self.append(row)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
