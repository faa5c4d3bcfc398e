"""The certified-module store: one record format, one writer, one reader.

A certified module that meets Definition 3.1 is a reusable artifact
(Heizmann et al., arXiv 1405.4189): it is sound to subtract from *any*
program over a compatible alphabet, whichever run certified it.  So
the repository keeps exactly one on-disk form of a module, the
**record** defined here, and two stores of records:

- the corpus-wide **module library** (:class:`ModuleLibrary`), shared
  by every pool worker and queried before synthesis, and
- one job's **checkpoint** (:class:`repro.core.checkpoint.Checkpointer`),
  which is nothing but that job's own records, replayed on restart.

**The record.**  One JSON line: the codec payload
(:func:`repro.core.codec.module_to_dict`) over the module's
*used*-symbol table -- so an entry from a small program stays
reusable by any larger sibling -- the ``str(symbol)`` table itself,
the store's scope (``code_version`` for the library, ``key`` for a
checkpoint), provenance, and a content id.  :func:`encode_record`
builds it, :func:`decode_record` binds it to the *reading* program's
own statement objects.

**One writer.**  :func:`append_lines` appends whole records with a
single ``os.write`` on an ``O_APPEND`` fd (concurrent workers
interleave lines, never bytes) after ending a torn last line, so a
record never glues onto a crash's fragment.  Checkpoints fsync before
``save`` returns.  Readers use the result store's torn-tail-tolerant
:func:`repro.runner.store.read_rows`: a record torn by a crash costs
that record only.

**The trust rule.**  Every record read back is untrusted input and
passes :func:`repro.core.module.recheck` before it is subtracted.  A
failing library entry is skipped for the rest of the run; any failing
checkpoint record rejects the whole checkpoint (cold start).  A forged
or corrupted record can cost work, never soundness.

**Faults.**  ``library.publish`` appends a *tampered* record (one
certificate predicate dropped) instead of the honest one;
``checkpoint.write`` leaves a *torn* record, the only crash shape an
append has.

**Freshness.**  Library entries are keyed by ``code_version``: entries
published by a different version are invisible.  An in-process index
caches the parsed file and refreshes only when the file's ``(size,
mtime)`` changes, so a worker polling the library every round pays
one ``stat`` per round, not one parse.
"""

from __future__ import annotations

import hashlib
import json
import os

import repro.faults as _faults
from repro.core.codec import (CodecError, module_from_dict, module_symbols,
                              module_to_dict, symbol_table)
from repro.core.module import CertifiedModule, recheck
from repro.obs import metrics as _metrics

#: Bump on any incompatible change to the record layout; mismatched
#: records are skipped by the library and reject a checkpoint.
RECORD_VERSION = 1

#: Structured rejection reasons kept per run (the full stream also
#: lands in the ``library.rejected`` counter); bounded so a hostile
#: library cannot balloon the handle.
_MAX_REJECTIONS = 8


def entry_id(record: dict) -> str:
    """Content id of a record: a short digest over the parts that
    determine reuse behavior (symbol table + codec payload), so the
    same module republished by any worker dedupes to one record."""
    payload = json.dumps({"alphabet": record.get("alphabet"),
                          "module": record.get("module")},
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def encode_record(module: CertifiedModule, **scope) -> dict | None:
    """The record of ``module`` with the store's ``scope`` fields; None
    if the module's symbols do not stringify uniquely."""
    table = symbol_table(module_symbols(module))
    if table is None:
        return None
    ordered, index = table
    record = {"v": RECORD_VERSION, **scope, "stage": module.stage,
              "alphabet": [str(sym) for sym in ordered],
              "module": module_to_dict(module, index)}
    record["id"] = entry_id(record)
    return record


def binding(alphabet) -> tuple[dict, list] | None:
    """``(str(symbol) -> symbol, sorted alphabet)`` of a reading
    program, the input of :func:`decode_record`; None if ambiguous."""
    table = symbol_table(alphabet)
    if table is None:
        return None
    ordered, _index = table
    return {str(sym): sym for sym in ordered}, ordered


def decode_record(record: dict, bound: tuple[dict, list]) -> CertifiedModule:
    """Rebuild a record's module over the reading program's ``bound``
    alphabet (see :func:`binding`).  Purely structural -- the caller
    runs :func:`~repro.core.module.recheck`.  Raises
    :class:`~repro.core.codec.CodecError` on any mismatch."""
    if record.get("v") != RECORD_VERSION:
        raise CodecError(f"record version {record.get('v')!r} "
                         f"!= {RECORD_VERSION}")
    names = record.get("alphabet")
    if not isinstance(names, list):
        raise CodecError("record without a symbol table")
    by_str, ordered = bound
    try:
        symbols = [by_str[str(name)] for name in names]
    except KeyError as exc:
        raise CodecError(f"symbol {exc} is not in the program alphabet") \
            from exc
    try:
        return module_from_dict(record.get("module"), symbols,
                                alphabet=ordered)
    except CodecError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CodecError(f"{type(exc).__name__}: {exc}") from exc


def append_lines(path: str, text: str, sync: bool = False) -> None:
    """Append ``text`` to a record file with one ``O_APPEND`` write.

    A torn last line (a writer died mid-record) is ended first, so the
    new records start clean and only the torn one stays lost.
    ``sync`` fsyncs before returning.
    """
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    data = text.encode("utf-8")
    fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        size = os.fstat(fd).st_size
        if size and os.pread(fd, 1, size - 1) != b"\n":
            data = b"\n" + data
        os.write(fd, data)
        if sync:
            os.fsync(fd)
    finally:
        os.close(fd)


class _Entry:
    """One parsed library record: prefilter data + the raw payload."""

    __slots__ = ("id", "stage", "symbols", "data")

    def __init__(self, eid: str, stage: str, symbols: frozenset, data: dict):
        self.id = eid
        self.stage = stage
        self.symbols = symbols
        self.data = data


class ModuleLibrary:
    """One process's handle on a shared certified-module library file.

    All failure modes are contained, mirroring the checkpoint store:
    a failed publish never interrupts the analysis, a bad entry never
    seeds it -- ``match`` and ``publish`` do not raise.  What happened
    is counted in the run's metrics registry (``library.hits``,
    ``.misses``, ``.published``, ``.publish_failures``, ``.rejected``).
    """

    def __init__(self, path, code_version: str | None = None):
        self.path = str(path)
        if code_version is None:
            from repro.runner.store import code_version as current_version
            code_version = current_version()
        self.code_version = code_version
        #: entries rejected by decode or Definition 3.1 re-validation
        self.rejected = 0
        #: structured reasons for the first few rejections
        self.rejections: list[dict] = []
        # -- the in-process index cache --
        self._stat: tuple[int, int] | None = None  # (size, mtime_ns) parsed
        self._entries: list[_Entry] = []
        self._ids: set[str] = set()
        # -- per-alphabet decode/validation caches --
        self._bound: frozenset | None = None  # alphabet strs the caches bind
        self._decoded: dict[str, CertifiedModule] = {}
        self._validated: set[str] = set()
        self._bad: set[str] = set()

    # -- reading ----------------------------------------------------------------

    def refresh(self) -> None:
        """Re-read the file iff its ``(size, mtime)`` changed."""
        try:
            st = os.stat(self.path)
            stat = (st.st_size, st.st_mtime_ns)
        except OSError:
            stat = None
        if stat == self._stat:
            return
        from repro.runner.store import read_rows
        entries: list[_Entry] = []
        ids: set[str] = set()
        for record in read_rows(self.path):
            if record.get("v") != RECORD_VERSION:
                continue
            if record.get("code_version") != self.code_version:
                continue
            alphabet = record.get("alphabet")
            module = record.get("module")
            if not isinstance(alphabet, list) or not isinstance(module, dict):
                continue
            eid = record.get("id") or entry_id(record)
            if eid in ids:
                continue
            ids.add(eid)
            entries.append(_Entry(eid, str(module.get("stage", "?")),
                                  frozenset(str(s) for s in alphabet),
                                  record))
        self._entries, self._ids, self._stat = entries, ids, stat

    def __len__(self) -> int:
        return len(self._entries)

    def match(self, word, alphabet) -> CertifiedModule | None:
        """The reuse query: a *validated* module accepting ``word``,
        decoded over this program's own ``alphabet``, or None.

        Validation runs only on candidates that already pass the
        alphabet prefilter and accept the word, and its outcome is
        cached per entry -- a rejected entry stays rejected for the
        rest of the run, a validated one is never re-checked.
        """
        self.refresh()
        hit = self._match(word, alphabet) if self._entries else None
        _metrics.inc("library.misses" if hit is None else "library.hits")
        return hit

    def _match(self, word, alphabet) -> CertifiedModule | None:
        bound = binding(alphabet)
        if bound is None:  # ambiguous str(): the codec cannot rebind
            return None
        names = frozenset(bound[0])
        if names != self._bound:
            # The caches hold modules rebound to a *specific* program
            # alphabet; a different program means a clean slate.
            self._bound = names
            self._decoded.clear()
            self._validated.clear()
            self._bad.clear()
        for entry in self._entries:
            if entry.id in self._bad or not entry.symbols <= names:
                continue
            module = self._decode(entry, bound)
            if module is None or not module.language_contains(word):
                continue
            if self._validate(entry, module):
                return module
        return None

    def _decode(self, entry: _Entry, bound) -> CertifiedModule | None:
        module = self._decoded.get(entry.id)
        if module is not None:
            return module
        try:
            module = decode_record(entry.data, bound)
        except CodecError as exc:
            self._reject(entry, f"decode failed: {exc}")
            return None
        self._decoded[entry.id] = module
        return module

    def _validate(self, entry: _Entry, module: CertifiedModule) -> bool:
        if entry.id in self._validated:
            return True
        problem = recheck(module)
        if problem:
            self._reject(entry, f"failed re-validation: {problem}")
            return False
        self._validated.add(entry.id)
        return True

    def _reject(self, entry: _Entry, reason: str) -> None:
        self._bad.add(entry.id)
        self.rejected += 1
        if len(self.rejections) < _MAX_REJECTIONS:
            self.rejections.append({"id": entry.id, "stage": entry.stage,
                                    "reason": reason})
        _metrics.inc("library.rejected")

    # -- publishing -------------------------------------------------------------

    def publish(self, module: CertifiedModule, program: str = "?") -> bool:
        """Append one freshly certified module; returns success.

        Never raises: serialization problems, full disks, and injected
        ``library.publish`` faults all degrade to "not published".
        Records are deduplicated by content id against everything
        already in the file.
        """
        try:
            record = encode_record(module, code_version=self.code_version,
                                   program=program)
            if record is None:
                return self._publish_failed()
            self.refresh()
            if record["id"] in self._ids:
                return False  # someone (maybe us) already published it
            try:
                _faults.perturb("library.publish")
            except _faults.InjectedFault:
                self._publish_tampered(record)
                return self._publish_failed()
            append_lines(self.path, json.dumps(record, sort_keys=True) + "\n")
        except (OSError, TypeError, ValueError):
            return self._publish_failed()
        _metrics.inc("library.published")
        # Another worker may append between our write and the next
        # stat; dropping the cached stat forces a real re-read next
        # query instead of trusting bookkeeping.
        self._stat = None
        return True

    @staticmethod
    def _publish_failed() -> bool:
        _metrics.inc("library.publish_failures")
        return False

    def _publish_tampered(self, record: dict) -> None:
        """The ``library.publish`` fault: instead of the honest entry,
        a plausibly-corrupted one reaches the shared file -- the
        certificate silently loses one state's predicate, so the entry
        decodes fine and still accepts its words, but the Definition
        3.1 re-check on reuse must reject it.  Chaos plans use this to
        assert that a poisoned library costs work, never soundness."""
        try:
            tampered = json.loads(json.dumps(record))
            certificate = tampered["module"]["certificate"]
            if certificate:
                certificate.pop(sorted(certificate)[0])
            tampered["id"] = entry_id(tampered)
            append_lines(self.path,
                         json.dumps(tampered, sort_keys=True) + "\n")
        except (OSError, KeyError, TypeError, ValueError):
            pass

