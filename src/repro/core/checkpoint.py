"""Durable refinement checkpoints: crash-recoverable analyses.

A long refinement run loses everything when its worker dies -- OOM
kill, hard deadline, a pulled plug -- even though every certified
module it already produced is an independently checkable artifact.
A checkpoint keeps them: it is one job's own certified-module records
(:mod:`repro.core.library` defines the record, its writer and its
decoder), in the append-only log ``<dir>/checkpoint_<key>.jsonl``.

- **what is saved**: the modules only, one record each, appended as
  the run adds them and fsynced before :meth:`Checkpointer.save`
  returns.  The uncertified *remainder* is deliberately **not** saved:
  it is exactly the part of the analysis state that carries trust, and
  it is cheap to rebuild by re-subtracting the restored modules from
  the freshly constructed program automaton.  Restored modules are
  not written again.
- **crashes**: a crash mid-append tears the last record only; the
  reader drops it and the next writer ends the torn line before
  appending.  The ``checkpoint.write`` fault site (:mod:`repro.faults`)
  leaves exactly that shape for chaos testing.
- **how it is keyed**: by the corpus store's job key (sha256 of
  program, config, code version; see :func:`repro.runner.store.job_key`),
  carried in every record, so a checkpoint is reused only while
  program, configuration, and analysis version all match.
- **the trust model**: a checkpoint is *untrusted input*.  Every record
  must decode, carry this job's key, bind to the program's alphabet,
  and pass :func:`repro.core.module.recheck`; if any one fails, the
  whole checkpoint is rejected and the analysis cold-starts with a
  structured ``checkpoint.rejected`` incident.  A forged checkpoint
  can therefore cost work, never soundness.
"""

from __future__ import annotations

import json
import os
from typing import Iterable

import repro.faults as _faults
from repro.core.codec import CodecError
from repro.core.library import (append_lines, binding, decode_record,
                                encode_record)
from repro.core.module import CertifiedModule, recheck
from repro.obs import metrics as _metrics


def _sanitize(key: str) -> str:
    return "".join(c if c.isalnum() or c in "-_." else "_" for c in key)


class Checkpointer:
    """One job's durable checkpoint: append-only save, checked restore.

    Bound to a ``(directory, key)`` pair; the file is
    ``<directory>/checkpoint_<key>.jsonl``.  All failure modes are
    contained: a failed save never interrupts the analysis, a bad
    checkpoint never seeds it.  What happened is counted in the run's
    metrics registry (``checkpoint.saves``, ``checkpoint.save_failures``,
    ``checkpoint.rounds_restored``, ``incidents.checkpoint.rejected``).
    """

    def __init__(self, directory: str, key: str, program: str = "?"):
        self.directory = str(directory)
        self.key = str(key)
        self.program = program
        self.path = os.path.join(self.directory,
                                 f"checkpoint_{_sanitize(self.key)}.jsonl")
        #: modules (= rounds) seeded from the checkpoint on restore
        self.restored_rounds = 0
        #: why the checkpoint was rejected (None = not rejected)
        self.rejected: str | None = None
        #: modules this run appended to the log
        self._appended = 0

    # -- save -------------------------------------------------------------------

    def save(self, modules: list[CertifiedModule]) -> bool:
        """Append the modules of the decomposition not yet in the log.

        ``modules`` is the run's decomposition: the
        :attr:`restored_rounds` modules seeded from this log, then the
        modules the run added, in order.  Returns success and never
        raises: serialization bugs, full disks, and injected
        ``checkpoint.write`` faults all degrade to "not saved yet" --
        the next save retries the same modules.
        """
        pending = modules[self.restored_rounds + self._appended:]
        if not pending:
            return True
        try:
            lines = []
            for module in pending:
                record = encode_record(module, key=self.key,
                                       program=self.program)
                if record is None:
                    return self._failed()
                lines.append(json.dumps(record, sort_keys=True) + "\n")
            try:
                _faults.perturb("checkpoint.write")
            except _faults.InjectedFault:
                # The crash shape of an append: a torn last record.
                append_lines(self.path, lines[0][:len(lines[0]) // 2])
                return self._failed()
            append_lines(self.path, "".join(lines), sync=True)
        except (OSError, TypeError, ValueError):
            return self._failed()
        self._appended += len(pending)
        _metrics.inc("checkpoint.saves")
        return True

    def _failed(self) -> bool:
        _metrics.inc("checkpoint.save_failures")
        return False

    # -- restore ----------------------------------------------------------------

    def restore(self, alphabet: Iterable) -> list[CertifiedModule]:
        """Load, decode, and *re-check* the checkpointed modules.

        Returns the checked modules in log order (possibly empty: no
        checkpoint on disk is a normal cold start, not a rejection).  A
        torn last record is dropped.  Any other failure -- a record that
        does not decode, carries another key, names a symbol outside
        the program alphabet, or fails :func:`recheck` -- rejects the
        *whole* checkpoint: ``self.rejected`` carries the reason and
        the caller cold-starts.
        """
        from repro.runner.store import read_rows
        self.rejected = None
        try:
            records = list(read_rows(self.path))
        except OSError as exc:
            return self._reject(f"unreadable checkpoint: {exc}")
        if not records:
            return []
        bound = binding(alphabet)
        if bound is None:
            return self._reject("program alphabet is ambiguous under str()")
        modules = []
        for index, record in enumerate(records):
            if record.get("key") != self.key:
                return self._reject(f"checkpoint key {record.get('key')!r} "
                                    f"does not match {self.key!r}")
            try:
                module = decode_record(record, bound)
            except CodecError as exc:
                return self._reject(f"record {index}: {exc}")
            problem = recheck(module)
            if problem:
                return self._reject(f"module {index} ({module.stage}) failed "
                                    f"re-validation: {problem}")
            modules.append(module)
        return modules

    def _reject(self, reason: str) -> list:
        self.rejected = reason
        return []

