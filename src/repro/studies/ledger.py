"""The study ledger: on-disk per-job status journal for resumable studies.

One file per study run, in two parts (schema 2):

* **Line 1, the snapshot.** A compact JSON document with the study
  identity (``study``, ``fingerprint``, ``cache_dir``, the original study
  ``spec`` so ``repro study resume`` can recompile the exact same job
  set, ``created_at``) written *before* ``stats``, ``order`` and ``jobs``,
  so a torn snapshot still yields the spec to
  :mod:`repro.resilience.salvage`.
* **Every later line, one transition.** The full :class:`JobEntry` of one
  job after a status change (status ``pending`` / ``running`` / ``done``
  / ``failed`` / ``quarantined``, attempt count, wall seconds, the
  compact result summary, error), as compact JSON carrying a ``crc32`` of
  its own payload.

:meth:`StudyLedger.mark` / :meth:`~StudyLedger.mark_many` append their
transitions with one write + flush per call, so journaling costs the
same at job 10,000 as at job 1 and a process kill loses at most the line
being written. :meth:`StudyLedger.save` is *compaction*: it folds the
log into a fresh snapshot (tmp → ``fsync`` → ``os.replace`` →
``fsync(dir)``, durable across a power loss). It runs on the first write
of a new ledger and when ``run_study`` finalizes, so a finished study's
ledger is a single snapshot line.

:meth:`StudyLedger.load` replays the transitions over the snapshot. A
partial or CRC-failing *last* line is a torn append and is dropped; any
other bad line raises :class:`LedgerCorruptError`.

Resume semantics: the ledger never stores results, only refs (a job's
key *is* its manifest ref into the ``.repro_cache/`` job-result store).
A killed study leaves ``done`` jobs in the cache under their keys;
resuming recompiles the study (fingerprints must match), re-reads
finished jobs from the store, and re-submits only unfinished ones. Jobs
stuck in ``running`` (the worker died mid-arm) and transitions lost
with a torn tail simply go back through the store lookup.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.studies.core import Study

LEDGER_SCHEMA_VERSION = 2

PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
#: A poisoned job: failed on every allowed attempt and parked with its
#: error so the study can finish with a partial verdict. A resume
#: re-submits quarantined jobs (they are "unfinished").
QUARANTINED = "quarantined"

_STATUSES = (PENDING, RUNNING, DONE, FAILED, QUARANTINED)

_COMPACT = (",", ":")


@dataclass
class JobEntry:
    """Ledger line for one job."""

    key: str
    label: str = ""
    kind: str = "job"
    seed: Optional[int] = None
    status: str = PENDING
    attempts: int = 0
    wall_s: Optional[float] = None
    #: Where the result came from: ``executed`` / ``cache`` / ``resume``.
    source: Optional[str] = None
    #: Compact result summary (``Study.summarize``): verdict, figures.
    info: Optional[Dict[str, Any]] = None
    error: Optional[str] = None


class LedgerMismatchError(RuntimeError):
    """The ledger belongs to a different (or drifted) study."""


class LedgerCorruptError(RuntimeError):
    """The ledger file on disk is torn or corrupt (interrupted flush,
    bit rot). The embedded spec usually survives — recover with
    ``repro-sim study resume LEDGER --salvage``."""

    def __init__(self, path: str, reason: str) -> None:
        super().__init__(
            f"ledger {path!r} is corrupt ({reason}); finished jobs are "
            "still in the result store — rebuild the journal with "
            f"`study resume {path} --salvage`"
        )
        self.path = path
        self.reason = reason


def _transition_line(entry: JobEntry) -> str:
    """One journal line: the entry as compact JSON plus the CRC-32 of
    exactly that JSON text."""
    payload = json.dumps(vars(entry), separators=_COMPACT)
    crc = zlib.crc32(payload.encode("utf-8"))
    return f'{payload[:-1]},"crc32":{crc}}}\n'


def _parse_transition(line: bytes) -> Optional[Dict[str, Any]]:
    """The entry fields of one journal line, or ``None`` when the line is
    torn or fails its CRC."""
    try:
        doc = json.loads(line.decode("utf-8"))
        crc = doc.pop("crc32")
    except (ValueError, KeyError, AttributeError, TypeError):
        return None
    payload = json.dumps(doc, separators=_COMPACT).encode("utf-8")
    if crc != zlib.crc32(payload):
        return None
    return doc


def _fsync_dir(directory: str) -> None:
    """Make a rename in ``directory`` durable."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class StudyLedger:
    """Ordered job journal: a snapshot plus an append-only transition log.

    ``path=None`` keeps the ledger purely in memory (library callers that
    only want bookkeeping); writes are then no-ops.
    """

    def __init__(
        self,
        path: Optional[str],
        study_name: str,
        fingerprint: str,
        spec: Optional[Dict[str, Any]] = None,
        cache_dir: Optional[str] = None,
    ) -> None:
        self.path = path
        self.study_name = study_name
        self.fingerprint = fingerprint
        self.spec = spec
        self.cache_dir = cache_dir
        self.created_at = time.time()
        self.updated_at = self.created_at
        self.entries: Dict[str, JobEntry] = {}
        self.order: List[str] = []
        self.stats: Dict[str, Any] = {}
        #: Wall seconds spent writing the file (appends and compactions).
        self.write_s = 0.0
        #: True while the file at ``path`` holds exactly this object's
        #: journal, so transitions may be appended to it. False (a new
        #: ledger, a dropped torn tail, a failed or corrupted write) makes
        #: the next write a compaction instead.
        self._appendable = False
        self._faults = None

    def attach_faults(self, injector) -> None:
        """Attach (or with ``None``, detach) a fault injector; the
        ``ledger.flush`` hook on every write is a single ``is not None``
        check when detached."""
        self._faults = injector

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def for_study(
        cls,
        study: Study,
        path: Optional[str] = None,
        spec: Optional[Dict[str, Any]] = None,
        cache_dir: Optional[str] = None,
    ) -> "StudyLedger":
        """A fresh all-pending ledger for ``study``.

        If ``path`` already holds a ledger for the *same* study
        fingerprint, its entries are adopted instead (so ``study run``
        pointed at an existing ledger continues rather than restarts);
        a ledger for a different study raises :class:`LedgerMismatchError`.
        """
        if path is not None and os.path.exists(path):
            ledger = cls.load(path)
            if ledger.fingerprint != study.fingerprint():
                raise LedgerMismatchError(
                    f"ledger {path!r} records study "
                    f"{ledger.fingerprint[:12]} but the compiled study is "
                    f"{study.fingerprint()[:12]}; delete the ledger or fix "
                    "the spec"
                )
            if ((spec is not None and spec != ledger.spec)
                    or (cache_dir is not None
                        and cache_dir != ledger.cache_dir)):
                # Only a snapshot carries these: compact on first write.
                ledger._appendable = False
            if spec is not None:
                ledger.spec = spec
            if cache_dir is not None:
                ledger.cache_dir = cache_dir
            return ledger
        ledger = cls(path, study.name, study.fingerprint(), spec=spec,
                     cache_dir=cache_dir)
        for job in study.jobs:
            ledger.entries[job.key] = JobEntry(
                key=job.key, label=job.label, kind=job.kind, seed=job.seed
            )
            ledger.order.append(job.key)
        return ledger

    @classmethod
    def load(cls, path: str, faults=None) -> "StudyLedger":
        """Read the snapshot and replay the transition log over it.

        A torn last line is dropped (its transition is recovered by the
        store lookup on resume). Any other damage raises
        :class:`LedgerCorruptError` naming the salvage command, instead
        of leaking a raw ``JSONDecodeError``; a missing file still raises
        ``FileNotFoundError``, and a ledger of another schema raises
        :class:`LedgerMismatchError`. ``faults`` optionally injects
        ``ledger.load`` faults before the read.
        """
        if faults is not None:
            point = faults.pre_op("ledger.load")
            if point is not None:
                faults.corrupt(point, path)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            raise
        except OSError as exc:
            raise LedgerCorruptError(path, f"unreadable: {exc}") from exc
        head, newline, log = data.partition(b"\n")
        try:
            doc = json.loads(head.decode("utf-8"))
        except ValueError as exc:
            # Not a one-line snapshot: a schema-1 (whole-file) ledger,
            # rejected by version below, or a torn snapshot.
            try:
                doc = json.loads(data.decode("utf-8"))
            except ValueError:
                raise LedgerCorruptError(path, f"unreadable: {exc}") from exc
            newline = log = b""
        if not isinstance(doc, dict):
            raise LedgerCorruptError(path, "not a JSON object")
        version = doc.get("schema_version")
        if version != LEDGER_SCHEMA_VERSION:
            raise LedgerMismatchError(
                f"ledger {path!r} has schema {version!r}, expected "
                f"{LEDGER_SCHEMA_VERSION}; move it aside and re-run "
                "`study run SPEC` — finished jobs are served from the "
                "result store"
            )
        try:
            ledger = cls(
                path,
                doc["study"],
                doc["fingerprint"],
                spec=doc.get("spec"),
                cache_dir=doc.get("cache_dir"),
            )
            ledger.created_at = doc.get("created_at", ledger.created_at)
            ledger.updated_at = doc.get("updated_at", ledger.updated_at)
            ledger.stats = dict(doc.get("stats", {}))
            for key in doc.get("order", []):
                ledger.entries[key] = JobEntry(**doc["jobs"][key])
                ledger.order.append(key)
        except (KeyError, TypeError) as exc:
            raise LedgerCorruptError(
                path, f"missing or malformed field: {exc}"
            ) from exc
        complete = ledger._replay(log)
        ledger._appendable = complete and newline == b"\n"
        return ledger

    def _replay(self, log: bytes) -> bool:
        """Apply the transition log in order; True when it ends on a
        complete line."""
        lines = log.split(b"\n")
        complete = lines[-1] == b""
        if complete:
            lines.pop()
        for index, line in enumerate(lines):
            number = index + 2  # 1-based, after the snapshot line
            fields = _parse_transition(line)
            if fields is None:
                if index == len(lines) - 1:
                    return False  # torn tail: drop it
                raise LedgerCorruptError(
                    self.path, f"journal line {number} is torn or fails "
                    "its CRC"
                )
            key = fields.get("key")
            if key not in self.entries:
                raise LedgerCorruptError(
                    self.path, f"journal line {number} names unknown job "
                    f"{key!r}"
                )
            if fields.get("status") not in _STATUSES:
                raise LedgerCorruptError(
                    self.path, f"journal line {number} has unknown status "
                    f"{fields.get('status')!r}"
                )
            try:
                self.entries[key] = JobEntry(**fields)
            except TypeError as exc:
                raise LedgerCorruptError(
                    self.path, f"journal line {number}: {exc}"
                ) from exc
        return complete

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def mark(self, key: str, status: str, save: bool = True, **fields: Any) -> None:
        """Transition one job and (by default) journal it."""
        if status not in _STATUSES:
            raise ValueError(f"unknown status {status!r}")
        entry = self.entries[key]
        entry.status = status
        if status == RUNNING:
            entry.attempts += 1
        for name, value in fields.items():
            setattr(entry, name, value)
        if save:
            self.journal([key])

    def mark_many(self, keys: List[str], status: str, **fields: Any) -> None:
        """Transition a batch (one write), e.g. a dispatched worker chunk."""
        for key in keys:
            self.mark(key, status, save=False, **fields)
        self.journal(keys)

    def journal(self, keys: List[str]) -> None:
        """Append the current entries of ``keys`` with one write + flush.

        The first write of a new ledger, or the next one after a failed
        or corrupted write, is a :meth:`save` instead.
        """
        if self.path is None:
            return
        if not self._appendable:
            self.save()
            return
        start = time.perf_counter()
        fault_point = self._pre_write()
        text = "".join(_transition_line(self.entries[key]) for key in keys)
        try:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(text)
        except OSError:
            self._appendable = False
            raise
        self._post_write(fault_point, start)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        counts = {status: 0 for status in _STATUSES}
        for entry in self.entries.values():
            counts[entry.status] = counts.get(entry.status, 0) + 1
        return counts

    def unfinished(self) -> List[str]:
        """Keys not ``done`` — what a resume re-submits."""
        return [key for key in self.order
                if self.entries[key].status != DONE]

    @property
    def complete(self) -> bool:
        return all(e.status == DONE for e in self.entries.values())

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """The snapshot document (identity fields before the jobs)."""
        return {
            "schema_version": LEDGER_SCHEMA_VERSION,
            "study": self.study_name,
            "fingerprint": self.fingerprint,
            "cache_dir": self.cache_dir,
            "spec": self.spec,
            "created_at": self.created_at,
            "updated_at": self.updated_at,
            "stats": dict(self.stats),
            "order": list(self.order),
            "jobs": {key: dict(vars(self.entries[key]))
                     for key in self.order},
        }

    def save(self) -> None:
        """Compaction: replace the file with a one-line snapshot of the
        current state (tmp, ``fsync``, rename, ``fsync`` of the directory).
        In-memory ledgers are a no-op."""
        if self.path is None:
            return
        start = time.perf_counter()
        fault_point = self._pre_write()
        self.updated_at = time.time()
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        self._appendable = False
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(self.to_dict(), separators=_COMPACT))
                fh.write("\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.path)
        except OSError:
            try:
                os.remove(tmp)
            except OSError:
                pass
            raise
        _fsync_dir(directory)
        self._appendable = True
        self._post_write(fault_point, start)

    def _pre_write(self):
        """The ``ledger.flush`` seam, once per write."""
        if self._faults is None:
            return None
        return self._faults.pre_op("ledger.flush")

    def _post_write(self, fault_point, start: float) -> None:
        if fault_point is not None:
            self._faults.corrupt(fault_point, self.path)
            # The damage outlives the run only if the process dies
            # before its next write, which compacts.
            self._appendable = False
        self.write_s += time.perf_counter() - start

    def describe(self) -> str:
        """Status block for ``repro study status``."""
        counts = self.counts()
        lines = [
            f"study {self.study_name!r} ({self.fingerprint[:12]}), "
            f"{len(self.order)} jobs: "
            + " ".join(f"{s}={counts[s]}" for s in _STATUSES if counts[s]),
        ]
        resilience = {
            k: self.stats[k]
            for k in ("retries", "backoff_s", "quarantined",
                      "cache_quarantined", "pool_degraded")
            if self.stats.get(k)
        }
        if resilience:
            lines.append(
                "  last run: "
                + " ".join(f"{k}={v}" for k, v in resilience.items())
            )
        phases = self.stats.get("phase_s")
        if phases:
            lines.append(
                "  phases: "
                + " ".join(f"{k}={v:.3f}s" for k, v in phases.items())
            )
        for key in self.order:
            entry = self.entries[key]
            info = entry.info or {}
            verdict = info.get("verdict")
            detail = f" verdict={verdict}" if verdict else ""
            wall = f" {entry.wall_s:.1f}s" if entry.wall_s is not None else ""
            src = f" ({entry.source})" if entry.source else ""
            err = f" error={entry.error.splitlines()[-1]}" if entry.error else ""
            lines.append(
                f"  [{entry.status:>7}] {entry.label or entry.key[:12]}"
                f"{detail}{wall}{src}{err}"
            )
        return "\n".join(lines)
