"""Ledger salvage: recover a resumable study from a corrupt ledger file.

The ledger is a snapshot line followed by an append-only transition log.
A torn *tail* never needs salvage — ``StudyLedger.load`` drops a partial
or CRC-failing last line. What still needs it is a damaged snapshot
(truncated or bit-rotted on a filesystem without atomic rename, or by a
fault plan's ``torn_write`` / ``bit_flip``) or a bad line in the middle
of the log. The snapshot deliberately writes the small identity fields
(``study``, ``fingerprint``, ``cache_dir``, ``spec``) *before* the large
``jobs`` map, so a torn snapshot almost always still contains the full
embedded spec — enough to recompile the exact study and rebuild a fresh
all-pending ledger. The job-result store then does the rest:
``run_study``'s dedupe stage re-reads every finished job from
``.repro_cache/`` by content-addressed key, so salvage loses no
completed work, only the journal's bookkeeping.

Surfaced as ``repro-sim study resume LEDGER --salvage``; the corrupt
file is preserved next to the rebuilt one as ``LEDGER.corrupt``.

This module imports the studies layer, so it is *not* re-exported from
``repro.resilience`` (whose ``__init__`` must stay import-light — the
WorkerPool itself imports :mod:`repro.resilience.retry`).
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Optional

from repro.studies.core import Study
from repro.studies.ledger import StudyLedger


class LedgerSalvageError(RuntimeError):
    """The corrupt ledger held no recoverable spec — nothing to rebuild
    from. Re-run ``study run`` with the original spec file instead."""


def _extract_top_value(text: str, key: str) -> Optional[Any]:
    """Decode the JSON value of the first ``"key":`` occurrence in
    ``text``; ``None`` if the key is absent or its value is itself torn.
    """
    marker = f'"{key}":'
    start = text.find(marker)
    if start < 0:
        return None
    pos = start + len(marker)
    while pos < len(text) and text[pos] in " \t\r\n":
        pos += 1
    try:
        value, _ = json.JSONDecoder().raw_decode(text, pos)
    except (ValueError, IndexError):
        return None
    return value


def salvage_fields(text: str) -> Dict[str, Any]:
    """Pull whatever identity fields survived the tear.

    Returns a dict with any of ``study`` / ``fingerprint`` /
    ``cache_dir`` / ``spec`` that decoded cleanly. The identity fields
    are written before the jobs map, so truncation usually spares them.
    """
    recovered: Dict[str, Any] = {}
    for key in ("study", "fingerprint", "cache_dir", "spec"):
        value = _extract_top_value(text, key)
        if value is not None:
            recovered[key] = value
    return recovered


def salvage_study(path: str) -> Dict[str, Any]:
    """Recover the embedded spec (+ identity fields) from a corrupt
    ledger file. Raises :class:`LedgerSalvageError` when no spec
    survived."""
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        text = fh.read()
    recovered = salvage_fields(text)
    if not isinstance(recovered.get("spec"), dict):
        raise LedgerSalvageError(
            f"ledger {path!r} is corrupt and its embedded spec did not "
            "survive; re-run `study run` with the original spec file "
            "(finished jobs will be served from the result store)"
        )
    return recovered


def rebuild_ledger(
    path: str,
    study: Study,
    spec: Optional[Dict[str, Any]] = None,
    cache_dir: Optional[str] = None,
    recovered_fingerprint: Optional[str] = None,
) -> StudyLedger:
    """Replace the corrupt ledger at ``path`` with a fresh all-pending
    one for ``study``.

    The corrupt file is preserved as ``path + ".corrupt"`` for forensics.
    If the corrupt ledger's fingerprint survived and does *not* match the
    recompiled study, salvage refuses — rebuilding a ledger for a
    different study would silently mix result sets.
    """
    if (recovered_fingerprint is not None
            and recovered_fingerprint != study.fingerprint()):
        raise LedgerSalvageError(
            f"corrupt ledger {path!r} records study fingerprint "
            f"{recovered_fingerprint[:12]} but the recompiled study is "
            f"{study.fingerprint()[:12]}; refusing to rebuild across "
            "studies"
        )
    backup = path + ".corrupt"
    os.replace(path, backup)
    ledger = StudyLedger.for_study(study, path=path, spec=spec,
                                   cache_dir=cache_dir)
    ledger.save()
    return ledger
