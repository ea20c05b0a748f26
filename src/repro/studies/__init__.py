"""Resumable submit → schedule → collect study pipeline.

Every multi-arm study — ``compile_monte_carlo``, the canned ``sweep_*``
axes and :func:`~repro.experiments.sweeps.compile_sweep`,
``compile_envelope``, and ``compile_chaos_study`` — compiles its arms into
a :class:`StudyPlan`: a frozen, fingerprinted :class:`Study` of
content-addressed :class:`Job`\\ s plus a collector. :func:`run_study` is
the one runner (dedupe against the ``.repro_cache/`` job-result store,
serial or :class:`WorkerPool` execution, an append-only on-disk
:class:`StudyLedger` journal), and ``plan.collect`` folds the results in
submission order into the study's result type::

    plan = compile_monte_carlo(seeds=[1, 2, 3], hours=0.1)
    result = plan.collect(run_study(plan.study, cache=ResultsCache()))

Fixed seeds stay byte-identical while any study becomes idempotent,
deduplicated, and resumable after a worker or host kill.

CLI: ``repro study run|status|resume`` (see :mod:`repro.studies.specs`
for the JSON study-spec format) and ``repro cache stats|prune``.
"""

from repro.studies.core import Job, Study, StudyPlan
from repro.studies.ledger import (
    DONE,
    FAILED,
    PENDING,
    QUARANTINED,
    RUNNING,
    JobEntry,
    LedgerCorruptError,
    LedgerMismatchError,
    StudyLedger,
)
from repro.studies.runner import StudyInterrupted, StudyRun, run_study
from repro.studies.specs import load_spec, plan_from_spec, validate_spec

__all__ = [
    "DONE",
    "FAILED",
    "PENDING",
    "QUARANTINED",
    "RUNNING",
    "Job",
    "JobEntry",
    "LedgerCorruptError",
    "LedgerMismatchError",
    "Study",
    "StudyInterrupted",
    "StudyLedger",
    "StudyPlan",
    "StudyRun",
    "load_spec",
    "plan_from_spec",
    "run_study",
    "validate_spec",
]
