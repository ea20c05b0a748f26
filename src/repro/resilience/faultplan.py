"""Deterministic infra fault plans: *what* breaks, *where*, and *when*.

A :class:`FaultPlan` is a schema-versioned, JSON-round-trippable spec that
injects failures into the experiment *harness* (not the simulated
protocol — chaos plans already cover that). Each :class:`FaultPoint`
names one of the instrumented seams, a failure mode, and a firing rule:
either a seeded-RNG probability per call or a fixed list of 1-based call
numbers. The same plan with the same seed always fires the same faults at
the same calls, which is what makes harness-chaos campaigns reproducible
and their byte-identical acceptance checks meaningful.

Seams (see EXPERIMENTS.md "Infra failure model" for the full table):

``cache.get``     read of one job-result store entry
``cache.put``     atomic write of one store entry
``ledger.flush``  append to, or compaction of, the study journal
``ledger.load``   read of the study ledger
``worker.exec``   launch of one WorkerPool worker attempt
``job.fn``        in-process execution of one job (serial executor)

Modes: ``crash`` (process death, raised as the BaseException
:class:`repro.resilience.injector.InjectedCrash`), ``hang`` (sleep past
the watchdog), ``oserror`` / ``enospc`` (an ``OSError`` with EIO/ENOSPC,
so production error handlers engage), ``torn_write`` (truncate the target
file at a byte offset), ``bit_flip`` (flip one bit of the target file),
and ``error`` (a deterministic task exception, ``job.fn`` only).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

#: Bump when the plan JSON shape changes.
FAULT_PLAN_SCHEMA_VERSION = 1

#: Every instrumented seam, in hook order.
SEAMS = (
    "cache.get",
    "cache.put",
    "ledger.flush",
    "ledger.load",
    "worker.exec",
    "job.fn",
)

#: Every failure mode any seam understands.
MODES = ("crash", "hang", "oserror", "enospc", "torn_write", "bit_flip",
         "error")

#: Which modes make sense at which seam. File-corruption modes need a
#: file under the seam; ``error`` simulates a flaky task function;
#: ``hang`` needs a watchdog (worker) or a caller that tolerates sleep.
SEAM_MODES: Dict[str, Tuple[str, ...]] = {
    "cache.get": ("crash", "oserror", "torn_write", "bit_flip"),
    "cache.put": ("crash", "oserror", "enospc", "torn_write", "bit_flip"),
    "ledger.flush": ("crash", "oserror", "enospc", "torn_write", "bit_flip"),
    "ledger.load": ("crash", "oserror", "torn_write", "bit_flip"),
    "worker.exec": ("crash", "hang", "oserror", "enospc"),
    "job.fn": ("crash", "hang", "error"),
}


@dataclass(frozen=True)
class FaultPoint:
    """One injected failure: a seam, a mode, and a firing rule.

    Fires on call ``n`` (1-based, counted per seam across the injector's
    lifetime) when ``n in trigger_calls``, or — when ``trigger_calls`` is
    empty — when the point's private seeded RNG draws below
    ``probability``. ``max_fires`` bounds total fires (``None`` =
    unbounded).
    """

    seam: str
    mode: str
    probability: float = 0.0
    trigger_calls: Tuple[int, ...] = ()
    max_fires: Optional[int] = None
    #: Byte offset for ``torn_write`` truncation (clamped to the file).
    torn_offset: int = 16
    #: Sleep seconds for ``hang``.
    hang_s: float = 30.0
    label: str = ""

    def __post_init__(self) -> None:
        if self.seam not in SEAMS:
            raise ValueError(
                f"unknown seam {self.seam!r}; expected one of {SEAMS}"
            )
        if self.mode not in MODES:
            raise ValueError(
                f"unknown mode {self.mode!r}; expected one of {MODES}"
            )
        if self.mode not in SEAM_MODES[self.seam]:
            raise ValueError(
                f"mode {self.mode!r} is not valid at seam {self.seam!r} "
                f"(valid: {SEAM_MODES[self.seam]})"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if not self.trigger_calls and self.probability == 0.0:
            raise ValueError(
                "a fault point needs trigger_calls or probability > 0"
            )
        if any(n < 1 for n in self.trigger_calls):
            raise ValueError("trigger_calls are 1-based (>= 1)")
        if self.max_fires is not None and self.max_fires < 1:
            raise ValueError(f"max_fires must be >= 1, got {self.max_fires}")
        if self.torn_offset < 0:
            raise ValueError(f"torn_offset must be >= 0, got {self.torn_offset}")
        if self.hang_s < 0:
            raise ValueError(f"hang_s must be >= 0, got {self.hang_s}")
        object.__setattr__(self, "trigger_calls",
                           tuple(sorted(self.trigger_calls)))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seam": self.seam,
            "mode": self.mode,
            "probability": self.probability,
            "trigger_calls": list(self.trigger_calls),
            "max_fires": self.max_fires,
            "torn_offset": self.torn_offset,
            "hang_s": self.hang_s,
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "FaultPoint":
        return cls(
            seam=doc["seam"],
            mode=doc["mode"],
            probability=float(doc.get("probability", 0.0)),
            trigger_calls=tuple(doc.get("trigger_calls", ())),
            max_fires=doc.get("max_fires"),
            torn_offset=int(doc.get("torn_offset", 16)),
            hang_s=float(doc.get("hang_s", 30.0)),
            label=doc.get("label", ""),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded set of fault points.

    >>> plan = FaultPlan(name="demo", seed=7, points=(
    ...     FaultPoint(seam="cache.put", mode="torn_write",
    ...                trigger_calls=(1,)),
    ... ))
    >>> FaultPlan.from_dict(plan.to_dict()) == plan
    True
    """

    name: str
    seed: int = 0
    points: Tuple[FaultPoint, ...] = ()
    schema_version: int = FAULT_PLAN_SCHEMA_VERSION

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a fault plan needs a name")
        if self.schema_version != FAULT_PLAN_SCHEMA_VERSION:
            raise ValueError(
                f"fault plan schema {self.schema_version!r} unsupported "
                f"(expected {FAULT_PLAN_SCHEMA_VERSION})"
            )
        object.__setattr__(self, "points", tuple(self.points))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "name": self.name,
            "seed": self.seed,
            "points": [p.to_dict() for p in self.points],
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "FaultPlan":
        return cls(
            name=doc["name"],
            seed=int(doc.get("seed", 0)),
            points=tuple(FaultPoint.from_dict(p)
                         for p in doc.get("points", ())),
            schema_version=int(
                doc.get("schema_version", FAULT_PLAN_SCHEMA_VERSION)
            ),
        )


def load_fault_plan(path: str) -> FaultPlan:
    """Read and validate a fault-plan JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"fault plan {path!r} is not a JSON object")
    return FaultPlan.from_dict(doc)


def dump_fault_plan(plan: FaultPlan, path: str) -> None:
    """Write a plan back out (round-trips through ``load_fault_plan``)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(plan.to_dict(), fh, indent=1)
        fh.write("\n")


# ----------------------------------------------------------------------
# Randomized campaigns (the crashmonkey-style acceptance generator)
# ----------------------------------------------------------------------
#: The pool of candidate faults a randomized campaign draws from. Every
#: candidate is safe for a *serial* study loop: no hangs (nothing would
#: time them out in-process) and no ledger.load faults (the scheduler
#: never reloads mid-run). Probabilities are chosen so a handful of
#: resume rounds converges with high likelihood.
_CAMPAIGN_CANDIDATES = (
    ("cache.put", "torn_write", 0.35),
    ("cache.put", "bit_flip", 0.30),
    ("cache.get", "torn_write", 0.25),
    ("cache.get", "bit_flip", 0.25),
    ("ledger.flush", "torn_write", 0.15),
    ("job.fn", "error", 0.30),
    ("job.fn", "crash", 0.20),
)


def random_fault_campaign(seed: int, max_points: int = 4) -> FaultPlan:
    """A seeded random harness-chaos campaign over the safe seam/mode pool.

    Deterministic: the same seed always yields the same plan. Used by the
    crashmonkey acceptance suite (seeds 1/21/42) and the nightly CI
    fault-campaign job.
    """
    rng = random.Random(seed)
    count = rng.randint(2, max(2, max_points))
    picks = rng.sample(_CAMPAIGN_CANDIDATES, k=min(count,
                                                   len(_CAMPAIGN_CANDIDATES)))
    points = []
    for seam, mode, base_p in picks:
        probability = round(base_p * rng.uniform(0.5, 1.0), 3)
        points.append(FaultPoint(
            seam=seam,
            mode=mode,
            probability=max(probability, 0.05),
            torn_offset=rng.randint(4, 64),
            label=f"campaign-{seed}:{seam}:{mode}",
        ))
    return FaultPlan(name=f"campaign-{seed}", seed=seed,
                     points=tuple(points))
