"""The FTSHMEM user-space shared memory region.

§II-B: a shared region between the M ptp4l processes of one clock
synchronization VM holding

* the latest M grandmaster offsets,
* an array of M booleans — whether each GM's offset is within a
  configurable threshold of the remaining GMs',
* ``adjust_last`` — when the NIC's frequency was last adjusted, and
* the state of the single shared PI controller.

In the simulation the M "processes" are method calls on one object, so the
region is a plain data structure; the semantics (last-writer-wins per
domain, one shared gate and servo) are what matter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.gptp.instance import OffsetSample
from repro.gptp.servo import PiServo


@dataclass(slots=True)
class StoredOffset:
    """One domain's slot in FTSHMEM.

    A value object: treat as immutable. One is created per offset store
    (the hottest allocation of the aggregation path), so it is not frozen
    — frozen dataclass construction routes every field through
    ``object.__setattr__``.
    """

    sample: OffsetSample
    stored_at: int  # local PHC time of the store

    @property
    def offset(self) -> float:
        """The GM offset, ns."""
        return self.sample.offset

    def age(self, now: int) -> int:
        """Nanoseconds since this slot was written (local PHC timescale)."""
        return now - self.stored_at


class FtShmem:
    """The shared region proper."""

    def __init__(self, domains: list, servo: PiServo) -> None:
        self.domains = list(domains)
        self.offsets: Dict[int, StoredOffset] = {}
        self.valid: Dict[int, bool] = {d: False for d in self.domains}
        self.adjust_last: Optional[int] = None
        self.servo = servo  # the PI controller state of §II-B
        self.stores = 0

    def store(self, sample: OffsetSample, now: int) -> None:
        """Write one domain's latest offset (last writer wins)."""
        if sample.domain not in self.valid:
            raise KeyError(f"domain {sample.domain} not part of this region")
        self.offsets[sample.domain] = StoredOffset(sample, now)
        self.stores += 1

    def fresh_offsets(self, now: int, staleness: int) -> Dict[int, StoredOffset]:
        """Slots younger than ``staleness`` ns (excludes fail-silent GMs).

        The boundary is exclusive: a slot of age exactly ``staleness`` is
        already stale, matching the :meth:`StoredOffset.age`-based call
        sites that compare ``age(now) < staleness``.
        """
        cutoff = now - staleness  # age(now) < staleness, without the call
        return {
            d: slot
            for d, slot in self.offsets.items()
            if slot.stored_at > cutoff
        }

    def gate_open(self, now: int, sync_interval: int) -> bool:
        """The paper's eq. 2.1: ``adjust_last + S <= now``."""
        return self.adjust_last is None or self.adjust_last + sync_interval <= now

    def close_gate(self, now: int) -> None:
        """Record the adjustment instant."""
        self.adjust_last = now

    def reset(self) -> None:
        """Clear all slots (VM reboot wipes the region)."""
        self.offsets.clear()
        self.valid = {d: False for d in self.domains}
        self.adjust_last = None
        self.stores = 0
        self.servo.reset()
