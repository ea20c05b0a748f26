"""Packet model.

A :class:`Packet` is an L2 frame: destination (unicast name or a multicast
group), optional VLAN tag, and an opaque payload (a gPTP message, a probe, a
probe response). Sizes are carried for completeness; the delay model folds
serialization time into the link delay, as the paper's latency survey does.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional


#: Link-local multicast used by IEEE 802.1AS. Frames to this address are
#: never forwarded by bridges; each hop consumes and regenerates them.
GPTP_MULTICAST = "01:80:C2:00:00:0E"

_packet_ids = itertools.count()


@dataclass(slots=True)
class Packet:
    """One frame in flight.

    Attributes
    ----------
    dst:
        Destination: a device name for unicast, a multicast group name, or
        :data:`GPTP_MULTICAST` for link-local gPTP frames.
    src:
        Name of the originating device.
    payload:
        Opaque upper-layer message.
    vlan:
        Optional VLAN id; switches flood VLAN multicast only to member ports.
    size_bytes:
        Frame size (bookkeeping only).
    packet_id:
        Unique id for tracing.
    hops:
        Incremented at each switch traversal (diagnostics, path assertions).
    """

    dst: str
    src: str
    payload: Any
    vlan: Optional[int] = None
    size_bytes: int = 128
    packet_id: int = field(default_factory=_packet_ids.__next__)
    hops: int = 0

    def is_gptp(self) -> bool:
        """Whether this is a link-local gPTP frame."""
        return self.dst == GPTP_MULTICAST

    def is_multicast(self) -> bool:
        """Whether this frame targets a multicast group (incl. gPTP)."""
        return self.dst == GPTP_MULTICAST or self.dst.startswith("mcast:")

    def copy_for_forwarding(self) -> "Packet":
        """Clone for fan-out so per-branch mutation stays isolated."""
        return Packet(
            dst=self.dst,
            src=self.src,
            payload=self.payload,
            vlan=self.vlan,
            size_bytes=self.size_bytes,
            hops=self.hops,
        )
