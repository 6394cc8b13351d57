"""Packet-granularity NoC contention model.

The whole-benchmark accelerator simulations move millions of flits; a
flit-level model in Python would be intractable at Pubmed scale.  This
model keeps the Table IV timing (per-hop routing + link latency, 64B
flits, one flit per link per cycle) but resolves contention per *packet*:
every directed mesh link is a serialized resource that a packet occupies
for its serialization time, and overlapping packets queue FIFO.

Pipelining is preserved: a packet's head proceeds hop by hop while its
tail is still serializing, so the zero-load latency matches the wormhole
model: ``hops * hop_cycles + (flits - 1)`` cycles.

Per message the model does one dict lookup in the shared message memo
(:meth:`~repro.noc.links.LinkLedgerBase._message`, which holds the
route as a tuple of link trackers plus every timing term derivable from
``(src, dst, size_bytes)``, and counts the message in that shape's
tally, from which the message counters are derived), and one
:func:`~repro.sim.stats.reserve_path` walk over those trackers —
validation and XY routing run only the first time a message shape is
seen.

This is the default :class:`~repro.noc.model.NocModel` backend
(``"packet"`` in :mod:`repro.noc.backends`); the link bookkeeping —
fault blackouts, stalled-link diagnosis, utilization reporting, the
observability listener — lives in the shared
:class:`~repro.noc.links.LinkLedgerBase`.
"""

from __future__ import annotations

from repro.noc.links import LinkLedgerBase
from repro.noc.topology import Coord
from repro.sim.stats import reserve_path


class PacketNetwork(LinkLedgerBase):
    """Fast contention model over a 2D mesh.

    All times are in nanoseconds so the model plugs directly into the
    event-driven accelerator simulation.
    """

    def delivery_time(
        self,
        src: Coord,
        dst: Coord,
        size_bytes: int,
        start_ns: float,
    ) -> float:
        """Time at which the packet's tail arrives at ``dst``.

        Reserves serialization time on every XY-route link, so later
        packets crossing the same links queue behind this one.
        """
        trackers, _, serialization, hop, tail, _, _, _ = self._message(
            src, dst, size_bytes
        )
        if not trackers:
            # Local delivery through the tile crossbar: one routing pass.
            config = self.config
            return start_ns + config.routing_delay_cycles * config.cycle_ns
        # The head flit crosses each hop as soon as the link grants it;
        # the tail follows the head by the remaining serialization time.
        return reserve_path(trackers, start_ns, serialization, hop) + tail
