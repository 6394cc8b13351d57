"""Per-link ledger bookkeeping shared by every NoC backend.

Each directed mesh link is represented by one lazily-created
:class:`~repro.sim.stats.BusyTracker`.  This base class owns that map
and implements the protocol members that are pure bookkeeping — fault
blackouts (:meth:`reserve_link`), wedge detection
(:meth:`stalled_links`), utilization reporting, and the observability
listener hook — so the backends differ only in how
:meth:`~repro.noc.model.NocModel.delivery_time` spends time on those
ledgers (FIFO reservations, flit simulation, or a closed form).

It also owns the one per-message memo every backend's
``delivery_time`` starts from (:meth:`_message`): message shapes repeat
endlessly in a simulation (the same feature sizes over the same
routes), so validation, routing, the flit count and the timing addends
are computed once per ``(src, dst, size_bytes)``, and the route is kept
as the tuple of link trackers it crosses.  Each entry also tallies the
messages of its shape; the four protocol counters are derived from
those tallies when read (see :mod:`repro.sim.stats`).
"""

from __future__ import annotations

from repro.noc.config import NocConfig, NOC_CONFIG
from repro.noc.model import TrackerListener
from repro.noc.topology import Coord, Mesh
from repro.sim.stats import BusyTracker, StatSet

#: Memo entry of one message shape, in this order: the route's link
#: trackers, flits, serialization ns (flits * cycle), per-hop ns
#: (hop_cycles * cycle), tail ns ((flits - 1) * cycle), payload bytes
#: (never negative), flit-hops (flits * route length), and the number of
#: messages of this shape so far.  A list, so the tally updates in place.
MessageTerms = list

#: The message counters, in the order the first message inserts them.
COUNTER_KEYS = ("packets", "flits", "bytes", "flit_hops")


class LinkLedgerBase:
    """Directed-link tracker map plus the bookkeeping protocol members.

    All times are in nanoseconds so subclasses plug directly into the
    event-driven accelerator simulation.
    """

    def __init__(self, mesh: Mesh, config: NocConfig = NOC_CONFIG) -> None:
        self.mesh = mesh
        self.config = config
        self._links: dict[tuple[Coord, Coord], BusyTracker] = {}
        self._tracker_listener: TrackerListener | None = None
        self._messages: dict[tuple[Coord, Coord, int], MessageTerms] = {}
        self.stats = StatSet(self._tallies)

    def _link(self, src: Coord, dst: Coord) -> BusyTracker:
        key = (src, dst)
        tracker = self._links.get(key)
        if tracker is None:
            tracker = BusyTracker()
            self._links[key] = tracker
            if self._tracker_listener is not None:
                self._tracker_listener(key, tracker)
        return tracker

    def _message(
        self, src: Coord, dst: Coord, size_bytes: int
    ) -> MessageTerms:
        """The memoized :data:`MessageTerms` of one message, counted.

        Adds the message to its shape's tally, from which the four
        protocol counters (``packets``, ``flits``, ``bytes``,
        ``flit_hops``) are derived whenever :attr:`stats` is read.
        Nodes are validated and the route is built only on a miss; a
        failure is never memoized, so an invalid node raises on every
        call.  Route trackers are created through :meth:`_link` in route
        order, which keeps link creation order and listener callbacks
        exactly as a per-hop walk would.  The counter keys are declared
        on a miss, so they exist from the first message on, as live
        counting would insert them.
        """
        terms = self._messages.get((src, dst, size_bytes))
        if terms is None:
            mesh = self.mesh
            mesh.validate_node(src)
            mesh.validate_node(dst)
            config = self.config
            cycle = config.cycle_ns
            flits = config.flits_for(size_bytes)
            trackers = tuple(
                self._link(*link) for link in mesh.route_links(src, dst)
            )
            terms = [
                trackers,
                flits,
                flits * cycle,
                config.hop_cycles * cycle,
                (flits - 1) * cycle,
                max(size_bytes, 0),
                flits * len(trackers),
                0,
            ]
            self._messages[(src, dst, size_bytes)] = terms
            self.stats.declare(COUNTER_KEYS)
        terms[7] += 1
        return terms

    def _tallies(self) -> dict[str, int]:
        """The message counters, derived from the per-shape tallies."""
        packets = flits = payload = flit_hops = 0
        for terms in self._messages.values():
            count = terms[7]
            packets += count
            flits += count * terms[1]
            payload += count * terms[5]
            flit_hops += count * terms[6]
        return {"packets": packets, "flits": flits, "bytes": payload,
                "flit_hops": flit_hops}

    def attach_tracker_listener(self, listener: TrackerListener) -> None:
        """Call ``listener(link, tracker)`` for every directed link.

        Links are created lazily on first use, so the observability layer
        cannot enumerate them up front; the listener fires immediately for
        links that already exist and again whenever a new one appears.
        Costs one ``is not None`` check per link *creation* (not per
        packet) when nothing is attached.
        """
        if self._tracker_listener is not None:
            raise RuntimeError("a tracker listener is already attached")
        self._tracker_listener = listener
        for key, tracker in self._links.items():
            listener(key, tracker)

    @property
    def links_used(self) -> int:
        """Number of directed links that carried at least one packet."""
        return len(self._links)

    def reserve_link(
        self, src: Coord, dst: Coord, start_ns: float, duration_ns: float
    ) -> None:
        """Occupy one directed link for a blackout interval.

        Fault-injection hook: packets routed over the link after the
        reservation are delayed behind it, exactly as if the router were
        wedged for ``duration_ns``.  ``src`` and ``dst`` must be
        adjacent (torus wraparound neighbours included): any other pair
        is not a link, and reserving it would invent one.
        """
        mesh = self.mesh
        mesh.validate_node(src)
        mesh.validate_node(dst)
        if dst not in mesh.neighbors(src):
            raise ValueError(
                f"{src} -> {dst} is not a link: the nodes are not adjacent"
            )
        self._link(src, dst).occupy(start_ns, duration_ns)

    def stalled_links(
        self, now_ns: float, horizon_ns: float
    ) -> list[tuple[tuple[Coord, Coord], float]]:
        """Directed links reserved further than ``horizon_ns`` past ``now_ns``.

        A link busy that far into the future is wedged, not contended —
        used by watchdog diagnoses to name the stuck component.
        """
        return [
            (link, tracker.busy_until)
            for link, tracker in self._links.items()
            if tracker.busy_until > now_ns + horizon_ns
        ]

    def link_utilization(
        self, elapsed_ns: float
    ) -> dict[tuple[Coord, Coord], float]:
        """Busy fraction of every used link over ``elapsed_ns``."""
        return {
            link: tracker.utilization(elapsed_ns)
            for link, tracker in self._links.items()
        }

    def max_link_utilization(self, elapsed_ns: float) -> float:
        """Utilization of the hottest link (0.0 if nothing was sent)."""
        if not self._links:
            return 0.0
        return max(self.link_utilization(elapsed_ns).values())
