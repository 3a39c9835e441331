"""Struct-of-arrays state for the batched packet engine.

The reference engine (:mod:`repro.sim.packet.reference`) keeps one Python
``_Packet`` object per packet and a global ``heapq`` of events.  The SoA
engine replaces both:

* :class:`PacketArrays` — every per-packet field lives in one ``int64``
  NumPy column keyed by packet slot (``src/dest/router/vc/in_link/
  intermediate/birth/hops/retries``), so the engine gathers a cycle's
  whole arrival batch in one fancy-indexed pass per column, and
  :func:`repro.sim.packet.kernel.record_sends` scatters the cycle's sends
  back, instead of touching attributes one packet at a time.
* :class:`LinkState` — per-link mirrors (credits, serialization state,
  FIFO queues, wake dedup flags) kept as plain Python lists.  The
  dispatch/credit interleave is order-sensitive and runs element-at-a-time
  inside one cycle, where CPython list indexing is several times cheaper
  than NumPy scalar indexing; :meth:`LinkState.busy_array` converts back
  to an array for the bulk metrics flush.
* :func:`make_buckets` — the cycle-bucketed event queue.  All event times
  are integers and the reference heap orders by ``(time, kind, seq)`` with
  ``FAULT < ARRIVE < WAKE``; per-cycle append-order lists per kind
  reproduce that order exactly (appends happen in ``seq`` order, and the
  only same-cycle pushes made while a cycle is being processed are wakes,
  which the reference heap also serves after that cycle's arrivals).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "LinkState",
    "PacketArrays",
    "build_link_id_table",
    "make_buckets",
]


class PacketArrays:
    """Columnar packet state: one ``int64`` array per ``_Packet`` field.

    ``_Packet.enq`` has no column: the cycle a packet joined its output
    queue travels in the waiting-queue entry (see :class:`LinkState`).
    """

    __slots__ = (
        "n", "src", "dest", "router", "vc", "in_link", "intermediate",
        "birth", "hops", "retries",
    )

    def __init__(self, src, dest, birth) -> None:
        self.src = np.asarray(src, dtype=np.int64)
        self.dest = np.asarray(dest, dtype=np.int64)
        self.birth = np.asarray(birth, dtype=np.int64)
        n = int(self.src.shape[0])
        self.n = n
        self.router = self.src.copy()
        self.vc = np.zeros(n, dtype=np.int64)
        self.in_link = np.full(n, -1, dtype=np.int64)
        self.intermediate = np.full(n, -1, dtype=np.int64)
        self.hops = np.zeros(n, dtype=np.int64)
        self.retries = np.zeros(n, dtype=np.int64)


class LinkState:
    """Per-link hot state as plain-list mirrors (see module docstring)."""

    __slots__ = (
        "num_links", "ends_v", "link_free", "link_busy", "link_ok",
        "link_ser", "credits", "waiting", "wake_scheduled", "escape_at",
        "health_pos",
    )

    def __init__(self, ends, packet_size: int, num_vcs: int, buffer_packets: int):
        m = len(ends)
        self.num_links = m
        self.ends_v = [int(v) for (_, v) in ends]
        self.link_free = [0] * m
        self.link_busy = [0] * m
        self.link_ok = [True] * m
        self.link_ser = [packet_size] * m
        #: Flat ``(link, vc)`` credit counters: index ``lid * num_vcs + vc``.
        self.credits = [buffer_packets] * (m * num_vcs)
        #: FIFO output queues of ``(pid, vc, in_link, enq)`` tuples — the
        #: three packet fields the dispatch loop reads are captured as
        #: plain ints at enqueue time so sends never touch the arrays.
        self.waiting: list[list[tuple[int, int, int, int]]] = [[] for _ in range(m)]
        self.wake_scheduled = [False] * m
        self.escape_at = [-1] * m
        #: CSR entry of every link in the health mask (set on first refresh).
        self.health_pos: np.ndarray | None = None

    def refresh_health(self, ends, packet_size: int, health) -> None:
        """Re-derive ``link_ok`` / ``link_ser`` from the shared health mask
        (run start with a pre-degraded mask, and after every fault event)
        with whole-array gathers; the lists are updated in place."""
        if self.health_pos is None:
            e = np.asarray(ends, dtype=np.int64).reshape(-1, 2)
            self.health_pos = health.entry_positions(e[:, 0], e[:, 1])
        ok, factor = health.entry_state(self.health_pos)
        self.link_ok[:] = ok.tolist()
        self.link_ser[:] = np.ceil(packet_size * factor).astype(np.int64).tolist()

    def busy_array(self) -> np.ndarray:
        return np.asarray(self.link_busy, dtype=np.int64)


def build_link_id_table(n: int, link_id: dict[tuple[int, int], int]) -> np.ndarray:
    """Dense ``(n, n)`` int32 link-id matrix (``-1`` for non-edges) so the
    engine resolves ``(router, next_hop) -> lid`` by indexing, not a dict."""
    tab = np.full((n, n), -1, dtype=np.int32)
    for (u, v), lid in link_id.items():
        tab[u, v] = lid
    tab.setflags(write=False)
    return tab


def make_buckets(end_time: int) -> list[list[int]]:
    """One empty event list per cycle ``0..end_time``, so a push is one
    ``append``.  Events past the last bucket are never enqueued — the
    reference loop stops at the first popped event beyond ``end_time``,
    which (heap order) discards exactly the same set."""
    return [[] for _ in range(end_time + 1)]
