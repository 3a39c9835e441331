"""Live link/node health state for one graph.

:class:`LinkHealth` is the single source of truth the fault-aware router
and the packet simulator share: a boolean mask over the graph's directed
CSR adjacency entries plus a node-alive mask, mutated by applying
:class:`~repro.faults.model.FaultEvent` records in timestamp order.  Every
mutation bumps ``epoch`` — consumers cache routing state keyed by epoch and
invalidate when it moves (see :class:`~repro.faults.router.FaultAwareRouter`).

The mask is CSR-aligned, so the degraded graph is one boolean gather
away: :meth:`LinkHealth.distances_to` compacts the masked adjacency into
its own CSR (built lazily, cached per ``epoch``) and runs one NumPy
frontier BFS for a whole batch of destinations — the masked-distance
kernel behind every fault-aware consumer.
"""

from __future__ import annotations

import numpy as np

from repro.faults.model import FaultEvent, FaultSchedule
from repro.graphs.base import Graph

__all__ = [
    "UNREACHABLE",
    "LinkHealth",
]

#: Distance sentinel for vertices cut off on the healthy subgraph (large
#: enough that cost arithmetic never wraps int64, small enough to add to).
UNREACHABLE = 1 << 30


class LinkHealth:
    """Mutable health mask over one :class:`~repro.graphs.base.Graph`."""

    def __init__(self, graph: Graph):
        if graph.n < 1:
            raise ValueError("LinkHealth needs a non-empty graph")
        self.graph = graph
        #: Monotone state version; bumped by every applied event.
        self.epoch = 0
        # CSR-aligned directed-entry mask (parallel to graph.indices).
        self._edge_ok = np.ones(len(graph.indices), dtype=bool)
        self._node_ok = np.ones(graph.n, dtype=bool)
        self._down_edges: set[tuple[int, int]] = set()
        self._degraded: dict[tuple[int, int], float] = {}
        #: True iff no link or node is down or degraded; kept current by
        #: :meth:`apply` and :meth:`reset` (read on every routing decision).
        self.clean = True
        # Lazily built views of the pristine CSR: the source vertex of
        # every entry, and a (u, v) -> entry map for O(1) is_up lookups
        # (per-hop in the packet simulator).
        self._rows: np.ndarray | None = None
        self._entries: dict[tuple[int, int], int] | None = None
        # The healthy-subgraph CSR (indptr, indices) and its epoch.
        self._masked: tuple[np.ndarray, np.ndarray] | None = None
        self._masked_epoch = -1

    # -- CSR positions -------------------------------------------------------

    def _entry_rows(self) -> np.ndarray:
        """Source vertex of every directed CSR entry (parallel to indices)."""
        if self._rows is None:
            g = self.graph
            self._rows = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(g.indptr))
        return self._rows

    def _entry(self, u: int, v: int) -> int:
        """Position of directed entry (u -> v) in the CSR ``indices`` array."""
        g = self.graph
        nbrs = g.neighbors(u)
        i = int(np.searchsorted(nbrs, v))
        if i >= len(nbrs) or nbrs[i] != v:
            raise ValueError(f"({u}, {v}) is not a link of {g.name!r}")
        return int(g.indptr[u]) + i

    def entry_positions(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`_entry`: CSR positions of entries ``us[i] -> vs[i]``."""
        g = self.graph
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        # Rows are ascending and each row's indices sorted, so row * n + col
        # is a sorted key over all entries.
        keys = self._entry_rows() * g.n + g.indices
        want = us * g.n + vs
        pos = np.searchsorted(keys, want)
        if len(want) and (pos.max() >= len(keys) or (keys[pos] != want).any()):
            raise ValueError(f"a requested pair is not a link of {g.name!r}")
        return pos

    def _set_edge(self, u: int, v: int, up: bool) -> None:
        self._edge_ok[self._entry(u, v)] = up
        self._edge_ok[self._entry(v, u)] = up

    # -- event application ---------------------------------------------------

    def apply(self, event: FaultEvent) -> None:
        """Apply one fault event; bumps ``epoch``.

        ``link_up`` clears both a down and a degraded state; ``node_up``
        restores the node but leaves independently-failed links down.
        """
        if event.is_node_event:
            if not 0 <= event.u < self.graph.n:
                raise ValueError(f"node event names vertex {event.u} outside graph")
            self._node_ok[event.u] = event.kind == "node_up"
        else:
            e = event.edge()
            if event.kind == "link_down":
                self._set_edge(*e, up=False)
                self._down_edges.add(e)
                self._degraded.pop(e, None)
            elif event.kind == "link_up":
                self._set_edge(*e, up=True)
                self._down_edges.discard(e)
                self._degraded.pop(e, None)
            else:  # link_degrade: up, but slow
                self._entry(*e)  # validates the link exists
                self._degraded[e] = float(event.factor)
        self.clean = (
            not self._down_edges and not self._degraded and bool(self._node_ok.all())
        )
        self.epoch += 1

    def apply_schedule(self, schedule: FaultSchedule) -> None:
        """Apply every event of *schedule* in time order (static studies)."""
        for ev in schedule:
            self.apply(ev)

    def reset(self) -> None:
        """Return to the pristine all-up state (bumps ``epoch`` if dirty)."""
        if self.clean:
            return
        self._edge_ok[:] = True
        self._node_ok[:] = True
        self._down_edges.clear()
        self._degraded.clear()
        self.clean = True
        self.epoch += 1

    # -- queries -------------------------------------------------------------

    def node_up(self, v: int) -> bool:
        return bool(self._node_ok[v])

    def is_up(self, u: int, v: int) -> bool:
        """Can a packet traverse the (existing) link u -> v right now?"""
        if self._entries is None:
            rows = self._entry_rows().tolist()
            self._entries = {e: i for i, e in enumerate(zip(rows, self.graph.indices.tolist()))}
        pos = self._entries.get((u, v))
        if pos is None:
            pos = self._entry(u, v)  # raises: not a link
        return bool(self._node_ok[u] and self._node_ok[v] and self._edge_ok[pos])

    def degrade_factor(self, u: int, v: int) -> float:
        """Serialization multiplier for link (u, v); 1.0 when healthy."""
        e = (u, v) if u < v else (v, u)
        return self._degraded.get(e, 1.0)

    def entry_state(self, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Bulk :meth:`is_up` / :meth:`degrade_factor` for the CSR entries
        at *pos* (from :meth:`entry_positions`): a bool and a float64 array."""
        factor = np.ones(len(self._edge_ok))
        for (u, v), f in self._degraded.items():
            factor[self._entry(u, v)] = factor[self._entry(v, u)] = f
        return self._entry_ok()[pos], factor[pos]

    def healthy_neighbors(self, u: int) -> np.ndarray:
        """Neighbors of *u* reachable over currently-up links (sorted)."""
        g = self.graph
        if not self._node_ok[u]:
            return np.empty(0, dtype=np.int64)
        lo, hi = int(g.indptr[u]), int(g.indptr[u + 1])
        nbrs = g.indices[lo:hi]
        return nbrs[self._edge_ok[lo:hi] & self._node_ok[nbrs]]

    def links_down_count(self) -> int:
        """Undirected links currently unusable (down, or touching a down
        node) — the ``faults.links_down`` gauge value."""
        # Each undirected link once: its CSR entry with source < target.
        lower = self._entry_rows() < self.graph.indices
        return int((lower & ~self._entry_ok()).sum())

    def nodes_down_count(self) -> int:
        return int((~self._node_ok).sum())

    # -- derived structures --------------------------------------------------

    def _entry_ok(self) -> np.ndarray:
        """Per CSR entry: is the link up, with both endpoints up?"""
        rows = self._entry_rows()
        return self._edge_ok & self._node_ok[rows] & self._node_ok[self.graph.indices]

    def _masked_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, indices)`` of the healthy subgraph: entries masked by
        ``_edge_ok`` and by ``_node_ok`` on both endpoints.  Built on first
        use after an epoch change, then shared by every BFS of the epoch."""
        if self._masked is not None and self._masked_epoch == self.epoch:
            return self._masked
        g = self.graph
        ok = self._entry_ok()
        indptr = np.zeros(g.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(self._entry_rows()[ok], minlength=g.n), out=indptr[1:])
        self._masked = (indptr, g.indices[ok])
        self._masked_epoch = self.epoch
        return self._masked

    def distances_to(self, dests) -> np.ndarray:
        """Hop distances to each of *dests* over the healthy subgraph.

        Returns a ``(len(dests), n)`` ``int64`` array; row ``i`` holds every
        vertex's distance to ``dests[i]``, with :data:`UNREACHABLE` for
        cut-off vertices (including every down node, and the whole row if
        ``dests[i]`` itself is down).  Links fail bidirectionally, so this
        is also the distance *from* each destination.  One frontier BFS
        runs all rows at once: frontier entries are flat ``row * n + v``
        indices into the result.
        """
        n = self.graph.n
        dests = np.asarray(dests, dtype=np.int64).reshape(-1)
        dist = np.full(len(dests) * n, UNREACHABLE, dtype=np.int64)
        indptr, indices = self._masked_csr()
        live = np.flatnonzero(self._node_ok[dests])
        frontier = live * n + dests[live]
        dist[frontier] = 0
        d = 0
        while len(frontier):
            d += 1
            u = frontier % n
            lo = indptr[u]
            cnt = indptr[u + 1] - lo
            # Expand every frontier vertex's masked CSR row in one gather.
            pos = np.repeat(lo - (np.cumsum(cnt) - cnt), cnt) + np.arange(int(cnt.sum()))
            cand = np.repeat(frontier - u, cnt) + indices[pos]
            frontier = np.unique(cand[dist[cand] == UNREACHABLE])
            dist[frontier] = d
        return dist.reshape(len(dests), n)

    def bfs_from(self, source: int) -> np.ndarray:
        """Hop distances from *source* over the healthy subgraph: the
        single-destination form of :meth:`distances_to`, an ``int64``
        vector with :data:`UNREACHABLE` for cut-off vertices."""
        return self.distances_to((source,))[0]

    def healthy_graph(self) -> Graph:
        """Materialized copy of the graph with down links/nodes removed
        (for static analyses and tests; routing uses the masks directly)."""
        e = self.graph.edge_array
        keep = self._entry_ok()[self.entry_positions(e[:, 0], e[:, 1])]
        loops = [int(v) for v in self.graph.self_loops if self._node_ok[v]]
        return Graph(
            self.graph.n, e[keep], self_loops=loops, name=f"{self.graph.name}~faulty"
        )

    def __repr__(self) -> str:
        return (
            f"LinkHealth({self.graph.name!r}, epoch={self.epoch}, "
            f"links_down={self.links_down_count()}, "
            f"nodes_down={self.nodes_down_count()})"
        )
