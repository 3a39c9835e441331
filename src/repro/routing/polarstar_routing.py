"""Analytic minimal routing for star-product networks (§9.2).

The router computes every minimal path from the star-product structure
instead of global tables.  Stored state (the paper's selling point over the
SF/BF routing tables):

* structure-graph tables: adjacency, one 2-walk *middle* witness per vertex
  pair (``O(n_s²)`` for ``n_s = q²+q+1`` supernodes — not ``O(n²)`` routers),
* supernode-local tables: adjacency, the bijection *f*, and intra-supernode
  next-hop tables of size ``O(n'²)`` (``n' = 2d'+2``).

Routing case analysis (source ``(c, c')``, destination ``(t, t')``):

* **same supernode** — route intra-supernode (quadric supernodes also have
  the ``f``-matching edges) unless a neighbor detour
  ``(c,c') → (a, g c') → (a, g t') → (c, t')`` is shorter;
* **adjacent supernodes** — the four R*/R_1 cases of §9.2: the direct cross
  edge, cross-then-intra, intra-then-cross, or an alternating 2-walk via a
  structure middle (Property R guarantees one for *every* pair, including
  adjacent ones);
* **non-adjacent supernodes** — hop to the 2-walk middle, then the adjacent
  case finishes in ≤ 2 more hops (Theorems 4/5 give diameter 3).

Both involution supernodes (IQ, Theorem 4) and R_1 supernodes (Paley,
Theorem 5 — where crossing an arc forward applies ``f`` and backward
``f⁻¹``) are supported.  Tests verify path lengths against a BFS oracle on
every vertex pair of several PolarStar instances.
"""

from __future__ import annotations

import numpy as np

from repro.core.star_product import StarProduct
from repro.graphs.base import Graph
from repro.routing.base import Router

__all__ = [
    "PolarStarRouter",
]


def _dense_adj(graph: Graph, aug_diag: bool = False) -> np.ndarray:
    a = np.zeros((graph.n, graph.n), dtype=bool)
    e = graph.edge_array
    if len(e):
        a[e[:, 0], e[:, 1]] = True
        a[e[:, 1], e[:, 0]] = True
    if aug_diag and len(graph.self_loops):
        a[graph.self_loops, graph.self_loops] = True
    return a


def _bfs_tables(adj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All-pairs (distance, first-hop) tables for a dense boolean adjacency."""
    n = len(adj)
    dist = np.full((n, n), 127, dtype=np.int8)
    nxt = np.full((n, n), -1, dtype=np.int64)
    for s in range(n):
        dist[s, s] = 0
        frontier = [s]
        while frontier:
            new = []
            for u in frontier:
                for v in np.nonzero(adj[u])[0]:
                    if dist[s, v] == 127:
                        dist[s, v] = dist[s, u] + 1
                        nxt[s, v] = v if u == s else nxt[s, u]
                        new.append(int(v))
            frontier = new
    return dist, nxt


class PolarStarRouter(Router):
    """Destination-based analytic minimal routing on a :class:`StarProduct`."""

    def __init__(self, star: StarProduct):
        self.star = star
        self.graph = star.graph
        self.f = star.f
        self.f_inv = star.f_inv
        self.involution = bool(np.array_equal(self.f, self.f_inv))
        self.np_ = star.supernode.n

        s = star.structure
        self.s_adj = _dense_adj(s, aug_diag=False)
        s_aug = _dense_adj(s, aug_diag=True)
        self.quadric = np.zeros(s.n, dtype=bool)
        self.quadric[s.self_loops] = True

        # middle[c, t]: one witness b with c~b~t in the self-loop-augmented
        # structure graph (Property R guarantees existence for every pair).
        self.middle = np.full((s.n, s.n), -1, dtype=np.int64)
        for c in range(s.n):
            reach = s_aug[c][:, None] & s_aug  # reach[b, t]
            found = reach.any(axis=0)
            self.middle[c, found] = np.argmax(reach, axis=0)[found]

        # A lowest / highest structure neighbor per vertex, for directed
        # detours in the R_1 (non-involution) case.
        self.lo_nbr = np.full(s.n, -1, dtype=np.int64)
        self.hi_nbr = np.full(s.n, -1, dtype=np.int64)
        for v in range(s.n):
            nbrs = s.neighbors(v)
            if len(nbrs):
                self.lo_nbr[v] = nbrs[0] if nbrs[0] < v else -1
                self.hi_nbr[v] = nbrs[-1] if nbrs[-1] > v else -1

        # Supernode tables: plain, and augmented with the f-matching edges
        # that quadric supernodes carry.
        self.sn_adj = _dense_adj(star.supernode)
        self.intra_dist_plain, self.intra_next_plain = _bfs_tables(self.sn_adj)
        aug = self.sn_adj.copy()
        ids = np.arange(self.np_)
        moved = ids[self.f != ids]
        aug[moved, self.f[moved]] = True
        aug[self.f[moved], moved] = True
        self.intra_dist_aug, self.intra_next_aug = _bfs_tables(aug)

    # -- primitive moves -------------------------------------------------------

    def _cross(self, c: int, t: int, xp: int) -> int:
        """Supernode coordinate after crossing the structure edge {c, t}
        starting from c (forward arcs apply f, backward f⁻¹)."""
        return int(self.f[xp]) if c < t else int(self.f_inv[xp])

    def _cross_pre(self, c: int, t: int, tp: int) -> int:
        """Coordinate z' with ``cross(c, t, z') == tp``."""
        return int(self.f_inv[tp]) if c < t else int(self.f[tp])

    def _intra(self, c: int) -> tuple[np.ndarray, np.ndarray]:
        if self.quadric[c]:
            return self.intra_dist_aug, self.intra_next_aug
        return self.intra_dist_plain, self.intra_next_plain

    # -- distance (closed form; oracle-verified in tests) ----------------------

    def distance(self, current: int, dest: int) -> int:
        c, cp = self.star.split(current)
        t, tp = self.star.split(dest)
        if c == t:
            if cp == tp:
                return 0
            d, _ = self._intra(c)
            return min(int(d[cp, tp]), 3)
        if self.s_adj[c, t]:
            return 1 if tp == self._cross(c, t, cp) else (2 if self._adjacent_two_hop(c, cp, t, tp) else 3)
        return 2 if self._nonadjacent_two_hop(c, cp, t, tp) is not None else 3

    def _adjacent_two_hop(self, c, cp, t, tp) -> bool:
        img = self._cross(c, t, cp)
        if self.sn_adj[img, tp] or self.sn_adj[cp, self._cross_pre(c, t, tp)]:
            return True
        # Alternating 2-walk through a structure middle (case b).
        return self._walk_two_hop(c, cp, t, tp)

    def _walk_two_hop(self, c, cp, t, tp) -> bool:
        if self.involution:
            return tp == cp and self.middle[c, t] >= 0
        b = int(self.middle[c, t])
        if b < 0:
            return False
        for b2 in self._middle_candidates(c, t):
            if self._walk_landing_matches(c, cp, b2, t, tp):
                return True
        return False

    def _middle_candidates(self, c, t):
        # Unique in ER for non-adjacent pairs; cheap scan keeps generality.
        b = int(self.middle[c, t])
        return [b] if b >= 0 else []

    def _walk_landing_matches(self, c, cp, b, t, tp) -> bool:
        for first in self._walk_first_images(c, b, cp):
            for final in self._walk_first_images(b, t, first):
                if final == tp:
                    return True
        return False

    def _walk_first_images(self, c: int, b: int, xp: int) -> list[int]:
        """Possible supernode coordinates after traversing the walk step
        c -> b (a self-loop step uses the matching edge, either direction)."""
        if b == c:
            imgs = {int(self.f[xp]), int(self.f_inv[xp])}
            imgs.discard(xp)
            return sorted(imgs)
        return [self._cross(c, b, xp)]

    def _nonadjacent_two_hop(self, c, cp, t, tp) -> int | None:
        """Return a middle b giving a 2-hop path, else None."""
        b = int(self.middle[c, t])
        if b < 0:
            return None
        if self._cross(b, t, self._cross(c, b, cp)) == tp:
            return b
        return None

    # -- next hop ----------------------------------------------------------------

    def next_hops(self, current: int, dest: int) -> list[int]:
        if current == dest:
            return []
        return [self._next_hop(current, dest)]

    def all_minimal_hops(self, current: int, dest: int) -> list[int]:
        """Every neighbor on some minimal path (one-step lookahead with the
        analytic distance).  Costs O(radix) distance evaluations — used by
        the path-diversity ablation; plain ``next_hops`` stays single-path
        as in §9.2."""
        if current == dest:
            return []
        d = self.distance(current, dest)
        return [
            int(v)
            for v in self.graph.neighbors(current)
            if self.distance(int(v), dest) == d - 1
        ]

    def _next_hop(self, current: int, dest: int) -> int:
        star = self.star
        c, cp = star.split(current)
        t, tp = star.split(dest)

        if c == t:
            return self._same_supernode_hop(c, cp, tp)

        if self.s_adj[c, t]:
            img = self._cross(c, t, cp)
            if tp == img or self.sn_adj[img, tp]:
                return star.node_id(t, img)  # direct cross / cross-then-intra
            z = self._cross_pre(c, t, tp)
            if self.sn_adj[cp, z]:
                return star.node_id(c, z)  # intra-then-cross
            # Case (b): alternating 2-walk via a structure middle.
            b = int(self.middle[c, t])
            if b == c:
                # quadric self-loop at c: matching edge first
                return star.node_id(c, self._matching_step(cp))
            return star.node_id(b, self._cross(c, b, cp))

        # Non-adjacent supernodes: go to the 2-walk middle.
        b = self._nonadjacent_two_hop(c, cp, t, tp)
        if b is None:
            b = int(self.middle[c, t])
        return star.node_id(b, self._cross(c, b, cp))

    def next_hop_many(self, cur: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Whole-array :meth:`_next_hop`: the same §9.2 case analysis as
        masks over the structure and supernode tables, ``-1`` where
        ``cur == dst``.  Each case is evaluated only on its own pairs;
        within a case, later ``np.where`` layers take precedence, so the
        scalar rule's checks appear in reverse order."""
        cur = np.asarray(cur, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        npr = self.np_
        f, f_inv = self.f, self.f_inv
        c, cp = np.divmod(cur, npr)
        t, tp = np.divmod(dst, npr)

        # Non-adjacent supernodes: step to the structure 2-walk middle.
        b = self.middle[c, t]
        out = b * npr + np.where(c < b, f[cp], f_inv[cp])

        # Adjacent supernodes: direct cross / cross-then-intra, else
        # intra-then-cross, else the middle (a self-loop middle b == c
        # takes the matching edge first).
        i = np.flatnonzero(self.s_adj[c, t])
        if len(i):
            ci, cpi, ti, tpi, bi = c[i], cp[i], t[i], tp[i], b[i]
            fwd = ci < ti
            img = np.where(fwd, f[cpi], f_inv[cpi])
            z = np.where(fwd, f_inv[tpi], f[tpi])
            matching = np.where(f[cpi] != cpi, f[cpi], f_inv[cpi])
            hop = np.where(bi == ci, ci * npr + matching, out[i])
            hop = np.where(self.sn_adj[cpi, z], ci * npr + z, hop)
            crossing = (tpi == img) | self.sn_adj[img, tpi]
            out[i] = np.where(crossing, ti * npr + img, hop)

        # Same supernode: intra route, else (degenerate IQ_0) a detour via
        # the high neighbor, the low neighbor, or any neighbor.
        i = np.flatnonzero(c == t)
        if len(i):
            ci, cpi, tpi = c[i], cp[i], tp[i]
            hi, lo = self.hi_nbr[ci], self.lo_nbr[ci]
            up, down = hi * npr + f[cpi], lo * npr + f_inv[cpi]
            detour = np.where(hi >= 0, up, down)
            detour = np.where((lo >= 0) & self.sn_adj[f_inv[cpi], f_inv[tpi]], down, detour)
            detour = np.where((hi >= 0) & self.sn_adj[f[cpi], f[tpi]], up, detour)
            quad = self.quadric[ci]
            dist = np.where(quad, self.intra_dist_aug[cpi, tpi], self.intra_dist_plain[cpi, tpi])
            nxt = np.where(quad, self.intra_next_aug[cpi, tpi], self.intra_next_plain[cpi, tpi])
            out[i] = np.where(dist <= 3, ci * npr + nxt, detour)
            out[i[cpi == tpi]] = -1
        return out

    def _matching_step(self, xp: int) -> int:
        img = int(self.f[xp])
        return img if img != xp else int(self.f_inv[xp])

    def _same_supernode_hop(self, c: int, cp: int, tp: int) -> int:
        star = self.star
        d, nxt = self._intra(c)
        intra = int(d[cp, tp])
        if intra <= 3:
            return star.node_id(c, int(nxt[cp, tp]))
        # Rare degenerate supernodes (e.g. IQ_0): leave and come back.
        for g, a in ((self.f, int(self.hi_nbr[c])), (self.f_inv, int(self.lo_nbr[c]))):
            if a >= 0 and self.sn_adj[g[cp], g[tp]]:
                return star.node_id(a, int(g[cp]))  # detour via neighbor a
        # f-pair fallback: any neighbor, then the adjacent 2-walk case.
        a = int(self.hi_nbr[c]) if self.hi_nbr[c] >= 0 else int(self.lo_nbr[c])
        return star.node_id(a, self._cross(c, a, cp))

    # -- storage accounting (the §9.3 routing-table comparison) -----------------

    @property
    def table_bytes(self) -> int:
        """Bytes of routing state: structure middles + supernode tables."""
        return (
            self.middle.nbytes
            + self.s_adj.nbytes
            + self.sn_adj.nbytes
            + self.intra_dist_plain.nbytes
            + self.intra_next_plain.nbytes
            + self.intra_dist_aug.nbytes
            + self.intra_next_aug.nbytes
            + self.f.nbytes
        )
