"""Every masked-distance path agrees on random fault masks.

The fault layer answers "how far is v from d on the healthy subgraph" in
four ways: the batched kernel (:meth:`LinkHealth.distances_to`), its
single-destination form (:meth:`LinkHealth.bfs_from`), the all-pairs table
of the materialized :meth:`LinkHealth.healthy_graph` (what serve epochs
route on), and :meth:`FaultAwareRouter.distance` (lazy and batched-eager
cache entries).  A scalar BFS kept here as the oracle pins them all on
random link-down, node-down and link-degrade masks, including down
sources and disconnected components.  The same masks pin the vectorized
:meth:`LinkHealth.links_down_count` to its set-based definition.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import store
from repro.faults import FaultAwareRouter, FaultEvent, LinkHealth
from repro.faults.health import UNREACHABLE
from repro.graphs import Graph
from repro.routing import TableRouter
from repro.routing.table import build_distance_table

KINDS = ("link_down", "link_down", "link_up", "node_down", "node_up", "link_degrade")


def oracle_bfs(health: LinkHealth, source: int) -> np.ndarray:
    """Scalar BFS over the health masks: one Python step per vertex."""
    g = health.graph
    dist = np.full(g.n, UNREACHABLE, dtype=np.int64)
    if not health._node_ok[source]:
        return dist
    dist[source] = 0
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        nxt: list[int] = []
        for u in frontier:
            lo, hi = int(g.indptr[u]), int(g.indptr[u + 1])
            for v in g.indices[lo:hi][health._edge_ok[lo:hi]]:
                vi = int(v)
                if dist[vi] == UNREACHABLE and health._node_ok[vi]:
                    dist[vi] = d
                    nxt.append(vi)
        frontier = nxt
    return dist


def links_down_oracle(health: LinkHealth) -> int:
    """Set-based ``faults.links_down``: every down link plus every link
    touching a down node, each undirected link counted once."""
    dead = set(health._down_edges)
    for x in np.flatnonzero(~health._node_ok):
        for v in health.graph.neighbors(int(x)):
            dead.add((min(int(x), int(v)), max(int(x), int(v))))
    return len(dead)


@st.composite
def fault_events(draw, graph: Graph, max_events: int):
    """A random event sequence over *graph*: link and node failures with
    some recoveries and slowdowns mixed in."""
    edges = graph.edge_array
    out = []
    for t in range(draw(st.integers(0, max_events))):
        kind = draw(st.sampled_from(KINDS))
        if kind.startswith("node"):
            out.append(FaultEvent(t, kind, draw(st.integers(0, graph.n - 1))))
        else:
            u, v = (int(x) for x in edges[draw(st.integers(0, len(edges) - 1))])
            factor = draw(st.sampled_from((1.5, 3.0))) if kind == "link_degrade" else 1.0
            out.append(FaultEvent(t, kind, u, v, factor))
    return out


def assert_all_paths_agree(graph: Graph, inner, events: list[FaultEvent]) -> None:
    n = graph.n
    health = LinkHealth(graph)
    router = FaultAwareRouter(inner, health)
    *head, last = events or [None]
    for ev in head:
        health.apply(ev)
    # Fill the router cache under the previous mask so the last event's
    # epoch change goes through the batched eager recompute.
    for d in range(n):
        router.distance(0, d)
    filled = not health.clean
    if last is not None:
        health.apply(last)
    router.sync()

    assert health.links_down_count() == links_down_oracle(health)
    batched = health.distances_to(np.arange(n))
    assert batched.dtype == np.int64 and batched.shape == (n, n)

    table = build_distance_table(health.healthy_graph()).astype(np.int64)
    table[table == np.iinfo(np.int16).max] = UNREACHABLE
    down = ~health._node_ok
    table[down, :] = UNREACHABLE  # the table keeps a down vertex's 0 self-distance
    table[:, down] = UNREACHABLE

    for d in range(n):
        want = oracle_bfs(health, d)
        np.testing.assert_array_equal(batched[d], want, err_msg=f"batched, dest {d}")
        np.testing.assert_array_equal(health.bfs_from(d), want, err_msg=f"single, dest {d}")
        np.testing.assert_array_equal(table[:, d], want, err_msg=f"table, dest {d}")
        got = [router.distance(v, d) for v in range(n)]
        if health.clean:  # pure delegation: the wrapped router's own sentinel
            got = [UNREACHABLE if x >= np.iinfo(np.int16).max else x for x in got]
        np.testing.assert_array_equal(got, want, err_msg=f"router, dest {d}")
    if filled and last is not None:
        assert router.recompute_batches[-1] == min(router.recompute_budget, n)


@pytest.fixture(scope="module")
def reduced_psiq():
    topo = store.table3_topology("PS-IQ", scale="reduced")
    router, _ = store.table3_router("PS-IQ", scale="reduced")
    return topo.graph, router


# Two components (a 7-cycle with chords and a 4-path) plus an isolated
# vertex, so some destinations are unreachable before any fault.
SMALL = Graph(
    12,
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0), (0, 3), (2, 5),
     (7, 8), (8, 9), (9, 10)],
    name="two-components",
)


@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_masked_distances_agree_on_reduced_psiq(reduced_psiq, data):
    graph, router = reduced_psiq
    events = data.draw(fault_events(graph, max_events=60))
    assert_all_paths_agree(graph, router, events)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(events=fault_events(SMALL, max_events=12))
def test_masked_distances_agree_on_small_graph(events):
    assert_all_paths_agree(SMALL, TableRouter(SMALL), events)


def test_down_destination_row_is_unreachable():
    health = LinkHealth(SMALL)
    health.apply(FaultEvent(0, "node_down", 3))
    rows = health.distances_to([3, 0, 3])
    assert (rows[0] == UNREACHABLE).all() and (rows[2] == UNREACHABLE).all()
    assert rows[1][3] == UNREACHABLE and rows[1][0] == 0


def test_clean_flag_tracks_apply_and_reset():
    health = LinkHealth(SMALL)
    assert health.clean
    health.apply(FaultEvent(0, "link_degrade", 0, 1, 2.0))
    assert not health.clean
    health.apply(FaultEvent(1, "link_up", 0, 1))
    assert health.clean
    health.apply(FaultEvent(2, "node_down", 4))
    assert not health.clean
    health.reset()
    assert health.clean and health.node_up(4)
