"""Tests for the flow-level model: link loads, saturation, Valiant/UGAL."""

import numpy as np
import pytest

from repro.core import PolarStarConfig
from repro.graphs import Graph
from repro.routing import DragonflyRouter, HyperXRouter, PolarStarRouter, TableRouter, route_path
from repro.routing.base import Router
from repro.sim.flow import (
    latency_curve,
    link_loads,
    saturation_load,
    ugal_saturation_load,
    valiant_link_loads,
)
from repro.topologies import Topology, dragonfly_topology, hyperx_topology, polarstar_topology
from repro.topologies.base import uniform_endpoints
from repro.traffic import RandomPermutationPattern, UniformRandomPattern


def line_topology():
    """3 routers in a path, 1 endpoint each."""
    g = Graph(3, [(0, 1), (1, 2)], name="line")
    return Topology(g, uniform_endpoints(3, 1), name="line")


class TestLinkLoads:
    def test_single_flow(self):
        topo = line_topology()
        r = TableRouter(topo.graph)
        demand = np.zeros((3, 3))
        demand[0, 2] = 1.0
        loads = link_loads(topo, r, demand)
        # flow crosses links 0->1 and 1->2 only
        assert loads.sum() == pytest.approx(2.0)
        assert loads.max() == pytest.approx(1.0)

    def test_flow_conservation(self):
        """Sum of link loads == total demand x average hop count."""
        topo = polarstar_topology(9, p=3)
        r = TableRouter(topo.graph)
        pat = UniformRandomPattern(topo)
        demand = pat.router_demand()
        loads = link_loads(topo, r, demand)
        # avg hops for diameter-3 graph in (1, 3]
        avg_hops = loads.sum() / demand.sum()
        assert 1.0 < avg_hops <= 3.0

    def test_even_split_on_symmetric_paths(self):
        g = Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)], name="C4")
        topo = Topology(g, uniform_endpoints(4, 1), name="C4")
        r = TableRouter(g)
        demand = np.zeros((4, 4))
        demand[0, 3] = 1.0
        loads = link_loads(topo, r, demand, mode="all")
        assert loads.max() == pytest.approx(0.5)

    def test_scalar_all_minpath_matches_vectorized(self):
        """HyperX has no distance table, so ``mode="all"`` takes the
        per-vertex DAG walk; it must split flow exactly as the vectorized
        propagation over the BFS table does."""
        topo = hyperx_topology((3, 4, 2), p=1)
        rng = np.random.default_rng(4)
        n = topo.num_routers
        demand = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
        got = link_loads(topo, HyperXRouter(topo), demand, mode="all")
        want = link_loads(topo, TableRouter(topo.graph), demand, mode="all")
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)

    def test_single_mode_concentrates(self):
        g = Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)], name="C4")
        topo = Topology(g, uniform_endpoints(4, 1), name="C4")
        r = TableRouter(g)
        demand = np.zeros((4, 4))
        demand[0, 3] = 1.0
        loads = link_loads(topo, r, demand, mode="single")
        assert loads.max() == pytest.approx(1.0)


def path_walk_loads(topo, router, demand):
    """Oracle: walk ``route_path`` for every demand pair, one hop at a time."""
    g = topo.graph
    index = {
        (u, int(v)): int(g.indptr[u]) + k
        for u in range(g.n)
        for k, v in enumerate(g.neighbors(u))
    }
    loads = np.zeros(len(g.indices))
    for s, t in zip(*np.nonzero(demand)):
        path = route_path(router, int(s), int(t))
        for a, b in zip(path, path[1:]):
            loads[index[(a, b)]] += demand[s, t]
    return loads


def _ps(kind, q, dprime):
    topo = polarstar_topology(PolarStarConfig(q=q, dprime=dprime, supernode_kind=kind))
    return topo, PolarStarRouter(topo.meta["star"])


def _df():
    topo = dragonfly_topology(a=8, h=4, p=1)
    return topo, DragonflyRouter(topo)


def _table():
    topo = polarstar_topology(PolarStarConfig(q=5, dprime=2, supernode_kind="paley"))
    return topo, TableRouter(topo.graph)


SINGLE_PATH_CASES = {
    "PS-IQ": lambda: _ps("iq", 4, 3),
    "PS-Paley": lambda: _ps("paley", 4, 4),
    "DF-lgl": _df,
    "table": _table,
}


class TestSinglePathPush:
    """``mode="single"`` pushes demand along ``next_hop_many`` one hop per
    step for blocks of destinations; it must equal the path walk."""

    @pytest.mark.parametrize("case", sorted(SINGLE_PATH_CASES))
    def test_matches_path_walk_oracle(self, case):
        topo, router = SINGLE_PATH_CASES[case]()
        n = topo.num_routers
        assert n > 128  # more than one destination block
        rng = np.random.default_rng(3)
        demand = rng.random((n, n)) * (rng.random((n, n)) < 0.3)
        demand[5, 5] = 1.0  # flow already at its destination loads nothing
        got = link_loads(topo, router, demand, mode="single")
        np.testing.assert_allclose(got, path_walk_loads(topo, router, demand), rtol=1e-12, atol=0)

    def test_unreachable_pair_raises(self):
        g = Graph(5, [(0, 1), (1, 2), (3, 4)], name="split")
        topo = Topology(g, uniform_endpoints(5, 1), name="split")
        demand = np.zeros((5, 5))
        demand[0, 2] = 1.0
        demand[0, 4] = 0.5  # planted: 4 is in the other component
        with pytest.raises(ValueError, match="no route"):
            link_loads(topo, TableRouter(g), demand, mode="single")

    def test_routing_loop_raises(self):
        class BounceRouter(Router):
            """Never reaches 2: 0 and 1 hand the packet back and forth."""

            def __init__(self, graph):
                self.graph = graph

            def next_hops(self, current, dest):
                return [] if current == dest else [1 - current if current < 2 else 1]

            def distance(self, current, dest):
                return 0 if current == dest else 1

        topo = line_topology()
        demand = np.zeros((3, 3))
        demand[0, 2] = 1.0
        with pytest.raises(ValueError, match="routing loop"):
            link_loads(topo, BounceRouter(topo.graph), demand, mode="single")


class TestSaturation:
    def test_uniform_polarstar_high_throughput(self):
        """§9.5: PS-* sustains > 0.75 injection on uniform with MIN."""
        topo = polarstar_topology(9, p=3)
        r = TableRouter(topo.graph)
        demand = UniformRandomPattern(topo).router_demand()
        sat = saturation_load(topo, r, demand, mode="all")
        assert sat > 0.7

    def test_permutation_lower_than_uniform(self):
        topo = polarstar_topology(9, p=3)
        r = TableRouter(topo.graph)
        uni = saturation_load(topo, r, UniformRandomPattern(topo).router_demand())
        perm = saturation_load(
            topo, r, RandomPermutationPattern(topo, seed=0).router_demand()
        )
        assert perm <= uni + 1e-9

    def test_ugal_rescues_permutation(self):
        """Adaptive routing beats MIN on permutation traffic (Fig. 9d)."""
        topo = dragonfly_topology(a=6, h=3, p=3)
        r = TableRouter(topo.graph)
        demand = RandomPermutationPattern(topo, seed=1).router_demand()
        min_sat = saturation_load(topo, r, demand, mode="all")
        ugal_sat = ugal_saturation_load(topo, r, demand, mode="all")
        assert ugal_sat >= min_sat

    def test_valiant_loads_double_uniform(self):
        """Valiant's two phases roughly double uniform-traffic load."""
        topo = polarstar_topology(9, p=3)
        r = TableRouter(topo.graph)
        demand = UniformRandomPattern(topo).router_demand()
        lv = valiant_link_loads(topo, r, demand)
        lm = link_loads(topo, r, demand)
        assert 1.5 < lv.sum() / lm.sum() < 2.6

    def test_empty_demand(self):
        topo = line_topology()
        r = TableRouter(topo.graph)
        assert saturation_load(topo, r, np.zeros((3, 3))) == 1.0


class TestLatencyCurve:
    def test_monotone_increasing(self):
        topo = polarstar_topology(9, p=3)
        r = TableRouter(topo.graph)
        demand = UniformRandomPattern(topo).router_demand()
        lam, lat = latency_curve(topo, r, demand, points=10)
        assert (np.diff(lat) > 0).all()
        assert lat[0] < lat[-1]

    def test_diverges_near_saturation(self):
        topo = polarstar_topology(9, p=3)
        r = TableRouter(topo.graph)
        demand = UniformRandomPattern(topo).router_demand()
        lam, lat = latency_curve(topo, r, demand, points=16)
        assert lat[-1] > 5 * lat[0]
