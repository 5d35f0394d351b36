"""Tests for the HTTP-redirection baseline and heterogeneous clusters."""

import numpy as np
import pytest

from repro.core.policies import RedirectMSPolicy, make_ms
from repro.sim.cluster import Cluster
from repro.sim.config import SimConfig, paper_sim_config
from repro.workload.generator import generate_trace
from repro.workload.replay import pretrain_sampler, replay
from repro.workload.traces import UCB
from tests.conftest import make_cgi, make_static


class TestRedirect:
    @pytest.fixture(scope="class")
    def trace(self):
        return generate_trace(UCB, rate=600, duration=6.0, r=1 / 40,
                              seed=21)

    def test_redirect_counts_rescheduled_requests(self, trace):
        cfg = paper_sim_config(num_nodes=8, seed=1)
        policy = RedirectMSPolicy(8, 3, client_rtt=0.08,
                                  sampler=pretrain_sampler(trace), seed=2)
        replay(cfg, policy, trace)
        assert policy.redirects > 0

    def test_redirection_slower_than_remote_execution(self, trace):
        """The paper's objection quantified: redirect RTT dwarfs the 1 ms
        remote-execution hop."""
        cfg = paper_sim_config(num_nodes=8, seed=1)
        sampler = pretrain_sampler(trace)
        remote = replay(cfg.copy(), make_ms(8, 3, sampler, seed=2),
                        trace).report
        redirect = replay(cfg.copy(),
                          RedirectMSPolicy(8, 3, client_rtt=0.08,
                                           sampler=sampler, seed=2),
                          trace).report
        assert redirect.dynamic.mean_response > remote.dynamic.mean_response
        assert redirect.overall.stretch > remote.overall.stretch

    def test_zero_rtt_equivalent_cost(self, trace):
        """With a free round-trip the redirect baseline matches M/S minus
        the remote-CGI hop."""
        cfg = paper_sim_config(num_nodes=8, seed=1)
        policy = RedirectMSPolicy(8, 3, client_rtt=0.0, seed=2)
        result = replay(cfg, policy, trace, warmup_fraction=0.0)
        assert result.report.completed == len(trace)
        assert result.report.remote_dispatches == 0  # redirects, not remote

    def test_validation(self):
        with pytest.raises(ValueError):
            RedirectMSPolicy(8, 3, client_rtt=-1.0)


class TestHeterogeneous:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(num_nodes=4, cpu_speeds=(1.0, 2.0)).validate()
        with pytest.raises(ValueError):
            SimConfig(num_nodes=2, cpu_speeds=(1.0, 0.0)).validate()
        SimConfig(num_nodes=2, cpu_speeds=(1.0, 2.0),
                  disk_speeds=(0.5, 1.0)).validate()

    def test_speed_accessors(self):
        cfg = SimConfig(num_nodes=2, cpu_speeds=(1.0, 2.0)).validate()
        assert cfg.node_cpu_speed(1) == 2.0
        assert cfg.node_disk_speed(1) == 1.0  # None = homogeneous

    def test_fast_node_finishes_sooner(self):
        """Identical requests pinned to a 2x node finish in half the time."""
        from repro.core.policies import Policy, Route

        class Pin(Policy):
            def __init__(self, target):
                super().__init__(2, range(2), seed=0)
                self.target = target

            def route(self, request, view):
                return Route(self.target, remote=False)

        def run(target):
            cfg = SimConfig(num_nodes=2, cpu_speeds=(1.0, 2.0),
                            seed=1).validate()
            cfg.memory.static_miss_base = 0.0
            cluster = Cluster(cfg, Pin(target))
            cluster.submit(make_cgi(req_id=0, arrival=0.0, cpu=0.1,
                                    io=0.0, mem_pages=0))
            cluster.run(until=5.0)
            return (cluster.metrics.finishes[0]
                    - cluster.metrics.arrivals[0])

        slow = run(0)
        fast = run(1)
        assert fast == pytest.approx(slow / 2, rel=0.05)

    def test_disk_speed_scales_io(self):
        from repro.core.policies import Policy, Route

        class Pin(Policy):
            def __init__(self, target):
                super().__init__(2, range(2), seed=0)
                self.target = target

            def route(self, request, view):
                return Route(self.target, remote=False)

        def run(target):
            cfg = SimConfig(num_nodes=2, disk_speeds=(1.0, 4.0),
                            seed=1).validate()
            cfg.cpu.fork_overhead = 0.0
            cluster = Cluster(cfg, Pin(target))
            cluster.submit(make_cgi(req_id=0, arrival=0.0, cpu=0.001,
                                    io=0.2, mem_pages=0))
            cluster.run(until=5.0)
            return (cluster.metrics.finishes[0]
                    - cluster.metrics.arrivals[0])

        assert run(1) < run(0) / 2

    def test_ms_exploits_faster_slaves(self):
        """Under load, min-RSRC sends more CGI work to faster slaves
        because they stay idler."""
        p = 6
        speeds = (1.0, 1.0, 1.0, 1.0, 3.0, 3.0)  # nodes 4,5 are 3x
        cfg = SimConfig(num_nodes=p, cpu_speeds=speeds, seed=1).validate()
        trace = generate_trace(UCB, rate=900, duration=8.0, r=1 / 40,
                               seed=3)
        policy = make_ms(p, 2, pretrain_sampler(trace), seed=4)
        result = replay(cfg, policy, trace)
        cluster = result.cluster
        fast = cluster.nodes[4].admitted + cluster.nodes[5].admitted
        slow = cluster.nodes[2].admitted + cluster.nodes[3].admitted
        assert fast > slow


class TestHeteroMSPolicy:
    SPEEDS = (0.5, 0.5, 1.0, 1.0, 1.0, 1.0, 3.0, 3.0)

    def test_validation(self):
        from repro.core.policies import HeteroMSPolicy

        with pytest.raises(ValueError):
            HeteroMSPolicy(8, 2, cpu_speeds=(1.0,))
        with pytest.raises(ValueError):
            HeteroMSPolicy(8, 2, cpu_speeds=(0.0,) * 8)
        with pytest.raises(ValueError):
            HeteroMSPolicy(8, 2, cpu_speeds=(1.0,) * 8,
                           disk_speeds=(1.0,) * 7)

    def test_static_accept_weighted_by_speed(self):
        import dataclasses

        from repro.core.policies import HeteroMSPolicy
        from tests.conftest import make_static as mk

        # Masters 0 (speed 1) and 1 (speed 3): ~75% of statics go to 1.
        policy = HeteroMSPolicy(4, 2, cpu_speeds=(1.0, 3.0, 1.0, 1.0),
                                seed=0)

        class View:
            num_nodes = 4
            now = 0.0

            def all_alive(self):
                return True

            def all_healthy(self):
                return True

            def healthy_array(self):
                return np.ones(4, dtype=bool)

        counts = [0, 0]
        view = View()
        for i in range(2000):
            node = policy.route(mk(req_id=i), view).node_id
            counts[node] += 1
        frac = counts[1] / sum(counts)
        assert frac == pytest.approx(0.75, abs=0.04)

    def test_speed_aware_rsrc_prefers_fast_idle_node(self):
        import numpy as np

        from repro.core.policies import HeteroMSPolicy
        from tests.test_policies import FakeView

        policy = HeteroMSPolicy(4, 1, cpu_speeds=(1.0, 1.0, 1.0, 4.0),
                                use_reservation=False, seed=0)
        # Node 1 is 60% idle at speed 1; node 3 is only 30% idle but 4x
        # fast: effective capacity 1.2 vs 0.6 -> pick node 3.
        view = FakeView(4, cpu_idle=np.array([0.1, 0.6, 0.1, 0.3]))
        from tests.conftest import make_cgi

        route = policy.route(make_cgi(req_id=0, cpu=0.03, io=0.0), view)
        assert route.node_id == 3

    def test_beats_speed_blind_ms_on_mixed_hardware(self):
        from repro.core.policies import HeteroMSPolicy, make_ms
        from repro.sim.config import SimConfig
        from repro.workload.generator import generate_trace
        from repro.workload.replay import pretrain_sampler, replay
        from repro.workload.traces import UCB

        trace = generate_trace(UCB, rate=1500, duration=8.0, r=1 / 40,
                               seed=41)
        sampler = pretrain_sampler(trace)

        def run(policy):
            cfg = SimConfig(num_nodes=8, cpu_speeds=self.SPEEDS,
                            disk_speeds=self.SPEEDS, seed=42).validate()
            return replay(cfg, policy, trace).report.overall.stretch

        blind = run(make_ms(8, 2, sampler, seed=43))
        aware = run(HeteroMSPolicy(8, 2, cpu_speeds=self.SPEEDS,
                                   disk_speeds=self.SPEEDS,
                                   sampler=sampler, seed=43))
        # Speed-awareness must not hurt, and usually helps.
        assert aware <= blind * 1.05
