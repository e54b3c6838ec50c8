"""Tests for the cluster model: NICs, GPUs, transfers and traffic accounting."""

import pytest

from repro.cluster.machine import (FABRIC, ClusterModel, NetworkInterface,
                                   RackSwitch)
from repro.cluster.traffic import TrafficAccount
from repro.config import ClusterConfig
from repro.exceptions import SimulationError
from repro.sim import Environment
from sim_reference import process, run_flow, run_process


def make_cluster(num_workers=4, bandwidth_gbps=10.0, **kwargs):
    env = Environment()
    config = ClusterConfig(num_workers=num_workers, bandwidth_gbps=bandwidth_gbps,
                           latency_seconds=0.0, network_efficiency=1.0, **kwargs)
    return env, ClusterModel(env, config)


def _fabric_gather(cluster, nbytes):
    yield cluster.fabric_gather([0, 1], nbytes)


class TestTopology:
    def test_colocated_servers_reuse_worker_nodes(self):
        _, cluster = make_cluster(num_workers=4)
        assert cluster.config.server_nodes == (0, 1, 2, 3)
        assert len(cluster.machines) == 4

    @pytest.mark.parametrize("workers", [1, 3, 40])
    @pytest.mark.parametrize("servers_per_worker", [0.5, 1.0, 2.5])
    def test_colocated_shards_round_robin_over_workers(self, workers,
                                                       servers_per_worker):
        """Shard s lives on worker s % P, for fewer, as many and more
        shards than workers."""
        servers = max(1, int(workers * servers_per_worker))
        config = ClusterConfig(num_workers=workers, num_servers=servers)
        assert config.server_nodes == tuple(
            s % workers for s in range(servers))

    def test_dedicated_servers_get_extra_nodes(self):
        env = Environment()
        config = ClusterConfig(num_workers=4, num_servers=2, colocate_servers=False,
                               network_efficiency=1.0)
        cluster = ClusterModel(env, config)
        assert cluster.config.server_nodes == (4, 5)
        assert len(cluster.machines) == 6

    def test_unknown_machine_rejected(self):
        _, cluster = make_cluster()
        with pytest.raises(SimulationError):
            cluster.machine(99)

    def test_fabric_has_no_machine(self):
        _, cluster = make_cluster()
        with pytest.raises(SimulationError):
            cluster.machine(FABRIC)


class TestTransfers:
    def test_transfer_time_matches_bandwidth(self):
        env, cluster = make_cluster(bandwidth_gbps=10.0)

        def proc():
            # 1.25 GB at 10 Gb/s = 1 second.
            yield process(env, run_flow(cluster.transfer, 0, 1, 1.25e9))
            return env.now

        assert run_process(env, proc()) == pytest.approx(1.0, rel=1e-6)

    def test_self_transfer_is_free(self):
        env, cluster = make_cluster()

        def proc():
            yield process(env, run_flow(cluster.transfer, 2, 2, 1e9))
            return env.now

        assert run_process(env, proc()) == pytest.approx(0.0)

    def test_fabric_transfer_occupies_only_one_end(self):
        env, cluster = make_cluster(bandwidth_gbps=10.0)

        def proc():
            yield process(env, run_flow(cluster.transfer, 0, FABRIC, 1.25e9))
            return env.now

        run_process(env, proc())
        assert cluster.machine(0).nic.traffic.bytes_sent == pytest.approx(1.25e9)
        # No receiver was charged.
        for node in (1, 2, 3):
            assert cluster.machine(node).nic.traffic.bytes_received == 0

    def test_transfer_needs_one_real_endpoint(self):
        env, cluster = make_cluster()
        with pytest.raises(SimulationError):
            run_process(env, run_flow(cluster.transfer, FABRIC, FABRIC, 100))

    def test_negative_bytes_rejected(self):
        env, cluster = make_cluster()
        with pytest.raises(SimulationError):
            run_process(env, run_flow(cluster.transfer, 0, 1, -5))

    @pytest.mark.parametrize("topology", [{}, {"racks": 2,
                                               "oversubscription": 4.0}])
    @pytest.mark.parametrize("flow", [
        lambda cluster, nbytes: run_flow(cluster.transfer, 0, 3, nbytes),
        lambda cluster, nbytes: run_flow(cluster.transfer, FABRIC, 2, nbytes),
        lambda cluster, nbytes: run_flow(cluster.broadcast, 0, [1, 2, 3], nbytes),
        _fabric_gather,
    ], ids=["transfer", "fabric transfer", "broadcast", "fabric fan"])
    def test_nan_bytes_rejected(self, flow, topology):
        """A NaN size raises before it reaches a clock or an account (it
        used to finish at ``t = nan`` and record NaN bytes)."""
        env, cluster = make_cluster(**topology)
        with pytest.raises(SimulationError):
            run_process(env, flow(cluster, float("nan")))
        assert env.now == 0.0
        accounts = [machine.nic.traffic for machine in cluster.machines.values()]
        assert all(account.total_bytes == 0 and not account.by_tag_sent
                   and not account.by_tag_received for account in accounts)

    @pytest.mark.parametrize("topology", [{}, {"racks": 2,
                                               "oversubscription": 4.0}])
    def test_repeat_is_one_hold_of_that_many_messages(self, topology):
        """``repeat=k`` costs and records what k back-to-back messages do."""
        def finish_and_traffic(repeat, messages):
            env, cluster = make_cluster(**topology)

            def proc():
                for _ in range(messages):  # 1 -> 2 crosses the rack boundary
                    yield from run_flow(cluster.transfer, 1, 2, 1.25e8, repeat=repeat)
                return env.now

            finish = run_process(env, proc())
            accounts = [cluster.machine(node).nic.traffic.total_bytes
                        for node in range(4)]
            return finish, accounts, [switch.traffic.bytes_sent
                                      for switch in cluster.rack_switches]

        held, stepped = finish_and_traffic(6, 1), finish_and_traffic(1, 6)
        assert held[0] == pytest.approx(stepped[0], rel=1e-12)
        assert held[1:] == stepped[1:]
        assert held[1][1] == 6 * 1.25e8

    def test_repeat_below_one_and_repeated_fabric_flow_rejected(self):
        env, cluster = make_cluster()
        with pytest.raises(SimulationError):
            run_process(env, run_flow(cluster.transfer, 0, 1, 100, repeat=0))
        with pytest.raises(SimulationError):
            run_process(env, run_flow(cluster.transfer, 0, FABRIC, 100, repeat=2))

    def test_shared_uplink_serialises_flows(self):
        env, cluster = make_cluster(bandwidth_gbps=10.0)
        completions = []

        def sender(dst):
            yield process(env, run_flow(cluster.transfer, 0, dst, 1.25e9))
            completions.append(env.now)

        process(env, sender(1))
        process(env, sender(2))
        env.run()
        assert sorted(completions) == pytest.approx([1.0, 2.0], rel=1e-6)

    def test_different_uplinks_run_in_parallel(self):
        env, cluster = make_cluster(bandwidth_gbps=10.0)
        completions = []

        def sender(src, dst):
            yield process(env, run_flow(cluster.transfer, src, dst, 1.25e9))
            completions.append(env.now)

        process(env, sender(0, 2))
        process(env, sender(1, 3))
        env.run()
        assert completions == pytest.approx([1.0, 1.0], rel=1e-6)

    def test_downlink_hotspot_serialises_incast(self):
        """Many senders to one receiver are limited by the receiver NIC."""
        env, cluster = make_cluster(bandwidth_gbps=10.0)
        completions = []

        def sender(src):
            yield process(env, run_flow(cluster.transfer, src, 3, 1.25e9))
            completions.append(env.now)

        for src in (0, 1, 2):
            process(env, sender(src))
        env.run()
        assert max(completions) == pytest.approx(3.0, rel=1e-6)

    def test_broadcast_reaches_all_destinations(self):
        env, cluster = make_cluster(bandwidth_gbps=10.0)

        def proc():
            yield process(env, run_flow(cluster.broadcast, 0, [1, 2, 3], 1.25e9))
            return env.now

        finish = run_process(env, proc())
        assert finish == pytest.approx(3.0, rel=1e-6)
        for node in (1, 2, 3):
            assert cluster.machine(node).nic.traffic.bytes_received == pytest.approx(1.25e9)


class TestTrafficAccounting:
    def test_tagged_traffic(self):
        env, cluster = make_cluster()

        def proc():
            yield process(env, run_flow(cluster.transfer, 0, 1, 1000, tag="push:fc6"))
            yield process(env, run_flow(cluster.transfer, 1, 0, 500, tag="pull:fc6"))

        run_process(env, proc())
        sent_tags = cluster.machine(0).nic.traffic.by_tag_sent
        assert sent_tags["push:fc6"] == 1000
        assert cluster.machine(0).nic.traffic.bytes_received == 500

    def test_account_totals_both_directions_by_tag(self):
        account = TrafficAccount(node_id=3)
        account.record_sent(1000, tag="push:fc6")
        account.record_sent(24)
        account.record_received(500, tag="pull:fc6")
        assert account.bytes_sent == 1024
        assert account.total_bytes == 1524
        assert account.by_tag_sent == {"push:fc6": 1000, "untagged": 24}
        assert account.by_tag_received == {"pull:fc6": 500}

    def test_latency_added_to_transfer(self):
        env = Environment()
        config = ClusterConfig(num_workers=2, bandwidth_gbps=10.0,
                               latency_seconds=0.5, network_efficiency=1.0)
        cluster = ClusterModel(env, config)

        def proc():
            yield process(env, run_flow(cluster.transfer, 0, 1, 1.25e9))
            return env.now

        assert run_process(env, proc()) == pytest.approx(1.5, rel=1e-6)


class TestWireTime:
    def test_nic_wire_time_is_bytes_over_goodput(self):
        env = Environment()
        config = ClusterConfig(num_workers=2, bandwidth_gbps=10.0,
                               network_efficiency=0.5)
        nic = ClusterModel(env, config).machine(0).nic
        # 10 Gb/s at 50 % goodput moves 0.625 GB in one second.
        assert nic.wire_time(0.625e9) == pytest.approx(1.0)

    def test_rack_switch_wire_time_is_the_bisection_share(self):
        # 4 nodes per rack at 8:1 oversubscription: half of one NIC's rate.
        env, cluster = make_cluster(num_workers=8, racks=2,
                                    oversubscription=8.0)
        switch = cluster.rack_switch(5)
        assert switch.rack_id == 1
        assert switch.wire_time(1.25e9) == pytest.approx(
            2 * cluster.machine(5).nic.wire_time(1.25e9))

    @pytest.mark.parametrize("link", [NetworkInterface, RackSwitch])
    @pytest.mark.parametrize("bandwidth", [0.0, -1e9])
    def test_non_positive_bandwidth_rejected(self, link, bandwidth):
        with pytest.raises(SimulationError):
            link(Environment(), 0, bandwidth)


class TestGpuDevice:
    def test_compute_busy_accounting(self):
        env, cluster = make_cluster()
        gpu = cluster.machine(0).gpu

        def proc():
            yield gpu.compute(0.25)
            yield gpu.compute(0.75)
            return env.now

        assert run_process(env, proc()) == pytest.approx(1.0)
        assert gpu.busy_seconds == pytest.approx(1.0)

    def test_negative_compute_rejected(self):
        env, cluster = make_cluster()
        with pytest.raises(SimulationError):
            cluster.machine(0).gpu.compute(-1.0)

    def test_multi_gpu_machines(self):
        env = Environment()
        config = ClusterConfig(num_workers=1, gpus_per_node=4, network_efficiency=1.0)
        cluster = ClusterModel(env, config)
        assert len(cluster.machine(0).gpus) == 4
