"""Tests for the rack-topology network model (oversubscription).

Three layers of protection:

* a hypothesis property test pinning that ``oversubscription=1.0`` (any
  rack count) reproduces the flat model *exactly* -- same iteration time,
  same per-node traffic -- for every registered scheme;
* unit tests of the intra-/cross-rack byte-split accounting of every
  backend's topology-aware Algorithm-1 cost, against hand-derived formulas;
* end-to-end checks of the headline behaviour: cross-rack flows contend on
  the shared rack uplink, ring/hierarchical-PS overtake the flat PS under
  heavy oversubscription, and the rack-aware cost model shifts
  ``best_scheme`` accordingly.
"""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.machine import ClusterModel
from repro.comm.backend import get_backend, hybrid_choice
from repro.config import (
    ClusterConfig,
    Partitioning,
    ScheduleMode,
    SystemConfig,
)
from repro.core.cost_model import (
    CostModel,
    adam_combined_cost,
    ps_combined_cost,
    sfb_worker_cost,
)
from repro.exceptions import ConfigurationError, SimulationError
from repro.nn.spec import LayerKind, LayerSpec
from repro.sim import Environment
from repro.simulation.throughput import decide_schemes, simulate_system
from repro.simulation.workload import build_workload
from sim_reference import run_flow


def poseidon_style(comm: str, name: str = "sys") -> SystemConfig:
    return SystemConfig(name=name, schedule=ScheduleMode.WFBP,
                        partitioning=Partitioning.FINE, comm=comm,
                        overlap_pull=True, overlap_host_copy=True)


ALL_COMM_MODES = ("ps", "sfb", "hybrid", "onebit", "adam", "ring", "hierps")
ALL_SCHEMES = ("ps", "sfb", "adam", "onebit", "ring", "hierps")


# ---------------------------------------------------------------------------
# ClusterConfig topology fields
# ---------------------------------------------------------------------------


class TestClusterConfigTopology:
    def test_defaults_are_flat(self):
        config = ClusterConfig(num_workers=8)
        assert config.racks == 1
        assert config.oversubscription == 1.0
        assert config.is_flat_topology

    def test_racks_without_oversubscription_is_flat(self):
        config = ClusterConfig(num_workers=8, racks=4, oversubscription=1.0)
        assert config.is_flat_topology

    def test_oversubscribed_racks_are_not_flat(self):
        config = ClusterConfig(num_workers=8, racks=2, oversubscription=2.0)
        assert not config.is_flat_topology

    def test_rack_of_contiguous_blocks(self):
        config = ClusterConfig(num_workers=10, racks=3)
        assert config.nodes_per_rack == 4
        assert [config.rack_of(n) for n in range(10)] == \
            [0, 0, 0, 0, 1, 1, 1, 1, 2, 2]

    def test_rack_of_rejects_unknown_nodes(self):
        config = ClusterConfig(num_workers=4, racks=2)
        with pytest.raises(ConfigurationError):
            config.rack_of(4)
        with pytest.raises(ConfigurationError):
            config.rack_of(-1)

    def test_rack_bisection_bandwidth(self):
        config = ClusterConfig(num_workers=8, bandwidth_gbps=10.0, racks=2,
                               oversubscription=4.0)
        assert config.rack_bisection_bps(4) == pytest.approx(
            config.effective_bandwidth_bps * 4 / 4.0)

    def test_with_workers_keeps_the_topology(self):
        config = ClusterConfig(num_workers=8, racks=2, oversubscription=4.0)
        grown = config.with_workers(16)
        assert (grown.racks, grown.oversubscription) == (2, 4.0)
        assert grown.nodes_per_rack == 8

    def test_dedicated_servers_extend_the_racks(self):
        config = ClusterConfig(num_workers=4, num_servers=2,
                               colocate_servers=False, racks=3)
        assert config.num_nodes == 6
        assert config.nodes_per_rack == 2
        assert config.rack_of(5) == 2

    def test_cost_prices_the_physical_racks(self):
        # Non-colocated shards extend the racks: the cost model uses the
        # simulator's node partition (racks of 4), not ceil(P1/racks) = 2.
        cluster = ClusterConfig(num_workers=8, num_servers=8,
                                colocate_servers=False, racks=4,
                                oversubscription=4.0)
        assert cluster.nodes_per_rack == 4
        ps = get_backend("ps")
        flat = ps.flat_cost(M, N, cluster, K)
        assert ps.cost(M, N, cluster, K) == pytest.approx(
            4 * flat * (12 / 15) * 4.0 / 4)


# ---------------------------------------------------------------------------
# oversubscription == 1.0 reproduces the flat model exactly
# ---------------------------------------------------------------------------


class TestFlatEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(
        nodes=st.integers(min_value=2, max_value=10),
        racks=st.integers(min_value=1, max_value=5),
        bandwidth=st.sampled_from([5.0, 10.0, 40.0]),
        comm=st.sampled_from(ALL_COMM_MODES),
    )
    def test_full_bisection_racks_equal_flat(self, nodes, racks, bandwidth,
                                             comm, tiny_model_spec):
        """Property: racks at oversubscription 1.0 are byte-identical to flat."""
        system = poseidon_style(comm)
        flat = ClusterConfig(num_workers=nodes, bandwidth_gbps=bandwidth)
        racked = replace(flat, racks=racks, oversubscription=1.0)
        result_flat = simulate_system(tiny_model_spec, system, flat)
        result_racked = simulate_system(tiny_model_spec, system, racked)
        assert result_flat.iteration_seconds == result_racked.iteration_seconds
        assert result_flat.per_node_traffic_bytes == \
            result_racked.per_node_traffic_bytes
        assert result_flat.scheme_by_unit == result_racked.scheme_by_unit

    def test_flat_cluster_models_have_no_rack_switches(self):
        env = Environment()
        model = ClusterModel(env, ClusterConfig(num_workers=8, racks=4))
        assert not model.topology_active
        assert model.rack_switches == []

    def test_flat_topology_cost_is_bit_exact(self):
        one_rack = ClusterConfig(num_workers=16)
        four_racks = replace(one_rack, racks=4, oversubscription=1.0)
        for scheme in ALL_SCHEMES:
            backend = get_backend(scheme)
            base = backend.flat_cost(1024, 1000, one_rack, 32)
            assert backend.cost(1024, 1000, one_rack, 32) == base
            assert backend.cost(1024, 1000, four_racks, 32) == base


# ---------------------------------------------------------------------------
# per-backend intra-/cross-rack byte-split accounting
# ---------------------------------------------------------------------------

P, S, K, M, N = 16, 16, 32, 1024, 1000
#: 16 workers in 4 racks of 4, 4:1 oversubscribed.
TOPO = ClusterConfig(num_workers=P, racks=4, oversubscription=4.0)
L = TOPO.nodes_per_rack  # = 4
CROSS_PEERS = (P - L) / (P - 1)  # 12 of 15 peers live outside the rack


class TestCostByteSplit:
    def test_cross_peer_fraction(self):
        # The default uplink split charges each rack member's flat cost by
        # the share of its peers outside the rack: of the N - 1 other
        # nodes, dedicated server nodes included.
        ps = get_backend("ps")

        def share(cluster):
            local = cluster.nodes_per_rack
            return (ps.rack_uplink_params(M, N, cluster, K)
                    / (local * ps.flat_cost(M, N, cluster, K)))

        assert share(TOPO) == pytest.approx(CROSS_PEERS)
        dedicated = ClusterConfig(num_workers=4, num_servers=4,
                                  colocate_servers=False, racks=2,
                                  oversubscription=4.0)
        assert share(dedicated) == pytest.approx(4 / 7)
        # A lone node has no peers and sends nothing across a rack.
        assert ps.rack_uplink_params(M, N, ClusterConfig(num_workers=1),
                                     K) == 0.0

    def test_ps_uplink_is_uniform_peer_split(self):
        backend = get_backend("ps")
        flat = ps_combined_cost(M, N, P, S)
        uplink = backend.rack_uplink_params(M, N, TOPO, K)
        assert uplink == pytest.approx(L * flat * CROSS_PEERS)
        assert backend.cost(M, N, TOPO, K) == pytest.approx(
            max(flat, uplink * TOPO.oversubscription / L))

    def test_onebit_uplink_is_ps_over_compression(self):
        onebit = get_backend("onebit")
        ps = get_backend("ps")
        assert onebit.rack_uplink_params(M, N, TOPO, K) == pytest.approx(
            ps.rack_uplink_params(M, N, TOPO, K) / 32.0)

    def test_sfb_uplink_counts_out_of_rack_peers(self):
        backend = get_backend("sfb")
        flat = sfb_worker_cost(M, N, K, P)
        uplink = backend.rack_uplink_params(M, N, TOPO, K)
        # Every rack member broadcasts to (and hears from) the P - L peers
        # outside the rack: L * 2 K (P - L) (M + N) parameters.
        assert uplink == pytest.approx(L * 2.0 * K * (P - L) * (M + N))
        assert uplink == pytest.approx(L * flat * CROSS_PEERS)

    def test_adam_uplink_is_the_owner_racks(self):
        backend = get_backend("adam")
        uplink = backend.rack_uplink_params(M, N, TOPO, K)
        # Out-of-rack workers send factors in, full matrices come back out.
        assert uplink == pytest.approx((P - L) * (M * N + K * (M + N)))

    def test_ring_uplink_is_one_node_volume(self):
        backend = get_backend("ring")
        uplink = backend.rack_uplink_params(M, N, TOPO, K)
        # One boundary flow per direction per rack, whatever L is.
        assert uplink == pytest.approx(4.0 * M * N * (P - 1) / P)
        # So the topology cost only grows once oversubscription exceeds L.
        flat = backend.flat_cost(M, N, TOPO, K)
        assert backend.cost(M, N, TOPO, K) == pytest.approx(
            flat * max(1.0, TOPO.oversubscription / L))

    def test_hierps_uplink_is_one_aggregate_per_rack(self):
        backend = get_backend("hierps")
        uplink = backend.rack_uplink_params(M, N, TOPO, K)
        num_racks = math.ceil(P / L)
        assert uplink == pytest.approx(2.0 * M * N * (num_racks - 1))

    def test_adam_flat_cost_unchanged(self):
        backend = get_backend("adam")
        assert backend.cost(M, N, ClusterConfig(num_workers=P), K) == \
            adam_combined_cost(M, N, K, P)

    def test_dedicated_server_racks_carry_a_premium(self):
        # Workers fill rack 0, dedicated PS shards rack 1: every PS byte
        # crosses racks, so the priced cost must exceed the flat cost.
        cluster = ClusterConfig(num_workers=4, num_servers=4,
                                colocate_servers=False, racks=2,
                                oversubscription=8.0)
        backend = get_backend("ps")
        assert backend.cost(M, N, cluster, K) > \
            backend.flat_cost(M, N, cluster, K)

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_cost_monotone_in_oversubscription(self, scheme):
        backend = get_backend(scheme)
        costs = [backend.cost(M, N, replace(TOPO, oversubscription=o), K)
                 for o in (1.0, 2.0, 4.0, 8.0, 16.0)]
        assert costs == sorted(costs)


# ---------------------------------------------------------------------------
# rack-aware Algorithm 1
# ---------------------------------------------------------------------------


class TestRackAwareHybridChoice:
    def test_flat_choice_is_unchanged_by_flat_topology(self):
        one_rack = ClusterConfig(num_workers=P)
        four_racks = replace(TOPO, oversubscription=1.0)
        for m, n in [(256, 256), (1024, 1000), (4096, 4096), (25088, 4096)]:
            assert hybrid_choice(m, n, four_racks, K) == \
                hybrid_choice(m, n, one_rack, K)

    def test_small_fc_layer_shifts_to_ring(self):
        # VGG19's fc8 (4096 x 1000): SFB on the flat network, ring once
        # cross-rack bandwidth is 4:1 oversubscribed.
        assert hybrid_choice(4096, 1000, ClusterConfig(num_workers=P), K) == "sfb"
        assert hybrid_choice(4096, 1000, TOPO, K) == "ring"

    def test_best_scheme_shifts_with_the_cluster(self):
        fc8 = LayerSpec(name="fc8", kind=LayerKind.FC, param_count=4096 * 1000,
                        param_shape=(4096, 1000), output_shape=(1000,),
                        sf_decomposable=True)
        flat = CostModel(ClusterConfig(num_workers=16), batch_size=32)
        racked = CostModel(
            ClusterConfig(num_workers=16, racks=4, oversubscription=4.0),
            batch_size=32)
        assert flat.best_scheme(fc8) == "sfb"
        assert racked.best_scheme(fc8) == "ring"
        # scheme_cost_params carries the cross-rack premium for the loser.
        assert racked.scheme_cost_params(fc8, "sfb") > \
            flat.scheme_cost_params(fc8, "sfb")

    def test_decide_schemes_is_topology_aware(self, vgg19_spec):
        workload = build_workload(vgg19_spec)
        flat = decide_schemes(workload, "hybrid", ClusterConfig(num_workers=16))
        racked = decide_schemes(workload, "hybrid", TOPO)
        assert flat["fc8"] == "sfb"
        assert racked["fc8"] == "ring"
        assert flat["fc6"] is racked["fc6"] == "sfb"


# ---------------------------------------------------------------------------
# simulator: shared rack uplink contention
# ---------------------------------------------------------------------------


def run_transfers(config, flows):
    """Run concurrent point-to-point flows; returns (per-flow seconds, model)."""
    env = Environment()
    model = ClusterModel(env, config)
    done = {}

    def flow(index, src, dst, nbytes):
        start = env.now
        yield from run_flow(model.transfer, src, dst, nbytes, tag=f"flow{index}")
        done[index] = env.now - start

    for index, (src, dst, nbytes) in enumerate(flows):
        env.process(flow(index, src, dst, nbytes))
    env.run()
    assert len(done) == len(flows)
    return done, model


def cross_rack_bytes(model):
    """Total bytes that left any rack through its oversubscribed uplink."""
    return sum(switch.traffic.bytes_sent for switch in model.rack_switches)


class TestRackContention:
    CONFIG = ClusterConfig(num_workers=8, bandwidth_gbps=10.0, racks=2,
                           oversubscription=8.0, latency_seconds=0.0)

    def test_intra_rack_flows_bypass_the_rack_switch(self):
        durations, model = run_transfers(self.CONFIG, [(0, 1, 10_000_000)])
        flat, flat_model = run_transfers(
            ClusterConfig(num_workers=8, bandwidth_gbps=10.0,
                          latency_seconds=0.0),
            [(0, 1, 10_000_000)])
        assert durations[0] == flat[0]
        assert cross_rack_bytes(model) == 0.0

    def test_cross_rack_flow_is_throttled_by_the_uplink(self):
        # 4 nodes/rack at 8:1 oversubscription: bisection = NIC / 2.
        intra, _ = run_transfers(self.CONFIG, [(0, 1, 10_000_000)])
        cross, model = run_transfers(self.CONFIG, [(0, 4, 10_000_000)])
        assert cross[0] == pytest.approx(2 * intra[0])
        assert cross_rack_bytes(model) == 10_000_000

    def test_concurrent_cross_rack_flows_share_the_uplink(self):
        # Two senders in rack 0: together they serialise through one uplink.
        flows = [(0, 4, 10_000_000), (1, 5, 10_000_000)]
        durations, model = run_transfers(self.CONFIG, flows)
        solo, _ = run_transfers(self.CONFIG, [(0, 4, 10_000_000)])
        assert max(durations.values()) == pytest.approx(2 * solo[0])
        assert cross_rack_bytes(model) == 20_000_000

    def test_concurrent_flows_in_different_racks_do_not_contend(self):
        config = ClusterConfig(num_workers=16, bandwidth_gbps=10.0, racks=4,
                               oversubscription=4.0, latency_seconds=0.0)
        solo, _ = run_transfers(config, [(0, 4, 10_000_000)])
        both, _ = run_transfers(
            config, [(0, 4, 10_000_000), (8, 12, 10_000_000)])
        assert max(both.values()) == pytest.approx(solo[0])

    def test_fabric_cross_fraction_counts_the_out_of_rack_peers(self):
        # Each node of 8 in racks of 4 has 4 of its 7 peers in the other rack.
        model = ClusterModel(Environment(), self.CONFIG)
        assert [model.fabric_cross_fraction(node) for node in range(8)] == \
            [pytest.approx(4 / 7)] * 8
        # Racks of 4, 4 and 2: the short rack's nodes see 8 of 9 peers outside.
        uneven = ClusterModel(Environment(), replace(
            self.CONFIG, num_workers=10, racks=3))
        assert uneven.fabric_cross_fraction(0) == pytest.approx(6 / 9)
        assert uneven.fabric_cross_fraction(9) == pytest.approx(8 / 9)
        flat = ClusterModel(Environment(), ClusterConfig(num_workers=8))
        assert flat.fabric_cross_fraction(0) == 0.0

    def test_rack_switch_lookup_requires_topology(self):
        env = Environment()
        model = ClusterModel(env, ClusterConfig(num_workers=4))
        with pytest.raises(SimulationError):
            model.rack_switch(0)


# ---------------------------------------------------------------------------
# end to end: the fig_topology acceptance behaviour
# ---------------------------------------------------------------------------


class TestTopologyEndToEnd:
    def test_ring_overtakes_flat_ps_under_oversubscription(self, vgg19_spec):
        """The PR's acceptance point: ring > PS at oversubscription >= 4."""
        ps = poseidon_style("ps", "PS")
        ring = poseidon_style("ring", "Ring")
        cluster = ClusterConfig(num_workers=16, bandwidth_gbps=10.0, racks=4,
                                oversubscription=4.0)
        ps_result = simulate_system(vgg19_spec, ps, cluster)
        ring_result = simulate_system(vgg19_spec, ring, cluster)
        assert ring_result.throughput_images_per_sec > \
            ps_result.throughput_images_per_sec

    def test_hierps_overtakes_flat_ps_on_conv_models(self, googlenet_spec):
        ps = poseidon_style("ps", "PS")
        hierps = poseidon_style("hierps", "HierPS")
        cluster = ClusterConfig(num_workers=16, bandwidth_gbps=10.0, racks=4,
                                oversubscription=8.0)
        ps_result = simulate_system(googlenet_spec, ps, cluster)
        hier_result = simulate_system(googlenet_spec, hierps, cluster)
        assert hier_result.throughput_images_per_sec > \
            ps_result.throughput_images_per_sec

    def test_ps_degrades_monotonically_with_oversubscription(self, vgg19_spec):
        ps = poseidon_style("ps", "PS")
        speedups = []
        for oversub in (1.0, 2.0, 4.0, 8.0):
            cluster = ClusterConfig(num_workers=16, bandwidth_gbps=10.0,
                                    racks=4, oversubscription=oversub)
            speedups.append(simulate_system(vgg19_spec, ps, cluster).speedup)
        assert speedups == sorted(speedups, reverse=True)

    def test_fig_topology_smoke(self, vgg19_spec):
        from dataclasses import replace

        from repro.experiments import fig_topology

        figure = replace(fig_topology.FIGURE, bandwidths=(10.0,),
                         models=("vgg19",),
                         clusters=fig_topology.racked((1.0, 8.0), nodes=8,
                                                      racks=2))
        points = figure.run()
        assert points.at(system="PS", topology=8.0).result.speedup < \
            points.at(system="PS", topology=1.0).result.speedup
        choices = fig_topology.algorithm1_choices(vgg19_spec, figure)
        assert list(choices) == [1.0, 8.0]
        assert set(choices[1.0]) == {"fc6", "fc7", "fc8"}
