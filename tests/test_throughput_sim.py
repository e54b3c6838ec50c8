"""Tests for the flow-level iteration simulator.

``tests/data/des_policy_table.json`` pins the DES under every sync policy
(``TestRecordedPolicyTable``); re-record it on purpose with
``PYTHONPATH=src python tests/test_throughput_sim.py``, which prints every
key whose entry moved.
"""

import hashlib
import json
import os
from contextlib import nullcontext
from dataclasses import fields, replace
from unittest import mock

import pytest

from repro.cluster.machine import ClusterModel, GpuDevice
from repro.config import (
    ADAM_TF,
    CAFFE_PS,
    CAFFE_WFBP,
    CNTK_1BIT,
    POSEIDON_CAFFE,
    POSEIDON_TF,
    TF,
    TF_WFBP,
    ClusterConfig,
    Partitioning,
    ScheduleMode,
    poseidon_system,
)
from repro.core.policy import SyncPolicy
from repro.exceptions import ConfigurationError, SimulationError
from repro.nn.model_zoo import get_model_spec
from repro.nn.spec import SpecBuilder
from repro.simulation import build_workload, simulate_system
from repro.simulation.speedup import scaling_curve
from repro.simulation.throughput import (IterationSimulator, SimulationResult,
                                         decide_schemes)
from sim_reference import worker_per_process


def cluster(nodes, bandwidth=40.0, **kwargs):
    return ClusterConfig(num_workers=nodes, bandwidth_gbps=bandwidth, **kwargs)


class TestSingleNode:
    def test_single_node_iteration_equals_compute(self, vgg19_spec):
        result = simulate_system(vgg19_spec, POSEIDON_CAFFE, cluster(1))
        assert result.iteration_seconds == pytest.approx(
            result.compute_seconds, rel=1e-6)
        assert result.speedup == pytest.approx(1.0, rel=1e-6)

    def test_caffe_ps_single_node_overhead(self, vgg19_spec):
        """The vanilla PS baseline is slower than plain Caffe even on 1 node."""
        result = simulate_system(vgg19_spec, CAFFE_PS, cluster(1))
        assert result.speedup < 0.75

    def test_gpu_fully_busy_on_single_node(self, vgg19_spec):
        result = simulate_system(vgg19_spec, POSEIDON_CAFFE, cluster(1))
        assert result.gpu_busy_fraction == pytest.approx(1.0, abs=1e-6)

    def test_throughput_definition(self, vgg19_spec):
        result = simulate_system(vgg19_spec, POSEIDON_CAFFE, cluster(4))
        assert result.throughput_images_per_sec == pytest.approx(
            4 * result.batch_size / result.iteration_seconds)


class TestScalingShapes:
    def test_speedup_monotonic_in_nodes(self, vgg19_spec):
        curve = scaling_curve(vgg19_spec, POSEIDON_CAFFE,
                              node_counts=(1, 2, 4, 8), bandwidth_gbps=40.0)
        assert curve.speedups == sorted(curve.speedups)

    def test_speedup_bounded_by_node_count(self, vgg19_spec):
        curve = scaling_curve(vgg19_spec, POSEIDON_CAFFE,
                              node_counts=(2, 8, 16), bandwidth_gbps=40.0)
        for nodes, speedup in zip(curve.node_counts, curve.speedups):
            assert speedup <= nodes + 1e-6

    def test_wfbp_beats_sequential_ps(self, vgg19_spec):
        wfbp = simulate_system(vgg19_spec, CAFFE_WFBP, cluster(16))
        sequential = simulate_system(vgg19_spec, CAFFE_PS, cluster(16))
        assert wfbp.speedup > sequential.speedup

    def test_poseidon_at_least_as_fast_as_ps_only(self, vgg19_spec):
        """Poseidon never underperforms the PS scheme (Section 5.2)."""
        for bandwidth in (10.0, 40.0):
            poseidon = simulate_system(vgg19_spec, POSEIDON_CAFFE,
                                       cluster(16, bandwidth))
            ps_only = simulate_system(vgg19_spec, CAFFE_WFBP, cluster(16, bandwidth))
            assert poseidon.speedup >= ps_only.speedup - 1e-6

    def test_hybcomm_shines_at_low_bandwidth(self, vgg19_spec):
        """At 10 GbE the PS-only system loses half its throughput; Poseidon doesn't."""
        poseidon = simulate_system(vgg19_spec, POSEIDON_CAFFE, cluster(16, 10.0))
        ps_only = simulate_system(vgg19_spec, CAFFE_WFBP, cluster(16, 10.0))
        assert poseidon.speedup > 1.5 * ps_only.speedup
        assert poseidon.speedup > 14.0

    def test_more_bandwidth_never_hurts(self, vgg19_spec):
        slow = simulate_system(vgg19_spec, CAFFE_WFBP, cluster(16, 10.0))
        fast = simulate_system(vgg19_spec, CAFFE_WFBP, cluster(16, 40.0))
        assert fast.speedup >= slow.speedup

    def test_googlenet_poseidon_reduces_to_ps(self, googlenet_spec):
        """GoogLeNet (thin FC, batch 128): the hybrid plan contains no SFB unit."""
        result = simulate_system(googlenet_spec, POSEIDON_CAFFE, cluster(16))
        assert "sfb" not in result.scheme_by_unit.values()

    def test_vgg_poseidon_uses_sfb_for_fc(self, vgg19_spec):
        result = simulate_system(vgg19_spec, POSEIDON_CAFFE, cluster(16))
        assert result.scheme_by_unit["fc6"] == "sfb"
        assert result.scheme_by_unit["conv1_1"] == "ps"

    @pytest.mark.parametrize("mode", ["sfb", "adam"])
    def test_factor_mode_leaves_conv_on_ps(self, vgg19_spec, mode):
        """A factor scheme forced on every layer still leaves the conv
        layers, which have no sufficient factors, on the PS."""
        schemes = decide_schemes(build_workload(vgg19_spec), mode,
                                 ClusterConfig(num_workers=16))
        assert {name: scheme for name, scheme in schemes.items()
                if scheme != "ps"} == dict.fromkeys(("fc6", "fc7", "fc8"), mode)
        assert schemes["conv1_1"] == "ps"


class TestTensorFlowBaseline:
    def test_tf_scales_poorly_on_vgg(self, vgg19_spec):
        """Coarse partitioning + no pull overlap caps TF's VGG19 scaling."""
        tf = simulate_system(vgg19_spec, TF, cluster(16))
        poseidon = simulate_system(vgg19_spec, POSEIDON_TF, cluster(16))
        assert tf.speedup < 0.5 * poseidon.speedup

    def test_tf_wfbp_between_tf_and_poseidon(self, vgg19_spec):
        tf = simulate_system(vgg19_spec, TF, cluster(16))
        tf_wfbp = simulate_system(vgg19_spec, TF_WFBP, cluster(16))
        poseidon = simulate_system(vgg19_spec, POSEIDON_TF, cluster(16))
        assert tf.speedup <= tf_wfbp.speedup <= poseidon.speedup + 1e-6

    def test_tf_hotspot_traffic_imbalanced(self, vgg19_spec):
        result = simulate_system(vgg19_spec, TF, cluster(8))
        traffic = result.per_node_traffic_bytes
        assert max(traffic) > 1.5 * (sum(traffic) / len(traffic))

    def test_fine_partitioning_traffic_balanced(self, vgg19_spec):
        result = simulate_system(vgg19_spec, TF_WFBP, cluster(8))
        traffic = result.per_node_traffic_bytes
        assert max(traffic) == pytest.approx(min(traffic), rel=0.05)

    def test_stall_ordering_matches_figure7(self, vgg19_spec):
        tf = simulate_system(vgg19_spec, TF, cluster(8))
        tf_wfbp = simulate_system(vgg19_spec, TF_WFBP, cluster(8))
        poseidon = simulate_system(vgg19_spec, POSEIDON_TF, cluster(8))
        assert tf.gpu_stall_fraction > tf_wfbp.gpu_stall_fraction >= \
            poseidon.gpu_stall_fraction - 1e-9


class TestAdamAndQuantization:
    def test_adam_creates_hotspot(self, vgg19_spec):
        result = simulate_system(vgg19_spec, ADAM_TF, cluster(8))
        traffic = result.per_node_traffic_bytes
        assert max(traffic) > 2.0 * (sum(traffic) / len(traffic))

    def test_adam_slower_than_poseidon(self, vgg19_spec):
        adam = simulate_system(vgg19_spec, ADAM_TF, cluster(8))
        poseidon = simulate_system(vgg19_spec, POSEIDON_TF, cluster(8))
        assert adam.speedup < poseidon.speedup

    def test_poseidon_traffic_below_dense_ps(self, vgg19_spec):
        dense = simulate_system(vgg19_spec, TF_WFBP, cluster(8))
        poseidon = simulate_system(vgg19_spec, POSEIDON_TF, cluster(8))
        assert poseidon.mean_traffic_gbits < 0.5 * dense.mean_traffic_gbits

    def test_cntk_quantization_lowers_traffic_but_not_ideal_speedup(self, vgg19_spec):
        cntk = simulate_system(vgg19_spec, CNTK_1BIT, cluster(16))
        poseidon = simulate_system(vgg19_spec, POSEIDON_CAFFE, cluster(16))
        assert cntk.mean_traffic_gbits < poseidon.mean_traffic_gbits
        assert cntk.speedup < poseidon.speedup


class TestSimulatorInternals:
    def test_workload_reuse_gives_same_result(self, vgg19_spec):
        workload = build_workload(vgg19_spec)
        a = simulate_system(vgg19_spec, POSEIDON_CAFFE, cluster(8), workload=workload)
        b = simulate_system(vgg19_spec, POSEIDON_CAFFE, cluster(8), workload=workload)
        assert a.iteration_seconds == pytest.approx(b.iteration_seconds, rel=1e-9)

    def test_simulator_is_deterministic(self, googlenet_spec):
        a = simulate_system(googlenet_spec, TF, cluster(8))
        b = simulate_system(googlenet_spec, TF, cluster(8))
        assert a.iteration_seconds == b.iteration_seconds
        assert a.per_node_traffic_bytes == b.per_node_traffic_bytes

    def test_traffic_symmetry_under_fine_ps(self, vgg19_spec):
        """With colocated shards, every node sends as much as it receives."""
        result = simulate_system(vgg19_spec, CAFFE_WFBP, cluster(8))
        assert result.per_node_traffic_bytes  # populated
        # Total cluster traffic is conserved: sent == received overall, and
        # per-node loads are symmetric by construction in the balanced case.
        assert max(result.per_node_traffic_bytes) == pytest.approx(
            min(result.per_node_traffic_bytes), rel=0.05)

    @pytest.mark.parametrize("system", [CAFFE_WFBP, TF],
                             ids=["symmetric", "every worker"])
    def test_failed_run_is_still_the_one_use(self, googlenet_spec, system):
        """A sync process that raises leaves the event queue half-drained;
        the guard used to trip only once a run had succeeded."""
        def failing_transfer(self, src, dst, nbytes, tag="untagged", repeat=1):
            raise SimulationError("link down")

        simulator = IterationSimulator(build_workload(googlenet_spec),
                                       cluster(4), system)
        with mock.patch.object(ClusterModel, "transfer", failing_transfer):
            with pytest.raises(SimulationError, match="link down"):
                simulator.run()
        with pytest.raises(SimulationError, match="single-use"):
            simulator.run()

    @pytest.mark.parametrize("system", [CAFFE_WFBP, TF],
                             ids=["one class", "class per worker"])
    def test_a_raising_kernel_fails_the_run(self, googlenet_spec, system):
        """A kernel that raises fails its compute class, and the run fails
        with that error -- also when the other classes are left waiting on
        syncs the failed one never starts."""
        compute = GpuDevice.compute
        calls = []

        def raising_compute(self, seconds, alike=()):
            calls.append(seconds)
            if len(calls) == 3:
                raise SimulationError("kernel failed")
            return compute(self, seconds, alike)

        per_worker = worker_per_process() if system is TF else nullcontext()
        with per_worker, mock.patch.object(GpuDevice, "compute",
                                           raising_compute):
            simulator = IterationSimulator(build_workload(googlenet_spec),
                                           cluster(4), system)
            with pytest.raises(SimulationError, match="kernel failed"):
                simulator.run()
            with pytest.raises(SimulationError, match="single-use"):
                simulator.run()
        assert len(calls) >= 3

    @pytest.mark.parametrize("system", [
        CAFFE_WFBP, poseidon_system("Adam", "adam")], ids=["ps", "adam"])
    def test_a_failing_shard_side_surfaces_as_itself(self, vgg19_spec,
                                                      system):
        """A shard side that raises used to be dropped: its members waited
        forever, the queue drained and the unfinished worker's ``None``
        makespan failed as an unrelated ``TypeError``."""
        def failing_gather(self, node_ids, nbytes_each, tag="untagged"):
            raise SimulationError("shard side failed")

        with mock.patch.object(ClusterModel, "fabric_gather", failing_gather):
            with pytest.raises(SimulationError, match="shard side failed"):
                IterationSimulator(build_workload(vgg19_spec),
                                   cluster(8, 10.0), system).run()

    def test_a_drained_queue_names_the_unfinished_compute_class(
            self, vgg19_spec):
        """A gather that never completes leaves every member waiting: the
        run names the compute class that did not finish."""
        def stuck_gather(self, node_ids, nbytes_each, tag="untagged"):
            return self.env.event()

        with mock.patch.object(ClusterModel, "fabric_gather", stuck_gather):
            with pytest.raises(SimulationError,
                               match=r"compute class of workers \(0,"):
                IterationSimulator(build_workload(vgg19_spec),
                                   cluster(8, 10.0), CAFFE_WFBP).run()

    def test_shard_nodes_are_listed_once_in_id_order(self, googlenet_spec):
        """``_fabric_fan`` books same-instant flows in the order it is given
        the nodes: a sorted tuple, not a set's iteration order."""
        workload = build_workload(googlenet_spec)
        for layout, nodes in (
                (cluster(8), tuple(range(8))),
                (cluster(8, num_servers=3), (0, 1, 2)),
                (cluster(8, num_servers=12), tuple(range(8))),
                (cluster(4, num_servers=2, colocate_servers=False), (4, 5))):
            simulator = IterationSimulator(workload, layout, CAFFE_WFBP)
            assert simulator.shard_nodes == nodes

    @pytest.mark.parametrize("seconds", [float("inf"), float("nan")])
    def test_result_rejects_a_non_finite_iteration(self, seconds):
        with pytest.raises(SimulationError, match="positive and finite"):
            SimulationResult("m", "s", 4, 10.0, 32, seconds, 1.0, 1.0)

    def test_multi_gpu_adds_local_reduction_but_scales(self, googlenet_spec):
        single = simulate_system(googlenet_spec, POSEIDON_CAFFE,
                                 cluster(1, gpus_per_node=1))
        multi = simulate_system(googlenet_spec, POSEIDON_CAFFE,
                                cluster(1, gpus_per_node=4))
        # Per-GPU iteration time barely changes; total throughput is ~4x.
        assert multi.iteration_seconds < 1.2 * single.iteration_seconds


# -- recorded table: every policy, schedule, straggler set and network -----------
TABLE_PATH = os.path.join(os.path.dirname(__file__), "data",
                          "des_policy_table.json")


def _table_spec():
    """Three units (the merged convolutions, an FC that HybComm sends as
    sufficient factors, a small head) with compute ~1/4 of a 10 GbE sync,
    so that every policy and straggler set moves the result."""
    builder = SpecBuilder("policy-table-net", input_shape=(3, 128, 128))
    builder.conv("conv1", out_channels=64, kernel=5, pad=2)
    builder.max_pool("pool1", kernel=4, stride=4)
    builder.conv("conv2", out_channels=128, kernel=3, pad=1)
    builder.max_pool("pool2", kernel=4, stride=4)
    builder.flatten("flat")
    builder.fc("fc1", 1024)
    builder.fc("fc2", 10)
    return builder.build(default_batch_size=128)


TABLE_WORKLOAD = build_workload(_table_spec())
TABLE_SYSTEMS = (("PS", CAFFE_WFBP), ("HybComm", POSEIDON_CAFFE),
                 ("Ring-AllReduce", poseidon_system("Ring-AllReduce", "ring")),
                 ("TF", TF))
TABLE_POLICIES = ("bsp", "ssp(1)", "ssp(3)", "async", "local_sgd(4)")
#: Table systems with a unit on a BSP-only scheme (HybComm's fc1 on SFB,
#: ring): the trainer refuses them under SSP and async, and so does the DES.
BSP_ONLY_SYSTEMS = ("HybComm", "Ring-AllReduce")


def des_table_points(policies=TABLE_POLICIES, refused=False):
    """``(key, system, cluster)`` of every recorded point (8 nodes, 10 GbE);
    with ``refused``, of every point the plan refuses instead."""
    flat = cluster(8, 10.0)
    racked = replace(flat, racks=2, oversubscription=4.0)
    for label, base in TABLE_SYSTEMS:
        networks = [("flat", flat)]
        if label in ("PS", "HybComm"):
            networks.append(("2r/4", racked))
        for schedule in ScheduleMode:
            for slow in ("uniform", "stragglers"):
                system = replace(base, schedule=schedule)
                if slow == "stragglers":
                    system = system.with_faults(0.25, 2.0)
                for network, layout in networks:
                    for policy in policies:
                        relaxed = SyncPolicy.parse(policy).relaxed_consistency
                        if (relaxed and label in BSP_ONLY_SYSTEMS) != refused:
                            continue
                        yield (f"{label}|{schedule.value}|{slow}|{network}"
                               f"|{policy}", system.with_policy(policy), layout)


def des_table_entry(system, layout):
    """``repr`` of every result field, the event count and a digest of
    every node's per-tag sent and received bytes."""
    simulator = IterationSimulator(TABLE_WORKLOAD, layout, system)
    result = simulator.run()
    accounts = [
        [sorted((tag, repr(nbytes)) for tag, nbytes in by_tag.items())
         for by_tag in (traffic.by_tag_sent, traffic.by_tag_received)]
        for traffic in (simulator.cluster.machine(node).nic.traffic
                        for node in sorted(simulator.cluster.machines))]
    return {
        "result": {f.name: repr(getattr(result, f.name))
                   for f in fields(result)},
        "events": simulator.env.events_processed,
        "accounts": hashlib.sha256(
            json.dumps(accounts).encode()).hexdigest(),
    }


class TestRecordedPolicyTable:
    """Every policy runs the one worker loop: BSP is its one-round case and
    the relaxed policies its multi-round one, each pinned event for event."""

    @pytest.fixture(scope="class")
    def table(self):
        with open(TABLE_PATH) as fh:
            return json.load(fh)["points"]

    def test_table_covers_every_point(self, table):
        # Entries recorded before the plan refused a point are not read;
        # the next re-record drops them.
        refused = {key for key, *_ in des_table_points(refused=True)}
        assert sorted(set(table) - refused) == sorted(
            key for key, *_ in des_table_points())

    @pytest.mark.parametrize("key,system,layout", list(des_table_points()),
                             ids=[key for key, *_ in des_table_points()])
    def test_point_bit_identical(self, table, key, system, layout):
        assert des_table_entry(system, layout) == table[key]

    @pytest.mark.parametrize(
        "key,system,layout", list(des_table_points(refused=True)),
        ids=[key for key, *_ in des_table_points(refused=True)])
    def test_point_the_trainer_refuses_is_refused(self, key, system, layout):
        with pytest.raises(ConfigurationError, match="cannot run under policy"):
            IterationSimulator(TABLE_WORKLOAD, layout, system)

    @pytest.mark.parametrize("degenerate", ["ssp(0)", "local_sgd(1)"])
    @pytest.mark.parametrize("key,system,layout",
                             list(des_table_points(("bsp",))),
                             ids=[key for key, *_ in des_table_points(("bsp",))])
    def test_degenerate_policy_is_bsp(self, key, system, layout, degenerate):
        bsp = IterationSimulator(TABLE_WORKLOAD, layout, system)
        same = IterationSimulator(TABLE_WORKLOAD, layout,
                                  system.with_policy(degenerate))
        assert same.run() == bsp.run()
        assert same.env.events_processed == bsp.env.events_processed
        for node in bsp.cluster.machines:
            assert (same.cluster.machine(node).nic.traffic
                    == bsp.cluster.machine(node).nic.traffic)


if __name__ == "__main__":  # re-record the policy table
    recorded = {}
    if os.path.exists(TABLE_PATH):
        with open(TABLE_PATH) as fh:
            recorded = json.load(fh)["points"]
    points = {key: des_table_entry(system, layout)
              for key, system, layout in des_table_points()}
    moved = [key for key in sorted(recorded) if recorded[key] != points.get(key)]
    for key in moved:
        print(f"{key}: {recorded[key]} -> {points.get(key)}")
    new = sorted(set(points) - set(recorded))
    print(f"{len(moved)} of {len(recorded)} keys moved, {len(new)} new")
    with open(TABLE_PATH, "w") as fh:
        json.dump({
            "note": ("IterationSimulator on a three-unit net at 8 nodes and "
                     "10 GbE: repr() of every SimulationResult field, "
                     "events_processed and a sha256 of every node's per-tag "
                     "byte accounts; recorded before BSP became the "
                     "one-round case of the relaxed-policy run"),
            "points": points,
        }, fh, indent=1)
        fh.write("\n")
