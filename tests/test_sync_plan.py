"""The resolved sync plan: one decision rule, one payload statement, one memo.

* every planning entry point -- the trainer's ``assign_schemes``, the
  simulators' ``decide_schemes`` and, under ``"hybrid"``, the cost model's
  ``best_scheme`` -- returns the same scheme per layer, for every mode on
  flat and racked clusters;
* a zoo model's resolved plan syncs every parameter layer exactly once,
  puts SFB only on units with sufficient factors, and Algorithm 1 never
  picks a scheme that moves more bytes than pure PS;
* the per-node traffic the DES measures at its NICs equals, node for
  node, the traffic ``node_traffic`` folds from the plan's phases, for
  every backend x topology x cluster size x shard placement x
  partitioning, and for a transformer's token FCs priced at their real
  factor rank; hierarchical PS's folded leader traffic is its per-rack
  loop, bit for bit;
* a backend declaring ``unit_phases`` -- phases only, including a phase
  sequence no shipped backend uses -- runs under the DES and both fluid
  tiers with no edit to either, and gets the DES's per-node traffic from
  the fold; one declaring no phases, an unknown
  kind or peer role, a repeat count no interpreter runs or a negative /
  non-finite size is refused by ``resolve_plan``, hence at construction of
  either engine;
* the DES's two lowerings of a repeated ring phase are each other's oracle:
  on ring-only BSP plans whose workers all compute at one speed, one hold
  per worker equals the stepped rounds (times, busy fraction, traffic) at a
  closed-form event count; mixed plans, stragglers and relaxed policies
  keep the stepped lowering, bit for bit;
* the DES's two lowerings of a symmetric plan are each other's oracle: a
  flat, uniform, shard-on-every-node BSP plan of fabric phases and
  all-to-all broadcasts (or the one-hold ring step) steps one
  representative worker, and equals the every-worker lowering with ``==``
  -- times, busy fraction, per-node and per-tag traffic -- at an event
  count that does not depend on ``P``; everything else keeps every
  worker, bit for bit;
* the fluid detail tier's two bookings of a symmetric plan are each
  other's oracle: a node-symmetric plan (``SyncPlan.node_symmetric``) books
  node 0 alone and equals the every-node replay with ``==``; owner fans,
  rack leaders, racks and partial shard layouts book every node;
* the DES lowers a broadcast's receivers once per distinct countdown, to
  the step tuples the per-hub walk made;
* an all-to-all is one rotated schedule in the DES and both fluid tiers:
  idle and flat, it takes exactly ``P - 1`` copy slots in each;
* the ``overlap_pull`` gate is one rule on the phase: toggling it moves
  both engines the same way for every backend;
* memo tables key on the whole frozen inputs, so a warm ``sweep_axis``
  misses whenever any system or cluster field differs.
"""

import contextlib
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro import memo, units
from repro.comm.backend import (
    ADAM_BACKEND,
    AdamBackend,
    Peers,
    Phase,
    PhaseKind,
    Scope,
    SyncShape,
    get_backend,
    tree_rack_size,
    owner_fan_phases,
    register_backend,
    unregister_backend,
)
from repro.config import (
    POSEIDON_CAFFE,
    POSEIDON_TF,
    ClusterConfig,
    Partitioning,
    ScheduleMode,
    poseidon_system,
)
from repro.core.cost_model import CostModel
from repro.exceptions import ConfigurationError
from repro.experiments.fig_backends import backend_systems
from repro.nn.model_zoo import get_model_spec
from repro.nn.model_zoo.mlp import build_mlp_network, mlp_spec
from repro.parallel import assign_schemes
from repro.simulation.fluid import FluidSimulator, sweep_axis
from repro.simulation.plan import node_traffic, resolve_plan
from repro.simulation.throughput import IterationSimulator, decide_schemes
from repro.simulation.workload import IterationWorkload, SyncUnit, build_workload
from sim_reference import (every_node, lower_unit_per_hub, one_unit_plan,
                           worker_per_process)

ALEXNET = get_model_spec("alexnet")
VGG = get_model_spec("vgg19")
RING_ALLREDUCE = poseidon_system("Ring-AllReduce", "ring")

#: Flat, and two racks at 2:1 oversubscription.
TOPOLOGIES = ((1, 1.0), (2, 2.0))


# -- one decision rule -----------------------------------------------------------
class TestOneDecisionRule:
    """assign_schemes == decide_schemes (== CostModel.best_scheme under
    hybrid), layer by layer."""

    # 512x512 favours SFB at K=8, the 512x10 head the PS; under rack
    # oversubscription the topology candidates join the hybrid choice.
    DIMS = dict(input_dim=512, hidden_dims=(512, 64), num_classes=10)
    BATCH = 8

    @pytest.mark.parametrize("racks,oversubscription,colocated", (
        *(pytest.param(*topology, True, id="-".join(map(str, topology)))
          for topology in TOPOLOGIES),
        # 8 dedicated shards extend the racks: 4 nodes each, where
        # ceil(8 workers / 4 racks) would be 2.
        pytest.param(4, 4.0, False, id="4-4.0-dedicated")))
    @pytest.mark.parametrize(
        "mode", ("ps", "hybrid", "adam", "onebit", "sfb", "ring", "hierps"))
    def test_three_entry_points_agree(self, mode, racks, oversubscription,
                                      colocated):
        cluster = ClusterConfig(num_workers=8, racks=racks,
                                oversubscription=oversubscription,
                                colocate_servers=colocated)
        spec = mlp_spec(**self.DIMS)
        network = build_mlp_network(**self.DIMS)

        trainer_side = assign_schemes(network, mode, cluster,
                                      self.BATCH).schemes
        workload = build_workload(spec, batch_size=self.BATCH)
        simulator_side = decide_schemes(workload, mode, cluster)
        assert trainer_side == dict(simulator_side)
        if mode == "hybrid":
            cost_model = CostModel(cluster, self.BATCH)
            assert trainer_side == {layer.name: cost_model.best_scheme(layer)
                                    for layer in spec.parameter_layers()}
        if mode == "hierps":
            # The plan's tree and the price's tree are one rack size.
            plan = resolve_plan(workload, poseidon_system("HierPS", mode),
                                cluster)
            shape = plan.shape
            assert shape.rack_size == tree_rack_size(cluster) == (
                4 if cluster.is_flat_topology else cluster.nodes_per_rack)
            hierps, (m, n) = get_backend(mode), workload.units[0].fc_dims
            assert hierps.flat_cost(m, n, cluster, self.BATCH) == \
                2.0 * m * n * max(shape.leader_fan, shape.num_racks)
            if not cluster.is_flat_topology:
                assert hierps.rack_uplink_params(m, n, cluster, self.BATCH) \
                    == 2.0 * m * n * (shape.num_racks - 1)
        assert set(trainer_side) == {"fc1", "fc2", "classifier"}

    def test_hybrid_mixes_schemes_on_this_stack(self):
        workload = build_workload(mlp_spec(**self.DIMS), batch_size=self.BATCH)
        schemes = decide_schemes(workload, "hybrid", ClusterConfig(num_workers=8))
        assert schemes["fc1"] == "sfb"
        assert schemes["classifier"] == "ps"


class TestModelLevelDecisions:
    """The engines' plan of each zoo model: every parameter layer is synced
    exactly once, SFB only where sufficient factors exist, and Algorithm 1
    never moves more bytes than pure PS."""

    MODELS = ("alexnet", "googlenet", "resnet-50", "vgg19", "vgg19-22k",
              "nanogpt-12l")
    CLUSTER = ClusterConfig(num_workers=8)

    @pytest.mark.parametrize("key", MODELS)
    def test_plan_covers_every_parameter_layer_once(self, key):
        spec = get_model_spec(key)
        plan = resolve_plan(build_workload(spec), POSEIDON_CAFFE, self.CLUSTER)
        synced = [name for unit_plan in plan.units
                  for name in unit_plan.unit.layer_names]
        assert sorted(synced) == sorted(
            layer.name for layer in spec.parameter_layers())
        assert all(unit_plan.unit.sf_eligible for unit_plan in plan.units
                   if unit_plan.backend.name == "sfb")

    @pytest.mark.parametrize("key", MODELS)
    def test_best_scheme_never_moves_more_bytes_than_ps(self, key):
        spec = get_model_spec(key)
        cost_model = CostModel(self.CLUSTER, spec.default_batch_size)
        for layer in spec.parameter_layers():
            best = cost_model.best_scheme(layer)
            assert (cost_model.scheme_cost_bytes(layer, best)
                    <= cost_model.scheme_cost_bytes(layer, "ps")), layer.name


# -- one schedule statement, its traffic folded -----------------------------------
def _traffic(simulator_cls, workload, cluster, system):
    return np.asarray(
        simulator_cls(workload, cluster, system).run().per_node_traffic_bytes)


class TestDeclaredTrafficMatchesMeasured:
    @pytest.mark.parametrize("partitioning", Partitioning)
    @pytest.mark.parametrize("servers", (None, 3),
                             ids=("colocated", "dedicated"))
    @pytest.mark.parametrize("racks,oversubscription", TOPOLOGIES)
    @pytest.mark.parametrize("nodes", (5, 8, 16))
    def test_des_equals_fluid_for_every_backend(self, nodes, racks,
                                                oversubscription, servers,
                                                partitioning):
        shards = (dict(num_servers=servers, colocate_servers=False)
                  if servers else {})
        cluster = ClusterConfig(num_workers=nodes, bandwidth_gbps=40.0,
                                racks=racks, oversubscription=oversubscription,
                                **shards)
        workload = build_workload(ALEXNET, gpu=cluster.gpu)
        for system in backend_systems():
            system = replace(system, partitioning=partitioning)
            np.testing.assert_allclose(
                _traffic(FluidSimulator, workload, cluster, system),
                _traffic(IterationSimulator, workload, cluster, system),
                rtol=1e-9, err_msg=system.name)

    @pytest.mark.parametrize("racks,oversubscription", TOPOLOGIES)
    @pytest.mark.parametrize("nodes", (4, 8))
    @pytest.mark.parametrize("system", ("SFB", "HybComm", "Adam"))
    def test_token_fc_rank_reaches_both_engines(self, system, nodes, racks,
                                                oversubscription):
        """nanogpt-12l's token FCs ship ``K = B * T`` factor rows in both
        engines: the plan both read prices them so, node for node."""
        cluster = ClusterConfig(num_workers=nodes, bandwidth_gbps=40.0,
                                racks=racks, oversubscription=oversubscription)
        workload = build_workload(get_model_spec("nanogpt-12l"),
                                  gpu=cluster.gpu)
        np.testing.assert_allclose(
            _traffic(FluidSimulator, workload, cluster, SYSTEMS[system]),
            _traffic(IterationSimulator, workload, cluster, SYSTEMS[system]),
            rtol=1e-9)
        head = resolve_plan(workload, SYSTEMS[system], cluster).by_name["lm_head"]
        rows = workload.batch_size * 256
        assert head.unit.factor_rank == 256
        if head.backend.requires_factorization:
            assert head.phases[0].nbytes == rows * (384 + 50304) * 4

    def test_hierps_counts_leader_fan_and_real_racks(self):
        """The parent's fluid figure ignored leaders and hard-coded racks of 4."""
        cluster = ClusterConfig(num_workers=16, racks=2, oversubscription=2.0)
        workload = build_workload(ALEXNET, gpu=cluster.gpu)
        hierps = next(s for s in backend_systems()
                      if s.comm == "hierps")
        plan = resolve_plan(workload, hierps, cluster)
        assert plan.shape.rack_size == 8
        # The first unit alone: only its leaders move more than a member.
        first = node_traffic(replace(plan, units=plan.units[:1]), cluster)
        leaders = {node for node, moved in enumerate(first)
                   if moved > min(first)}
        assert leaders == {0, 8}
        np.testing.assert_allclose(
            _traffic(FluidSimulator, workload, cluster, hierps),
            _traffic(IterationSimulator, workload, cluster, hierps),
            rtol=1e-9)

    def test_dedicated_servers_are_counted(self):
        cluster = ClusterConfig(num_workers=4, num_servers=2,
                                colocate_servers=False)
        workload = build_workload(ALEXNET, gpu=cluster.gpu)
        for system in backend_systems():
            measured = _traffic(IterationSimulator, workload, cluster, system)
            declared = _traffic(FluidSimulator, workload, cluster, system)
            assert len(declared) == len(measured) == cluster.num_nodes
            np.testing.assert_allclose(declared, measured, rtol=1e-9,
                                       err_msg=system.name)


def _hierps_reference(dense, shape, owner):
    """Hierarchical PS's leader traffic as a loop over every rack: leader
    node -> its bytes, and the root owner's bytes."""
    leaders, remote_leaders = {}, 0
    for members in shape.racks:
        remote = members[0] != owner
        remote_leaders += remote
        leaders[members[0]] = 2.0 * dense * (len(members) - 2 + remote)
    return leaders, 2.0 * dense * remote_leaders


class TestHierPSLeadersAreTheRackLoop:
    """The fold's hierarchical-PS traffic is the per-rack loop's, node for
    node and bit for bit, wherever the owner sits."""

    @settings(max_examples=300, deadline=None)
    @given(workers=st.integers(1, 300), rack_size=st.integers(1, 64),
           colocated=st.booleans(), data=st.data(),
           param_bytes=st.integers(1, 10**9).map(float))
    def test_fold_is_the_loop(self, workers, rack_size, colocated, data,
                              param_bytes):
        servers = workers if colocated else data.draw(st.integers(1, 300))
        shape = SyncShape(num_workers=workers, num_servers=servers,
                          batch_size=32, colocated=colocated,
                          rack_size=rack_size)
        cluster = ClusterConfig(num_workers=workers, num_servers=servers,
                                colocate_servers=colocated)
        owner = data.draw(st.integers(0, workers - 1) if colocated
                          else st.integers(workers, workers + servers - 1))
        unit = SyncUnit("fc", param_bytes, True, (1, 1), 0.0, ("fc",))
        plan = one_unit_plan(get_backend("hierps"), unit, shape, owner)
        expected = [0.0] * cluster.num_nodes
        if workers > 1:
            leaders, owner_bytes = _hierps_reference(param_bytes, shape, owner)
            for node in range(workers):
                expected[node] = 2.0 * param_bytes + leaders.get(node, 0.0)
            expected[owner] += owner_bytes
        assert node_traffic(plan, cluster) == expected


class _OwnerFanHalf(AdamBackend):
    """Test-only scheme: half-size gradients up, dense parameters back."""

    def unit_phases(self, unit, shape, owner):
        return owner_fan_phases(unit.param_bytes / 2.0, unit.param_bytes)


class _TwoLevelFanInFlatBroadcast(AdamBackend):
    """Test-only sequence no shipped backend uses: rack-local fan-in, the
    leaders' aggregates to the owner, then one owner broadcast to everyone."""

    def unit_phases(self, unit, shape, owner):
        dense = unit.param_bytes
        return (Phase(PhaseKind.FAN_IN, Peers.RACK_MEMBERS, Peers.RACK_LEADERS,
                      dense, scope=Scope.GROUP),
                Phase(PhaseKind.FAN_IN, Peers.RACK_LEADERS, Peers.OWNER,
                      dense),
                Phase(PhaseKind.BROADCAST, Peers.OWNER, Peers.WORKERS, dense,
                      gated=True))


def _declares(*phases):
    """A test-only backend whose every unit declares exactly ``phases``."""
    class Declared(AdamBackend):
        def unit_phases(self, unit, shape, owner):
            return phases
    return Declared()


@pytest.fixture
def swap_adam_backend():
    """Register a test backend under the ``adam`` comm mode, then restore."""
    def swap(backend):
        unregister_backend("adam")
        register_backend(backend)
    try:
        yield swap
    finally:
        unregister_backend("adam")
        register_backend(ADAM_BACKEND)


class TestBackendDeclaresItsPayloadOnce:
    SYSTEM = next(s for s in backend_systems() if s.comm == "adam")

    @pytest.mark.parametrize("racks,oversubscription", TOPOLOGIES)
    def test_new_backend_runs_under_both_engines(self, swap_adam_backend,
                                                 racks, oversubscription):
        swap_adam_backend(_OwnerFanHalf())
        cluster = ClusterConfig(num_workers=8, racks=racks,
                                oversubscription=oversubscription)
        workload = build_workload(ALEXNET, gpu=cluster.gpu)
        des = IterationSimulator(workload, cluster, self.SYSTEM).run()
        analytic = FluidSimulator(workload, cluster, self.SYSTEM).run()
        np.testing.assert_allclose(analytic.per_node_traffic_bytes,
                                   des.per_node_traffic_bytes, rtol=1e-9)
        # 1.5x the dense bytes per non-owner worker, not Adam's sf + dense.
        factorizable = sum(u.param_bytes for u in workload.units
                           if u.sf_eligible)
        rest = sum(u.param_bytes for u in workload.units if not u.sf_eligible)
        assert rest > 0  # conv units fall back to the (fine) PS
        assert sum(des.per_node_traffic_bytes) > 2 * 7 * 1.5 * factorizable
        assert analytic.iteration_seconds == pytest.approx(
            des.iteration_seconds, rel=0.5)

    @pytest.mark.parametrize("racks,oversubscription", TOPOLOGIES)
    def test_new_phase_sequence_needs_no_engine_edit(
            self, swap_adam_backend, racks, oversubscription):
        swap_adam_backend(_TwoLevelFanInFlatBroadcast())
        cluster = ClusterConfig(num_workers=8, racks=racks,
                                oversubscription=oversubscription)
        workload = build_workload(ALEXNET, gpu=cluster.gpu)
        des = IterationSimulator(workload, cluster, self.SYSTEM).run()
        for mode in ("detail", "aggregate"):
            analytic = FluidSimulator(workload, cluster, self.SYSTEM,
                                      mode=mode).run()
            np.testing.assert_allclose(analytic.per_node_traffic_bytes,
                                       des.per_node_traffic_bytes, rtol=1e-9)
            assert analytic.iteration_seconds == pytest.approx(
                des.iteration_seconds, rel=0.5), mode

    @pytest.mark.parametrize("mode", ["detail", "aggregate"])
    def test_gated_first_phase_enters_through_the_gate(
            self, swap_adam_backend, mode):
        """No shipped backend gates a unit's first phase; a schedule that
        does enters it through the gate.  Without pull overlap the gate
        opens at backward-done, so under WFBP the gated schedule books what
        the ungated one does under the sequential schedule (every unit
        ready at backward-done) -- on an all-FC model, whose every unit
        takes the declared schedule."""
        cluster = ClusterConfig(num_workers=8, racks=2, oversubscription=2.0)
        workload = build_workload(mlp_spec(1024, (1024, 1024), 10),
                                  gpu=cluster.gpu)

        def seconds(gated, schedule):
            swap_adam_backend(_declares(
                Phase(PhaseKind.FAN_IN, Peers.WORKERS, Peers.OWNER, 4e6,
                      gated=gated),
                Phase(PhaseKind.FAN_OUT, Peers.OWNER, Peers.WORKERS, 8e6,
                      gated=True)))
            system = replace(self.SYSTEM, schedule=schedule,
                             overlap_pull=False)
            return FluidSimulator(workload, cluster, system,
                                  mode=mode).iteration_seconds()

        assert (seconds(True, ScheduleMode.WFBP)
                == seconds(False, ScheduleMode.SEQUENTIAL))

    @pytest.mark.parametrize("phases,problem", [
        ((), "declares no phases"),
        ((Phase("teleport", Peers.WORKERS, Peers.OWNER, 1.0),),
         "unknown phase kind 'teleport'"),
        ((Phase(PhaseKind.FAN_IN, "everyone", Peers.OWNER, 1.0),),
         "unknown peer roles 'everyone'"),
        ((Phase(PhaseKind.FAN_IN, Peers.OWNER, Peers.WORKERS, 1.0),),
         "unknown peer roles"),
        # Both engines ran a repeated fan once; the DES then waited on a
        # countdown nobody arrives at (barrier -1 for an empty ring).
        ((Phase(PhaseKind.RING_STEP, Peers.WORKERS, Peers.SUCCESSOR, 1.0,
                repeat=0),), "repeats 0 times"),
        ((Phase(PhaseKind.FAN_IN, Peers.WORKERS, Peers.OWNER, 1.0, repeat=3),
          Phase(PhaseKind.FAN_OUT, Peers.OWNER, Peers.WORKERS, 1.0)),
         "fan_in.* repeats 3 times"),
        ((Phase(PhaseKind.FAN_IN, Peers.WORKERS, Peers.OWNER, -1.0),),
         "negative or non-finite size"),
        ((Phase(PhaseKind.FAN_IN, Peers.WORKERS, Peers.OWNER, math.nan),),
         "negative or non-finite size"),
        ((Phase(PhaseKind.FABRIC_OUT, Peers.WORKERS, Peers.SHARDS, 1.0,
                hub_bytes=math.inf),), "negative or non-finite size"),
    ])
    def test_undeclared_schedule_is_refused_at_construction(
            self, swap_adam_backend, phases, problem):
        swap_adam_backend(_declares(*phases))
        cluster = ClusterConfig(num_workers=4)
        workload = build_workload(ALEXNET, gpu=cluster.gpu)
        for construct in (
                lambda: resolve_plan(workload, self.SYSTEM, cluster),
                lambda: IterationSimulator(workload, cluster, self.SYSTEM),
                lambda: FluidSimulator(workload, cluster, self.SYSTEM)):
            with pytest.raises(ConfigurationError, match=problem):
                construct()

    def test_plan_stays_small_and_is_lowered_on_first_des_use(self):
        """Phases carry roles and counts -- a 10k-node plan holds no node
        list -- and only a DES run lowers them to per-worker steps."""
        from repro.simulation.throughput import _LOWERED

        big = ClusterConfig(num_workers=10000, racks=250, oversubscription=4.0)
        workload = build_workload(VGG, gpu=big.gpu)
        misses = _LOWERED.misses
        for system in backend_systems():
            for unit in resolve_plan(workload, system, big).units:
                assert 1 <= len(unit.phases) <= 4
                for phase in unit.phases:
                    assert all(isinstance(value, (int, float, Peers,
                                                  PhaseKind, Scope))
                               for value in vars(phase).values())
        small = ClusterConfig(num_workers=4)
        simulator = IterationSimulator(build_workload(ALEXNET), small,
                                       self.SYSTEM)
        FluidSimulator(build_workload(ALEXNET), small, self.SYSTEM).run()
        assert _LOWERED.misses == misses
        simulator.run()
        assert _LOWERED.misses == misses + 1

    def test_registry_change_drops_warm_plans(self, swap_adam_backend):
        cluster = ClusterConfig(num_workers=4)
        workload = build_workload(ALEXNET, gpu=cluster.gpu)
        before = resolve_plan(workload, self.SYSTEM, cluster)
        assert resolve_plan(workload, self.SYSTEM, cluster) is before
        swap_adam_backend(_OwnerFanHalf())
        after = resolve_plan(workload, self.SYSTEM, cluster)
        fc = next(i for i, u in enumerate(workload.units) if u.sf_eligible)
        push = after.units[fc].phases[0].nbytes
        assert push == workload.units[fc].param_bytes / 2
        assert before.units[fc].phases[0].nbytes != push


# -- one ring phase, two lowerings ---------------------------------------------------
def _run_ring(workload, cluster, system, stepped=False):
    """One DES run; ``stepped`` forces the per-step lowering on any plan."""
    lowered = IterationSimulator._lowered
    with mock.patch.object(
            IterationSimulator, "_lowered",
            lambda self, one_round: lowered(self, one_round and not stepped)):
        simulator = IterationSimulator(workload, cluster, system)
        return simulator, simulator.run()


class TestRingLoweringsAreEachOthersOracle:
    """``IterationSimulator._lowered`` books the ``2(P-1)`` steps of a
    ring-only BSP plan as one hold per worker when every worker computes at
    the same speed; the stepped lowering it replaces there is the reference,
    and stays the only one everywhere else."""

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        model=st.sampled_from(("vgg19", "googlenet", "nanogpt-12l")),
        nodes=st.integers(2, 24),
        bandwidth=st.sampled_from((1.0, 5.0, 10.0, 40.0)),
        topology=st.sampled_from(((1, 1.0), (2, 2.0), (3, 4.0), (4, 8.0))),
        stragglers=st.sampled_from(
            ((0.0, 1.0), (1.0, 2.0), (0.1, 1.5), (0.5, 3.0))),
        schedule=st.sampled_from(ScheduleMode),
        compressor=st.sampled_from(
            ("none", "topk(0.01)", "powersgd(4)")),
        bucket_bytes=st.sampled_from((None, 256 << 10, 4 << 20, 64 << 20)))
    def test_one_hold_equals_the_stepped_rounds(
            self, model, nodes, bandwidth, topology, stragglers, schedule,
            compressor, bucket_bytes):
        racks, oversubscription = topology if topology[0] <= nodes else (1, 1.0)
        cluster = ClusterConfig(num_workers=nodes, bandwidth_gbps=bandwidth,
                                racks=racks, oversubscription=oversubscription)
        system = replace(
            RING_ALLREDUCE, schedule=schedule, compressor=compressor,
            bucket_bytes=bucket_bytes, partitioning=Partitioning.COARSE,
        ).with_faults(*stragglers)
        workload = build_workload(get_model_spec(model), gpu=cluster.gpu)
        simulator, held = _run_ring(workload, cluster, system)
        reference, stepped = _run_ring(workload, cluster, system, stepped=True)

        assert held.iteration_seconds == pytest.approx(
            stepped.iteration_seconds, rel=1e-12)
        assert held.gpu_busy_fraction == pytest.approx(
            stepped.gpu_busy_fraction, rel=1e-12)
        assert held.per_node_traffic_bytes == pytest.approx(
            stepped.per_node_traffic_bytes, rel=1e-12)
        slow = math.ceil(stragglers[0] * nodes)
        if 0 < slow < nodes:  # a straggler set: the rounds stay stepped
            assert (simulator.env.events_processed
                    == reference.env.events_processed)
            assert held == stepped
            return
        # The stepped workers are one compute class.  Per class: start,
        # forward, each unit's backward kernel, sync join, end, and under
        # WFBP the start of every unit's syncs but the last's; per worker:
        # backward-done, the start of its last (WFBP) or every (sequential)
        # unit's syncs, and per unit the one hold (and the encode delay of a
        # compressed unit); per unit: started and the ring countdown -- and
        # a flow that crosses racks releases four more channels on their
        # own entries.  On a flat network the plan
        # is symmetric: one worker is stepped.
        units = len(simulator.workload.units)
        encoded = sum(plan.encode_seconds > 0.0
                      for plan in simulator.plan.units)
        boundaries = (0 if cluster.is_flat_topology
                      else math.ceil(nodes / cluster.nodes_per_rack))
        stepped = 1 if cluster.is_flat_topology else nodes
        assert simulator.workers_stepped == stepped
        assert simulator.env.events_processed == (
            units + 4 + (units - 1 if schedule is ScheduleMode.WFBP else 0)
            + stepped * (units + encoded + 2)
            + units * (2 + 4 * boundaries))

    @pytest.mark.parametrize("nodes,every_worker,parent", [
        (8, 199, 2185), (32, 607, 31825)])
    def test_ring_event_graph_does_not_grow_with_cluster_size(
            self, nodes, every_worker, parent):
        """One hold per worker made it linear in ``P``; stepping the one
        representative of this symmetric plan makes it constant."""
        cluster = ClusterConfig(num_workers=nodes, bandwidth_gbps=10.0)
        workload = build_workload(VGG, gpu=cluster.gpu)
        simulator, _ = _run_ring(workload, cluster, RING_ALLREDUCE)
        assert simulator.env.events_processed == 80
        held, _ = _run_des(workload, cluster, RING_ALLREDUCE,
                           every_worker=True)
        assert held.env.events_processed == every_worker
        stepped, _ = _run_ring(workload, cluster, RING_ALLREDUCE, stepped=True)
        assert stepped.env.events_processed == parent

    def test_mixed_plan_keeps_the_stepped_rounds(self):
        """One long hold would reorder the PS and SFB flows that share the
        NICs (0.614 -> 0.612 s on this point when forced; 0.928 -> 0.978 s
        while the all-to-all walked its receivers in id order)."""
        cluster = ClusterConfig(num_workers=8, bandwidth_gbps=40.0, racks=4,
                                oversubscription=8.0)
        hybrid = next(s for s in backend_systems()
                      if s.comm == "hybrid")
        workload = build_workload(ALEXNET, gpu=cluster.gpu)
        simulator, result = _run_ring(workload, cluster, hybrid)
        schemes = list(simulator.schemes.values())
        assert [schemes.count(s) for s in ("ring", "sfb", "ps")] == [1, 2, 5]
        # Re-recorded when the all-to-all became the rotated schedule
        # (1,501 events, 0.928163188230593 s before), and when the stepped
        # workers became one compute class (1,563 events; same time), and
        # when the ring's final, unwaited countdown went (1,207).
        assert simulator.env.events_processed == 1206
        assert repr(result.iteration_seconds) == "0.614023169293995"

    def test_stragglers_keep_the_stepped_rounds(self):
        """Nobody runs more than one step ahead of the slow workers; one
        hold would let a fast worker behind the slowest link finish early
        (8.448 -> 6.933 s on this point when forced)."""
        cluster = ClusterConfig(num_workers=10, bandwidth_gbps=10.0, racks=4,
                                oversubscription=4.0)
        system = replace(RING_ALLREDUCE, schedule=ScheduleMode.SEQUENTIAL
                         ).with_faults(0.5, 3.0)
        workload = build_workload(VGG, gpu=cluster.gpu)
        simulator, result = _run_ring(workload, cluster, system)
        # Recorded on the parent commit; re-recorded (7,820 before) when
        # sync processes stopped taking completion entries, and (7,530)
        # when the ring's final, unwaited countdown went.
        assert simulator.env.events_processed == 7515
        assert repr(result.iteration_seconds) == "8.448351148961205"

    @pytest.mark.parametrize("policy,events,seconds", [
        ("local_sgd(4)", 20608, "1.7105923991623138"),
    ])
    def test_relaxed_policy_keeps_the_stepped_rounds(self, policy, events,
                                                     seconds):
        """Across rounds the slow set rotates, so the per-step convoy is
        signal.  (SSP and async rings, once pinned here too, are refused
        like the trainer refuses them.)"""
        cluster = ClusterConfig(num_workers=8, bandwidth_gbps=5.0)
        system = RING_ALLREDUCE.with_policy(policy).with_faults(0.1, 2.0)
        workload = build_workload(VGG, gpu=cluster.gpu)
        simulator, result = _run_ring(workload, cluster, system)
        # Recorded on the parent commit.
        assert simulator.env.events_processed == events
        assert repr(result.iteration_seconds) == seconds


# -- one symmetric plan, two lowerings -----------------------------------------------
def _run_des(workload, cluster, system, every_worker=False):
    """One DES run; ``every_worker`` keeps all ``P`` workers on any plan
    (:func:`sim_reference.every_node`)."""
    with every_node() if every_worker else contextlib.nullcontext():
        simulator = IterationSimulator(workload, cluster, system)
        return simulator, simulator.run()


def _accounts(simulator):
    return [simulator.cluster.machine(node).nic.traffic
            for node in sorted(simulator.cluster.machines)]


SYSTEMS = {system.name: system for system in backend_systems()}

#: Cluster layouts of the property, by node count: the one the predicate
#: admits, then one per network / shard-placement conjunct.
LAYOUTS = {
    "flat": lambda nodes: {},
    "racked 4:1": lambda nodes: dict(racks=min(4, nodes), oversubscription=4.0),
    "fewer shards": lambda nodes: dict(num_servers=nodes // 2),
    "dedicated servers": lambda nodes: dict(colocate_servers=False),
}


class TestSymmetricPlanLoweringsAreEachOthersOracle:
    """``IterationSimulator._lowered`` hands a one-round run (``_run_rounds``
    under a BSP-equivalent policy) one representative worker when every
    node would do the same thing at the same instants; the
    every-worker lowering it replaces there is the reference, and stays the
    only one everywhere else."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        model=st.sampled_from(("vgg19", "googlenet", "nanogpt-12l")),
        backend=st.sampled_from(
            ("PS", "1-bit PS", "Ring-AllReduce", "SFB", "HybComm")),
        nodes=st.integers(2, 32),
        bandwidth=st.sampled_from((1.0, 5.0, 10.0, 40.0)),
        schedule=st.sampled_from(ScheduleMode),
        overlap_pull=st.booleans(),
        overlap_host_copy=st.booleans(),
        gpus_per_node=st.sampled_from((1, 2, 4)),
        layout=st.sampled_from(sorted(LAYOUTS)),
        stragglers=st.sampled_from(
            ((0.0, 1.0), (0.0, 1.0), (1.0, 2.0), (0.1, 1.5), (0.5, 3.0))))
    def test_representative_equals_every_worker(
            self, model, backend, nodes, bandwidth, schedule, overlap_pull,
            overlap_host_copy, gpus_per_node, layout, stragglers):
        cluster = ClusterConfig(num_workers=nodes, bandwidth_gbps=bandwidth,
                                gpus_per_node=gpus_per_node,
                                **LAYOUTS[layout](nodes))
        system = replace(
            SYSTEMS[backend], schedule=schedule, overlap_pull=overlap_pull,
            overlap_host_copy=overlap_host_copy).with_faults(*stragglers)
        workload = build_workload(get_model_spec(model), gpu=cluster.gpu)
        simulator, result = _run_des(workload, cluster, system)
        reference, full = _run_des(workload, cluster, system,
                                   every_worker=True)

        assert result == full  # every field, with ==
        assert _accounts(simulator) == _accounts(reference)
        assert reference.workers_stepped == nodes
        slow = math.ceil(stragglers[0] * nodes)
        if layout != "flat" or 0 < slow < nodes:
            assert simulator.workers_stepped == nodes
            assert (simulator.env.events_processed
                    == reference.env.events_processed)
        else:
            assert simulator.workers_stepped == 1
            assert (simulator.env.events_processed
                    < reference.env.events_processed)

    @pytest.mark.parametrize("backend", ("PS", "1-bit PS"))
    @pytest.mark.parametrize("nodes,every_worker", [(8, 395), (32, 1163)])
    def test_fabric_event_graph_does_not_grow_with_cluster_size(
            self, backend, nodes, every_worker):
        """O(units), where the every-worker lowering is O(P * units) (the
        ring's pin is ``TestRingLoweringsAreEachOthersOracle``'s)."""
        cluster = ClusterConfig(num_workers=nodes, bandwidth_gbps=10.0)
        workload = build_workload(VGG, gpu=cluster.gpu)
        simulator, _ = _run_des(workload, cluster, SYSTEMS[backend])
        assert simulator.workers_stepped == 1
        assert simulator.env.events_processed == 171
        reference, _ = _run_des(workload, cluster, SYSTEMS[backend],
                                every_worker=True)
        assert reference.env.events_processed == every_worker

    def test_ring_receipts_land_on_every_node(self):
        """The representative sends on NIC 0 and delivers to NIC 1; every
        node's account carries both sides, not half of the traffic."""
        cluster = ClusterConfig(num_workers=8, bandwidth_gbps=10.0)
        workload = build_workload(VGG, gpu=cluster.gpu)
        simulator, result = _run_des(workload, cluster, RING_ALLREDUCE)
        for node, account in enumerate(_accounts(simulator)):
            assert account.node_id == node
            assert account.bytes_sent == account.bytes_received > 0
            assert account.by_tag_sent == account.by_tag_received
            assert account.total_bytes == result.per_node_traffic_bytes[node]

    FLAT = ClusterConfig(num_workers=16, bandwidth_gbps=10.0)
    KEEPS_EVERY_WORKER = {
        # A quarter of the workers at half speed: the representative would
        # be one of them (GPU-busy fraction 0.519 -> 0.831 when forced).
        "stragglers": (VGG, FLAT, SYSTEMS["PS"].with_faults(0.25, 2.0),
                       1146, "2.1700757040282235"),
        # The members' flows share their rack switch (-> 2.343 s forced).
        "racked": (VGG, replace(FLAT, racks=4, oversubscription=4.0),
                   SYSTEMS["PS"], 2223, "6.030966441105002"),
        # Node 0 hosts a shard, node 8 does not (33.3 -> 50.6 GB forced).
        "half the shards": (VGG, replace(FLAT, num_servers=8), SYSTEMS["PS"],
                            682, "2.9897950956504786"),
        # The shard side runs on machines no worker stands for.
        "dedicated servers": (VGG, replace(FLAT, colocate_servers=False),
                              SYSTEMS["1-bit PS"], 651, "0.9017103881587709"),
        # The relaxed-policy path has no representative to step.
        "ssp(1)": (VGG, ClusterConfig(num_workers=8, bandwidth_gbps=10.0),
                   SYSTEMS["PS"].with_policy("ssp(1)"),
                   4920, "1.5018747615017685"),
    }

    @pytest.mark.parametrize("point", sorted(KEEPS_EVERY_WORKER))
    def test_everything_else_keeps_every_worker(self, point):
        model, cluster, system, events, seconds = self.KEEPS_EVERY_WORKER[point]
        workload = build_workload(model, gpu=cluster.gpu)
        simulator, result = _run_des(workload, cluster, system)
        assert simulator.workers_stepped == cluster.num_workers
        # Recorded before the symmetric short path; the events re-recorded
        # when a compute class became one process (the times did not move).
        assert simulator.env.events_processed == events
        assert repr(result.iteration_seconds) == seconds

    def test_unequal_step_tuples_keep_every_worker(self):
        """Dropping workers 1..P-1 must lose nothing: a lowering that gives
        one of them another schedule is run as lowered."""
        from repro.simulation import throughput

        def lower_unit(plan, shape, one_hold):
            steps = real(plan, shape, one_hold)
            odd = steps.workers[-1] + ((throughput._GATE,),)
            return replace(steps, workers=steps.workers[:-1] + (odd,))

        real = throughput._lower_unit
        workload = build_workload(ALEXNET, gpu=self.FLAT.gpu)
        memo.clear_all()
        try:
            with mock.patch.object(throughput, "_lower_unit", lower_unit):
                simulator, _ = _run_des(workload, self.FLAT, SYSTEMS["PS"])
        finally:
            memo.clear_all()  # the patched lowering must not stay warm
        assert simulator.workers_stepped == 16



# -- one compute class, two lowerings ------------------------------------------------
#: A workload with a tail kernel (layers below the lowest unit): no zoo model
#: has one, so the branch that starts the last unit's syncs before it is
#: otherwise never run.
TAIL = replace(build_workload(ALEXNET), model_name="alexnet+tail",
               tail_backward_seconds=0.0125)


class TestComputeClassLoweringsAreEachOthersOracle:
    """``_run_rounds`` runs the stepped workers of a one-round run at one
    compute speed as one compute class, whose kernels are booked once and
    whose members' same-instant syncs start from one queue entry; a class
    per worker (:func:`sim_reference.worker_per_process`) is the
    reference.  Both sides step every worker (``every_node``), so
    every backend's plan is run node for node."""

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        model=st.sampled_from(("alexnet", "vgg19", "googlenet", "tail")),
        backend=st.sampled_from(sorted(SYSTEMS)),
        nodes=st.integers(2, 33),
        schedule=st.sampled_from(ScheduleMode),
        overlap_pull=st.booleans(),
        overlap_host_copy=st.booleans(),
        racked=st.booleans(),
        policy=st.sampled_from(("bsp", "bsp", "ssp(1)", "local_sgd(2)")),
        stragglers=st.sampled_from(
            ((0.0, 1.0), (0.0, 1.0), (1.0, 2.0), (0.25, 2.0))),
        gpus_per_node=st.sampled_from((1, 2)))
    # Adam with its pulls gated on backward-done: starting every member's
    # last-unit sync before any member's backward-done moves this point.
    @example(model="alexnet", backend="Adam", nodes=3,
             schedule=ScheduleMode.WFBP, overlap_pull=False,
             overlap_host_copy=False, racked=False, policy="bsp",
             stragglers=(0.0, 1.0), gpus_per_node=1)
    def test_one_process_per_class_equals_one_per_worker(
            self, model, backend, nodes, schedule, overlap_pull,
            overlap_host_copy, racked, policy, stragglers, gpus_per_node):
        cluster = ClusterConfig(
            num_workers=nodes, bandwidth_gbps=10.0,
            gpus_per_node=gpus_per_node,
            **(dict(racks=min(4, nodes), oversubscription=4.0) if racked
               else {}))
        system = replace(SYSTEMS[backend], schedule=schedule,
                         overlap_pull=overlap_pull,
                         overlap_host_copy=overlap_host_copy)
        system = system.with_policy(policy).with_faults(*stragglers)
        workload = (TAIL if model == "tail"
                    else build_workload(get_model_spec(model), gpu=cluster.gpu))
        try:
            simulator, result = _run_des(workload, cluster, system,
                                         every_worker=True)
        except ConfigurationError:
            assume(False)  # the backend refuses the policy
        with worker_per_process():
            reference, per_worker = _run_des(workload, cluster, system,
                                             every_worker=True)

        assert result == per_worker  # every field, with ==
        assert _accounts(simulator) == _accounts(reference)
        assert [[gpu.busy_seconds for gpu in machine.gpus]
                for machine in simulator.cluster.machines.values()] == [
                    [gpu.busy_seconds for gpu in machine.gpus]
                    for machine in reference.cluster.machines.values()]
        slow = math.ceil(stragglers[0] * nodes)
        if policy == "bsp" and slow in (0, nodes):  # one class of P
            assert (simulator.env.events_processed
                    < reference.env.events_processed)
        else:
            assert (simulator.env.events_processed
                    == reference.env.events_processed)

# -- one symmetric plan, the fluid detail tier's two bookings ------------------------
#: Backends whose flat plans are node-symmetric, then the ones whose plans
#: name an owner or rack leaders; "coarse PS" is PS placed per tensor.
SYMMETRIC_BACKENDS = ("PS", "1-bit PS", "Ring-AllReduce", "SFB", "HybComm")
OWNER_BACKENDS = {
    "Adam": SYSTEMS["Adam"],
    "Hierarchical-PS": SYSTEMS["Hierarchical-PS"],
    "coarse PS": replace(SYSTEMS["PS"], partitioning=Partitioning.COARSE),
}


def _run_detail(workload, cluster, system, all_nodes=False):
    """One detail-tier evaluation and the number of nodes it booked."""
    with every_node() if all_nodes else contextlib.nullcontext():
        simulator = FluidSimulator(workload, cluster, system, mode="detail")
        result = simulator.run()
    return len(simulator.up), result


class TestDetailTierRepresentativeIsEveryNode:
    """On a node-symmetric plan the detail tier books node 0 alone (one
    clock pair, one all-to-all sender whose copies land on its own
    downlink); the every-node replay it replaces there is the reference,
    compared with ``==``, and stays the only booking everywhere else."""

    @staticmethod
    def check(model, system, nodes, bandwidth, layout, variant):
        """Both bookings of one point, ``==``; the nodes the first booked."""
        cluster = ClusterConfig(num_workers=nodes, bandwidth_gbps=bandwidth,
                                **LAYOUTS[layout](nodes))
        system = replace(system, schedule=variant[0], overlap_pull=variant[1],
                         overlap_host_copy=variant[2]).with_faults(*variant[3])
        workload = build_workload(get_model_spec(model), gpu=cluster.gpu)
        booked, result = _run_detail(workload, cluster, system)
        every, full = _run_detail(workload, cluster, system, all_nodes=True)
        assert result == full  # iteration time and per-node traffic, with ==
        assert every == cluster.num_nodes
        return booked, cluster.num_nodes

    MODELS = st.sampled_from(("vgg19", "googlenet", "nanogpt-12l"))
    NODES = st.integers(2, 128)
    BANDWIDTHS = st.sampled_from((1.0, 10.0, 40.0))
    #: schedule, overlap_pull, overlap_host_copy, stragglers
    VARIANTS = st.tuples(
        st.sampled_from(ScheduleMode), st.booleans(), st.booleans(),
        st.sampled_from(((0.0, 1.0), (0.1, 1.5), (0.5, 3.0))))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(model=MODELS, nodes=NODES, bandwidth=BANDWIDTHS, variant=VARIANTS,
           backend=st.sampled_from(SYMMETRIC_BACKENDS),
           ring=st.sampled_from(((), ("topk(0.01)", None),
                                 ("powersgd(4)", None), ("none", 256 << 10))))
    def test_symmetric_plan_books_node_zero(self, model, nodes, bandwidth,
                                            variant, backend, ring):
        system = SYSTEMS[backend]
        if backend == "Ring-AllReduce" and ring:  # coarse, compressed or bucketed
            system = replace(system, partitioning=Partitioning.COARSE,
                             compressor=ring[0], bucket_bytes=ring[1])
        booked, _ = self.check(model, system, nodes, bandwidth, "flat",
                               variant)
        assert booked == 1

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(model=MODELS, nodes=NODES, bandwidth=BANDWIDTHS, variant=VARIANTS,
           layout=st.sampled_from(sorted(LAYOUTS)),
           backend=st.sampled_from(SYMMETRIC_BACKENDS + tuple(OWNER_BACKENDS)))
    def test_everything_else_books_every_node(self, model, nodes, bandwidth,
                                              variant, layout, backend):
        assume(layout != "flat" or backend in OWNER_BACKENDS)
        system = OWNER_BACKENDS.get(backend) or SYSTEMS[backend]
        booked, every = self.check(model, system, nodes, bandwidth, layout,
                                   variant)
        assert booked == every

    @pytest.mark.parametrize("backend", sorted(OWNER_BACKENDS))
    def test_owner_plans_book_every_node(self, backend):
        cluster = ClusterConfig(num_workers=16, bandwidth_gbps=10.0)
        workload = build_workload(VGG, gpu=cluster.gpu)
        booked, _ = _run_detail(workload, cluster, OWNER_BACKENDS[backend])
        assert booked == 16
        assert not resolve_plan(workload, OWNER_BACKENDS[backend],
                                cluster).node_symmetric


# -- one receiver pass per all-to-all ------------------------------------------------
class TestBroadcastLowersOncePerReceiver:
    """``_lower_unit`` walks a broadcast's receivers once per distinct
    countdown, not once per hub: the step tuples equal the per-hub
    reference's, for every backend, topology and a part-filled last rack."""

    @pytest.mark.parametrize("nodes", (2, 5, 16, 33))
    @pytest.mark.parametrize("racks,oversubscription", TOPOLOGIES)
    @pytest.mark.parametrize("one_hold", (False, True))
    def test_steps_equal_the_per_hub_reference(self, nodes, racks,
                                               oversubscription, one_hold):
        from repro.simulation.throughput import _lower_unit

        cluster = ClusterConfig(num_workers=nodes, bandwidth_gbps=10.0,
                                racks=racks, oversubscription=oversubscription)
        workload = build_workload(VGG, gpu=cluster.gpu)
        for system in backend_systems():
            plan = resolve_plan(workload, system, cluster)
            for unit in plan.units:
                assert (_lower_unit(unit, plan.shape, one_hold)
                        == lower_unit_per_hub(unit, plan.shape, one_hold))

    def test_owner_broadcast_after_a_rack_fan_in(self, swap_adam_backend):
        from repro.simulation.throughput import _lower_unit

        swap_adam_backend(_TwoLevelFanInFlatBroadcast())
        cluster = ClusterConfig(num_workers=10, racks=3, oversubscription=2.0)
        workload = build_workload(ALEXNET, gpu=cluster.gpu)
        plan = resolve_plan(workload, SYSTEMS["Adam"], cluster)
        for unit in plan.units:
            assert (_lower_unit(unit, plan.shape, False)
                    == lower_unit_per_hub(unit, plan.shape, False))


# -- one all-to-all schedule ------------------------------------------------------
class TestAllToAllIsOneRotatedSchedule:
    """Copy ``k`` of sender ``s`` goes to ``(s + 1 + k) mod P`` in the DES
    (every worker stepped, or its representative), the fluid detail tier and
    the aggregate tier's closed form: in every copy slot each receiver hears
    one sender, so on an idle flat network the all-to-all takes one NIC's
    drain, ``P - 1`` slots.  Walking receivers in id order made it an incast
    on node 0 that took ``2P - 3``."""

    @staticmethod
    def one_fc(m=512, n=256, batch=32):
        """One SFB unit and no compute: the iteration is the all-to-all."""
        unit = SyncUnit(name="fc", param_bytes=4 * m * n, sf_eligible=True,
                        fc_dims=(m, n), backward_seconds=0.0,
                        layer_names=("fc",))
        return IterationWorkload(
            model_name="one-fc", batch_size=batch, forward_seconds=0.0,
            tail_backward_seconds=0.0, units=(unit,), single_node_seconds=1.0,
            total_param_bytes=unit.param_bytes)

    @pytest.mark.parametrize("nodes", [2, 3, 4, 8])
    def test_idle_flat_all_to_all_takes_p_minus_one_slots(self, nodes):
        cluster = ClusterConfig(num_workers=nodes, bandwidth_gbps=10.0)
        workload = self.one_fc()
        system = SYSTEMS["SFB"]
        sf = workload.units[0].sufficient_factor_bytes(workload.batch_size)
        slot = (units.bytes_to_bits(sf) / cluster.effective_bandwidth_bps
                + cluster.latency_seconds)
        every, full = _run_des(workload, cluster, system, every_worker=True)
        representative, result = _run_des(workload, cluster, system)
        assert (every.workers_stepped, representative.workers_stepped) == (
            nodes, 1)
        seconds = [full.iteration_seconds, result.iteration_seconds] + [
            FluidSimulator(workload, cluster, system,
                           mode=mode).iteration_seconds()
            for mode in ("detail", "aggregate")]
        assert seconds == pytest.approx([(nodes - 1) * slot] * 4, rel=1e-12)


# -- one gate rule ----------------------------------------------------------------
class TestOneGateRule:
    """``gated`` is on the phase, so both engines honour ``overlap_pull``."""

    CLUSTER = ClusterConfig(num_workers=8, bandwidth_gbps=10.0)

    @staticmethod
    def seconds(simulator_cls, workload, cluster, system):
        return simulator_cls(workload, cluster, system).run().iteration_seconds

    @pytest.mark.parametrize("system", backend_systems(),
                             ids=[s.name for s in backend_systems()])
    def test_toggle_moves_both_engines_the_same_way(self, system):
        workload = build_workload(VGG, gpu=self.CLUSTER.gpu)
        gated = replace(system, overlap_pull=False)
        des, des_gated, fluid_, fluid_gated = (
            self.seconds(cls, workload, self.CLUSTER, variant)
            for cls in (IterationSimulator, FluidSimulator)
            for variant in (system, gated))
        assert des_gated >= des * (1 - 1e-12)
        assert fluid_gated >= fluid_ * (1 - 1e-12)
        if des_gated > des * (1 + 1e-9):
            assert fluid_gated > fluid_ * (1 + 1e-9)

    def test_adam_pull_waits_for_backward_done_in_the_des(self):
        """The parent's Adam flow plan ignored the flag (bit-equal times)."""
        adam = next(s for s in backend_systems() if s.comm == "adam")
        workload = build_workload(VGG, gpu=self.CLUSTER.gpu)
        overlapped = self.seconds(IterationSimulator, workload, self.CLUSTER,
                                  adam)
        gated = self.seconds(IterationSimulator, workload, self.CLUSTER,
                             replace(adam, overlap_pull=False))
        assert gated > overlapped


# -- one memo ---------------------------------------------------------------------
class TestAxisMemoKeysOnWholeInputs:
    """A hand-listed axis key once omitted these five fields: a warm WFBP
    query answered the sequential-schedule one with the WFBP times.  A
    sweep now reads the plan memo, keyed on the whole system and cluster
    with only the bandwidth normalised away."""

    BANDWIDTHS = (1.0, 10.0, 40.0)
    CLUSTER = ClusterConfig(num_workers=256, bandwidth_gbps=40.0)

    VARIANTS = {
        "schedule": (replace(POSEIDON_TF, schedule=ScheduleMode.SEQUENTIAL),
                     CLUSTER),
        "partitioning": (
            replace(POSEIDON_TF, partitioning=Partitioning.COARSE), CLUSTER),
        "overlap_pull": (replace(POSEIDON_TF, overlap_pull=False), CLUSTER),
        "latency_seconds": (POSEIDON_TF,
                            replace(CLUSTER, latency_seconds=5e-3)),
        "colocate_servers": (POSEIDON_TF,
                             replace(CLUSTER, colocate_servers=False)),
    }

    @pytest.mark.parametrize("field", sorted(VARIANTS))
    def test_warm_sweep_misses_when_only_this_field_differs(self, field):
        warm = sweep_axis(VGG, POSEIDON_TF, self.CLUSTER, self.BANDWIDTHS)
        again = sweep_axis(VGG, POSEIDON_TF, self.CLUSTER, self.BANDWIDTHS)
        np.testing.assert_array_equal(again, warm)

        system, cluster = self.VARIANTS[field]
        variant = sweep_axis(VGG, system, cluster, self.BANDWIDTHS)
        memo.clear_all()
        cold = sweep_axis(VGG, system, cluster, self.BANDWIDTHS)
        np.testing.assert_array_equal(variant, cold)
        assert not np.array_equal(variant, warm)

    def test_the_clusters_own_bandwidth_does_not_move_the_sweep(self):
        """The axis is the bandwidth: the cluster's own value is replaced."""
        at_40 = sweep_axis(VGG, POSEIDON_TF, self.CLUSTER, self.BANDWIDTHS)
        at_10 = sweep_axis(VGG, POSEIDON_TF, self.CLUSTER.with_bandwidth(10.0),
                           self.BANDWIDTHS)
        np.testing.assert_array_equal(at_10, at_40)

    def test_clear_all_forces_the_cold_path(self):
        from repro.simulation.workload import _WORKLOADS

        build_workload(VGG)
        hits, misses = _WORKLOADS.hits, _WORKLOADS.misses
        build_workload(VGG)
        assert (_WORKLOADS.hits, _WORKLOADS.misses) == (hits + 1, misses)
        memo.clear_all()
        build_workload(VGG)
        assert (_WORKLOADS.hits, _WORKLOADS.misses) == (hits + 1, misses + 1)

    def test_only_planning_memos_follow_the_backend_registry(
            self, swap_adam_backend):
        """Workloads do not depend on backends: a registry change drops the
        plan and lowering tables and leaves the workload table warm."""
        from repro.simulation.workload import _WORKLOADS

        workload = build_workload(VGG)
        cluster = ClusterConfig(num_workers=8)
        before = resolve_plan(workload, POSEIDON_TF, cluster)
        swap_adam_backend(_OwnerFanHalf())
        hits = _WORKLOADS.hits
        assert build_workload(VGG) is workload
        assert _WORKLOADS.hits == hits + 1
        assert resolve_plan(workload, POSEIDON_TF, cluster) is not before
