"""Tests for the pluggable communication-backend layer.

Covers the registry (resolution, duplicate rejection), the Algorithm-1
cost interface (including the hybrid decision-boundary property), the two
new backends (ring all-reduce, hierarchical PS) across both halves of the
system -- functional trainer and flow simulator -- and the backend
comparison sweep.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.backend import (
    HYBRID_MODE,
    CommBackend,
    PSBackend,
    TrainerContext,
    choose_scheme,
    get_backend,
    hybrid_candidates,
    hybrid_choice,
    register_backend,
    registered_backends,
    unregister_backend,
)
from repro.comm.hierarchical import HierarchicalParameterServer, HierPSSyncer
from repro.comm.ring import RingAllReducer, RingSyncer
from repro.config import (
    TF,
    TF_WFBP,
    ClusterConfig,
    TrainingConfig,
    poseidon_system,
)
from repro.core.cost_model import (
    CostModel,
    ps_combined_cost,
    sfb_worker_cost,
)
from repro.exceptions import CommunicationError, ConfigurationError, TrainingError
from repro.data import shard_dataset
from repro.nn.layers import Dense
from repro.nn.model_zoo import build_mlp_network, get_model_spec
from repro.nn.optim import SGD
from repro.parallel import DistributedTrainer, assign_schemes, simulate_synchronous_sgd
from repro.parallel.schemes import trainer_modes
from repro.simulation.throughput import decide_schemes, simulate_system
from repro.simulation.workload import build_workload
from train_reference import (make_linearly_separable, replica_states_close,
                             server_params)

NUM_WORKERS = 3
BATCH = 8


class TestRegistry:
    def test_all_seven_schemes_registered(self):
        names = set(registered_backends())
        assert {"ps", "sfb", "onebit", "adam", "ring", "hierps"} <= names

    def test_resolution_by_name(self):
        assert get_backend("ring") is registered_backends()["ring"]
        assert get_backend("ps").name == "ps"

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigurationError):
            get_backend("carrier-pigeon")

    def test_duplicate_registration_rejected(self):
        class Dummy(PSBackend):
            pass  # inherits the registered name "ps"

        with pytest.raises(ConfigurationError):
            register_backend(Dummy())

    def test_hybrid_is_not_a_backend_name(self):
        class Hybrid(PSBackend):
            name = HYBRID_MODE

        with pytest.raises(ConfigurationError):
            register_backend(Hybrid())
        assert trainer_modes().count(HYBRID_MODE) == 1


def cluster(num_workers, num_servers=None):
    """A flat cluster of ``num_workers`` workers and ``num_servers`` shards."""
    return ClusterConfig(num_workers=num_workers, num_servers=num_servers)


class Pigeon(PSBackend):
    name = "pigeon"  # the PS protocol under its own name, nothing else


@pytest.fixture
def pigeon():
    register_backend(Pigeon())
    try:
        yield
    finally:
        unregister_backend("pigeon")


class TestARegisteredBackendIsItself:
    SPEC, CLUSTER = get_model_spec("vgg19"), ClusterConfig(num_workers=4)

    def test_every_decision_names_it(self, pigeon):
        network = build_mlp_network(input_dim=8, hidden_dims=(8,),
                                    num_classes=4, seed=0)
        for decisions in (
                assign_schemes(network, "pigeon", cluster(2), 8).schemes.values(),
                decide_schemes(build_workload(self.SPEC), "pigeon",
                               self.CLUSTER).values()):
            assert set(decisions) == {"pigeon"}

    def test_trains_bit_for_bit_as_ps(self, pigeon, trainer_setup):
        factory, _, config, provider = trainer_setup

        def run(mode):
            trainer = DistributedTrainer(factory, 2, None, config, mode=mode,
                                         deterministic=True,
                                         batch_provider=provider)
            return trainer.train(3).losses, [
                sorted((layer, key, value.tobytes()) for layer, params
                       in trainer.replica(w).get_state().items()
                       for key, value in params.items()) for w in range(2)]

        assert run("pigeon") == run("ps")

    @pytest.mark.parametrize("engine", ["des", "fluid"])
    def test_simulates_as_ps(self, pigeon, engine):
        pigeon_run, ps_run = (
            simulate_system(self.SPEC, replace(TF_WFBP, comm=comm),
                            self.CLUSTER, engine=engine)
            for comm in ("pigeon", "ps"))
        assert set(pigeon_run.scheme_by_unit.values()) == {"pigeon"}
        assert replace(pigeon_run, scheme_by_unit={}) == replace(
            ps_run, scheme_by_unit={})


@pytest.mark.parametrize("engine", ["des", "fluid", "auto"])
def test_unknown_comm_name_is_a_configuration_error(engine):
    with pytest.raises(ConfigurationError, match="carrier-pigeon"):
        simulate_system(get_model_spec("vgg19"),
                        replace(TF_WFBP, comm="carrier-pigeon"),
                        ClusterConfig(num_workers=4), engine=engine)


class TestAssignSchemesValidation:
    @pytest.fixture
    def network(self):
        return build_mlp_network(input_dim=8, hidden_dims=(8,), num_classes=4,
                                 seed=0)

    # A degenerate cluster is refused where it is built, so no entry
    # point ever sees one.
    def test_zero_workers_rejected(self, network):
        with pytest.raises(ConfigurationError, match="num_workers"):
            assign_schemes(network, "ps", cluster(0, 1), 8)

    def test_zero_servers_rejected(self, network):
        with pytest.raises(ConfigurationError, match="num_servers"):
            assign_schemes(network, "ps", cluster(1, 0), 8)

    def test_zero_batch_rejected(self, network):
        with pytest.raises(ConfigurationError):
            assign_schemes(network, "ps", cluster(1), 0)

    def test_ring_mode_assigns_ring_everywhere(self, network):
        assignment = assign_schemes(network, "ring", cluster(4), 8)
        assert set(assignment.schemes.values()) == {"ring"}

    def test_hierps_mode_assigns_hierps_everywhere(self, network):
        assignment = assign_schemes(network, "hierps", cluster(4), 8)
        assert set(assignment.schemes.values()) == {"hierps"}


class TestDecisionEntryValidation:
    """``choose_scheme`` checks ``batch_size`` and ``factor_rank`` before it
    looks at the mode, so a bad ``K`` is refused in every mode alike."""

    MODES = tuple(registered_backends()) + (HYBRID_MODE,)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("batch,rank", [
        (0, 1), (-3, 1), (2.5, 1), (4, 0), (4, -1), (4, 1.5)])
    def test_bad_factor_rows_raise_in_every_mode(self, mode, batch, rank):
        with pytest.raises(ConfigurationError, match="must be an integer"):
            choose_scheme(mode, (4, 4), True, cluster(4), batch,
                          factor_rank=rank)

    def test_rank_multiplies_the_batch(self):
        """A 4096x1000 FC is SFB at 32 rows, PS at 32 x 256."""
        sixteen = cluster(16)
        assert choose_scheme(HYBRID_MODE, (4096, 1000), True, sixteen, 32) \
            == hybrid_choice(4096, 1000, sixteen, 32) == "sfb"
        assert choose_scheme(HYBRID_MODE, (4096, 1000), True, sixteen, 32,
                             factor_rank=256) \
            == hybrid_choice(4096, 1000, sixteen, 32 * 256) == "ps"

    def test_trainer_refuses_a_fractional_batch(self):
        network = build_mlp_network(input_dim=8, hidden_dims=(8,),
                                    num_classes=4, seed=0)
        with pytest.raises(ConfigurationError):
            assign_schemes(network, "ps", cluster(2), 2.5)


class TestHybridDecisionBoundary:
    """Algorithm 1 must pick the cheapest hybrid-candidate backend."""

    def test_candidates_are_exact_schemes_only(self):
        schemes = {backend.name for backend in hybrid_candidates()}
        assert schemes == {"ps", "sfb"}

    def test_tie_goes_to_sfb(self):
        # Pick M, N, P1, P2 so the costs tie exactly, then solve for K:
        # 2K(P1-1)(M+N) == 2MN(P1+P2-2)/P2.
        m = n = 128
        p1 = p2 = 8
        ps = ps_combined_cost(m, n, p1, p2)
        k = int(ps / (2 * (p1 - 1) * (m + n)))
        assert sfb_worker_cost(m, n, k, p1) == ps  # exact crossover
        assert hybrid_choice(m, n, cluster(p1, p2), k) == "sfb"
        assert hybrid_choice(m, n, cluster(p1, p2), k + 1) == "ps"

    @settings(max_examples=200, deadline=None)
    @given(
        m=st.integers(min_value=1, max_value=4096),
        n=st.integers(min_value=1, max_value=4096),
        p1=st.integers(min_value=2, max_value=64),
        p2=st.integers(min_value=1, max_value=64),
        k=st.integers(min_value=1, max_value=512),
    )
    def test_chosen_cost_is_minimal_among_candidates(self, m, n, p1, p2, k):
        shape = cluster(p1, p2)
        chosen = hybrid_choice(m, n, shape, k, sf_eligible=True)
        chosen_cost = get_backend(chosen).cost(m, n, shape, k)
        for backend in hybrid_candidates():
            assert chosen_cost <= backend.cost(m, n, shape, k)

    @settings(max_examples=100, deadline=None)
    @given(
        m=st.integers(min_value=1, max_value=2048),
        n=st.integers(min_value=1, max_value=2048),
        p1=st.integers(min_value=2, max_value=32),
        k=st.integers(min_value=1, max_value=256),
    )
    def test_matches_cost_model_best_scheme(self, m, n, p1, k):
        """The registry-driven choice equals CostModel.best_scheme."""
        from repro.nn.spec import LayerKind, LayerSpec

        layer = LayerSpec(name="fc", kind=LayerKind.FC, param_count=m * n,
                          param_shape=(m, n), sf_decomposable=True)
        model = CostModel(ClusterConfig(num_workers=p1), batch_size=k)
        assert model.best_scheme(layer) is hybrid_choice(m, n, cluster(p1), k)


class TestCostModelDispatch:
    def test_ring_and_hierps_costs_exposed(self):
        ring = get_backend("ring")
        hier = get_backend("hierps")
        # Ring equals the colocated sharded-PS combined cost (both are
        # bandwidth optimal): 4MN(P-1)/P.
        assert ring.cost(100, 50, cluster(8), 32) == ps_combined_cost(100, 50, 8, 8)
        assert ring.cost(100, 50, cluster(1), 32) == 0.0
        # Hierarchical hotspot: max(rack fan, root fan) full exchanges.
        assert hier.cost(10, 10, cluster(16), 32) == 2.0 * 100 * 4  # R=4, racks=4

    def test_scheme_cost_params_routes_through_registry(self):
        from repro.nn.spec import LayerKind, LayerSpec

        layer = LayerSpec(name="fc", kind=LayerKind.FC, param_shape=(64, 32),
                          flops_forward=0.0, flops_backward=0.0)
        model = CostModel(ClusterConfig(num_workers=8), batch_size=16)
        assert model.scheme_cost_params(layer, "ring") == \
            get_backend("ring").cost(64, 32, cluster(8), 16)


class TestRingAllReducer:
    def test_single_worker_is_identity_with_zero_bytes(self):
        ring = RingAllReducer(1)
        grads = {"weight": np.ones((4, 4), dtype=np.float32)}
        reduced, sent, received = ring.allreduce(0, "fc", 0, grads)
        assert sent == received == 0
        np.testing.assert_array_equal(reduced["weight"], grads["weight"])

    def test_reduction_is_mean_in_worker_id_order(self):
        import threading

        ring = RingAllReducer(3)
        grads = [{"w": np.full((2, 2), float(wid + 1), dtype=np.float32)}
                 for wid in range(3)]
        results = [None] * 3

        def worker(wid):
            results[wid] = ring.allreduce(wid, "fc", 0, grads[wid])[0]

        threads = [threading.Thread(target=worker, args=(wid,)) for wid in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        expected = np.full((2, 2), 2.0, dtype=np.float32)  # mean of 1, 2, 3
        for reduced in results:
            np.testing.assert_array_equal(reduced["w"], expected)

    def test_wire_bytes_are_bandwidth_optimal_fraction(self):
        ring = RingAllReducer(4)
        assert ring.wire_bytes(1000) == int(1000 * 2 * 3 / 4)

    def test_double_contribution_rejected(self):
        ring = RingAllReducer(2)
        grads = {"w": np.zeros(4, dtype=np.float32)}
        import threading

        t = threading.Thread(
            target=lambda: ring.allreduce(1, "fc", 0, grads))
        t.start()
        ring.allreduce(0, "fc", 0, grads)
        t.join()
        with pytest.raises(CommunicationError):
            # iteration 0 already complete and collected
            ring.allreduce(0, "fc", 0, grads, timeout=0.2)


class TestHierarchicalParameterServer:
    def make_server(self, num_workers, rack_size, lr=0.1):
        params = {"fc": {"weight": np.zeros((2, 2), dtype=np.float32)}}
        return HierarchicalParameterServer(
            params, num_workers, rack_size=rack_size,
            optimizer=SGD(learning_rate=lr))

    def test_topology(self):
        server = self.make_server(6, rack_size=4)
        assert server.num_racks == 2
        assert server.rack_members(0) == [0, 1, 2, 3]
        assert server.rack_members(1) == [4, 5]

    def test_mean_aggregation_matches_flat_ps(self):
        """Rack-summed mean equals the flat PS mean update."""
        from repro.comm.parameter_server import ShardedParameterServer

        num_workers = 5
        grads = [np.full((2, 2), float(wid + 1), dtype=np.float32)
                 for wid in range(num_workers)]
        flat = ShardedParameterServer(
            {"fc": {"weight": np.zeros((2, 2), dtype=np.float32)}},
            num_workers, optimizer=SGD(learning_rate=0.1))
        hier = self.make_server(num_workers, rack_size=2)
        for wid in range(num_workers):
            flat.push(wid, "fc", {"weight": grads[wid]})
            hier.push(wid, "fc", {"weight": grads[wid]})
        flat_params = server_params(flat, "fc")["weight"]
        hier_params = server_params(hier, "fc")["weight"]
        np.testing.assert_allclose(hier_params, flat_params, rtol=1e-6)
        assert hier.version("fc") == 1

    def test_double_push_rejected(self):
        server = self.make_server(4, rack_size=4)
        server.push(0, "fc", {"weight": np.zeros((2, 2), dtype=np.float32)})
        with pytest.raises(CommunicationError):
            server.push(0, "fc", {"weight": np.zeros((2, 2), dtype=np.float32)})

    def test_invalid_shapes_rejected(self):
        with pytest.raises(CommunicationError):
            HierarchicalParameterServer({}, num_workers=0)
        with pytest.raises(CommunicationError):
            HierarchicalParameterServer({}, num_workers=2, rack_size=0)


class TestNewSyncers:
    @pytest.fixture
    def dense_layer(self, rng):
        layer = Dense("fc", 6, 4, rng=rng)
        x = rng.standard_normal((3, 6)).astype(np.float32)
        layer.forward(x)
        layer.backward(rng.standard_normal((3, 4)).astype(np.float32))
        return layer

    def test_ring_syncer_requires_substrate(self, dense_layer):
        with pytest.raises(TrainingError):
            RingSyncer(0, dense_layer, None, SGD(0.1))

    def test_ring_syncer_single_worker_matches_local_sgd(self, dense_layer):
        expected = dense_layer.params["weight"] - \
            0.1 * dense_layer.grads["weight"]
        syncer = RingSyncer(0, dense_layer, RingAllReducer(1), SGD(0.1))
        stats = syncer.sync(iteration=0)
        np.testing.assert_allclose(dense_layer.params["weight"], expected,
                                   rtol=1e-6)
        assert stats.syncs == 1

    def test_hierps_syncer_matches_ps_update(self, rng):
        x = rng.standard_normal((3, 6)).astype(np.float32)
        grad_out = rng.standard_normal((3, 4)).astype(np.float32)
        layers = []
        for _ in range(2):
            layer = Dense("fc", 6, 4, rng=np.random.default_rng(7))
            layer.forward(x.copy())
            layer.backward(grad_out.copy())
            layers.append(layer)
        from repro.comm.parameter_server import ShardedParameterServer
        from repro.core.syncer import Syncer

        ps = ShardedParameterServer({"fc": layers[0].get_params()}, 1,
                                    optimizer=SGD(learning_rate=0.1))
        Syncer(0, layers[0], "ps", ps=ps).sync(0)
        hier = HierarchicalParameterServer({"fc": layers[1].get_params()}, 1,
                                           optimizer=SGD(learning_rate=0.1))
        HierPSSyncer(0, layers[1], hier).sync(0)
        np.testing.assert_allclose(layers[0].params["weight"],
                                   layers[1].params["weight"], rtol=1e-6)


@pytest.fixture
def trainer_setup():
    train_x, train_y, test_x, test_y = make_linearly_separable(
        num_train=180, num_test=60, input_dim=16, num_classes=4, seed=1)
    shards = shard_dataset(train_x, train_y, NUM_WORKERS, seed=2)
    config = TrainingConfig(batch_size=BATCH, learning_rate=0.05, iterations=6,
                            seed=5)

    def factory():
        return build_mlp_network(input_dim=16, hidden_dims=(32, 16),
                                 num_classes=4, seed=21)

    def provider(iteration, worker):
        rng = np.random.default_rng(10_000 + iteration * 31 + worker)
        images, labels = shards[worker]
        indices = rng.choice(images.shape[0], size=BATCH, replace=False)
        return images[indices], labels[indices]

    return factory, shards, config, provider


class TestNewTrainerModes:
    @pytest.mark.parametrize("mode", ["ring", "hierps"])
    def test_modes_train_and_stay_consistent(self, trainer_setup, mode):
        factory, shards, config, _ = trainer_setup
        trainer = DistributedTrainer(factory, NUM_WORKERS, shards, config,
                                     mode=mode)
        history = trainer.train(4)
        assert len(history.losses) == 4
        assert np.isfinite(history.losses).all()
        assert replica_states_close(trainer)

    @pytest.mark.parametrize("mode", ["ring", "hierps"])
    def test_modes_match_serial_emulation(self, trainer_setup, mode):
        """Both new schemes are exact: they reproduce synchronous SGD."""
        factory, shards, config, provider = trainer_setup
        trainer = DistributedTrainer(factory, NUM_WORKERS, shards, config,
                                     mode=mode, batch_provider=provider)
        history = trainer.train(5)
        reference = factory()
        serial_losses = simulate_synchronous_sgd(
            reference, provider, NUM_WORKERS, 5, config)
        np.testing.assert_allclose(history.losses, serial_losses, atol=1e-4)

    def test_ring_bytes_are_bandwidth_optimal_fraction(self, trainer_setup):
        """Ring wire volume is 2(P-1)/P of the dense gradient per direction.

        The flat PS syncer's ``bytes_sent`` counts exactly one dense push
        per layer, so the ring/PS sent ratio must equal ``2(P-1)/P``."""
        factory, shards, config, provider = trainer_setup
        ps = DistributedTrainer(factory, NUM_WORKERS, shards, config,
                                mode="ps", batch_provider=provider).train(3)
        ring = DistributedTrainer(factory, NUM_WORKERS, shards, config,
                                  mode="ring", batch_provider=provider).train(3)
        assert ring.bytes_sent == ring.bytes_received
        expected_ratio = 2 * (NUM_WORKERS - 1) / NUM_WORKERS
        assert ring.bytes_sent / ps.bytes_sent == pytest.approx(
            expected_ratio, rel=1e-3)

    def test_hierps_trainer_substrate_exposed(self, trainer_setup):
        factory, shards, config, _ = trainer_setup
        trainer = DistributedTrainer(factory, NUM_WORKERS, shards, config,
                                     mode="hierps")
        substrate = trainer.substrate("hierps")
        assert isinstance(substrate, HierarchicalParameterServer)
        assert trainer.substrate("ps") is None


RING_ALLREDUCE = poseidon_system("Ring-AllReduce", "ring")
HIERARCHICAL_PS = poseidon_system("Hierarchical-PS", "hierps")


class TestNewSimulatorSystems:
    @pytest.mark.parametrize("system,scheme", [(RING_ALLREDUCE, "ring"),
                                               (HIERARCHICAL_PS, "hierps")])
    def test_simulation_produces_sane_speedups(self, system, scheme):
        spec = get_model_spec("googlenet")
        for nodes in (1, 4, 8):
            result = simulate_system(spec, system,
                                     ClusterConfig(num_workers=nodes))
            assert 0.0 < result.speedup <= nodes + 1e-9
            if nodes > 1:
                assert set(result.scheme_by_unit.values()) == {scheme}

    def test_ring_scales_near_linearly_on_conv_model(self):
        spec = get_model_spec("googlenet")
        result = simulate_system(spec, RING_ALLREDUCE,
                                 ClusterConfig(num_workers=16))
        assert result.speedup > 14.0

    def test_hierps_reduces_cross_rack_flows_on_conv_model(self):
        """Rack aggregation must beat the coarse per-tensor baseline at scale."""
        spec = get_model_spec("googlenet")
        cluster = ClusterConfig(num_workers=32, bandwidth_gbps=10.0)
        hier = simulate_system(spec, HIERARCHICAL_PS, cluster)
        coarse = simulate_system(
            spec, replace(TF, schedule=HIERARCHICAL_PS.schedule), cluster)
        assert hier.speedup > coarse.speedup


class TestBackendSweep:
    def test_all_seven_schemes_in_sweep(self):
        from dataclasses import replace

        from repro.experiments.figures import FIG_BACKENDS

        points = replace(FIG_BACKENDS, nodes=(2, 8), bandwidths=(40.0,),
                         models=("vgg19",)).run()
        schemes = [system.name for system in FIG_BACKENDS.systems]
        assert schemes == [
            "PS", "SFB", "HybComm", "1-bit PS", "Adam",
            "Ring-AllReduce", "Hierarchical-PS"]
        for scheme in schemes:
            for nodes in (2, 8):
                assert np.isfinite(points.at(system=scheme,
                                             nodes=nodes).result.speedup)
