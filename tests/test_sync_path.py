"""The BSP sync path touches each gradient byte once per hop.

Contracts pinned here (ISSUE 14):

* staging is zero-copy -- ``Syncer.move_out`` hands the layer's own gradient
  arrays to the substrate, which is safe because ``backward`` rebinds
  ``grads[...]`` instead of writing into the staged arrays (the layer half
  of the contract is in ``tests/test_layers.py::TestGradientOwnership``);
* :func:`repro.nn.optim.fold_in_order` is the one ordered fold (whole arrays
  in :func:`repro.nn.optim.reduce_in_worker_order`, block by block in the
  parameter server's step), so every substrate that folds dense gradients
  agrees bit for bit;
* ``Network.train_step`` skips the bottom layer's input gradient and leaves
  every parameter gradient untouched by that;
* a retired trainer is freed by reference counting alone.
"""

import gc
import hashlib
import json
import os
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.comm.backend import registered_backends
from repro.comm.hierarchical import HierarchicalParameterServer, HierPSSyncer
from repro.comm.parameter_server import ShardedParameterServer
from repro.comm.quantization import OneBitQuantizer
from repro.comm.ring import RingAllReducer, RingSyncer
from repro.comm.sfb import SufficientFactorBroadcaster
from repro.config import TrainingConfig
from repro.core.syncer import LocalSGDSyncer, Syncer
from repro.data import shard_dataset
from repro.nn.layers import Conv2D, Dense
from repro.nn.model_zoo import (
    build_cifar_quick_network,
    build_mlp_network,
    build_transformer_network,
)
from repro.nn.optim import SGD, fold_in_order, reduce_in_worker_order
from repro.nn.sufficient_factors import SufficientFactors
from repro.parallel import DistributedTrainer, simulate_synchronous_sgd
from gradcheck import check_layer_gradients, check_network_input_gradient
from train_reference import make_linearly_separable, server_params, step_network


def _dense_after_backward(seed: int = 0) -> Dense:
    rng = np.random.default_rng(seed)
    layer = Dense("fc", 12, 8, rng=np.random.default_rng(42))
    layer.forward(rng.standard_normal((3, 12)).astype(np.float32))
    layer.backward(rng.standard_normal((3, 8)).astype(np.float32))
    return layer


def _single_worker_syncer(kind: str, layer: Dense) -> Syncer:
    initial = {layer.name: layer.get_params()}
    if kind == "ps":
        return Syncer(0, layer, "ps",
                      ps=ShardedParameterServer(initial, num_workers=1))
    if kind == "sfb":
        return Syncer(0, layer, "sfb",
                      sfb=SufficientFactorBroadcaster(1),
                      local_optimizer=SGD(learning_rate=0.1))
    if kind == "ring":
        return RingSyncer(0, layer, RingAllReducer(1),
                          local_optimizer=SGD(learning_rate=0.1))
    assert kind == "hierps"
    return HierPSSyncer(0, layer, HierarchicalParameterServer(initial, 1))


class TestZeroCopyStaging:
    @pytest.mark.parametrize("kind", ["ps", "sfb", "ring", "hierps"])
    def test_move_out_stages_the_layers_own_arrays(self, kind):
        layer = _dense_after_backward()
        syncer = _single_worker_syncer(kind, layer)
        staged = syncer.move_out()
        assert staged is not layer.grads        # a dict of its own ...
        assert set(staged) == set(layer.grads)
        for key, grad in staged.items():        # ... over the same buffers
            assert np.shares_memory(grad, layer.grads[key]), key

    @pytest.mark.parametrize("kind", ["ps", "sfb", "ring", "hierps"])
    def test_sync_never_writes_a_staged_gradient(self, kind):
        layer = _dense_after_backward()
        before = {key: grad.copy() for key, grad in layer.grads.items()}
        _single_worker_syncer(kind, layer).sync(0)
        for key, grad in layer.grads.items():
            np.testing.assert_array_equal(grad, before[key])

    def test_ordered_server_reduces_what_was_staged_not_a_later_backward(self):
        """Worker 0 runs ahead into its next backward before worker 1 pushes."""
        layers = [_dense_after_backward(seed) for seed in (1, 2)]
        server = ShardedParameterServer(
            {"fc": layers[0].get_params()}, num_workers=2,
            optimizer=SGD(learning_rate=1.0), ordered=True)
        start = server_params(server, "fc")
        staged = [Syncer(w, layer, "ps", ps=server).move_out()
                  for w, layer in enumerate(layers)]
        want = {key: (staged[0][key] + staged[1][key]) * np.float32(0.5)
                for key in staged[0]}
        server.push(0, "fc", staged[0])
        rng = np.random.default_rng(9)          # the run-ahead backward
        layers[0].forward(rng.standard_normal((3, 12)).astype(np.float32))
        layers[0].backward(rng.standard_normal((3, 8)).astype(np.float32))
        server.push(1, "fc", staged[1])
        got = server_params(server, "fc")
        for key in want:
            np.testing.assert_array_equal(got[key], start[key] - want[key])


# -- one reduction -----------------------------------------------------------------

def _naive_fold(contributions, divisor):
    """Worker-id-ordered left fold, then one multiply by the reciprocal."""
    totals = {}
    for worker_id in sorted(contributions):
        for name, grad in contributions[worker_id].items():
            totals[name] = grad.copy() if name not in totals else totals[name] + grad
    if divisor is not None:
        totals = {name: total * (1.0 / divisor) for name, total in totals.items()}
    return totals


class TestOneReduction:
    @settings(max_examples=40, deadline=None)
    @given(num_workers=st.sampled_from([1, 2, 3, 5]), mean=st.booleans(),
           seed=st.integers(0, 2 ** 16), data=st.data())
    def test_out_buffers_match_naive_fold_for_any_arrival_order(
            self, num_workers, mean, seed, data):
        rng = np.random.default_rng(seed)
        contributions = {
            wid: {"weight": rng.standard_normal((5, 3)).astype(np.float32),
                  "bias": rng.standard_normal(3).astype(np.float32)}
            for wid in range(num_workers)}
        arrival = data.draw(st.permutations(range(num_workers)))
        arrived = {wid: contributions[wid] for wid in arrival}
        divisor = num_workers if mean else None
        want = _naive_fold(contributions, divisor)
        fresh = reduce_in_worker_order(arrived, mean_divisor=divisor)
        for name in want:
            out = np.full_like(want[name], np.nan)
            got = fold_in_order([contributions[wid][name]
                                 for wid in range(num_workers)], out=out)
            assert got is out                   # accumulated in place
            if mean:
                got *= 1.0 / num_workers
            np.testing.assert_array_equal(got, want[name])
            np.testing.assert_array_equal(fresh[name], want[name])
            assert fresh[name].dtype == np.float32
        for grads in contributions.values():    # inputs are read-only to it
            for name, grad in grads.items():
                assert not np.shares_memory(grad, fresh[name])

    def test_mixed_dtypes_upcast_without_out_and_cast_into_out(self):
        contributions = {
            0: {"w": np.full(4, 0.1, dtype=np.float32)},
            1: {"w": np.full(4, 0.2, dtype=np.float64)},
            2: {"w": np.full(4, 0.3, dtype=np.float32)},
        }
        fresh = reduce_in_worker_order(contributions, mean_divisor=3)
        assert fresh["w"].dtype == np.float64
        np.testing.assert_allclose(fresh["w"], 0.2, rtol=1e-6)
        out = np.zeros(4, dtype=np.float32)
        got = fold_in_order([grads["w"] for grads in contributions.values()],
                            out=out)
        assert got is out and got.dtype == np.float32
        np.testing.assert_allclose(got, 0.6, rtol=1e-6)

    def test_integer_totals_are_averaged_out_of_place(self):
        contributions = {0: {"n": np.array([2, 4])}, 1: {"n": np.array([4, 4])}}
        got = reduce_in_worker_order(contributions, mean_divisor=2)
        np.testing.assert_array_equal(got["n"], [3.0, 4.0])
        assert np.issubdtype(got["n"].dtype, np.floating)

    def test_reused_accumulators_never_leak_a_previous_round(self):
        first = reduce_in_worker_order(
            {0: {"weight": np.full(3, 1.0, dtype=np.float32),
                 "bias": np.full(3, 7.0, dtype=np.float32)},
             1: {"weight": np.full(3, 3.0, dtype=np.float32),
                 "bias": np.full(3, 9.0, dtype=np.float32)}},
            mean_divisor=2)
        np.testing.assert_array_equal(first["weight"], 2.0)
        np.testing.assert_array_equal(first["bias"], 8.0)
        second = reduce_in_worker_order(
            {0: {"weight": np.full(3, 10.0, dtype=np.float32)},
             1: {"weight": np.full(3, 20.0, dtype=np.float32)}},
            mean_divisor=2)
        assert set(second) == {"weight"}        # absent key: not reported ...
        np.testing.assert_array_equal(second["weight"], 15.0)
        np.testing.assert_array_equal(first["weight"], 2.0)

    def test_server_skips_parameters_absent_from_a_round(self):
        params = {"fc": {"weight": np.zeros(3, dtype=np.float32),
                         "bias": np.zeros(3, dtype=np.float32)}}
        for ordered in (True, False):
            server = ShardedParameterServer(
                params, num_workers=2, optimizer=SGD(learning_rate=1.0),
                ordered=ordered)
            for wid in range(2):
                server.push(wid, "fc", {
                    "weight": np.full(3, 1.0, dtype=np.float32),
                    "bias": np.full(3, 5.0, dtype=np.float32)})
            for wid in range(2):                # ... and not applied again
                server.push(wid, "fc",
                            {"weight": np.full(3, 1.0, dtype=np.float32)})
            got = server_params(server, "fc")
            np.testing.assert_array_equal(got["weight"], -2.0)
            np.testing.assert_array_equal(got["bias"], -5.0)

    def test_arrival_mode_folds_in_arrival_order(self):
        grads = [np.random.default_rng(wid).standard_normal(64).astype(np.float32)
                 for wid in range(3)]
        server = ShardedParameterServer(
            {"fc": {"w": np.zeros(64, dtype=np.float32)}}, num_workers=3,
            optimizer=SGD(learning_rate=1.0), aggregation="sum")
        for wid in (2, 0, 1):
            server.push(wid, "fc", {"w": grads[wid]})
        np.testing.assert_array_equal(server_params(server, "fc")["w"],
                                      -((grads[2] + grads[0]) + grads[1]))


# -- trainer-level agreement -------------------------------------------------------

def _mlp_setup(num_workers, iterations=4):
    train_x, train_y, _, _ = make_linearly_separable(
        num_train=60 * num_workers, num_test=10, input_dim=16, num_classes=4,
        seed=1)
    shards = shard_dataset(train_x, train_y, num_workers, seed=2)
    config = TrainingConfig(batch_size=8, learning_rate=0.05,
                            iterations=iterations, seed=5)

    def factory():
        return build_mlp_network(input_dim=16, hidden_dims=(32, 16),
                                 num_classes=4, seed=21)

    return factory, shards, config


def _train(num_workers, mode, policy="bsp", iterations=4, batches=None):
    factory, shards, config = _mlp_setup(num_workers, iterations)
    provider = None
    if batches is not None:
        def provider(step, worker_id):
            return batches[step][worker_id]
    trainer = DistributedTrainer(factory, num_workers, shards, config, mode=mode,
                                 deterministic=True, policy=policy,
                                 batch_provider=provider)
    history = trainer.train(iterations)
    return history.losses, trainer.replica(0).get_state()


def _fixed_batches(num_workers, iterations, seed=3):
    rng = np.random.default_rng(seed)
    return [[(rng.standard_normal((8, 16)).astype(np.float32),
              rng.integers(0, 4, size=8))
             for _ in range(num_workers)] for _ in range(iterations)]


class TestSubstratesAgree:
    @pytest.mark.parametrize("num_workers", [2, 3, 4])
    def test_dense_ps_ring_and_single_rack_hierps_are_bit_identical(
            self, num_workers):
        """All three are the full worker-ordered fold times ``1/P``."""
        losses_ps, state_ps = _train(num_workers, "ps")
        for mode in ("ring", "hierps"):         # default rack size 4: one rack
            losses, state = _train(num_workers, mode)
            assert losses == losses_ps, mode
            for layer, params in state_ps.items():
                for key, value in params.items():
                    np.testing.assert_array_equal(value, state[layer][key])

    def test_multi_rack_hierps_and_hybrid_agree_to_1e6(self):
        """Rack pre-scaling and SFB's stacked GEMM associate differently."""
        factory, shards, config = _mlp_setup(3)
        losses_ps, _ = _train(3, "ps")
        losses_hybrid, _ = _train(3, "hybrid")
        np.testing.assert_allclose(losses_hybrid, losses_ps, rtol=0, atol=1e-6)

        layers = [_dense_after_backward(seed) for seed in range(3)]
        initial = {"fc": layers[0].get_params()}
        flat = ShardedParameterServer(initial, 3, optimizer=SGD(0.1), ordered=True)
        tree = HierarchicalParameterServer(initial, 3, rack_size=2,
                                           optimizer=SGD(0.1))
        assert tree.num_racks == 2
        for wid, layer in enumerate(layers):
            flat.push(wid, "fc", dict(layer.grads))
            tree.push(wid, "fc", dict(layer.grads))
        for key, value in server_params(flat, "fc").items():
            np.testing.assert_allclose(server_params(tree, "fc")[key], value,
                                       rtol=0, atol=1e-6)

    @pytest.mark.parametrize("num_workers", [2, 3])
    def test_ps_losses_track_serial_synchronous_sgd(self, num_workers):
        factory, _, config = _mlp_setup(num_workers)
        batches = _fixed_batches(num_workers, 4)
        losses, _ = _train(num_workers, "ps", batches=batches)
        serial = simulate_synchronous_sgd(
            factory(), lambda step, wid: batches[step][wid], num_workers, 4,
            config)
        np.testing.assert_allclose(losses, serial, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("policy", ["ssp(1)", "async"])
    def test_relaxed_ps_matches_the_copy_then_divide_server(self, policy):
        """Accumulate-on-arrival at P = 2: ``x * 0.5`` is exactly ``x / 2``.

        The reference replays the serialized round-robin schedule with the
        arithmetic the server used before the shared reduction (copy the
        push, true-divide by the worker count, apply at once), so the
        zero-copy push and the reciprocal mean must not move a single bit.
        """
        factory, _, config = _mlp_setup(2)
        batches = _fixed_batches(2, 4)
        losses, state = _train(2, "ps", policy=policy, batches=batches)

        replicas = [factory(), factory()]
        server = replicas[0].get_state()
        optimizer = SGD(learning_rate=config.learning_rate,
                        momentum=config.momentum,
                        weight_decay=config.weight_decay)
        want = []
        for step in range(4):
            step_losses = []
            for wid, replica in enumerate(replicas):
                step_losses.append(replica.train_step(*batches[step][wid]))
                for _, layer in reversed(replica.parameter_layers()):
                    for key, grad in layer.grads.items():
                        mean = grad.copy()
                        mean /= 2.0
                        optimizer.apply(f"{layer.name}/{key}",
                                        server[layer.name][key], mean)
                    layer.set_params(server[layer.name])
            want.append(float(np.mean(step_losses)))
        assert losses == want
        for layer, params in replicas[0].get_state().items():
            for key, value in params.items():
                np.testing.assert_array_equal(state[layer][key], value)


# -- bottom layer ------------------------------------------------------------------

def _networks():
    rng = np.random.default_rng(0)
    mlp = lambda: build_mlp_network(12, (16, 8), 4, seed=3)
    conv = lambda: build_cifar_quick_network(image_size=8, num_classes=4, seed=3)
    gpt = lambda: build_transformer_network(vocab_size=20, block_size=6, n_embd=8,
                                            num_heads=2, num_blocks=1,
                                            num_classes=4, seed=3)
    return {
        "mlp": (mlp, rng.standard_normal((5, 12)).astype(np.float32)),
        "conv": (conv, rng.standard_normal((3, 3, 8, 8)).astype(np.float32)),
        "transformer": (gpt, rng.integers(0, 20, size=(4, 6))),
    }


class TestBottomLayerSkip:
    @pytest.mark.parametrize("name", ["mlp", "conv", "transformer"])
    def test_train_step_grads_equal_a_run_that_asks_for_the_input_gradient(
            self, name):
        factory, inputs = _networks()[name]
        labels = np.arange(inputs.shape[0]) % 4
        skipping, asking = factory(), factory()
        loss = skipping.train_step(inputs, labels)
        logits = asking.forward(inputs, training=True)
        want_loss, grad_logits = asking.loss.forward(logits, labels)
        grad_input = asking.backward(grad_logits, need_input_grad=True)
        assert loss == want_loss
        assert grad_input is not None and grad_input.shape == inputs.shape
        for got, want in zip(skipping.layers, asking.layers):
            assert set(got.grads) == set(want.grads)
            for key, grad in want.grads.items():
                np.testing.assert_array_equal(got.grads[key], grad)

    def test_only_the_bottom_layer_is_told_to_skip(self):
        network = build_mlp_network(12, (16, 8), 4, seed=3)
        inputs = np.random.default_rng(1).standard_normal((5, 12)).astype(np.float32)
        logits = network.forward(inputs, training=True)
        _, grad_logits = network.loss.forward(logits, np.arange(5) % 4)
        seen = []
        assert network.backward(
            grad_logits, hook=lambda index, layer: seen.append(index)) is None
        assert seen == list(range(len(network.layers) - 1, -1, -1))
        assert network.backward(grad_logits, need_input_grad=True).shape == (5, 12)

    @pytest.mark.parametrize("layer,shape", [
        (Dense("fc", 6, 4), (3, 6)),
        (Conv2D("conv", 2, 3, 3, pad=1), (2, 2, 5, 5)),
    ], ids=["dense", "conv"])
    def test_layer_level_default_still_returns_the_input_gradient(self, layer,
                                                                  shape):
        rng = np.random.default_rng(2)
        inputs = rng.standard_normal(shape).astype(np.float32)
        grad_out = rng.standard_normal(
            layer.forward(inputs, training=True).shape).astype(np.float32)
        grad_in = layer.backward(grad_out)
        kept = {key: grad.copy() for key, grad in layer.grads.items()}
        assert grad_in.shape == shape
        assert layer.backward(grad_out, need_input_grad=False) is None
        for key, grad in layer.grads.items():
            np.testing.assert_array_equal(grad, kept[key])

    def test_network_input_gradcheck_asks_for_it(self):
        network = build_mlp_network(6, (5,), 3, seed=3)
        rng = np.random.default_rng(4)
        check_network_input_gradient(network, rng.standard_normal((4, 6)),
                                     np.arange(4) % 3)


# -- trainer lifetime --------------------------------------------------------------

class TestTrainerIsFreedWithoutTheCollector:
    @pytest.fixture
    def no_gc(self):
        gc.collect()
        gc.disable()
        try:
            yield
        finally:
            gc.enable()

    @pytest.mark.parametrize("kwargs", [
        dict(mode="ps"),
        dict(mode="hybrid"),
        dict(mode="ps", recovery="restart", checkpoint_interval=1),
    ], ids=["ps", "hybrid", "restart"])
    @pytest.mark.parametrize("trained", [False, True],
                             ids=["never-trained", "trained"])
    def test_weakref_dies_on_del(self, no_gc, kwargs, trained):
        factory, shards, config = _mlp_setup(2, iterations=3)
        trainer = DistributedTrainer(factory, 2, shards, config,
                                     deterministic=True, **kwargs)
        if trained:
            trainer.train(3)
            assert trainer.bsp.on_release is None
        ref = weakref.ref(trainer)
        del trainer
        assert ref() is None


# -- a concurrent check of the by-reference buffers ----------------------------------

def test_threaded_zero_copy_sync_keeps_replicas_and_server_identical():
    """More syncing threads than cores, a short switch interval, BSP."""
    import sys

    num_workers, rounds = 6, 25
    layers = [Dense("fc", 24, 16, rng=np.random.default_rng(42))
              for _ in range(num_workers)]
    server = ShardedParameterServer(
        {"fc": layers[0].get_params()}, num_workers=num_workers,
        optimizer=SGD(learning_rate=0.05), ordered=True)
    errors = []

    def worker(wid):
        rng = np.random.default_rng(100 + wid)
        syncer = Syncer(wid, layers[wid], "ps", ps=server,
                        sync_timeout=20.0)
        try:
            for step in range(rounds):
                layers[wid].forward(
                    rng.standard_normal((4, 24)).astype(np.float32))
                layers[wid].backward(
                    rng.standard_normal((4, 16)).astype(np.float32))
                syncer.sync(step)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(wid,))
                   for wid in range(num_workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(previous)
    assert not errors and not any(thread.is_alive() for thread in threads)
    assert server.version("fc") == rounds
    final = server_params(server, "fc")
    for layer in layers:
        for key, value in final.items():
            np.testing.assert_array_equal(layer.params[key], value)


def test_threaded_sfb_sync_steps_every_replica_from_one_aggregate():
    """Two SFB layers per worker syncing at once, more threads than cores.

    Each (layer, iteration) aggregate is built once by its collectors and
    read by every (worker, layer) syncer's optimiser step; a block built
    twice, skipped or written after it was read would show as replicas
    that differ from each other or from the serial replay that allocates
    everything afresh (the parent's arithmetic).
    """
    import sys

    from repro.comm.backend import TrainerContext, WorkerResources, get_backend

    num_workers, rounds, names = 4, 12, ("a", "b")
    layers = {(wid, name): Dense(name, 24, 16, rng=np.random.default_rng(42))
              for wid in range(num_workers) for name in names}
    backend = get_backend("sfb")
    ctx = TrainerContext(num_workers=num_workers, num_servers=num_workers,
                         batch_size=4, sync_timeout=20.0)
    board = backend.build_substrate({}, ctx)
    optimizers = [SGD(learning_rate=0.05) for _ in range(num_workers)]
    syncers = {key: backend.create_syncer(
        layer, board, WorkerResources(key[0], local_optimizer=optimizers[key[0]]),
        ctx) for key, layer in layers.items()}

    def batch(wid, name, step):
        rng = np.random.default_rng([wid, names.index(name), step])
        return (rng.standard_normal((4, 24)).astype(np.float32),
                rng.standard_normal((4, 16)).astype(np.float32))

    errors = []

    def worker(wid, name):
        layer, syncer = layers[(wid, name)], syncers[(wid, name)]
        try:
            for step in range(rounds):
                x, dy = batch(wid, name, step)
                layer.forward(x)
                layer.backward(dy)
                syncer.sync(step)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=key) for key in layers]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(previous)
    assert not errors and not any(thread.is_alive() for thread in threads)

    for name in names:
        want = Dense(name, 24, 16, rng=np.random.default_rng(42)).get_params()
        for step in range(rounds):
            xs, dys = zip(*(batch(wid, name, step) for wid in range(num_workers)))
            weight = np.concatenate(xs).T @ np.concatenate(dys)
            weight /= float(num_workers)
            bias = dys[0].sum(axis=0)
            for dy in dys[1:]:
                bias = bias + dy.sum(axis=0)
            bias /= float(num_workers)
            want["weight"] -= 0.05 * weight
            want["bias"] -= 0.05 * bias
        for wid in range(num_workers):
            for key, value in want.items():
                np.testing.assert_array_equal(layers[(wid, name)].params[key],
                                              value)


# -- who keeps the dense weight gradient ---------------------------------------------

#: Every registered backend: does a Dense bound to its syncer keep ``dW``?
KEEPS_DENSE_WEIGHT = {"ps": True, "onebit": True, "ring": True, "hierps": True,
                      "sfb": False, "adam": False}


#: Steps the fixed batches of ``_factor_trainer`` cover (and the pins run).
PIN_ITERATIONS = 5


def _factor_trainer(mode, num_workers=2, widths=(64, 64, 64), batch=8,
                    momentum=0.0, weight_decay=0.0, **kwargs):
    """The benchmark MLP (at width 64 unless told otherwise) on fixed batches.

    Batch 8 keeps Algorithm 1 on SFB for both 64 x 64 layers at every
    worker count used here.
    """
    rng = np.random.default_rng(7)
    batches = {(step, wid): (
        rng.standard_normal((batch, widths[0])).astype(np.float32),
        rng.integers(0, 10, size=batch))
        for step in range(PIN_ITERATIONS) for wid in range(num_workers)}
    config = TrainingConfig(batch_size=batch, learning_rate=0.05,
                            iterations=PIN_ITERATIONS, seed=3,
                            momentum=momentum, weight_decay=weight_decay)
    kwargs.setdefault("deterministic", True)
    return DistributedTrainer(
        lambda: build_mlp_network(widths[0], widths[1:], 10), num_workers, None,
        config, mode=mode,
        batch_provider=lambda step, wid: batches[(step, wid)], **kwargs)


def _dense_layers(trainer):
    return [(wid, layer) for wid in range(trainer.num_workers)
            for layer in trainer.replica(wid).layers if isinstance(layer, Dense)]


def _assert_keeps_dense_weight(layer):
    u, v = layer.sufficient_factors()           # still there, for free
    assert set(layer.grads) == {"weight", "bias"}
    np.testing.assert_array_equal(layer.grads["weight"], u.T @ v)


def _assert_factors_are_the_gradient(layer):
    assert set(layer.grads) == {"bias"}
    with pytest.raises(KeyError):
        layer.grads["weight"]
    x, dy = layer.sufficient_factors()
    reference = Dense("reference", layer.in_features, layer.out_features)
    reference.set_params(layer.params)
    reference.forward(x)
    reference.backward(dy)
    np.testing.assert_array_equal(SufficientFactors(x, dy).reconstruct(),
                                  reference.grads["weight"])
    np.testing.assert_array_equal(layer.grads["bias"], reference.grads["bias"])


class TestWhoKeepsTheDenseGradient:
    """The representation follows from the syncer the trainer bound.

    Only a syncer whose handler reads ``sufficient_factors()`` (SFB, Adam)
    relieves its ``Dense`` of ``x.T @ dy``; the binding is
    ``CommBackend.create_syncer``, reached here through the trainer.
    """

    def test_every_registered_backend_is_in_the_table(self):
        assert set(KEEPS_DENSE_WEIGHT) == set(registered_backends())

    @pytest.mark.parametrize("mode", sorted(KEEPS_DENSE_WEIGHT))
    def test_backend_by_backend(self, mode):
        trainer = _factor_trainer(mode)
        trainer.train(2)
        layers = _dense_layers(trainer)
        assert len(layers) == 6
        for wid, layer in layers:
            syncer = trainer._workers[wid].syncers[layer.name]
            # 1-bit is the PS protocol with the quantizer as its encoder.
            assert syncer.scheme == ("ps" if mode == "onebit" else mode)
            assert (isinstance(syncer.compressor, OneBitQuantizer)
                    is (mode == "onebit"))
            assert syncer.consumes_factors is not KEEPS_DENSE_WEIGHT[mode]
            if KEEPS_DENSE_WEIGHT[mode]:
                _assert_keeps_dense_weight(layer)
            else:
                _assert_factors_are_the_gradient(layer)

    def test_compressed_ps_keeps_it(self):
        trainer = _factor_trainer("ps", compressor="topk(0.1)")
        trainer.train(2)
        for wid, layer in _dense_layers(trainer):
            assert trainer._workers[wid].syncers[layer.name].compressor is not None
            _assert_keeps_dense_weight(layer)

    def test_hybrid_mlp_splits_by_layer(self):
        """The benchmark model: two SFB layers and the 1024 x 10 PS head."""
        trainer = _factor_trainer("hybrid", widths=(1024, 1024, 1024), batch=32)
        trainer.train(1)
        for wid, layer in _dense_layers(trainer):
            scheme = trainer.assignment.scheme_for(layer.name)
            if layer.name == "classifier":
                assert scheme == "ps"
                _assert_keeps_dense_weight(layer)
            else:
                assert scheme == "sfb"
                _assert_factors_are_the_gradient(layer)

    def test_local_sgd_keeps_it_whatever_scheme_it_reports(self):
        """``LocalSGDSyncer`` applies dense gradients; ``scheme`` only names
        the substrate, so the selection cannot be made from it."""
        trainer = _factor_trainer("hybrid", policy="local_sgd(2)")
        trainer.train(2)
        for wid, layer in _dense_layers(trainer):
            syncer = trainer._workers[wid].syncers[layer.name]
            assert isinstance(syncer, LocalSGDSyncer)
            assert syncer.scheme == "sfb"
            assert not syncer.consumes_factors
            _assert_keeps_dense_weight(layer)

    def test_unbound_layers_keep_it(self):
        network = build_mlp_network(12, (16, 8), 4, seed=3)
        rng = np.random.default_rng(5)
        network.train_step(rng.standard_normal((5, 12)).astype(np.float32),
                           np.arange(5) % 4)
        for layer in network.layers:
            if isinstance(layer, Dense):
                _assert_keeps_dense_weight(layer)
        before = network.get_state()
        step_network(SGD(learning_rate=0.1), network)
        assert np.any(network.get_state()["fc1"]["weight"]
                      != before["fc1"]["weight"])
        check_layer_gradients(Dense("fc", 6, 5), rng.standard_normal((4, 6)))


def _final_bits(trainer, iterations):
    history = trainer.train(iterations)
    return ([repr(loss) for loss in history.losses],
            [{f"{layer}/{key}": value.tobytes()
              for layer, params in trainer.replica(wid).get_state().items()
              for key, value in params.items()}
             for wid in range(trainer.num_workers)])


@pytest.mark.parametrize("mode,num_workers", [("hybrid", 2), ("sfb", 3)])
def test_threaded_run_is_bit_identical_to_the_deterministic_one(mode, num_workers):
    """Threaded WFBP: a worker's two SFB layers sync at the same time, and
    each aggregate's row slabs go to whichever collector claims them; the
    bits may not depend on who computed which slab.  (Past two workers the
    hybrid head's parameter server folds in arrival order unless
    ``deterministic``, so that case runs SFB on every layer.)"""
    runs = []
    for deterministic in (True, False):
        trainer = _factor_trainer(mode, num_workers=num_workers,
                                  widths=(512, 512, 512),
                                  deterministic=deterministic)
        assert [trainer.assignment.scheme_for(name)
                for name in ("fc1", "fc2")] == ["sfb", "sfb"]
        runs.append(_final_bits(trainer, PIN_ITERATIONS))
    assert runs[0] == runs[1]
    losses, replicas = runs[0]
    assert all(replica == replicas[0] for replica in replicas)


# -- bit-identity pins for the factor-synchronised path ---------------------------

PINS_PATH = os.path.join(os.path.dirname(__file__), "data", "sfb_pins.json")

#: name -> ``_factor_trainer`` arguments.
PIN_CASES = {
    **{f"{mode}-P{workers}": dict(mode=mode, num_workers=workers)
       for mode in ("hybrid", "sfb", "adam") for workers in (2, 3, 4)},
    "hybrid-P2-momentum-decay": dict(mode="hybrid", num_workers=2,
                                     momentum=0.9, weight_decay=1e-4),
    "hybrid-P2-local_sgd2": dict(mode="hybrid", num_workers=2,
                                 policy="local_sgd(2)"),
}


def _pin_run(**case):
    """Losses and one parameter digest per replica of one pinned run."""
    trainer = _factor_trainer(**case)
    history = trainer.train(PIN_ITERATIONS)
    digests = []
    for wid in range(trainer.num_workers):
        sha = hashlib.sha256()
        for layer, params in sorted(trainer.replica(wid).get_state().items()):
            for key, value in sorted(params.items()):
                sha.update(f"{layer}/{key}".encode())
                sha.update(np.ascontiguousarray(value).tobytes())
        digests.append(sha.hexdigest())
    schemes = {name: trainer.assignment.scheme_for(name)
               for name in ("fc1", "fc2", "classifier")}
    return {"losses": [repr(loss) for loss in history.losses],
            "digests": digests, "schemes": schemes}


class TestFactorPathBitIdentityPins:
    """Recorded on the parent of ISSUE 20, before any source changed.

    Skipping ``x.T @ dy``, reconstructing into a reused buffer and applying
    the update without a temporary are all arithmetic-preserving, so every
    per-step loss and every final parameter bit must survive them.
    """

    @pytest.fixture(scope="class")
    def pins(self):
        with open(PINS_PATH) as fh:
            return json.load(fh)["cases"]

    def test_every_case_is_pinned(self, pins):
        assert set(pins) == set(PIN_CASES)

    @pytest.mark.parametrize("case", sorted(PIN_CASES))
    def test_losses_and_final_parameters_are_bit_identical(self, pins, case):
        got = _pin_run(**PIN_CASES[case])
        assert got == pins[case]
        if case.startswith(("hybrid", "sfb")):  # the pin is on the SFB path
            assert got["schemes"]["fc1"] == got["schemes"]["fc2"] == "sfb"
        if "local_sgd" not in case:             # an odd step ends unaveraged
            assert len(set(got["digests"])) == 1


if __name__ == "__main__":  # re-record: PYTHONPATH=<tree>/src python tests/test_sync_path.py
    with open(PINS_PATH, "w") as fh:
        json.dump({
            "note": ("repr() of every per-step loss and a sha256 of each "
                     "replica's final parameters: build_mlp_network(64, (64, "
                     "64), 10), batch 8, 5 iterations, deterministic=True; "
                     "recorded at the parent of ISSUE 20 (commit d102011)"),
            "cases": {case: _pin_run(**kwargs)
                      for case, kwargs in sorted(PIN_CASES.items())},
        }, fh, indent=1)
        fh.write("\n")
