"""Micro-benchmarks of the substrates underneath the experiments.

These do not correspond to a paper artefact; they track the performance of
the building blocks (DES engine, numpy layers, communication substrates) so
regressions in the simulator or the functional runtime are visible.
"""

import numpy as np
import pytest

from repro.comm.parameter_server import ShardedParameterServer
from repro.comm.quantization import OneBitQuantizer
from repro.comm.sfb import plan_aggregate
from repro.nn.layers import Conv2D, Dense
from repro.nn.model_zoo import get_model_spec
from repro.nn.optim import SGD
from repro.nn.sufficient_factors import SufficientFactors
from repro.sim import Environment
from repro.simulation.workload import build_workload
from repro.sweep import SweepTask, run_sweep


class _Chain:
    """A step record that books its next timeout each time one fires."""

    __slots__ = ("env", "left")

    def __init__(self, env: Environment, count: int):
        self.env = env
        self.left = count
        env.timeout(0.001)._waiter = self  # a fresh timeout: no waiter yet

    def __call__(self, ok, value) -> None:
        self.left -= 1
        if self.left:
            self.env.timeout(0.001)._waiter = self


def test_des_event_throughput(benchmark):
    """Raw event-processing rate of the discrete-event engine."""
    def run_chain():
        env = Environment()
        _Chain(env, 5_000)
        env.run()
        return env.events_processed

    events = benchmark(run_chain)
    assert events >= 5_000


def test_dense_layer_forward_backward(benchmark):
    """Forward+backward of a 1024x1024 Dense layer on a 64-sample batch."""
    rng = np.random.default_rng(0)
    layer = Dense("fc", 1024, 1024, rng=rng)
    x = rng.standard_normal((64, 1024)).astype(np.float32)
    grad = rng.standard_normal((64, 1024)).astype(np.float32)

    def step():
        layer.forward(x)
        layer.backward(grad)
        return layer.grads["weight"].shape

    assert benchmark(step) == (1024, 1024)


def test_conv_layer_forward_backward(benchmark):
    """Forward+backward of a 32-channel 3x3 convolution on 16x16 images."""
    rng = np.random.default_rng(0)
    layer = Conv2D("conv", 16, 32, kernel=3, pad=1, rng=rng)
    x = rng.standard_normal((8, 16, 16, 16)).astype(np.float32)

    def step():
        out = layer.forward(x)
        layer.backward(np.ones_like(out))
        return out.shape

    assert benchmark(step) == (8, 32, 16, 16)


def test_parameter_server_push_pull(benchmark):
    """One push/aggregate/pull cycle of a 4M-parameter layer, warm server.

    The server is built in set-up (its constructor copies the 16 MB of
    parameters, which used to be timed instead of the sync path); a cycle
    is the single worker's push, the blocked fold-and-step it triggers, and
    the pull into the worker's own arrays.
    """
    rng = np.random.default_rng(0)
    params = {"fc": {"weight": rng.standard_normal((2048, 2048)).astype(np.float32)}}
    grad = {"weight": rng.standard_normal((2048, 2048)).astype(np.float32)}
    server = ShardedParameterServer(params, num_workers=1,
                                    optimizer=SGD(learning_rate=0.01))
    mine = {"weight": np.empty((2048, 2048), dtype=np.float32)}

    def cycle():
        server.push(0, "fc", grad)
        return server.pull(0, "fc", min_version=server.version("fc"),
                           out=mine)["weight"].shape

    cycle()     # first-touch page faults of the pull target
    assert benchmark(cycle) == (2048, 2048)


def test_ps_server_step(benchmark):
    """The completing push of a 2-worker version of a 1024x1024 layer, alone.

    What the peer waits for in ``pull`` on ``train_mlp_ps``: the worker-ordered
    fold, the mean and the SGD step of one 4 MB tensor under the slot lock.
    Worker 0's push (buffered by reference) is each round's set-up.
    """
    rng = np.random.default_rng(0)
    params = {"fc": {"weight": rng.standard_normal((1024, 1024)).astype(np.float32)}}
    grads = [{"weight": rng.standard_normal((1024, 1024)).astype(np.float32)}
             for _ in range(2)]
    server = ShardedParameterServer(params, num_workers=2, ordered=True,
                                    optimizer=SGD(learning_rate=0.01))

    def first_push():
        server.push(0, "fc", grads[0])

    def completing_push():
        server.push(1, "fc", grads[1])
        return server.version("fc")

    first_push()
    assert completing_push() == 1   # warm: allocator and caches
    last = benchmark.pedantic(completing_push, setup=first_push, rounds=300)
    assert last == server.version("fc") >= 2    # every round stepped once


def test_ps_sync_cycle_2workers(benchmark):
    """Two workers' ``Syncer.sync`` of a 1024x1024 Dense, ordered server.

    The shape of the repo benchmark's ``train_mlp_ps`` sync path: each
    thread stages its layer's gradients (by reference), pushes, blocks
    until the worker-ordered mean is applied and pulls the new version
    straight into its layer.
    """
    import threading

    from repro.core.syncer import Syncer

    rng = np.random.default_rng(0)
    layers = [Dense("fc", 1024, 1024, rng=np.random.default_rng(1))
              for _ in range(2)]
    for layer in layers:
        layer.forward(rng.standard_normal((32, 1024)).astype(np.float32))
        layer.backward(rng.standard_normal((32, 1024)).astype(np.float32))
    server = ShardedParameterServer({"fc": layers[0].get_params()},
                                    num_workers=2,
                                    optimizer=SGD(learning_rate=0.01),
                                    ordered=True)
    syncers = [Syncer(worker, layer, "ps", ps=server)
               for worker, layer in enumerate(layers)]

    def cycle():
        step = server.version("fc")
        threads = [threading.Thread(target=syncer.sync, args=(step,))
                   for syncer in syncers]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return server.version("fc") - step

    assert benchmark(cycle) == 1
    np.testing.assert_array_equal(layers[0].params["weight"],
                                  layers[1].params["weight"])


def test_sfb_sync_cycle_2workers(benchmark):
    """Two workers' backward + ``Syncer.sync`` of a 1024x1024 Dense under SFB.

    The shape of the repo benchmark's ``train_mlp_hybrid`` hot layers: each
    thread backpropagates its own batch and publishes ``(x, dy)`` by
    reference; the two collectors build the one aggregate of both workers'
    factors together, row slab by row slab, and each applies it to its own
    replica.  The syncers come from the backend's ``create_syncer``, the
    binding the trainer uses.
    """
    import threading

    from repro.comm.backend import TrainerContext, WorkerResources, get_backend

    rng = np.random.default_rng(0)
    layers = [Dense("fc", 1024, 1024, rng=np.random.default_rng(1))
              for _ in range(2)]
    inputs = [rng.standard_normal((32, 1024)).astype(np.float32) for _ in layers]
    grads = [rng.standard_normal((32, 1024)).astype(np.float32) for _ in layers]
    backend = get_backend("sfb")
    ctx = TrainerContext(num_workers=2, num_servers=2, batch_size=32)
    board = backend.build_substrate({"fc": layers[0].get_params()}, ctx)
    syncers = [backend.create_syncer(
        layer, board, WorkerResources(worker, local_optimizer=SGD(0.01)), ctx)
        for worker, layer in enumerate(layers)]
    steps = iter(range(1 << 30))

    def work(worker, step):
        layers[worker].forward(inputs[worker])
        layers[worker].backward(grads[worker], need_input_grad=False)
        syncers[worker].sync(step)

    def cycle():
        step = next(steps)
        threads = [threading.Thread(target=work, args=(worker, step))
                   for worker in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return syncers[0].stats.syncs - step

    assert benchmark(cycle) == 1
    np.testing.assert_array_equal(layers[0].params["weight"],
                                  layers[1].params["weight"])
    np.testing.assert_array_equal(layers[0].params["bias"],
                                  layers[1].params["bias"])


def test_sfb_aggregation(benchmark):
    """Aggregate 8 workers' sufficient factors for a 1024x1024 FC layer.

    The SFB board's one build, every row slab and the extras fold run on
    this thread (a board's collectors split them between themselves).
    """
    rng = np.random.default_rng(0)
    contributions = {
        worker: (
            SufficientFactors(
                u=rng.standard_normal((32, 1024)).astype(np.float32),
                v=rng.standard_normal((32, 1024)).astype(np.float32)),
            {"bias": rng.standard_normal(1024).astype(np.float32)})
        for worker in range(8)
    }

    def aggregate():
        (weight, _, _), blocks = plan_aggregate(contributions, aggregation="mean")
        for block in blocks:
            block()
        return weight.shape

    assert benchmark(aggregate) == (1024, 1024)


def test_onebit_quantization_rate(benchmark):
    """Quantize+dequantize a 1M-element gradient."""
    rng = np.random.default_rng(0)
    grad = rng.standard_normal((1024, 1024)).astype(np.float32)
    quantizer = OneBitQuantizer()

    def cycle():
        quantized = quantizer.quantize("w", grad)
        return quantized.dequantize().shape

    assert benchmark(cycle) == (1024, 1024)


def _sweep_noop(index):
    return index


def test_sweep_dispatch_overhead(benchmark):
    """Per-config overhead of the sweep runner (serial dispatch + merge).

    256 no-op tasks isolate the machinery itself -- key checking, dispatch
    and the deterministic merge -- from any simulation work, so the number
    divided by 256 is the fixed cost the sweep adds to every config.
    """
    tasks = [SweepTask(key=("noop", index), fn=_sweep_noop, args=(index,))
             for index in range(256)]

    def sweeping():
        return len(run_sweep(tasks, jobs=1))

    assert benchmark(sweeping) == 256


@pytest.mark.parametrize("model", ["vgg19", "resnet-152"])
def test_workload_derivation(benchmark, model):
    """Spec -> simulation workload derivation time for large models."""
    spec = get_model_spec(model)
    workload = benchmark(build_workload, spec)
    assert len(workload.units) > 5


def _trainer_run(policy, **fault_kwargs):
    from repro.config import TrainingConfig
    from repro.data import shard_dataset
    from repro.nn.model_zoo import build_mlp_network
    from repro.parallel import DistributedTrainer
    from train_reference import make_linearly_separable

    train_x, train_y, _, _ = make_linearly_separable(
        num_train=96, num_test=8, input_dim=16, num_classes=4, seed=1)
    shards = shard_dataset(train_x, train_y, 3, seed=2)
    config = TrainingConfig(batch_size=8, learning_rate=0.05, iterations=4,
                            seed=5)

    def factory():
        return build_mlp_network(input_dim=16, hidden_dims=(32, 16),
                                 num_classes=4, seed=21)

    trainer = DistributedTrainer(factory, 3, shards, config, mode="ps",
                                 deterministic=True, policy=policy,
                                 **fault_kwargs)
    return trainer.train(4).final_loss


def test_trainer_iteration_bsp(benchmark):
    """4 deterministic BSP iterations, 3 workers: the barrier reference.

    Pairs with test_trainer_iteration_ssp_clock below: the two share the
    exact setup and differ only in the synchronization gate, so their
    ratio is the cost of the per-worker-clock machinery relative to the
    plain barrier path (gated < 5% in benchmarks/baseline.json).
    """
    assert benchmark(_trainer_run, "bsp") > 0


def test_trainer_iteration_ssp_clock(benchmark):
    """Same run under ssp(4): SSPClock advance + staleness gate per step."""
    assert benchmark(_trainer_run, "ssp-4") > 0


def test_trainer_iteration_nofault(benchmark):
    """Same BSP run with the fault-injection machinery armed but idle.

    An empty FaultPlan attaches the injector hooks (begin_step +
    before_sync on every layer), the failure detector and the retry
    wrapper to the identical run as test_trainer_iteration_bsp, so the
    ratio of the two means is the fault-free overhead of the hooks on
    the hot path (gated < 5% in benchmarks/baseline.json).  Checkpoint
    cost is measured separately by test_trainer_checkpoint below.
    """
    from repro.core.faults import FaultPlan

    assert benchmark(_trainer_run, "bsp", fault_plan=FaultPlan()) > 0


def test_trainer_checkpoint(benchmark):
    """One full consistent-cut checkpoint of the 3-worker MLP trainer.

    Deep-copies every replica's state, per-worker optimizer / sampler
    state and the PS snapshot (including server-side momentum): the cost
    a run pays once per checkpoint_interval iterations, amortized to
    near-zero at realistic intervals.
    """
    from repro.config import TrainingConfig
    from repro.data import shard_dataset
    from repro.nn.model_zoo import build_mlp_network
    from repro.parallel import DistributedTrainer
    from train_reference import make_linearly_separable

    train_x, train_y, _, _ = make_linearly_separable(
        num_train=96, num_test=8, input_dim=16, num_classes=4, seed=1)
    shards = shard_dataset(train_x, train_y, 3, seed=2)
    config = TrainingConfig(batch_size=8, learning_rate=0.05, iterations=4,
                            seed=5)
    trainer = DistributedTrainer(
        lambda: build_mlp_network(input_dim=16, hidden_dims=(32, 16),
                                  num_classes=4, seed=21),
        3, shards, config, mode="ps", deterministic=True,
        recovery="restart", checkpoint_interval=2)

    def checkpoint():
        trainer._take_checkpoint(0)
        return trainer._checkpoint.step

    assert checkpoint() == 0
    benchmark(checkpoint)


def test_trainer_build_mlp(benchmark):
    """Construction of the repo benchmark's MLP trainer (``train_mlp_ps``).

    Two replicas of the 1024-1024-1024-10 MLP (8 MiB of float32 parameters
    each) and the parameter server's copy: the untimed ``prepare`` of every
    ``bench/run.py`` trainer op, which ``op_ms`` does not see.
    """
    from repro.config import TrainingConfig
    from repro.nn.model_zoo import build_mlp_network
    from repro.parallel import DistributedTrainer

    config = TrainingConfig(batch_size=32, learning_rate=0.01, iterations=20,
                            seed=0)
    batch = (np.zeros((32, 1024), np.float32), np.zeros(32, np.int64))

    def build():
        return DistributedTrainer(
            lambda: build_mlp_network(1024, (1024, 1024), 10), 2, None, config,
            mode="ps", batch_provider=lambda _step, _worker: batch,
            deterministic=True)

    assert benchmark(build).num_workers == 2


def test_ssp_clock_advance_rate(benchmark):
    """Raw advance()/gate throughput of the SSP clock, 4 workers round-robin.

    Round-robin order keeps every worker within one clock of the minimum,
    so no advance ever blocks: the number isolates the bookkeeping cost
    (lock + dict bump + bound check) on the trainer's per-step hot path.
    """
    from repro.core.staleness import SSPClock

    def rounds():
        clock = SSPClock(4, staleness=2, default_timeout=1.0)
        for _ in range(500):
            for worker in range(4):
                clock.advance(worker)
        return clock.min_clock()

    assert benchmark(rounds) == 500


def test_backend_dispatch(benchmark):
    """Registry resolution + Algorithm-1 cost evaluation per layer.

    The communication-backend registry sits on the per-layer hot path of
    the scheme assigner, the trainer's syncer construction and the
    simulator's flow dispatch.  One round resolves 6 backends and
    evaluates their costs for 256 layers plus 256 full hybrid choices, so
    mean_s / 1792 is the fixed cost the indirection adds per layer --
    it must stay in dict-lookup territory (sub-microsecond).
    """
    from repro.comm.backend import get_backend, hybrid_choice
    from repro.config import ClusterConfig

    schemes = ("ps", "sfb", "onebit", "adam", "ring", "hierps")
    cluster = ClusterConfig(num_workers=8)

    def dispatch():
        total = 0.0
        for _ in range(256):
            for scheme in schemes:
                total += get_backend(scheme).cost(1024, 1024, cluster, 32)
            if hybrid_choice(1024, 1024, cluster, 32) == "sfb":
                total += 1.0
        return total

    assert benchmark(dispatch) > 0
