"""One factor rank from the zoo spec to the trainer's wire.

An FC layer's sufficient factors ``(x, dy)`` have ``K = batch * rank``
rows: one per image for a CNN FC, one per token for a token FC (a
transformer's vocabulary head behind ``TokenFlatten``).  These tests hold
the rank to one value wherever it is known:

* the zoo :class:`~repro.nn.spec.LayerSpec` and the runnable ``Dense`` it
  describes -- the rows a forward pass caches equal ``batch * rank``, for
  the MLP, CIFAR-10 quick and both transformer heads;
* the price and the trainer's measured bytes -- a 2-block LM-mode
  transformer trained under ``sfb`` and ``hybrid`` on 2, 3 and 4 workers
  sends and receives, per layer and iteration, exactly the bytes the
  simulators' :class:`SyncUnit` prices.
"""

import numpy as np
import pytest

from repro.config import ClusterConfig, TrainingConfig
from repro.nn.layers import Dense
from repro.nn.model_zoo import (
    build_cifar_quick_network,
    build_mlp_network,
    build_transformer_network,
    cifar_quick_spec,
    transformer_spec,
)
from repro.nn.model_zoo.mlp import mlp_spec
from repro.parallel import DistributedTrainer
from repro.simulation.plan import decide_schemes
from repro.simulation.workload import build_workload

BATCH = 3
MLP = dict(input_dim=12, hidden_dims=(16, 8), num_classes=4)
#: A 2-block mini-transformer: 6-token sequences over a 20-token vocabulary.
GPT = dict(vocab_size=20, block_size=6, n_embd=8, num_heads=2, num_blocks=2)


def _gpt_spec(num_classes=None):
    return transformer_spec("mini-gpt", **GPT, default_batch_size=BATCH,
                            num_classes=num_classes)


def _families():
    rng = np.random.default_rng(0)
    images = lambda *shape: rng.standard_normal(shape).astype(np.float32)
    tokens = rng.integers(0, GPT["vocab_size"], size=(BATCH, GPT["block_size"]))
    return {
        "mlp": (mlp_spec(**MLP), build_mlp_network(**MLP),
                images(BATCH, MLP["input_dim"]), BATCH, 4),
        "cifar_quick": (cifar_quick_spec(), build_cifar_quick_network(),
                        images(BATCH, 3, 32, 32), BATCH, 10),
        "transformer lm_head": (
            _gpt_spec(), build_transformer_network(**GPT), tokens,
            BATCH * GPT["block_size"], GPT["vocab_size"]),
        "transformer cls_head": (
            _gpt_spec(num_classes=4),
            build_transformer_network(**GPT, num_classes=4), tokens, BATCH, 4),
    }


class TestSpecAndRunnableAgreeOnTheRank:
    @pytest.mark.parametrize("family", ["mlp", "cifar_quick",
                                        "transformer lm_head",
                                        "transformer cls_head"])
    def test_cached_rows_are_batch_times_the_spec_rank(self, family):
        spec, network, inputs, targets, classes = _families()[family]
        network.train_step(inputs, np.arange(targets) % classes)
        dense = [layer for _, layer in network.parameter_layers()
                 if isinstance(layer, Dense)]
        assert dense
        for layer in dense:
            record = spec.layer(layer.name)
            rows = BATCH * record.factor_rank
            u, v = layer.sufficient_factors()
            assert u.shape == (rows, layer.in_features), layer.name
            assert v.shape == (rows, layer.out_features), layer.name
            assert layer.factor_rank == record.factor_rank, layer.name


class TestTrainerBytesAreThePrice:
    """The trainer's measured bytes, both ways, are the referee of the price."""

    ITERATIONS = 2

    @staticmethod
    def _batches(step, worker):
        rng = np.random.default_rng(100 * step + worker)
        tokens = rng.integers(0, GPT["vocab_size"],
                              size=(BATCH, GPT["block_size"] + 1))
        return tokens[:, :-1], tokens[:, 1:].reshape(-1)

    def _train(self, mode, workers):
        trainer = DistributedTrainer(
            lambda: build_transformer_network(**GPT), workers, None,
            TrainingConfig(batch_size=BATCH, learning_rate=0.05),
            mode=mode, batch_provider=self._batches, deterministic=True)
        trainer.train(self.ITERATIONS)
        return trainer

    @staticmethod
    def _priced(layer, scheme, unit, workers):
        """Bytes one worker sends -- and, every exchange being symmetric,
        receives -- for ``layer`` in one iteration, as priced: its factors
        (``unit``'s ``K = batch * rank`` rows) plus the dense bias to each
        peer under SFB, and each peer's back; the dense gradient to the PS
        and the dense parameters back."""
        dense = sum(int(p.nbytes) for p in layer.params.values())
        if scheme == "ps":
            return dense
        assert scheme == "sfb"
        bias = int(layer.params["bias"].nbytes)
        return (workers - 1) * (unit.sufficient_factor_bytes(BATCH) + bias)

    @pytest.mark.parametrize("mode,head", [("sfb", "sfb"), ("hybrid", "ps")])
    def test_each_layer_sends_its_priced_bytes(self, mode, head):
        workload = build_workload(_gpt_spec(), batch_size=BATCH)
        unit, = (unit for unit in workload.units if unit.name == "lm_head")
        assert unit.factor_rank == GPT["block_size"]
        for workers in (2, 3, 4):
            trainer = self._train(mode, workers)
            assert trainer.assignment.scheme_for("lm_head") == head
            assert decide_schemes(workload, mode, ClusterConfig(
                num_workers=workers))["lm_head"] == head
            for _, layer in trainer.replica(0).parameter_layers():
                scheme = trainer.assignment.scheme_for(layer.name)
                want = self.ITERATIONS * self._priced(layer, scheme, unit,
                                                      workers)
                for worker in range(workers):
                    stats = trainer._workers[worker].syncers[layer.name].stats
                    assert stats.bytes_sent == want, (layer.name, workers, worker)
                    assert stats.bytes_received == want, \
                        (layer.name, workers, worker)
