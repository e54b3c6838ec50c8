"""Tests for per-layer syncers across all communication schemes."""

import numpy as np
import pytest

from repro.comm.adam import AdamSFServer
from repro.comm.parameter_server import ShardedParameterServer
from repro.comm.quantization import OneBitQuantizer
from repro.comm.sfb import SufficientFactorBroadcaster
from repro.core.syncer import Syncer
from repro.exceptions import TrainingError
from repro.nn.layers import Conv2D, Dense
from repro.nn.optim import SGD
from train_reference import server_params


@pytest.fixture
def dense_layer(rng):
    layer = Dense("fc", 6, 4, rng=rng)
    x = rng.standard_normal((3, 6)).astype(np.float32)
    layer.forward(x)
    layer.backward(rng.standard_normal((3, 4)).astype(np.float32))
    return layer


def make_ps(layer, num_workers=1, lr=0.1):
    return ShardedParameterServer({layer.name: layer.get_params()},
                                  num_workers=num_workers,
                                  optimizer=SGD(learning_rate=lr))


class TestSyncerValidation:
    def test_ps_scheme_requires_server(self, dense_layer):
        with pytest.raises(TrainingError):
            Syncer(0, dense_layer, "ps")

    def test_sfb_scheme_requires_broadcaster_and_optimizer(self, dense_layer):
        with pytest.raises(TrainingError):
            Syncer(0, dense_layer, "sfb",
                   sfb=SufficientFactorBroadcaster(1))

    def test_sfb_scheme_requires_dense_layer(self, rng):
        conv = Conv2D("conv", 1, 2, kernel=3, rng=rng)
        with pytest.raises(TrainingError):
            Syncer(0, conv, "sfb",
                   sfb=SufficientFactorBroadcaster(1), local_optimizer=SGD(0.1))

    def test_onebit_is_no_syncer_scheme(self, dense_layer):
        """1-bit is the PS syncer with a quantizer for its compressor."""
        syncer = Syncer(0, dense_layer, "onebit", ps=make_ps(dense_layer))
        with pytest.raises(TrainingError, match="no functional handler"):
            syncer.sync(iteration=0)

    def test_adam_scheme_requires_server(self, dense_layer):
        with pytest.raises(TrainingError):
            Syncer(0, dense_layer, "adam")


class TestPsSyncer:
    def test_sync_applies_server_update_to_layer(self, dense_layer):
        ps = make_ps(dense_layer, lr=0.1)
        syncer = Syncer(0, dense_layer, "ps", ps=ps)
        before = dense_layer.params["weight"].copy()
        grads = dense_layer.get_grads()
        syncer.sync(iteration=0)
        expected = before - 0.1 * grads["weight"]
        np.testing.assert_allclose(dense_layer.params["weight"], expected, rtol=1e-5)

    def test_sync_updates_stats(self, dense_layer):
        syncer = Syncer(0, dense_layer, "ps", ps=make_ps(dense_layer))
        stats = syncer.sync(iteration=0)
        assert stats.syncs == 1
        assert stats.bytes_sent > 0
        assert stats.bytes_received > 0

    def test_layer_matches_server_copy_after_sync(self, dense_layer):
        ps = make_ps(dense_layer)
        syncer = Syncer(0, dense_layer, "ps", ps=ps)
        syncer.sync(iteration=0)
        np.testing.assert_allclose(dense_layer.params["weight"],
                                   server_params(ps, "fc")["weight"])


class TestQuantizedPsSyncer:
    """The 1-bit backend's path: the PS syncer, a quantizer compressing."""

    @staticmethod
    def _prepared_layer(seed: int, m: int = 32, n: int = 16) -> Dense:
        """A Dense layer large enough for the quantizer to engage (>= 64 weights)."""
        layer = Dense("fc", m, n, rng=np.random.default_rng(seed))
        rng = np.random.default_rng(seed + 100)
        layer.forward(rng.standard_normal((3, m)).astype(np.float32))
        layer.backward(rng.standard_normal((3, n)).astype(np.float32))
        return layer

    def test_wire_bytes_smaller_than_dense(self):
        dense_layer = self._prepared_layer(seed=1)
        dense_stats = Syncer(0, dense_layer, "ps",
                             ps=make_ps(dense_layer)).sync(iteration=0)

        layer2 = self._prepared_layer(seed=1)
        onebit_stats = Syncer(0, layer2, "ps", ps=make_ps(layer2),
                              compressor=OneBitQuantizer()).sync(iteration=0)
        assert onebit_stats.bytes_sent < dense_stats.bytes_sent
        # The pull stays dense.
        assert onebit_stats.bytes_received == dense_stats.bytes_received

    def test_update_is_lossy(self):
        """The 1-bit path must not produce the exact dense update."""
        exact_layer = self._prepared_layer(seed=5)
        lossy_layer = self._prepared_layer(seed=5)
        Syncer(0, exact_layer, "ps", ps=make_ps(exact_layer)).sync(0)
        Syncer(0, lossy_layer, "ps", ps=make_ps(lossy_layer),
               compressor=OneBitQuantizer()).sync(0)
        assert not np.allclose(exact_layer.params["weight"],
                               lossy_layer.params["weight"])


class TestSfbSyncer:
    def test_two_workers_stay_consistent(self, rng):
        """Two SFB replicas end up with identical parameters after a sync."""
        broadcaster = SufficientFactorBroadcaster(num_workers=2)
        layers = []
        syncers = []
        x = rng.standard_normal((3, 6)).astype(np.float32)
        for worker in range(2):
            layer = Dense("fc", 6, 4, rng=np.random.default_rng(42))
            layer.forward(x + worker)  # different data per worker
            layer.backward(rng.standard_normal((3, 4)).astype(np.float32))
            layers.append(layer)
            syncers.append(Syncer(worker, layer, "sfb", sfb=broadcaster,
                                  local_optimizer=SGD(learning_rate=0.1)))
        import threading
        threads = [threading.Thread(target=syncer.sync, args=(0,))
                   for syncer in syncers]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        np.testing.assert_allclose(layers[0].params["weight"],
                                   layers[1].params["weight"], rtol=1e-5)
        np.testing.assert_allclose(layers[0].params["bias"],
                                   layers[1].params["bias"], rtol=1e-5)

    def test_sfb_bytes_below_dense_for_wide_layer(self, rng):
        """For a wide layer and tiny batch, SF traffic beats dense traffic."""
        broadcaster = SufficientFactorBroadcaster(num_workers=2)
        layer = Dense("wide", 256, 256, rng=rng)
        x = rng.standard_normal((2, 256)).astype(np.float32)
        layer.forward(x)
        layer.backward(rng.standard_normal((2, 256)).astype(np.float32))
        syncer = Syncer(0, layer, "sfb", sfb=broadcaster,
                        local_optimizer=SGD(0.1))
        import threading

        peer_layer = Dense("wide", 256, 256, rng=np.random.default_rng(0))
        peer_layer.forward(x)
        peer_layer.backward(rng.standard_normal((2, 256)).astype(np.float32))
        peer = Syncer(1, peer_layer, "sfb", sfb=broadcaster,
                      local_optimizer=SGD(0.1))
        threads = [threading.Thread(target=s.sync, args=(0,)) for s in (syncer, peer)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        dense_bytes = layer.params["weight"].nbytes
        assert syncer.stats.bytes_sent < dense_bytes


class TestAdamSyncer:
    def test_sync_pulls_full_matrix(self, dense_layer):
        adam = AdamSFServer({dense_layer.name: dense_layer.get_params()},
                            num_workers=1, optimizer=SGD(learning_rate=0.1))
        syncer = Syncer(0, dense_layer, "adam", adam=adam)
        stats = syncer.sync(iteration=0)
        dense_bytes = sum(p.nbytes for p in dense_layer.params.values())
        assert stats.bytes_received == dense_bytes

    def test_adam_and_ps_updates_agree(self, rng):
        """With one worker, Adam's SF path equals the dense PS update."""
        x = rng.standard_normal((3, 6)).astype(np.float32)
        grad_out = rng.standard_normal((3, 4)).astype(np.float32)
        ps_layer = Dense("fc", 6, 4, rng=np.random.default_rng(9))
        adam_layer = Dense("fc", 6, 4, rng=np.random.default_rng(9))
        for layer in (ps_layer, adam_layer):
            layer.forward(x.copy())
            layer.backward(grad_out.copy())
        Syncer(0, ps_layer, "ps", ps=make_ps(ps_layer)).sync(0)
        adam = AdamSFServer({adam_layer.name: adam_layer.get_params()},
                            num_workers=1, optimizer=SGD(learning_rate=0.1))
        Syncer(0, adam_layer, "adam", adam=adam).sync(0)
        np.testing.assert_allclose(ps_layer.params["weight"],
                                   adam_layer.params["weight"], rtol=1e-5)
