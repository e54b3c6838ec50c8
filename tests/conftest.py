"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ClusterConfig, TrainingConfig
from repro.data import shard_dataset
from repro.nn.model_zoo import build_mlp_network, get_model_spec
from train_reference import make_linearly_separable


@pytest.fixture(scope="session")
def vgg19_spec():
    """VGG19 model spec (cached for the whole session)."""
    return get_model_spec("vgg19")


@pytest.fixture(scope="session")
def googlenet_spec():
    """GoogLeNet model spec (cached for the whole session)."""
    return get_model_spec("googlenet")


@pytest.fixture(scope="session")
def tiny_model_spec():
    """The smallest conv+FC model in the zoo (fast to simulate repeatedly)."""
    return get_model_spec("cifar10-quick")


@pytest.fixture
def small_cluster():
    """An 8-worker, 8-shard cluster at 40 GbE."""
    return ClusterConfig(num_workers=8, bandwidth_gbps=40.0)


@pytest.fixture
def training_config():
    """Small, fast training configuration."""
    return TrainingConfig(batch_size=16, learning_rate=0.05, iterations=5, seed=0)


@pytest.fixture
def mlp_factory():
    """Factory building identical small MLP replicas."""
    def factory():
        return build_mlp_network(input_dim=24, hidden_dims=(48, 24),
                                 num_classes=5, seed=11)
    return factory


@pytest.fixture
def flat_dataset():
    """A small linearly separable dataset: (train_x, train_y, test_x, test_y)."""
    return make_linearly_separable(num_train=240, num_test=60, input_dim=24,
                                   num_classes=5, seed=2)


@pytest.fixture
def flat_shards(flat_dataset):
    """The flat dataset partitioned across 3 workers."""
    train_x, train_y, _, _ = flat_dataset
    return shard_dataset(train_x, train_y, 3, seed=4)


@pytest.fixture
def rng():
    """A deterministic numpy random generator."""
    return np.random.default_rng(1234)
