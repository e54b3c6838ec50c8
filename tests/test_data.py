"""Tests for the synthetic datasets, partitioning and samplers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import (
    BatchSampler,
    SyntheticImageDataset,
    make_cifar10_like,
    partition_indices,
    shard_dataset,
)
from repro.exceptions import ConfigurationError
from train_reference import make_linearly_separable


class TestSyntheticImageDataset:
    def test_shapes_match_spec(self):
        dataset = make_cifar10_like(num_train=100, num_test=20, image_size=16)
        assert dataset.train_images.shape == (100, 3, 16, 16)
        assert dataset.test_images.shape == (20, 3, 16, 16)
        assert dataset.num_classes == 10

    def test_deterministic_given_seed(self):
        a = make_cifar10_like(num_train=50, seed=3)
        b = make_cifar10_like(num_train=50, seed=3)
        np.testing.assert_array_equal(a.train_images, b.train_images)
        np.testing.assert_array_equal(a.train_labels, b.train_labels)

    def test_different_seeds_differ(self):
        a = make_cifar10_like(num_train=50, seed=3)
        b = make_cifar10_like(num_train=50, seed=4)
        assert not np.array_equal(a.train_images, b.train_images)

    def test_labels_within_range(self):
        dataset = make_cifar10_like(num_train=200)
        assert dataset.train_labels.min() >= 0
        assert dataset.train_labels.max() < 10

    def test_class_signal_present(self):
        """Same-class images are closer to their template than other classes'."""
        dataset = make_cifar10_like(num_train=500, noise_scale=0.5, seed=0)
        images, labels = dataset.train_images, dataset.train_labels
        class0 = images[labels == 0].mean(axis=0)
        class1 = images[labels == 1].mean(axis=0)
        sample0 = images[labels == 0][0]
        assert np.linalg.norm(sample0 - class0) < np.linalg.norm(sample0 - class1)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            SyntheticImageDataset("bad", num_train=0, num_test=0,
                                  image_shape=(3, 8, 8), num_classes=10)
        with pytest.raises(ConfigurationError):
            SyntheticImageDataset("bad", num_train=10, num_test=0,
                                  image_shape=(3, 8, 8), num_classes=1)

    def test_linearly_separable_learnable_signal(self):
        train_x, train_y, _, _ = make_linearly_separable(num_train=500, margin=4.0)
        centroid0 = train_x[train_y == 0].mean(axis=0)
        centroid1 = train_x[train_y == 1].mean(axis=0)
        assert np.linalg.norm(centroid0 - centroid1) > 1.0


class TestPartitioning:
    def test_partitions_cover_all_indices_once(self):
        partitions = partition_indices(103, 4, seed=0)
        combined = np.concatenate(partitions)
        assert sorted(combined.tolist()) == list(range(103))

    def test_partition_sizes_balanced(self):
        partitions = partition_indices(103, 4, seed=0)
        sizes = [len(p) for p in partitions]
        assert max(sizes) - min(sizes) <= 1

    def test_too_few_samples_rejected(self):
        with pytest.raises(ConfigurationError):
            partition_indices(3, 4)

    def test_shard_dataset_shapes(self):
        images = np.zeros((40, 3, 4, 4))
        labels = np.zeros(40, dtype=np.int64)
        shards = shard_dataset(images, labels, 4)
        assert len(shards) == 4
        assert all(shard[0].shape[0] == 10 for shard in shards)

    def test_shard_dataset_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            shard_dataset(np.zeros((10, 2)), np.zeros(9), 2)

    @settings(max_examples=25, deadline=None)
    @given(num_samples=st.integers(8, 500), num_workers=st.integers(1, 8),
           seed=st.integers(0, 100))
    def test_partition_property_disjoint_and_complete(self, num_samples, num_workers,
                                                      seed):
        if num_samples < num_workers:
            return
        partitions = partition_indices(num_samples, num_workers, seed=seed)
        combined = np.concatenate(partitions)
        assert len(combined) == num_samples
        assert len(np.unique(combined)) == num_samples


class TestBatchSampler:
    def test_batches_have_requested_size(self):
        sampler = BatchSampler(num_samples=50, batch_size=8, seed=0)
        for _ in range(10):
            assert len(sampler.next_batch()) == 8

    def test_epoch_counter_advances(self):
        sampler = BatchSampler(num_samples=16, batch_size=8, seed=0)
        for _ in range(5):
            sampler.next_batch()
        assert sampler.epoch >= 2

    def test_each_epoch_covers_distinct_indices(self):
        sampler = BatchSampler(num_samples=32, batch_size=8, seed=0)
        seen = np.concatenate([sampler.next_batch() for _ in range(4)])
        assert len(np.unique(seen)) == 32

    def test_deterministic_given_seed(self):
        a = BatchSampler(num_samples=64, batch_size=16, seed=9)
        b = BatchSampler(num_samples=64, batch_size=16, seed=9)
        for _ in range(5):
            np.testing.assert_array_equal(a.next_batch(), b.next_batch())

    def test_oversized_batch_rejected(self):
        with pytest.raises(ConfigurationError):
            BatchSampler(num_samples=4, batch_size=8)

    def test_batches_iterator_counts(self):
        sampler = BatchSampler(num_samples=64, batch_size=16, seed=1)
        batches = list(sampler.batches(3))
        assert len(batches) == 3
