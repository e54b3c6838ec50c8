"""Synthetic datasets and data-parallel partitioning.

The paper trains on CIFAR-10, ILSVRC12 and ImageNet22K.  None of those are
available offline, so this package generates deterministic synthetic
classification datasets with matching shapes and class counts (downscaled
spatially where noted).  Convergence *comparisons* between exact and
approximate synchronization (Figure 11) depend on optimization dynamics, not
on natural image statistics, so the substitution preserves the relevant
behaviour.
"""

from repro.data.datasets import (
    DatasetSpec,
    SyntheticImageDataset,
    make_cifar10_like,
    make_ilsvrc12_like,
    make_imagenet22k_like,
    make_linearly_separable,
)
from repro.data.partition import partition_indices, shard_dataset
from repro.data.samplers import BatchSampler

__all__ = [
    "DatasetSpec",
    "SyntheticImageDataset",
    "make_cifar10_like",
    "make_ilsvrc12_like",
    "make_imagenet22k_like",
    "make_linearly_separable",
    "partition_indices",
    "shard_dataset",
    "BatchSampler",
]
