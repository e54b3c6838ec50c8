"""Synthetic datasets and data-parallel partitioning.

The paper trains on CIFAR-10, ILSVRC12 and ImageNet22K.  None of those are
available offline, and only CIFAR-10 is trained on here (the ImageNet-scale
models are simulated), so this package generates a deterministic synthetic
CIFAR-10-shaped dataset.  Convergence *comparisons* between exact and
approximate synchronization (Figure 11) depend on optimization dynamics, not
on natural image statistics, so the substitution preserves the relevant
behaviour.
"""

from repro.data.datasets import (
    DatasetSpec,
    SyntheticImageDataset,
    make_cifar10_like,
)
from repro.data.partition import partition_indices, shard_dataset
from repro.data.samplers import BatchSampler

__all__ = [
    "DatasetSpec",
    "SyntheticImageDataset",
    "make_cifar10_like",
    "partition_indices",
    "shard_dataset",
    "BatchSampler",
]
