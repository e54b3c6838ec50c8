"""Deterministic synthetic image-classification datasets.

Each dataset is a class-conditional Gaussian mixture rendered as images: a
per-class template pattern plus noise.  This gives a learnable but non-trivial
problem -- a small CNN reaches high accuracy within a few hundred iterations,
while a randomly-initialised one sits at chance level -- which is what the
convergence experiments need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class DatasetSpec:
    """Shape metadata of a dataset used for planning and documentation.

    Attributes:
        name: dataset name as used in the paper.
        num_train: number of training images.
        num_test: number of validation/test images.
        image_shape: per-sample shape ``(channels, height, width)``.
        num_classes: number of target classes.
    """

    name: str
    num_train: int
    num_test: int
    image_shape: Tuple[int, int, int]
    num_classes: int


class SyntheticImageDataset:
    """A deterministic synthetic stand-in for an image-classification dataset.

    Samples are generated as ``template[class] + noise`` where templates are
    smooth random patterns.  Generation is fully determined by the seed, so
    every worker (and every test) sees the same data.
    """

    def __init__(self, name: str, num_train: int, num_test: int,
                 image_shape: Tuple[int, int, int], num_classes: int,
                 noise_scale: float = 0.8, seed: int = 0):
        if num_train < 1:
            raise ConfigurationError(f"num_train must be >= 1, got {num_train}")
        if num_classes < 2:
            raise ConfigurationError(f"num_classes must be >= 2, got {num_classes}")
        self.spec = DatasetSpec(name, num_train, num_test, tuple(image_shape), num_classes)
        self.noise_scale = float(noise_scale)
        self.seed = int(seed)
        rng = np.random.default_rng(seed)
        self._templates = self._make_templates(rng)
        self.train_images, self.train_labels = self._generate(
            rng, num_train)
        if num_test > 0:
            self.test_images, self.test_labels = self._generate(rng, num_test)
        else:
            self.test_images = np.empty((0, *image_shape), dtype=np.float32)
            self.test_labels = np.empty((0,), dtype=np.int64)

    # -- generation --------------------------------------------------------------
    def _make_templates(self, rng: np.random.Generator) -> np.ndarray:
        channels, height, width = self.spec.image_shape
        coarse = rng.standard_normal(
            (self.spec.num_classes, channels, max(height // 4, 1), max(width // 4, 1))
        )
        # Upsample coarse patterns so templates are smooth (more image-like
        # than white noise, and easier for small convolutions to pick up).
        templates = np.repeat(np.repeat(coarse, 4, axis=2), 4, axis=3)
        templates = templates[:, :, :height, :width]
        if templates.shape[2] < height or templates.shape[3] < width:
            pad_h = height - templates.shape[2]
            pad_w = width - templates.shape[3]
            templates = np.pad(
                templates, ((0, 0), (0, 0), (0, pad_h), (0, pad_w)), mode="edge"
            )
        return templates.astype(np.float32)

    def _generate(self, rng: np.random.Generator, count: int
                  ) -> Tuple[np.ndarray, np.ndarray]:
        labels = rng.integers(0, self.spec.num_classes, size=count)
        noise = rng.standard_normal((count, *self.spec.image_shape)).astype(np.float32)
        images = self._templates[labels] + self.noise_scale * noise
        return images.astype(np.float32), labels.astype(np.int64)

    # -- convenience ----------------------------------------------------------------
    @property
    def num_train(self) -> int:
        """Number of training samples actually materialised."""
        return int(self.train_images.shape[0])

    @property
    def num_classes(self) -> int:
        """Number of target classes."""
        return self.spec.num_classes


def make_cifar10_like(num_train: int = 2_000, num_test: int = 500,
                      image_size: int = 32, noise_scale: float = 0.8,
                      seed: int = 0) -> SyntheticImageDataset:
    """A CIFAR-10-shaped synthetic dataset (10 classes, 3x32x32 by default).

    The default sample count is far below the real 50K because the functional
    trainer runs on CPU; the class structure is what matters for the
    convergence comparisons.
    """
    return SyntheticImageDataset(
        name="synthetic-CIFAR-10",
        num_train=num_train,
        num_test=num_test,
        image_shape=(3, image_size, image_size),
        num_classes=10,
        noise_scale=noise_scale,
        seed=seed,
    )
