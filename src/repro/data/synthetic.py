"""Synthetic datasets standing in for CIFAR-10 / CIFAR-100.

The CIFAR archives cannot be downloaded in this offline environment, so we
generate class-structured image data with the same layout (3x32x32 CHW
float) and a controllable difficulty.  Each class is defined by a smooth
random template (low-frequency noise produced by repeated box blurring of
white noise); samples are the template plus per-sample structured noise and a
random brightness/contrast jitter.  This produces datasets that

* are linearly non-trivial but learnable by small CNNs,
* exhibit the plateau-shaped training curves the paper's figures rely on,
* stress quantisation exactly like natural images do: gradients shrink as the
  loss falls, so low-precision layers hit the underflow regime.

Smaller generators (blobs, spirals, synthetic digits) are provided for the
fast test-suite and for the quickstart example.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.data.dataset import ArrayDataset


@dataclass(frozen=True)
class SyntheticImageConfig:
    """Configuration of the synthetic image generator."""

    num_classes: int = 10
    train_samples: int = 2000
    test_samples: int = 400
    image_size: int = 32
    channels: int = 3
    noise_scale: float = 0.6
    template_smoothing: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_classes < 2:
            raise ValueError("need at least two classes")
        if self.train_samples < self.num_classes or self.test_samples < self.num_classes:
            raise ValueError("need at least one sample per class in each split")
        if self.image_size < 4:
            raise ValueError("image_size must be at least 4")
        if self.noise_scale < 0:
            raise ValueError("noise_scale must be non-negative")


#: Samples blurred and composed per array operation by ``_generate_split``.
_BLOCK = 128


def _box_blur(images: np.ndarray, passes: int) -> np.ndarray:
    """Cheap separable box blur over the last two axes (one image or a stack)."""
    pad = ((0, 0),) * (images.ndim - 2) + ((1, 1), (1, 1))
    blurred = images
    for _ in range(passes):
        padded = np.pad(blurred, pad, mode="edge")
        blurred = (
            padded[..., :-2, 1:-1]
            + padded[..., 2:, 1:-1]
            + padded[..., 1:-1, :-2]
            + padded[..., 1:-1, 2:]
            + padded[..., 1:-1, 1:-1]
        ) / 5.0
    return blurred


def _generate_split(
    templates: np.ndarray,
    samples: int,
    config: SyntheticImageConfig,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """Template + blurred noise, then a brightness/contrast jitter, per sample.

    Each sample draws its noise image, brightness and contrast, in that
    order; a block of samples is drawn, blurred and composed per array
    operation, which gives the same bytes as one sample at a time.
    """
    num_classes = templates.shape[0]
    labels = rng.integers(0, num_classes, size=samples)
    # Guarantee every class appears at least once.
    labels[:num_classes] = np.arange(num_classes)
    rng.shuffle(labels)
    shape = templates.shape[1:]
    pixels = int(np.prod(shape))
    images = np.empty((samples,) + shape, dtype=np.float64)
    for start in range(0, samples, _BLOCK):
        stop = min(start + _BLOCK, samples)
        draws = rng.standard_normal((stop - start, pixels + 2))
        noise = _box_blur(config.noise_scale * draws[:, :pixels].reshape((-1,) + shape), 1)
        brightness = (0.1 * draws[:, pixels]).reshape(-1, 1, 1, 1)
        contrast = (1.0 + 0.1 * draws[:, pixels + 1]).reshape(-1, 1, 1, 1)
        images[start:stop] = contrast * (templates[labels[start:stop]] + noise) + brightness
    return images, labels.astype(np.int64)


def make_synthetic_image_dataset(
    config: SyntheticImageConfig,
) -> Tuple[ArrayDataset, ArrayDataset]:
    """Generate (train, test) :class:`ArrayDataset` pairs from one config."""
    rng = np.random.default_rng(config.seed)
    templates = rng.normal(
        0.0, 1.0, size=(config.num_classes, config.channels, config.image_size, config.image_size)
    )
    templates = _box_blur(templates, config.template_smoothing)
    # Rescale templates to unit std so difficulty is controlled by noise_scale.
    templates = templates / (templates.std() + 1e-12)
    train_x, train_y = _generate_split(templates, config.train_samples, config, rng)
    test_x, test_y = _generate_split(templates, config.test_samples, config, rng)
    return ArrayDataset(train_x, train_y), ArrayDataset(test_x, test_y)


def make_synthetic_cifar10(
    train_samples: int = 2000,
    test_samples: int = 400,
    image_size: int = 32,
    seed: int = 0,
) -> Tuple[ArrayDataset, ArrayDataset]:
    """10-class CIFAR-10 stand-in (see module docstring for the substitution)."""
    config = SyntheticImageConfig(
        num_classes=10,
        train_samples=train_samples,
        test_samples=test_samples,
        image_size=image_size,
        seed=seed,
    )
    return make_synthetic_image_dataset(config)


def make_synthetic_cifar100(
    train_samples: int = 5000,
    test_samples: int = 1000,
    image_size: int = 32,
    seed: int = 0,
) -> Tuple[ArrayDataset, ArrayDataset]:
    """100-class CIFAR-100 stand-in."""
    config = SyntheticImageConfig(
        num_classes=100,
        train_samples=train_samples,
        test_samples=test_samples,
        image_size=image_size,
        seed=seed,
    )
    return make_synthetic_image_dataset(config)


def make_blobs(
    num_classes: int = 4,
    samples_per_class: int = 100,
    features: int = 16,
    separation: float = 3.0,
    noise: float = 1.0,
    seed: int = 0,
) -> Tuple[ArrayDataset, ArrayDataset]:
    """Gaussian blobs: the fastest non-trivial classification task.

    Returns an 80/20 train/test split.
    """
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, separation, size=(num_classes, features))
    inputs = []
    labels = []
    for label, center in enumerate(centers):
        points = center + rng.normal(0.0, noise, size=(samples_per_class, features))
        inputs.append(points)
        labels.append(np.full(samples_per_class, label, dtype=np.int64))
    x = np.concatenate(inputs)
    y = np.concatenate(labels)
    order = rng.permutation(len(x))
    x, y = x[order], y[order]
    split = int(0.8 * len(x))
    return ArrayDataset(x[:split], y[:split]), ArrayDataset(x[split:], y[split:])


def make_spirals(
    num_classes: int = 3,
    samples_per_class: int = 150,
    noise: float = 0.15,
    turns: float = 1.5,
    seed: int = 0,
) -> Tuple[ArrayDataset, ArrayDataset]:
    """Interleaved 2-D spirals: small but requires a genuinely non-linear model."""
    rng = np.random.default_rng(seed)
    inputs = []
    labels = []
    for label in range(num_classes):
        t = np.linspace(0.1, 1.0, samples_per_class)
        angle = 2 * np.pi * (turns * t + label / num_classes)
        radius = t
        x = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1)
        x = x + rng.normal(0.0, noise, size=x.shape)
        inputs.append(x)
        labels.append(np.full(samples_per_class, label, dtype=np.int64))
    x = np.concatenate(inputs)
    y = np.concatenate(labels)
    order = rng.permutation(len(x))
    x, y = x[order], y[order]
    split = int(0.8 * len(x))
    return ArrayDataset(x[:split], y[:split]), ArrayDataset(x[split:], y[split:])


def make_synthetic_digits(
    train_samples: int = 800,
    test_samples: int = 200,
    image_size: int = 12,
    num_classes: int = 10,
    seed: int = 0,
) -> Tuple[ArrayDataset, ArrayDataset]:
    """Small single-channel image classification task (MNIST-like scale).

    Used by convolutional tests and the quickstart example: large enough to
    exercise Conv2d / BatchNorm2d / pooling, small enough to train in seconds.
    """
    config = SyntheticImageConfig(
        num_classes=num_classes,
        train_samples=train_samples,
        test_samples=test_samples,
        image_size=image_size,
        channels=1,
        noise_scale=0.5,
        template_smoothing=2,
        seed=seed,
    )
    return make_synthetic_image_dataset(config)
