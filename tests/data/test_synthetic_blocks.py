"""The synthetic image generator builds a block of samples per array
operation; these cases rebuild its splits one sample at a time, with
numpy's scalar draws in the same order (noise, brightness, contrast), and
require the same bytes."""

import numpy as np
import pytest

from repro.data import SyntheticImageConfig, make_synthetic_image_dataset
from repro.experiments import get_scale


def _blur_one(image, passes):
    blurred = image
    for _ in range(passes):
        padded = np.pad(blurred, ((0, 0), (1, 1), (1, 1)), mode="edge")
        blurred = (
            padded[:, :-2, 1:-1]
            + padded[:, 2:, 1:-1]
            + padded[:, 1:-1, :-2]
            + padded[:, 1:-1, 2:]
            + padded[:, 1:-1, 1:-1]
        ) / 5.0
    return blurred


def _per_sample(config):
    rng = np.random.default_rng(config.seed)
    size = (config.num_classes, config.channels, config.image_size, config.image_size)
    templates = rng.normal(0.0, 1.0, size=size)
    templates = np.stack([_blur_one(t, config.template_smoothing) for t in templates])
    templates = templates / (templates.std() + 1e-12)
    splits = []
    for samples in (config.train_samples, config.test_samples):
        labels = rng.integers(0, config.num_classes, size=samples)
        labels[:config.num_classes] = np.arange(config.num_classes)
        rng.shuffle(labels)
        images = np.empty((samples,) + size[1:])
        for i, label in enumerate(labels):
            noise = _blur_one(rng.normal(0.0, config.noise_scale, size=size[1:]), 1)
            brightness = rng.normal(0.0, 0.1)
            contrast = 1.0 + rng.normal(0.0, 0.1)
            images[i] = contrast * (templates[label] + noise) + brightness
        splits.append((images, labels))
    return splits


_BENCH_CIFAR = get_scale("bench_cifar")

CONFIGS = {
    # 1500 and 300 samples: both splits end on a part-full block.
    "bench_cifar": SyntheticImageConfig(
        num_classes=_BENCH_CIFAR.num_classes,
        train_samples=_BENCH_CIFAR.train_samples,
        test_samples=_BENCH_CIFAR.test_samples,
        image_size=_BENCH_CIFAR.image_size,
        seed=_BENCH_CIFAR.seed,
    ),
    # make_synthetic_digits' defaults.
    "digits": SyntheticImageConfig(
        train_samples=800, test_samples=200, image_size=12, channels=1,
        noise_scale=0.5, template_smoothing=2,
    ),
    # A split of exactly two blocks and one a sample short of one.
    "block_edges": SyntheticImageConfig(
        num_classes=3, train_samples=256, test_samples=127, image_size=6, seed=5,
    ),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_blocks_match_the_per_sample_generator_byte_for_byte(name):
    config = CONFIGS[name]
    built = make_synthetic_image_dataset(config)
    for dataset, (images, labels) in zip(built, _per_sample(config)):
        assert dataset.inputs.tobytes() == images.tobytes()
        np.testing.assert_array_equal(dataset.labels, labels)
