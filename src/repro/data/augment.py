"""Data augmentation matching Section IV of the paper.

Training: pad 4 pixels on each side, take a random crop at the original size,
and flip horizontally with probability 0.5.  Testing: the single original
view, optionally normalised.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.kernels import pad_nchw


class Compose:
    """Apply transforms in order."""

    def __init__(self, transforms: Sequence[Callable[[np.ndarray], np.ndarray]]) -> None:
        self.transforms = list(transforms)

    def __call__(self, sample: np.ndarray) -> np.ndarray:
        for transform in self.transforms:
            sample = transform(sample)
        return sample


class RandomCrop:
    """Pad a CHW image and crop a random window at the original size."""

    def __init__(self, padding: int = 4, rng: Optional[np.random.Generator] = None) -> None:
        if padding < 0:
            raise ValueError(f"padding must be non-negative, got {padding}")
        self.padding = padding
        self.rng = rng or np.random.default_rng()

    def __call__(self, image: np.ndarray) -> np.ndarray:
        if image.ndim != 3:
            raise ValueError(f"expected CHW image, got shape {image.shape}")
        if self.padding == 0:
            return image
        _, height, width = image.shape
        # The same zero border as np.pad, without its per-axis bookkeeping.
        padded = pad_nchw(image[None], self.padding, self.padding)[0]
        top = int(self.rng.integers(0, 2 * self.padding + 1))
        left = int(self.rng.integers(0, 2 * self.padding + 1))
        return padded[:, top : top + height, left : left + width]


class RandomHorizontalFlip:
    """Flip a CHW image left-right with the given probability."""

    def __init__(self, probability: float = 0.5, rng: Optional[np.random.Generator] = None) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        self.probability = probability
        self.rng = rng or np.random.default_rng()

    def __call__(self, image: np.ndarray) -> np.ndarray:
        if image.ndim != 3:
            raise ValueError(f"expected CHW image, got shape {image.shape}")
        if self.rng.random() < self.probability:
            return image[:, :, ::-1].copy()
        return image


class Normalize:
    """Per-channel standardisation of a CHW image."""

    def __init__(self, mean: Sequence[float], std: Sequence[float]) -> None:
        self.mean = np.asarray(mean, dtype=np.float64).reshape(-1, 1, 1)
        self.std = np.asarray(std, dtype=np.float64).reshape(-1, 1, 1)
        if np.any(self.std <= 0):
            raise ValueError("std entries must be positive")

    def __call__(self, image: np.ndarray) -> np.ndarray:
        return (image - self.mean) / self.std


def build_paper_augmentation(
    padding: int = 4,
    flip_probability: float = 0.5,
    rng: Optional[np.random.Generator] = None,
) -> Compose:
    """The training-time augmentation of Section IV (pad-4 crop + flip)."""
    rng = rng or np.random.default_rng()
    return Compose([RandomCrop(padding=padding, rng=rng), RandomHorizontalFlip(flip_probability, rng=rng)])
