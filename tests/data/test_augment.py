"""The paper's augmentation pipeline (pad-4 random crop + horizontal flip)."""

import numpy as np
import pytest

from repro.data import Compose, Normalize, RandomCrop, RandomHorizontalFlip, build_paper_augmentation


@pytest.fixture
def image(rng):
    return rng.normal(size=(3, 8, 8))


class TestRandomCrop:
    def test_preserves_shape(self, image):
        crop = RandomCrop(padding=4, rng=np.random.default_rng(0))
        assert crop(image).shape == image.shape

    def test_zero_padding_is_identity(self, image):
        crop = RandomCrop(padding=0)
        np.testing.assert_array_equal(crop(image), image)

    def test_crops_differ_across_calls(self, image):
        crop = RandomCrop(padding=4, rng=np.random.default_rng(1))
        outputs = [crop(image) for _ in range(8)]
        assert any(not np.array_equal(outputs[0], other) for other in outputs[1:])

    def test_content_comes_from_padded_image(self, image):
        crop = RandomCrop(padding=2, rng=np.random.default_rng(2))
        out = crop(image)
        padded = np.pad(image, ((0, 0), (2, 2), (2, 2)))
        # The crop must appear somewhere in the padded image.
        found = False
        for top in range(5):
            for left in range(5):
                if np.array_equal(out, padded[:, top : top + 8, left : left + 8]):
                    found = True
        assert found

    @pytest.mark.parametrize("padding", [0, 1, 2, 3, 4])
    def test_matches_np_pad_crop_with_shared_seed(self, image, padding):
        image[0, 0, :3] = [-0.0, np.inf, np.nan]
        crop = RandomCrop(padding=padding, rng=np.random.default_rng(9))
        reference_rng = np.random.default_rng(9)
        for _ in range(12):
            out = crop(image)
            expected = image
            if padding:
                padded = np.pad(image, ((0, 0), (padding, padding), (padding, padding)))
                top = int(reference_rng.integers(0, 2 * padding + 1))
                left = int(reference_rng.integers(0, 2 * padding + 1))
                expected = padded[:, top : top + 8, left : left + 8]
            assert out.dtype == expected.dtype
            assert out.tobytes() == expected.tobytes()
        assert crop.rng.bit_generator.state == reference_rng.bit_generator.state

    def test_rejects_non_chw(self, rng):
        with pytest.raises(ValueError):
            RandomCrop(2)(rng.normal(size=(8, 8)))

    def test_negative_padding_rejected(self):
        with pytest.raises(ValueError):
            RandomCrop(-1)


class TestRandomHorizontalFlip:
    def test_always_flip(self, image):
        flip = RandomHorizontalFlip(probability=1.0, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(flip(image), image[:, :, ::-1])

    def test_never_flip(self, image):
        flip = RandomHorizontalFlip(probability=0.0)
        np.testing.assert_array_equal(flip(image), image)

    def test_half_probability_flips_sometimes(self, image):
        flip = RandomHorizontalFlip(probability=0.5, rng=np.random.default_rng(3))
        outcomes = [np.array_equal(flip(image), image) for _ in range(50)]
        assert any(outcomes) and not all(outcomes)

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            RandomHorizontalFlip(probability=1.5)

    def test_rejects_non_chw(self, rng):
        with pytest.raises(ValueError):
            RandomHorizontalFlip()(rng.normal(size=(8,)))


class TestNormalizeAndCompose:
    def test_normalize(self, rng):
        image = rng.normal(loc=5.0, scale=2.0, size=(2, 16, 16))
        normalize = Normalize(mean=[5.0, 5.0], std=[2.0, 2.0])
        out = normalize(image)
        assert out.mean() == pytest.approx(0.0, abs=0.2)
        assert out.std() == pytest.approx(1.0, abs=0.2)

    def test_normalize_rejects_zero_std(self):
        with pytest.raises(ValueError):
            Normalize(mean=[0.0], std=[0.0])

    def test_compose_applies_in_order(self, image):
        pipeline = Compose([lambda x: x + 1.0, lambda x: x * 2.0])
        np.testing.assert_allclose(pipeline(image), (image + 1.0) * 2.0)

    def test_paper_augmentation_preserves_shape(self, image):
        pipeline = build_paper_augmentation(padding=4, rng=np.random.default_rng(0))
        assert pipeline(image).shape == image.shape
