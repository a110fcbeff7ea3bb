"""Tests for the synthetic datasets and rendering helpers."""

import numpy as np
import pytest

from repro.datasets import (
    CLASS_RECIPES,
    DIGIT_STROKES,
    DataSplit,
    SyntheticCIFAR10,
    SyntheticMNIST,
    glyph_template,
    load_synthetic_cifar10,
    load_synthetic_mnist,
)
from repro.datasets.rendering import (
    blank_canvas,
    checkerboard,
    draw_line,
    filled_circle,
    filled_rect,
    filled_triangle,
    render_strokes,
    stripes,
)
from repro.errors import ConfigurationError, ShapeError


class TestRendering:
    def test_blank_canvas(self):
        canvas = blank_canvas(16)
        assert canvas.shape == (16, 16)
        assert not np.any(canvas)

    def test_draw_line_marks_pixels(self):
        canvas = blank_canvas(20)
        draw_line(canvas, (0.1, 0.1), (0.9, 0.9))
        assert canvas.max() > 0.5
        assert canvas.min() >= 0.0
        assert canvas.max() <= 1.0

    def test_render_strokes_rejects_unknown(self):
        with pytest.raises(ValueError):
            render_strokes(16, [{"squiggle": None}])

    def test_checkerboard_alternates(self):
        board = checkerboard(8, 2)
        assert board[0, 0] != board[0, 2]
        assert set(np.unique(board)) == {0.0, 1.0}

    def test_stripes_orientation(self):
        horizontal = stripes(8, 2, horizontal=True)
        assert np.all(horizontal[0] == horizontal[0, 0])
        vertical = stripes(8, 2, horizontal=False)
        assert np.all(vertical[:, 0] == vertical[0, 0])

    def test_filled_circle_centre_inside(self):
        mask = filled_circle(21, (0.5, 0.5), 0.25)
        assert mask[10, 10] == 1.0
        assert mask[0, 0] == 0.0

    def test_filled_rect(self):
        mask = filled_rect(10, (0.2, 0.2), (0.6, 0.6))
        assert mask[3, 3] == 1.0
        assert mask[9, 9] == 0.0

    def test_filled_triangle_apex_narrow_base_wide(self):
        mask = filled_triangle(21, (0.2, 0.5), 0.8, 0.3)
        apex_width = mask[5].sum()
        base_width = mask[15].sum()
        assert base_width > apex_width


class TestDataSplit:
    def test_length(self):
        split = DataSplit(np.zeros((10, 4, 4, 1)), np.zeros(10, dtype=int))
        assert len(split) == 10

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ShapeError):
            DataSplit(np.zeros((10, 4, 4, 1)), np.zeros(9, dtype=int))


class TestSyntheticMNIST:
    def test_templates_exist_for_all_digits(self):
        assert set(DIGIT_STROKES) == set(range(10))

    def test_glyph_template_shape_and_range(self):
        glyph = glyph_template(3)
        assert glyph.shape == (28, 28)
        assert glyph.min() >= 0.0
        assert glyph.max() <= 1.0

    def test_glyph_templates_are_distinct(self):
        templates = [glyph_template(d) for d in range(10)]
        for i in range(10):
            for j in range(i + 1, 10):
                difference = np.abs(templates[i] - templates[j]).mean()
                assert difference > 0.01, (i, j)

    def test_glyph_rejects_bad_digit(self):
        with pytest.raises(ConfigurationError):
            glyph_template(10)

    def test_generate_shapes_and_ranges(self):
        split = SyntheticMNIST().generate(30, seed=0)
        assert split.images.shape == (30, 28, 28, 1)
        assert split.images.min() >= 0.0
        assert split.images.max() <= 1.0
        assert set(np.unique(split.labels)).issubset(set(range(10)))

    def test_balanced_labels(self):
        split = SyntheticMNIST().generate(100, seed=0, balanced=True)
        counts = np.bincount(split.labels, minlength=10)
        assert counts.min() == 10

    def test_deterministic_given_seed(self):
        a = SyntheticMNIST().generate(10, seed=3)
        b = SyntheticMNIST().generate(10, seed=3)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_different_seed_changes_data(self):
        a = SyntheticMNIST().generate(10, seed=3)
        b = SyntheticMNIST().generate(10, seed=4)
        assert not np.array_equal(a.images, b.images)

    def test_load_full_dataset(self):
        ds = load_synthetic_mnist(n_train=50, n_test=20, seed=0)
        assert len(ds.train) == 50
        assert len(ds.test) == 20
        assert ds.num_classes == 10
        assert ds.image_shape == (28, 28, 1)
        assert "synthetic-mnist" in ds.describe()

    def test_rejects_nonpositive_samples(self):
        with pytest.raises(ConfigurationError):
            SyntheticMNIST().generate(0)

    def test_samples_within_class_vary(self):
        generator = SyntheticMNIST()
        rng = np.random.default_rng(0)
        a = generator.sample(5, rng)
        b = generator.sample(5, rng)
        assert not np.array_equal(a, b)


class TestSyntheticCIFAR10:
    def test_recipes_cover_ten_classes(self):
        assert set(CLASS_RECIPES) == set(range(10))

    def test_generate_shapes_and_ranges(self):
        split = SyntheticCIFAR10().generate(20, seed=0)
        assert split.images.shape == (20, 32, 32, 3)
        assert split.images.min() >= 0.0
        assert split.images.max() <= 1.0

    def test_deterministic_given_seed(self):
        a = SyntheticCIFAR10().generate(8, seed=1)
        b = SyntheticCIFAR10().generate(8, seed=1)
        assert np.array_equal(a.images, b.images)

    def test_classes_are_visually_distinct_on_average(self):
        generator = SyntheticCIFAR10(noise_level=0.0)
        rng = np.random.default_rng(0)
        means = [
            np.mean([generator.sample(c, rng) for _ in range(5)], axis=0)
            for c in range(10)
        ]
        for i in range(10):
            for j in range(i + 1, 10):
                assert np.abs(means[i] - means[j]).mean() > 0.01

    def test_load_full_dataset(self):
        ds = load_synthetic_cifar10(n_train=30, n_test=10, seed=0)
        assert ds.image_shape == (32, 32, 3)
        assert len(ds.train) == 30
