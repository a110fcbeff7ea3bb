"""Tests for the model architectures."""

import numpy as np
import pytest

from repro.models import (
    ARCHITECTURES,
    build_alexnet,
    build_architecture,
    build_ffnn,
    build_lenet5,
    multiply_counts,
)
from repro.nn import Conv2D, Dense


class TestArchitectures:
    def test_lenet5_output_shape(self):
        model = build_lenet5()
        assert model.forward(np.zeros((2, 28, 28, 1))).shape == (2, 10)

    def test_lenet5_structure_matches_paper(self):
        # two conv+pool blocks, a flattening conv, two dense layers + classifier
        model = build_lenet5()
        conv_layers = [l for l in model.layers if isinstance(l, Conv2D)]
        dense_layers = [l for l in model.layers if isinstance(l, Dense)]
        assert len(conv_layers) == 3
        assert [c.filters for c in conv_layers] == [6, 16, 120]
        assert [d.units for d in dense_layers] == [84, 10]

    def test_alexnet_output_shape(self):
        model = build_alexnet()
        assert model.forward(np.zeros((2, 32, 32, 3))).shape == (2, 10)

    def test_alexnet_structure_matches_paper(self):
        # five convolutional layers, two FC layers plus the classifier
        model = build_alexnet()
        conv_layers = [l for l in model.layers if isinstance(l, Conv2D)]
        dense_layers = [l for l in model.layers if isinstance(l, Dense)]
        assert len(conv_layers) == 5
        assert len(dense_layers) == 3

    def test_ffnn_output_shape(self):
        model = build_ffnn(hidden_units=(32,))
        assert model.forward(np.zeros((1, 28, 28, 1))).shape == (1, 10)

    def test_builder_registry(self):
        assert set(ARCHITECTURES) == {"ffnn", "lenet5", "alexnet"}
        model = build_architecture("ffnn", hidden_units=(16,))
        assert model.name == "ffnn"

    def test_builder_registry_unknown(self):
        with pytest.raises(KeyError):
            build_architecture("resnet50")

    def test_seed_controls_initial_weights(self):
        a = build_lenet5(seed=1)
        b = build_lenet5(seed=1)
        c = build_lenet5(seed=2)
        x = np.random.default_rng(0).random((1, 28, 28, 1))
        assert np.allclose(a.forward(x), b.forward(x))
        assert not np.allclose(a.forward(x), c.forward(x))

    def test_multiply_counts_positive_per_compute_layer(self):
        model = build_lenet5()
        counts = multiply_counts(model)
        compute_layers = [
            l for l in model.layers if isinstance(l, (Conv2D, Dense))
        ]
        assert len(counts) == len(compute_layers)
        assert all(count > 0 for count in counts)

    def test_multiply_counts_lenet_first_layer(self):
        model = build_lenet5()
        # conv1: 24x24 positions x 5x5x1 kernel x 6 filters
        assert multiply_counts(model)[0] == 24 * 24 * 25 * 6
