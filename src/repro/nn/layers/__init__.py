"""Layer zoo for the NumPy DNN framework: the layers the paper's networks use."""

from repro.nn.layers.base import Layer
from repro.nn.layers.activations import ReLU
from repro.nn.layers.conv import Conv2D
from repro.nn.layers.dense import Dense
from repro.nn.layers.dropout import Dropout
from repro.nn.layers.pooling import AvgPool2D
from repro.nn.layers.reshape import Flatten

__all__ = [
    "Layer",
    "Conv2D",
    "Dense",
    "AvgPool2D",
    "Flatten",
    "ReLU",
    "Dropout",
]
