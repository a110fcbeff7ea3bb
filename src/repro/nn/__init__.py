"""A from-scratch NumPy deep-learning framework.

This is the substitute for the paper's TensorFlow training stack: it provides
exactly what the methodology requires — training the accurate float models,
batched inference, and input gradients for gradient-based attacks.  Its
layers are the ones the paper's LeNet-5, AlexNet and FFNN are built from:
``Conv2D``, ``Dense``, ``ReLU``, the 2 x 2 ``AvgPool2D``, ``Flatten`` and
``Dropout``, with He-normal weights and a softmax cross-entropy loss.
"""

from repro.nn.engine import FlatParameterView
from repro.nn.functional import (
    col2im,
    conv_output_size,
    im2col,
    log_softmax,
    one_hot,
    softmax,
    softmax_cross_entropy,
)
from repro.nn.layers import (
    AvgPool2D,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    Layer,
    ReLU,
)
from repro.nn.losses import CrossEntropyLoss, Loss
from repro.nn.metrics import accuracy, accuracy_percent
from repro.nn.model import Sequential
from repro.nn.optimizers import SGD, Adam, Optimizer
from repro.nn.runtime import (
    available_workers,
    batch_slices,
    resolve_workers,
    run_batched,
    validate_batch_size,
)
from repro.nn.trainer import Trainer, TrainingHistory

__all__ = [
    "im2col",
    "col2im",
    "conv_output_size",
    "softmax",
    "log_softmax",
    "one_hot",
    "softmax_cross_entropy",
    "FlatParameterView",
    "Layer",
    "Conv2D",
    "Dense",
    "AvgPool2D",
    "Flatten",
    "ReLU",
    "Dropout",
    "Loss",
    "CrossEntropyLoss",
    "Optimizer",
    "SGD",
    "Adam",
    "Sequential",
    "Trainer",
    "TrainingHistory",
    "accuracy",
    "accuracy_percent",
    "available_workers",
    "batch_slices",
    "resolve_workers",
    "run_batched",
    "validate_batch_size",
]
