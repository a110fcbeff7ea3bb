"""Model architectures (LeNet-5, AlexNet, FFNN)."""

from repro.models.architectures import (
    ARCHITECTURES,
    CIFAR_SHAPE,
    MNIST_SHAPE,
    NUM_CLASSES,
    build_alexnet,
    build_architecture,
    build_ffnn,
    build_lenet5,
    multiply_counts,
)

__all__ = [
    "build_ffnn",
    "build_lenet5",
    "build_alexnet",
    "build_architecture",
    "multiply_counts",
    "ARCHITECTURES",
    "MNIST_SHAPE",
    "CIFAR_SHAPE",
    "NUM_CLASSES",
]
