"""Activation layers.

Forwards and backwards that fill a buffer step by step spell out the same
float64 operations, in the same order, as the plain expression named in
their comment, so the results are bit-identical to it.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers.base import Layer


class ReLU(Layer):
    """Rectified linear unit."""

    _transient_attrs = ("_mask",)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        # np.maximum(x, 0.0) is (x > 0) ? x : +0.0 — the same bits as
        # np.where(x > 0, x, 0.0) for the finite float64 inputs training
        # produces (-0.0 rectifies to +0.0 either way), in one pass; the
        # mask pass is skipped entirely in pure inference.
        self._mask = (
            np.greater(x, 0) if self._keep_grad_cache(training) else None
        )
        return np.maximum(x, 0.0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return np.multiply(grad_output, self._require_cache(self._mask))


class Tanh(Layer):
    """Hyperbolic tangent."""

    _transient_attrs = ("_output",)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        output = np.tanh(x)
        self._output = output if self._keep_grad_cache(training) else None
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        # grad * (1 - output ** 2), with the same operation order
        output = self._require_cache(self._output)
        buf = np.power(output, 2)
        np.subtract(1.0, buf, out=buf)
        return np.multiply(grad_output, buf, out=buf)


class Sigmoid(Layer):
    """Logistic sigmoid."""

    _transient_attrs = ("_output",)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        # 1 / (1 + exp(-x)) step by step into one buffer
        output = np.negative(x)
        np.exp(output, out=output)
        np.add(output, 1.0, out=output)
        np.divide(1.0, output, out=output)
        self._output = output if self._keep_grad_cache(training) else None
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        # (grad * output) * (1 - output), matching grad * output * (1 - output)
        output = self._require_cache(self._output)
        buf = np.multiply(grad_output, output)
        return np.multiply(buf, np.subtract(1.0, output), out=buf)


class Softmax(Layer):
    """Softmax over the last axis.

    Models in this package are normally trained on logits with
    :class:`repro.nn.losses.CrossEntropyLoss`, which applies softmax
    internally; this layer exists for inference-time probability outputs and
    for architectures that explicitly end in a softmax classifier.
    """

    _transient_attrs = ("_output",)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        # the numerically stable softmax of repro.nn.functional
        output = np.subtract(x, np.max(x, axis=-1, keepdims=True))
        np.exp(output, out=output)
        np.divide(output, np.sum(output, axis=-1, keepdims=True), out=output)
        self._output = output if self._keep_grad_cache(training) else None
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        # Jacobian-vector product of softmax: s * (g - sum(g * s))
        s = self._require_cache(self._output)
        buf = np.multiply(grad_output, s)
        dot = np.sum(buf, axis=-1, keepdims=True)
        np.subtract(grad_output, dot, out=buf)
        return np.multiply(s, buf, out=buf)
