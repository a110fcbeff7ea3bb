"""Activation layers.

Every forward/backward routes its activation-sized temporaries through the
workspace hook (:meth:`repro.nn.layers.base.Layer._buffer`): outside the
training runtime the hook is plain allocation, inside it the buffers are
reused across mini-batches.  Each buffered spelling performs the same
float64 operations in the same order as the allocating expression it
replaces, so results are bit-identical either way.
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
            np.greater(x, 0, out=self._buffer("mask", x.shape, bool))
            if self._keep_grad_cache(training)
            else None
        )
        return np.maximum(x, 0.0, out=self._buffer("out", x.shape, x.dtype))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return np.multiply(
            grad_output,
            self._require_cache(self._mask),
            out=self._scratch(grad_output.shape, grad_output.dtype),
        )


class Tanh(Layer):
    """Hyperbolic tangent."""

    _transient_attrs = ("_output",)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        output = np.tanh(x, out=self._buffer("out", x.shape, x.dtype))
        self._output = output if self._keep_grad_cache(training) else None
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        # grad * (1 - output ** 2), with the same operation order
        output = self._require_cache(self._output)
        buf = self._scratch(grad_output.shape, grad_output.dtype)
        np.power(output, 2, out=buf)
        np.subtract(1.0, buf, out=buf)
        return np.multiply(grad_output, buf, out=buf)


class Sigmoid(Layer):
    """Logistic sigmoid."""

    _transient_attrs = ("_output",)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        # 1 / (1 + exp(-x)) step by step into one buffer
        output = self._buffer("out", x.shape, x.dtype)
        np.negative(x, out=output)
        np.exp(output, out=output)
        np.add(output, 1.0, out=output)
        np.divide(1.0, output, out=output)
        self._output = output if self._keep_grad_cache(training) else None
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        # (grad * output) * (1 - output), matching grad * output * (1 - output)
        output = self._require_cache(self._output)
        buf = self._scratch(grad_output.shape, grad_output.dtype)
        one_minus = self._scratch(grad_output.shape, grad_output.dtype)
        np.multiply(grad_output, output, out=buf)
        np.subtract(1.0, output, out=one_minus)
        np.multiply(buf, one_minus, out=buf)
        self._reclaim(one_minus)
        return buf


class Softmax(Layer):
    """Softmax over the last axis.

    Models in this package are normally trained on logits with
    :class:`repro.nn.losses.CrossEntropyLoss`, which applies softmax
    internally; this layer exists for inference-time probability outputs and
    for architectures that explicitly end in a softmax classifier.
    """

    _transient_attrs = ("_output",)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        # the numerically stable softmax of repro.nn.functional, buffered
        output = self._buffer("out", x.shape, x.dtype)
        np.subtract(x, np.max(x, axis=-1, keepdims=True), out=output)
        np.exp(output, out=output)
        np.divide(output, np.sum(output, axis=-1, keepdims=True), out=output)
        self._output = output if self._keep_grad_cache(training) else None
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        # Jacobian-vector product of softmax: s * (g - sum(g * s))
        s = self._require_cache(self._output)
        buf = self._scratch(grad_output.shape, grad_output.dtype)
        np.multiply(grad_output, s, out=buf)
        dot = np.sum(buf, axis=-1, keepdims=True)
        np.subtract(grad_output, dot, out=buf)
        return np.multiply(s, buf, out=buf)
