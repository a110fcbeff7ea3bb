"""Slow reference implementations the fast paths are checked against.

Each function here is the plainest spelling of an operation whose
production version was rewritten for speed.  The production code must
match these bit for bit; tests import them instead of comparing a fast path
with itself.  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import numpy as np

from repro.axnn.approx_ops import approx_matmul, zero_point_correction_vector
from repro.axnn.layers import AxConv2D, AxDense
from repro.circuits.adders import ExactFullAdder
from repro.circuits.bitops import from_bits, to_bits


def _out_size(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - kernel) // stride + 1


def im2col_reference(x, kernel_h, kernel_w, stride, padding):
    """Patch extraction as ``kernel_h * kernel_w`` strided slice copies.

    Same output layout as :func:`repro.nn.functional.im2col`:
    ``(N, OH, OW, kernel_h * kernel_w * C)``, last axis ordered
    kernel-row-major then channel.
    """
    batch, height, width, channels = x.shape
    out_h = _out_size(height, kernel_h, stride, padding)
    out_w = _out_size(width, kernel_w, stride, padding)
    x_padded = np.pad(
        x, ((0, 0), (padding, padding), (padding, padding), (0, 0)), mode="constant"
    )
    cols = np.empty(
        (batch, out_h, out_w, kernel_h * kernel_w * channels), dtype=x.dtype
    )
    for i in range(kernel_h):
        for j in range(kernel_w):
            offset = (i * kernel_w + j) * channels
            cols[..., offset : offset + channels] = x_padded[
                :, i : i + out_h * stride : stride, j : j + out_w * stride : stride, :
            ]
    return cols


def dequantize_reference(layer, accumulator):
    """An Ax layer's dequantize epilogue as allocating NumPy expressions.

    ``(accumulator - zero_point * correction) * (scale * weight_scale) +
    bias`` over the int64 ``(rows, N)`` accumulator, the bias only when the
    layer has one.  The fused native layer call
    (:class:`repro.axnn.layers.NativeLayerCall`) and the in-place NumPy
    epilogue of the other kernels must return these bits.
    """
    scheme = layer.activation_scheme
    correction = zero_point_correction_vector(layer.weight_sign, layer.weight_magnitude)
    accumulator = np.asarray(accumulator, dtype=np.int64) - (
        scheme.zero_point * correction[None, :]
    )
    out = accumulator.astype(np.float64) * (scheme.scale * layer.weight_scale)
    if layer.bias is not None:
        out = out + layer.bias
    return out


def _ax_product_reference(layer, x):
    """Quantize the float matrix ``x``, multiply it through the LUT gather
    and dequantize: one Ax layer's ``(rows, N)`` output."""
    codes = layer.activation_scheme.quantize(x)
    accumulator = approx_matmul(
        codes, layer.weight_sign, layer.weight_magnitude, layer.multiplier.lut()
    )
    return dequantize_reference(layer, accumulator)


def ax_model_reference(model, x):
    """An AxDNN's logits with every Ax layer in the seed order.

    A convolution extracts the zero-padded *float* patches first and
    quantizes the patch matrix after; every product goes through the
    reference LUT gather :func:`repro.axnn.approx_ops.approx_matmul`.
    :meth:`repro.axnn.AxModel.forward` (quantize the input once, gather
    code patches padded with the zero point) and the stacked
    :class:`repro.axnn.VictimPanel` must return these bits.
    """
    out = np.asarray(x, dtype=np.float64)
    for layer in model.layers:
        if isinstance(layer, AxConv2D):
            size = layer.kernel_size
            cols = im2col_reference(out, size, size, layer.stride, layer.pad_amount)
            batch, out_h, out_w, patch = cols.shape
            out = _ax_product_reference(layer, cols.reshape(-1, patch)).reshape(
                batch, out_h, out_w, layer.filters
            )
        elif isinstance(layer, AxDense):
            out = _ax_product_reference(layer, out)
        else:
            out = layer.forward(out)
    return out


def col2im_reference(cols, input_shape, kernel_h, kernel_w, stride, padding):
    """The scatter-add adjoint of :func:`im2col_reference`.

    Contributions are added in ascending kernel-offset order, the order the
    compiled scatter-add and the NumPy fallback of
    :func:`repro.nn.functional.col2im` must reproduce.
    """
    batch, height, width, channels = input_shape
    out_h = cols.shape[1]
    out_w = cols.shape[2]
    x_padded = np.zeros(
        (batch, height + 2 * padding, width + 2 * padding, channels),
        dtype=cols.dtype,
    )
    for i in range(kernel_h):
        for j in range(kernel_w):
            offset = (i * kernel_w + j) * channels
            x_padded[
                :, i : i + out_h * stride : stride, j : j + out_w * stride : stride, :
            ] += cols[..., offset : offset + channels]
    if padding == 0:
        return x_padded
    return x_padded[:, padding:-padding, padding:-padding, :]


def _pool_windows(x, pool_size, stride):
    """Pooling windows stacked along a new last axis: (N, OH, OW, C, k*k)."""
    batch, height, width, channels = x.shape
    out_h = _out_size(height, pool_size, stride, 0)
    out_w = _out_size(width, pool_size, stride, 0)
    windows = np.empty(
        (batch, out_h, out_w, channels, pool_size * pool_size), dtype=x.dtype
    )
    for i in range(pool_size):
        for j in range(pool_size):
            windows[..., i * pool_size + j] = x[
                :, i : i + out_h * stride : stride, j : j + out_w * stride : stride, :
            ]
    return windows


def avg_pool_reference(x, pool_size, stride):
    """Average pooling as a ``mean`` over the stacked windows.

    :class:`repro.nn.layers.AvgPool2D` must return these bits for every
    pool size and stride, whatever order NumPy's reduce adds in.
    """
    return _pool_windows(x, pool_size, stride).mean(axis=-1)


def avg_pool_backward_reference(grad_output, input_shape, pool_size, stride):
    """Average-pooling gradient: each window's share added into zeros."""
    out_h, out_w = grad_output.shape[1], grad_output.shape[2]
    grad_input = np.zeros(input_shape, dtype=grad_output.dtype)
    share = grad_output / (pool_size * pool_size)
    for i in range(pool_size):
        for j in range(pool_size):
            grad_input[
                :, i : i + out_h * stride : stride, j : j + out_w * stride : stride, :
            ] += share
    return grad_input


def train_seed_loop_reference(model, loss, optimizer, rng, x, y, epochs, batch_size):
    """The seed training loop: :meth:`repro.nn.Trainer.fit`'s reference.

    Shuffles with ``rng`` exactly as ``fit`` does (one permutation of
    ``arange(n)`` per epoch), then per mini-batch runs ``forward``, the
    unfused ``loss.value`` and ``loss.gradient``, a full ``backward`` (input
    gradient included) and the per-layer ``optimizer.step``.  ``fit``'s
    fused loss, skipped input gradient and flat optimizer step must train
    the same bytes.  Returns the mean batch loss of each epoch, which
    ``fit`` records as ``history.train_loss``.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n_samples = x.shape[0]
    epoch_losses = []
    for _ in range(epochs):
        order = np.arange(n_samples)
        rng.shuffle(order)
        losses = []
        for start in range(0, n_samples, batch_size):
            batch_idx = order[start : start + batch_size]
            xb, yb = x[batch_idx], y[batch_idx]
            logits = model.forward(xb, training=True)
            losses.append(loss.value(logits, yb))
            model.backward(loss.gradient(logits, yb))
            optimizer.step(model.trainable_layers())
        epoch_losses.append(float(np.mean(losses)))
    return epoch_losses


def ripple_add_bits_reference(adder, a_bits, b_bits, cin=None):
    """Per-lane ripple-carry addition: one ``cell.add`` call per position.

    ``a_bits`` / ``b_bits`` are 0/1 arrays of shape ``(..., adder.width)``;
    returns ``(sum_bits, carry_out)`` like
    :meth:`repro.circuits.RippleCarryAdder.add_bits`.
    """
    a_bits = np.asarray(a_bits, dtype=np.int64)
    b_bits = np.asarray(b_bits, dtype=np.int64)
    carry = (
        np.zeros(a_bits.shape[:-1], dtype=np.int64)
        if cin is None
        else np.asarray(cin, dtype=np.int64)
    )
    sum_bits = np.zeros_like(a_bits)
    for position, cell in enumerate(adder.cells):
        s, carry = cell.add(a_bits[..., position], b_bits[..., position], carry)
        sum_bits[..., position] = s
    return sum_bits, carry


def array_multiplier_reference(circuit, a, b):
    """Per-lane :class:`repro.circuits.ArrayMultiplierCircuit` product.

    Partial-product rows are accumulated on 0/1 bit arrays through
    :func:`ripple_add_bits_reference` with the circuit's row adder cells.
    """
    a, b = np.broadcast_arrays(np.asarray(a), np.asarray(b))
    a_bits = to_bits(a, circuit.width)
    b_bits = to_bits(b, circuit.width)
    accumulator = np.zeros(a_bits.shape[:-1] + (circuit.result_width,), dtype=np.int64)
    for row in range(circuit.width):
        # partial-product row `row`: (a & b_row) shifted left by `row`
        row_bits = np.zeros_like(accumulator)
        row_bits[..., row : row + circuit.width] = a_bits * b_bits[..., row : row + 1]
        accumulator, _ = ripple_add_bits_reference(
            circuit._row_adder, accumulator, row_bits
        )
    return from_bits(accumulator)


def compressor_tree_reference(circuit, a, b):
    """Per-lane :class:`repro.circuits.CompressorTreeMultiplierCircuit` product.

    Columns are reduced with each compressor's per-lane ``compress`` (and
    the exact full adder's ``add`` for leftover triples), then the two
    remaining rows go through :func:`ripple_add_bits_reference`.
    """
    a, b = np.broadcast_arrays(np.asarray(a), np.asarray(b))
    a_bits = to_bits(a, circuit.width)
    b_bits = to_bits(b, circuit.width)
    batch_shape = a_bits.shape[:-1]
    width, result_width = circuit.width, circuit.result_width
    zero = np.zeros(batch_shape, dtype=np.int64)

    columns = [[] for _ in range(result_width)]
    for i in range(width):
        for k in range(width):
            columns[i + k].append(a_bits[..., i] * b_bits[..., k])

    full_adder = ExactFullAdder()
    while any(len(column) > 2 for column in columns):
        new_columns = [[] for _ in range(result_width)]
        for j in range(result_width):
            column = columns[j]
            index = 0
            while len(column) - index >= 4:
                compressor = circuit._compressor_for(j)
                x1, x2, x3, x4 = column[index : index + 4]
                s, carry, cout = compressor.compress(x1, x2, x3, x4, zero)
                new_columns[j].append(s)
                if j + 1 < result_width:
                    new_columns[j + 1].append(carry)
                    new_columns[j + 1].append(cout)
                index += 4
            if len(column) - index == 3:
                x1, x2, x3 = column[index : index + 3]
                s, carry = full_adder.add(x1, x2, x3)
                new_columns[j].append(s)
                if j + 1 < result_width:
                    new_columns[j + 1].append(carry)
                index += 3
            new_columns[j].extend(column[index:])
        columns = new_columns

    row_a = np.zeros(batch_shape + (result_width,), dtype=np.int64)
    row_b = np.zeros_like(row_a)
    for j, column in enumerate(columns):
        if len(column) >= 1:
            row_a[..., j] = column[0]
        if len(column) == 2:
            row_b[..., j] = column[1]
    sum_bits, _ = ripple_add_bits_reference(circuit._final_adder, row_a, row_b)
    return from_bits(sum_bits)
