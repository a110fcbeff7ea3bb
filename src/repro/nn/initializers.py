"""The weight initializer of the NumPy DNN framework."""

from __future__ import annotations

from typing import Tuple

import numpy as np


def he_normal(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """He (Kaiming) normal initializer, suited to ReLU networks.

    ``shape`` is a dense ``(in, out)`` or convolution ``(kh, kw, in, out)``
    weight shape; its fan-in is the product of every axis but the last.
    """
    fan_in = int(np.prod(shape[:-1]))
    std = np.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape)
