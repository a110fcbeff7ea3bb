"""Extended attacks beyond the paper's Table I.

The paper evaluates ten attacks; Foolbox ships several more that are natural
follow-ups for AxDNN robustness studies.  This module adds a small set of
them as an extension (they are kept out of the paper registry so the
figure-reproduction benchmarks remain faithful):

* Salt-and-pepper noise (decision, l0-style corruption);
* Single-draw additive Gaussian noise (decision, l2);
* Blended uniform noise (decision, l2) — interpolates towards a uniform
  noise image, the "image corruption" analogue of contrast reduction;
* DeepFool (gradient, l2) — a minimal-perturbation attack run in a
  budget-bounded mode: the DeepFool direction is computed and then scaled to
  the requested l2 budget.

Like the registry attacks, they are declarative: random draws and
perturbation directions live in ``prepare`` (epsilon-independent, shared
across an epsilon sweep), and the budget is applied in ``perturb``.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.base import DECISION, GRADIENT, PIXEL_MAX, PIXEL_MIN, Attack
from repro.attacks.distances import batch_l2_norm, normalize_l2
from repro.errors import ConfigurationError
from repro.nn.functional import softmax


class SaltAndPepperNoise(Attack):
    """Flips a budget-dependent fraction of pixels to black or white."""

    name = "Salt and Pepper Noise"
    short_name = "SAP"
    attack_type = DECISION
    norm = "l0"

    def __init__(self, max_fraction: float = 0.4, seed: int = 0) -> None:
        super().__init__()
        if not 0.0 < max_fraction <= 1.0:
            raise ConfigurationError(
                f"max_fraction must be in (0, 1], got {max_fraction}"
            )
        self.max_fraction = max_fraction
        self.seed = seed

    def prepare(self, ctx):
        # one pair of uniform fields shared by every budget: thresholding the
        # first at the budget's flip fraction nests small-budget masks inside
        # large-budget ones
        return ctx.rng.random(ctx.images.shape), ctx.rng.random(ctx.images.shape)

    def perturb(self, ctx, state, prep, payload):
        mask_field, salt_field = prep
        # epsilon in [0, 2] is mapped onto a pixel-flip fraction
        fraction = min(self.max_fraction, state.epsilon / 2.0 * self.max_fraction)
        mask = mask_field < fraction
        salt = salt_field < 0.5
        state.adversarial = np.where(
            mask, np.where(salt, PIXEL_MAX, PIXEL_MIN), ctx.images
        )
        return state


class AdditiveGaussianL2(Attack):
    """A single draw of Gaussian noise scaled to the exact l2 budget."""

    name = "Additive Gaussian Noise"
    short_name = "AGN"
    attack_type = DECISION
    norm = "l2"

    def __init__(self, seed: int = 0) -> None:
        super().__init__()
        self.seed = seed

    def prepare(self, ctx):
        return normalize_l2(ctx.rng.normal(size=ctx.images.shape))

    def perturb(self, ctx, state, prep, payload):
        state.adversarial = ctx.images + state.epsilon * prep
        return state


class BlendedUniformNoiseL2(Attack):
    """Blend each image towards a fixed uniform-noise image within an l2 budget."""

    name = "Blended Uniform Noise"
    short_name = "BUN"
    attack_type = DECISION
    norm = "l2"

    def __init__(self, seed: int = 0) -> None:
        super().__init__()
        self.seed = seed

    def prepare(self, ctx):
        target = ctx.rng.random(ctx.images.shape)
        direction = target - ctx.images
        norms = batch_l2_norm(direction)
        unit = direction / np.maximum(norms, 1e-12)
        return unit, norms

    def perturb(self, ctx, state, prep, payload):
        unit, norms = prep
        step = np.minimum(state.epsilon, norms)
        state.adversarial = ctx.images + step * unit
        return state


class DeepFoolL2(Attack):
    """Budget-bounded DeepFool (Moosavi-Dezfooli et al., 2016).

    The classic DeepFool iterates towards the nearest decision boundary; here
    the accumulated DeepFool perturbation is additionally projected onto the
    l2 ball of the requested budget so the attack fits the paper's
    fixed-budget evaluation protocol.
    """

    name = "DeepFool"
    short_name = "DF"
    attack_type = GRADIENT
    norm = "l2"

    def __init__(self, steps: int = 8, overshoot: float = 0.02) -> None:
        super().__init__()
        if steps <= 0:
            raise ConfigurationError(f"steps must be positive, got {steps}")
        self.steps = steps
        self.overshoot = overshoot

    def num_steps(self):
        return self.steps

    def _class_gradient(self, model, images, class_index):
        """Gradient of the given class logit summed over the batch."""
        logits = model.forward(images, training=False)
        grad_logits = np.zeros_like(logits)
        grad_logits[np.arange(images.shape[0]), class_index] = 1.0
        return model.backward(grad_logits, param_grads=False)

    def perturb(self, ctx, state, prep, payload):
        model, images, labels = ctx.model, ctx.images, ctx.labels
        adversarial = state.adversarial
        batch = images.shape[0]
        logits = model.forward(adversarial, training=False)
        predictions = np.argmax(logits, axis=1)
        still_correct = predictions == labels
        if not np.any(still_correct):
            state.done = True
            return state
        probabilities = softmax(logits)
        # runner-up class per sample (most likely wrong class)
        masked = probabilities.copy()
        masked[np.arange(batch), labels] = -np.inf
        runner_up = np.argmax(masked, axis=1)
        grad_true = self._class_gradient(model, adversarial, labels)
        grad_other = self._class_gradient(model, adversarial, runner_up)
        direction = grad_other - grad_true
        logit_gap = (
            logits[np.arange(batch), labels] - logits[np.arange(batch), runner_up]
        )
        norms = batch_l2_norm(direction).reshape(batch)
        scale = (np.abs(logit_gap) + 1e-6) / np.maximum(norms ** 2, 1e-12)
        step = (1.0 + self.overshoot) * scale.reshape(
            (-1,) + (1,) * (images.ndim - 1)
        ) * direction
        # only move samples that are still classified correctly
        move_mask = still_correct.reshape((-1,) + (1,) * (images.ndim - 1))
        adversarial = adversarial + np.where(move_mask, step, 0.0)
        # keep the accumulated perturbation inside the l2 budget
        perturbation = adversarial - images
        norms_total = batch_l2_norm(perturbation)
        factor = np.minimum(1.0, state.epsilon / np.maximum(norms_total, 1e-12))
        state.adversarial = np.clip(
            images + perturbation * factor, PIXEL_MIN, PIXEL_MAX
        )
        return state


#: registry of the extension attacks (kept separate from the paper's Table I)
EXTENDED_ATTACKS = {
    "SAP_l0": SaltAndPepperNoise,
    "AGN_l2": AdditiveGaussianL2,
    "BUN_l2": BlendedUniformNoiseL2,
    "DF_l2": DeepFoolL2,
}


def get_extended_attack(key: str, **kwargs) -> Attack:
    """Instantiate an extension attack by key (see :data:`EXTENDED_ATTACKS`)."""
    try:
        factory = EXTENDED_ATTACKS[key]
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown extended attack {key!r}; known: {sorted(EXTENDED_ATTACKS)}"
        ) from exc
    return factory(**kwargs)
