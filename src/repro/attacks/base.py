"""Attack interface and shared plumbing.

Following the paper's threat model (Section II), every attack is generated on
the *source* model — the accurate float DNN — and later evaluated on a victim
(the quantized accurate DNN or an AxDNN).  An attack therefore only needs the
source model: gradient attacks use its input gradients; decision attacks use
its predicted labels to decide when a noise sample is already adversarial.

Perturbation budgets (epsilon) follow the Foolbox convention: they are
expressed in the input scale ([0, 1] images) and bound the attack's norm
(linf or l2).  ``epsilon = 0`` returns the unmodified images.

Attacks are *declarative*: instead of each reimplementing the generate loop,
a subclass describes itself to :class:`repro.attacks.engine.AttackEngine`
through four hooks —

``prepare(ctx)``
    Epsilon-independent precomputation, run once per crafting call and
    shared by every budget of a sweep (the FGM gradient, the contrast
    direction, unit-scale random draws).
``init(ctx, prep, epsilon)``
    The starting :class:`AttackState` for one budget (default: the clean
    images).
``step_payload(ctx, prep, step)``
    Per-step epsilon-independent data (e.g. one unit-scale noise draw),
    computed once per step and shared across budgets.
``perturb(ctx, state, prep, payload)``
    Advance one budget's state by one step; called ``num_steps()`` times
    unless the state marks itself ``done``.

The bit-for-bit reproducibility contract rests on one invariant: hooks may
consume ``ctx.rng`` **only** inside ``prepare`` and ``step_payload`` (the
epsilon-independent hooks).  The engine derives ``ctx.rng`` freshly per
crafting call (and per shard) from the attack's seed, so a single-budget
``generate`` and a multi-budget ``generate_sweep`` see identical streams.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from repro.nn.losses import CrossEntropyLoss, Loss
from repro.nn.model import Sequential
from repro.nn.runtime import WorkerSpec

#: valid image range used throughout the paper's datasets
PIXEL_MIN = 0.0
PIXEL_MAX = 1.0

GRADIENT = "gradient"
DECISION = "decision"


@dataclass(frozen=True)
class AttackMetadata:
    """Descriptive metadata of an attack (used to reproduce Table I)."""

    name: str
    short_name: str
    attack_type: str
    norm: str


@dataclass
class AttackContext:
    """Everything a crafting call sees: one source model, one (shard of a) batch.

    ``rng`` is derived freshly per call and per shard from the attack's seed
    (see :mod:`repro.attacks.engine`); deterministic attacks never touch it.
    """

    model: Sequential
    images: np.ndarray
    labels: np.ndarray
    rng: np.random.Generator
    loss: Loss

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """Input gradient of the classification loss on the source model."""
        return self.model.input_gradient(x, self.labels, self.loss)

    def predict_classes(self, x: np.ndarray) -> np.ndarray:
        """Labels predicted by the source model (used by decision attacks)."""
        return self.model.predict_classes(x)


@dataclass
class AttackState:
    """Mutable crafting state of one perturbation budget."""

    epsilon: float
    adversarial: np.ndarray
    #: steps applied so far (maintained by the engine)
    step: int = 0
    #: set by ``perturb`` to stop early (e.g. every sample already fooled)
    done: bool = False
    #: attack-specific extras (e.g. the still-correct mask of noise attacks)
    extra: Dict[str, Any] = field(default_factory=dict)


class Attack(ABC):
    """Base class for adversarial attacks."""

    #: full attack name, e.g. "Basic Iterative Method"
    name: str = "attack"
    #: short name used by the paper, e.g. "BIM"
    short_name: str = "ATT"
    #: "gradient" or "decision"
    attack_type: str = GRADIENT
    #: "l2" or "linf"
    norm: str = "linf"
    #: seed of the per-call RNG stream (None for deterministic attacks)
    seed: Optional[int] = None

    def __init__(self) -> None:
        self._loss = CrossEntropyLoss()

    # ------------------------------------------------------------------ API
    def generate(
        self,
        model: Sequential,
        images: np.ndarray,
        labels: np.ndarray,
        epsilon: float,
        workers: WorkerSpec = None,
        seed: int = None,
    ) -> np.ndarray:
        """Craft adversarial examples within the given perturbation budget.

        ``workers`` shards the batch across threads, each on its own copy
        of ``model`` (``"auto"`` = one per core; the default reads ``REPRO_DEFAULT_WORKERS``, else 1);
        results are bit-identical for every worker count.  Regeneration with
        equal inputs is bit-identical; pass a varying ``seed`` to override
        the attack's own seed when fresh randomness per call is wanted
        (e.g. adversarial training).
        """
        from repro.attacks.engine import AttackEngine

        return AttackEngine(model, workers=workers).generate(
            self, images, labels, epsilon, seed=seed
        )

    def generate_sweep(
        self,
        model: Sequential,
        images: np.ndarray,
        labels: np.ndarray,
        epsilons,
        workers: WorkerSpec = None,
        seed: int = None,
    ) -> Dict[float, np.ndarray]:
        """Craft adversarial examples for every budget in one amortised pass.

        Bit-identical to calling :meth:`generate` once per budget, but
        epsilon-independent work (gradients of single-step attacks, noise
        draws, perturbation directions) is computed once and shared.
        """
        from repro.attacks.engine import AttackEngine

        return AttackEngine(model, workers=workers).generate_sweep(
            self, images, labels, epsilons, seed=seed
        )

    # ------------------------------------------- declarative engine hooks
    def num_steps(self) -> int:
        """How many ``perturb`` steps the engine runs (per budget)."""
        return 1

    def prepare(self, ctx: AttackContext) -> Any:
        """Epsilon-independent precomputation shared by every budget."""
        return None

    def init(self, ctx: AttackContext, prep: Any, epsilon: float) -> AttackState:
        """Starting state for one budget (default: the clean images)."""
        return AttackState(epsilon=epsilon, adversarial=ctx.images.copy())

    def step_payload(self, ctx: AttackContext, prep: Any, step: int) -> Any:
        """Per-step epsilon-independent data shared across budgets."""
        return None

    @abstractmethod
    def perturb(
        self, ctx: AttackContext, state: AttackState, prep: Any, payload: Any
    ) -> AttackState:
        """Advance one budget's state by one step (``epsilon > 0``).

        The engine clips the final adversarial batch to the pixel range;
        iterative attacks additionally clip inside each step so later
        gradients are taken at feasible points.
        """

    # ----------------------------------------------------------- utilities
    def metadata(self) -> AttackMetadata:
        """Metadata record of this attack."""
        return AttackMetadata(
            name=self.name,
            short_name=self.short_name,
            attack_type=self.attack_type,
            norm=self.norm,
        )

    def key(self) -> str:
        """Registry key, e.g. ``"BIM_linf"``."""
        return f"{self.short_name}_{self.norm}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(norm={self.norm!r})"
