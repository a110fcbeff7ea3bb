"""Unified batched attack runtime (epsilon-sweep amortization + shard threads).

The paper's pipeline (Algorithm 1) crafts every adversarial example on the
source model before any victim is evaluated, so attack generation is the
wall-clock bottleneck of the figure sweeps.  :class:`AttackEngine` owns the
whole crafting loop — input validation, RNG seeding, the epsilon sweep,
final clipping — and drives the declarative hooks attacks describe
themselves with (see :class:`repro.attacks.base.Attack`).  Two levers make
it fast:

**Sweep amortization.**  :meth:`AttackEngine.generate_sweep` crafts every
budget of a sweep in one pass.  Epsilon-independent work runs once and is
shared: single-gradient attacks (the FGM family) evaluate the input
gradient exactly once and scale it per budget; BIM's first step (taken at
the clean images for every budget) shares one gradient; decision noise
attacks draw each repeat's unit-scale noise once for all budgets; contrast
reduction computes its perturbation direction once.  Iterative trajectories
that diverge per budget (PGD after the random start, BIM from step two)
still run per budget — exactly the work a per-epsilon loop would
do, never more.

**Shard threads.**  With ``workers > 1`` the engine shards the *batch*
across a thread pool.  Layers keep their backward caches as attributes, so
threads cannot share one model: each thread crafts on its own
:func:`copy.deepcopy` of the source model (layers drop their transient
caches on copy, see :meth:`repro.nn.layers.base.Layer.__getstate__`).
NumPy's array kernels and the compiled im2col/col2im release the GIL,
and that is where a gradient-bound sweep spends its time: a ten-budget BIM
sweep crafts 1.6-1.7x faster on two threads than serially (PERFORMANCE.md,
"Parallelism").

Reproducibility contract: results are bit-identical (a) for every worker
count, including the inline loop of ``workers=1``, and (b) between
per-budget :meth:`generate` calls and one :meth:`generate_sweep`.  This
holds because the shard decomposition depends only on ``(n_samples,
shard_size)`` — never on ``workers`` — and each shard's RNG is spawned from
a root :class:`numpy.random.SeedSequence` keyed by the attack's seed, so
shard *i* sees the same stream no matter which thread (or how many) runs
it, and hooks consume the stream only in epsilon-independent positions.
"""

from __future__ import annotations

import copy
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Sequence

import numpy as np

from repro.attacks.base import (
    PIXEL_MAX,
    PIXEL_MIN,
    Attack,
    AttackContext,
    AttackState,
)
from repro.errors import ConfigurationError
from repro.nn.model import Sequential
from repro.nn.runtime import (
    WorkerSpec,
    batch_slices,
    resolve_workers,
    validate_batch_size,
)

#: samples per shard — fixed independently of the worker count, which is
#: what keeps results bit-identical for every ``workers`` value
DEFAULT_SHARD_SIZE = 32

def _sweep_shard(
    attack: Attack,
    model: Sequential,
    images: np.ndarray,
    labels: np.ndarray,
    epsilons: Sequence[float],
    seed_seq: np.random.SeedSequence,
) -> Dict[float, np.ndarray]:
    """Craft every budget for one shard of the batch (the engine's core loop)."""
    ctx = AttackContext(
        model=model,
        images=images,
        labels=labels,
        rng=np.random.default_rng(seed_seq),
        loss=attack._loss,
    )
    out: Dict[float, np.ndarray] = {}
    positive: List[float] = []
    for epsilon in epsilons:
        if epsilon == 0.0:
            out[0.0] = images.copy()
        elif epsilon not in positive:
            positive.append(epsilon)
    if positive:
        prep = attack.prepare(ctx)
        states = [attack.init(ctx, prep, epsilon) for epsilon in positive]
        for step in range(attack.num_steps()):
            active = [state for state in states if not state.done]
            if not active:
                break
            payload = attack.step_payload(ctx, prep, step)
            for state in active:
                attack.perturb(ctx, state, prep, payload)
                state.step += 1
        for state in states:
            out[state.epsilon] = np.clip(state.adversarial, PIXEL_MIN, PIXEL_MAX)
    return out


class AttackEngine:
    """Batched attack runtime bound to one source model.

    Parameters
    ----------
    model:
        The source model adversarial examples are crafted on (the accurate
        float DNN, per the paper's threat model).
    workers:
        Threads for batch sharding: a positive int, ``"auto"`` (one per
        core) or ``None`` (``REPRO_DEFAULT_WORKERS``, else 1).
        Results are bit-identical for every value.
    shard_size:
        Samples per shard.  Part of the attack semantics for seeded attacks
        (each shard draws from its own spawned stream), so it is fixed by
        configuration — never derived from the worker count.
    """

    def __init__(
        self,
        model: Sequential,
        workers: WorkerSpec = None,
        shard_size: int = None,
    ) -> None:
        self.model = model
        self.workers = resolve_workers(workers)
        self.shard_size = validate_batch_size(
            DEFAULT_SHARD_SIZE if shard_size is None else shard_size
        )

    # ------------------------------------------------------------------ API
    def generate(
        self,
        attack: Attack,
        images: np.ndarray,
        labels: np.ndarray,
        epsilon: float,
        seed: int = None,
    ) -> np.ndarray:
        """Craft adversarial examples for a single perturbation budget."""
        sweep = self.generate_sweep(attack, images, labels, [epsilon], seed=seed)
        return sweep[float(epsilon)]

    def generate_sweep(
        self,
        attack: Attack,
        images: np.ndarray,
        labels: np.ndarray,
        epsilons: Sequence[float],
        seed: int = None,
    ) -> Dict[float, np.ndarray]:
        """Craft adversarial examples for every budget in one amortised pass.

        ``seed`` overrides the attack's own seed for this call only.  The
        engine reseeds per call (regeneration with equal inputs is
        bit-identical), so callers that *want* fresh randomness per call —
        adversarial training drawing new PGD starts every minibatch — must
        supply a varying seed.
        """
        images = np.asarray(images, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        if images.shape[0] != labels.shape[0]:
            raise ConfigurationError(
                f"images and labels disagree on sample count: {images.shape[0]} vs "
                f"{labels.shape[0]}"
            )
        epsilons = [float(epsilon) for epsilon in epsilons]
        if not epsilons:
            raise ConfigurationError("epsilons must contain at least one budget")
        for epsilon in epsilons:
            if epsilon < 0:
                raise ConfigurationError(f"epsilon must be >= 0, got {epsilon}")
        if images.shape[0] == 0:
            # a well-formed empty result per budget, with no gradient or RNG
            # work (mirrors the empty-input validation on predict)
            return {epsilon: images.copy() for epsilon in epsilons}

        slices = batch_slices(images.shape[0], self.shard_size)
        if seed is None:
            seed = attack.seed
        root = np.random.SeedSequence(0 if seed is None else seed)
        seeds = root.spawn(len(slices))
        shard_results = self._run_shards(attack, images, labels, epsilons, slices, seeds)
        return {
            epsilon: np.concatenate(
                [result[epsilon] for result in shard_results], axis=0
            )
            for epsilon in epsilons
        }

    # ------------------------------------------------------------ dispatch
    def _run_shards(self, attack, images, labels, epsilons, slices, seeds):
        workers = min(self.workers, len(slices))
        if workers == 1 or not isinstance(self.model, Sequential):
            return [
                _sweep_shard(attack, self.model, images[s], labels[s], epsilons, seed)
                for s, seed in zip(slices, seeds)
            ]
        # layer backward caches are per-layer attributes, so each thread
        # crafts on its own copy of the source model
        local = threading.local()

        def craft(shard):
            s, seed = shard
            model = getattr(local, "model", None)
            if model is None:
                model = local.model = copy.deepcopy(self.model)
            return _sweep_shard(attack, model, images[s], labels[s], epsilons, seed)

        with ThreadPoolExecutor(workers, thread_name_prefix="repro-craft") as pool:
            return list(pool.map(craft, zip(slices, seeds)))
