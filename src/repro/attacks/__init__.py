"""Adversarial attacks (the Foolbox substitute).

Implements the ten attacks of the paper's Table I: FGM, BIM and PGD in their
l2 and linf variants (gradient attacks), plus Contrast Reduction, Repeated
Additive Gaussian noise and Repeated Additive Uniform noise (decision
attacks), together with the l0/l2/linf distance metrics.  These ten are
the whole attack surface: every ``AttackSpec`` and ``repro.cli attacks``
names one of them.

Attacks are declarative step/init descriptions driven by the unified
batched runtime in :mod:`repro.attacks.engine`, which amortises epsilon
sweeps (``generate_sweep``) and shards crafting batches over threads —
bit-identically for every worker count.
"""

from repro.attacks.base import (
    DECISION,
    GRADIENT,
    PIXEL_MAX,
    PIXEL_MIN,
    Attack,
    AttackContext,
    AttackMetadata,
    AttackState,
)
from repro.attacks.engine import (
    DEFAULT_SHARD_SIZE,
    AttackEngine,
)
from repro.attacks.bim import BIML2, BIMLinf
from repro.attacks.contrast import ContrastReductionL2
from repro.attacks.distances import (
    DISTANCES,
    l0_distance,
    l2_distance,
    linf_distance,
    normalize_l2,
    project_l2_ball,
    project_linf_ball,
)
from repro.attacks.fgm import FGML2, FGMLinf
from repro.attacks.noise import (
    RepeatedAdditiveGaussianL2,
    RepeatedAdditiveUniformL2,
    RepeatedAdditiveUniformLinf,
)
from repro.attacks.pgd import PGDL2, PGDLinf
from repro.attacks.registry import (
    PAPER_EPSILONS,
    attack_table,
    available_attacks,
    get_attack,
)

__all__ = [
    "Attack",
    "AttackContext",
    "AttackEngine",
    "AttackMetadata",
    "AttackState",
    "DEFAULT_SHARD_SIZE",
    "GRADIENT",
    "DECISION",
    "PIXEL_MIN",
    "PIXEL_MAX",
    "FGMLinf",
    "FGML2",
    "BIMLinf",
    "BIML2",
    "PGDLinf",
    "PGDL2",
    "ContrastReductionL2",
    "RepeatedAdditiveGaussianL2",
    "RepeatedAdditiveUniformL2",
    "RepeatedAdditiveUniformLinf",
    "l0_distance",
    "l2_distance",
    "linf_distance",
    "normalize_l2",
    "project_l2_ball",
    "project_linf_ball",
    "DISTANCES",
    "get_attack",
    "available_attacks",
    "attack_table",
    "PAPER_EPSILONS",
]
