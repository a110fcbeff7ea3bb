"""Registry of the paper's ten adversarial attacks (Table I)."""

from __future__ import annotations

import inspect
from typing import Callable, Dict, List, Optional, Tuple

from repro.attacks.base import Attack, AttackMetadata
from repro.attacks.bim import BIML2, BIMLinf
from repro.attacks.contrast import ContrastReductionL2
from repro.attacks.fgm import FGML2, FGMLinf
from repro.attacks.noise import (
    RepeatedAdditiveGaussianL2,
    RepeatedAdditiveUniformL2,
    RepeatedAdditiveUniformLinf,
)
from repro.attacks.pgd import PGDL2, PGDLinf
from repro.errors import UnknownComponentError

#: the ten attacks evaluated in the paper, keyed "SHORT_norm"
_ATTACK_FACTORIES: Dict[str, Callable[[], Attack]] = {
    "FGM_linf": FGMLinf,
    "FGM_l2": FGML2,
    "BIM_linf": BIMLinf,
    "BIM_l2": BIML2,
    "PGD_linf": PGDLinf,
    "PGD_l2": PGDL2,
    "CR_l2": ContrastReductionL2,
    "RAG_l2": RepeatedAdditiveGaussianL2,
    "RAU_l2": RepeatedAdditiveUniformL2,
    "RAU_linf": RepeatedAdditiveUniformLinf,
}

#: the perturbation budgets swept in every figure of the paper
PAPER_EPSILONS: List[float] = [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.5, 1.0, 1.5, 2.0]


def available_attacks() -> List[str]:
    """Keys of every registered attack."""
    return sorted(_ATTACK_FACTORIES)


def get_attack(key: str, **kwargs) -> Attack:
    """Instantiate an attack by its registry key (e.g. ``"BIM_linf"``)."""
    try:
        factory = _ATTACK_FACTORIES[key]
    except KeyError as exc:
        raise UnknownComponentError(
            f"unknown attack {key!r}; known attacks: {available_attacks()}"
        ) from exc
    return factory(**kwargs)


def attack_parameters(key: str) -> Optional[Tuple[str, ...]]:
    """Keyword parameters the attack ``key`` accepts; ``None`` when its
    constructor takes arbitrary keywords."""
    try:
        factory = _ATTACK_FACTORIES[key]
    except KeyError as exc:
        raise UnknownComponentError(
            f"unknown attack {key!r}; known attacks: {available_attacks()}"
        ) from exc
    names = []
    for parameter in inspect.signature(factory).parameters.values():
        if parameter.kind is parameter.VAR_KEYWORD:
            return None
        if parameter.kind in (parameter.POSITIONAL_OR_KEYWORD, parameter.KEYWORD_ONLY):
            names.append(parameter.name)
    return tuple(names)


def attack_table() -> List[AttackMetadata]:
    """Metadata of every attack — the reproduction of the paper's Table I."""
    return [get_attack(key).metadata() for key in available_attacks()]
