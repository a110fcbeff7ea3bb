"""Transferability analysis (the paper's Table II).

Adversarial examples crafted on one accurate model are evaluated on AxDNNs
built from a *different* architecture (second attack scenario of Section
II-A: the adversary knows neither the inexactness nor the model structure).
Each table cell reports ``accuracy before attack / accuracy after attack`` of
the victim AxDNN, which is the paper's X/Y notation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.attacks.base import Attack
from repro.attacks.engine import AttackEngine
from repro.axnn.engine import AxModel
from repro.errors import ConfigurationError
from repro.nn.model import Sequential


@dataclass(frozen=True)
class TransferabilityCell:
    """One source -> victim entry of the transferability table."""

    source: str
    victim: str
    dataset: str
    accuracy_before: float
    accuracy_after: float

    @property
    def accuracy_drop(self) -> float:
        """Accuracy lost due to the transferred attack, in percentage points."""
        return self.accuracy_before - self.accuracy_after

    def as_paper_cell(self) -> str:
        """The X/Y notation used by the paper's Table II."""
        return f"{self.accuracy_before:.0f}/{self.accuracy_after:.0f}"


@dataclass
class TransferabilityTable:
    """Collection of transferability cells, organised like Table II."""

    attack_key: str
    epsilon: float
    cells: List[TransferabilityCell]

    def cell(self, source: str, victim: str, dataset: str) -> TransferabilityCell:
        """Look up one cell."""
        for candidate in self.cells:
            if (
                candidate.source == source
                and candidate.victim == victim
                and candidate.dataset == dataset
            ):
                return candidate
        raise ConfigurationError(
            f"no transferability cell for source={source!r}, victim={victim!r}, "
            f"dataset={dataset!r}"
        )

    def to_dict(self) -> dict:
        """JSON-friendly representation."""
        return {
            "attack": self.attack_key,
            "epsilon": self.epsilon,
            "cells": [
                {
                    "source": cell.source,
                    "victim": cell.victim,
                    "dataset": cell.dataset,
                    "before": cell.accuracy_before,
                    "after": cell.accuracy_after,
                }
                for cell in self.cells
            ],
        }


def transferability_analysis(
    sources: Dict[str, Sequential],
    victims: Dict[str, AxModel],
    attack: Attack,
    images: np.ndarray,
    labels: np.ndarray,
    epsilon: float,
    dataset_name: str,
) -> List[TransferabilityCell]:
    """Evaluate every (source, victim) pair on one dataset.

    ``sources`` maps source names (e.g. ``"AccL5"``) to accurate float models
    used for crafting the adversarial examples; ``victims`` maps victim names
    (e.g. ``"AxL5"``, ``"AxAlx"``) to AxDNNs evaluated on those examples.
    """
    if epsilon < 0:
        raise ConfigurationError(f"epsilon must be >= 0, got {epsilon}")
    images = np.asarray(images, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    cells: List[TransferabilityCell] = []
    for source_name, source_model in sources.items():
        adversarial = AttackEngine(source_model).generate(
            attack, images, labels, epsilon
        )
        for victim_name, victim in victims.items():
            before = victim.accuracy_percent(images, labels)
            after = victim.accuracy_percent(adversarial, labels)
            cells.append(
                TransferabilityCell(
                    source=source_name,
                    victim=victim_name,
                    dataset=dataset_name,
                    accuracy_before=before,
                    accuracy_after=after,
                )
            )
    return cells


def build_transferability_table(
    attack: Attack,
    epsilon: float,
    per_dataset_cells: Sequence[List[TransferabilityCell]],
) -> TransferabilityTable:
    """Combine per-dataset cell lists into one table."""
    cells: List[TransferabilityCell] = []
    for dataset_cells in per_dataset_cells:
        cells.extend(dataset_cells)
    return TransferabilityTable(attack_key=attack.key(), epsilon=epsilon, cells=cells)
