"""Transferability analysis (the paper's Table II).

Adversarial examples crafted on one accurate model are evaluated on AxDNNs
built from a *different* architecture (second attack scenario of Section
II-A: the adversary knows neither the inexactness nor the model structure).
Each table cell reports ``accuracy before attack / accuracy after attack`` of
the victim AxDNN, which is the paper's X/Y notation.  A ``kind="transfer"``
:class:`repro.experiments.ExperimentSpec` run by
:class:`repro.experiments.Session` fills the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.errors import ConfigurationError


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
