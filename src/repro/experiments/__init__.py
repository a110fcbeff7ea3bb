"""Declarative experiment API: specs, the artifact store and the session.

This package is the public entry point for running anything in the repo::

    from repro.experiments import ExperimentSpec, ModelSpec, Session

    spec = ExperimentSpec(
        name="fig4a",
        model=ModelSpec(architecture="lenet5", dataset="mnist"),
        victims=VictimSpec(multipliers=tuple(f"M{i}" for i in range(1, 10))),
        attacks=(AttackSpec(attack="BIM_linf"),),
    )
    result = Session(workers="auto").run(spec)
    print(result.grids[0].values)

Specs are frozen, hashable-by-content dataclasses
(:mod:`repro.experiments.spec`); artifacts are cached in a
content-addressed store (:mod:`repro.experiments.store`); the
:class:`~repro.experiments.session.Session` resolves the spec DAG and
reuses every cached artifact (:mod:`repro.experiments.session`).
"""

from repro.errors import SpecValidationError
from repro.experiments.backends import (
    STORE_URL_ENV_VAR,
    Blob,
    CircuitBreaker,
    InMemoryBackend,
    LocalDirBackend,
    ResilientBackend,
    SimulatedRemoteBackend,
    StoreBackend,
    WriteJournal,
    backend_from_url,
    reset_memory_backends,
    shared_memory_backend,
)
from repro.experiments.spec import (
    ARCHITECTURES,
    DATASETS,
    EXPERIMENT_KINDS,
    SPEC_SCHEMA_VERSION,
    AttackSpec,
    ExperimentSpec,
    ModelSpec,
    SweepSpec,
    VictimSpec,
    canonical_json,
    content_hash,
    panel_spec,
)
from repro.experiments.store import (
    LEASE_TTL_ENV_VAR,
    QUARANTINE_TTL_ENV_VAR,
    STORE_ENV_VAR,
    ArtifactEntry,
    ArtifactStore,
    Lease,
    StoreStats,
    TrainingCheckpointer,
    VerifyFinding,
    atomic_write_bytes,
    atomic_write_json,
    default_store_root,
)
from repro.experiments.session import (
    CHECKPOINT_EVERY_ENV_VAR,
    PREFETCH_ENV_VAR,
    REQUIRE_CACHED_ENV_VAR,
    ExperimentResult,
    ProgressEvent,
    Session,
    TrainedModel,
)

__all__ = [
    "ExperimentSpec",
    "ModelSpec",
    "VictimSpec",
    "AttackSpec",
    "SweepSpec",
    "panel_spec",
    "canonical_json",
    "content_hash",
    "ARCHITECTURES",
    "DATASETS",
    "EXPERIMENT_KINDS",
    "SPEC_SCHEMA_VERSION",
    "SpecValidationError",
    "ArtifactStore",
    "ArtifactEntry",
    "StoreStats",
    "Lease",
    "TrainingCheckpointer",
    "VerifyFinding",
    "atomic_write_bytes",
    "atomic_write_json",
    "default_store_root",
    "STORE_ENV_VAR",
    "LEASE_TTL_ENV_VAR",
    "QUARANTINE_TTL_ENV_VAR",
    "Session",
    "ExperimentResult",
    "ProgressEvent",
    "TrainedModel",
    "REQUIRE_CACHED_ENV_VAR",
    "CHECKPOINT_EVERY_ENV_VAR",
    "PREFETCH_ENV_VAR",
    "StoreBackend",
    "Blob",
    "LocalDirBackend",
    "InMemoryBackend",
    "SimulatedRemoteBackend",
    "ResilientBackend",
    "CircuitBreaker",
    "WriteJournal",
    "backend_from_url",
    "shared_memory_backend",
    "reset_memory_backends",
    "STORE_URL_ENV_VAR",
]
