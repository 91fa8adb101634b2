"""The staged ecoHMEM pipeline: profile → placement → run.

Each stage is an individually callable function
(:mod:`repro.pipeline.stages`).  The CLI, the experiment harness
(:func:`repro.experiments.harness.run_ecohmem` delegates here) and the
placement service (:mod:`repro.service`) all build their cells from the
same stages, so they share one engine and one profile cache.

Only profiles are cached.  The in-memory ``ProfileStore`` LRU sits in
front of the :class:`~repro.pipeline.artifacts.ArtifactStore`, the
pipeline's only on-disk cache: profile artifacts keyed by a content
address (a sha256 over the canonical encoding of the profile's spec,
with the exact JSON codec from :mod:`repro.experiments.sweep.codec`),
in sharded directories with an atomic tmpdir-rename publish (a SIGKILL
mid-publish can never leave a torn artifact visible to readers).  A
profile artifact shortcuts the tracer + analyzer; placements and runs
are recomputed every time.
"""

from repro.pipeline.artifacts import (
    ArtifactStore,
    artifact_key,
    reset_default_artifact_store,
    resolve_artifact_store,
)
from repro.pipeline.stages import (
    PlacementOutcome,
    PreparedRun,
    bandwidth_observer,
    placement_stage,
    prepare_production,
    profile_stage,
    profile_workload,
    run_stage,
)
from repro.pipeline.online import (
    OnlineOutcome,
    run_online_pipeline,
    static_placement,
)
from repro.pipeline.whatif import evaluate_placements, rank_placements

__all__ = [
    "ArtifactStore",
    "artifact_key",
    "reset_default_artifact_store",
    "resolve_artifact_store",
    "PlacementOutcome",
    "PreparedRun",
    "bandwidth_observer",
    "placement_stage",
    "prepare_production",
    "profile_stage",
    "profile_workload",
    "run_stage",
    "OnlineOutcome",
    "run_online_pipeline",
    "static_placement",
    "evaluate_placements",
    "rank_placements",
]
