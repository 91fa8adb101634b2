"""The staged ecoHMEM pipeline: trace → profile → placement → run.

Each stage is an individually addressable function whose output is keyed
by a content address — a sha256 over the upstream artifacts' keys plus
the canonical encoding of the stage's own spec (the exact JSON codec
from :mod:`repro.experiments.sweep.codec`).  Keys are computed the same
way everywhere, so the CLI, the experiment harness
(:func:`repro.experiments.harness.run_ecohmem` delegates here), and the
placement service (:mod:`repro.service`) all share one engine and one
cache.

The :class:`~repro.pipeline.artifacts.ArtifactStore` is the pipeline's
only on-disk cache: sharded directories, atomic tmpdir-rename publish (a
SIGKILL mid-publish can never leave a torn artifact visible to readers).
Profile artifacts shortcut the tracer + analyzer (behind the in-memory
``ProfileStore`` LRU), placement artifacts shortcut the advisor, and run
artifacts record provenance (run results embed timelines that are not
codec-serializable, so they are summaries, never read back).
"""

from repro.pipeline.artifacts import (
    ArtifactStore,
    artifact_key,
    reset_default_artifact_store,
    resolve_artifact_store,
)
from repro.pipeline.stages import (
    PlacementOutcome,
    PlacementSpec,
    PreparedRun,
    RunSpec,
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
    "PlacementSpec",
    "PreparedRun",
    "RunSpec",
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
