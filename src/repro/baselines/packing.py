"""Columnar packs for the baselines' DRAM/PMem traffic.

Memory mode and kernel tiering send every contribution to ``dram``,
``pmem`` or both.  Their ``traffic_batch`` methods compute per-pair
columns over the kept (segment, instance) pairs, in the scalar
``segment_traffic`` order, and :func:`two_tier_batch` assembles them
into the :class:`~repro.runtime.traffic.TrafficBatch` the generic
per-segment replay (:func:`~repro.runtime.traffic.pack_traffic_batch`)
would build, field for field:

- bucket sums are ``np.bincount`` scatter-adds, which add in input order
  from ``0.0`` exactly as the scalar ``SubsystemTraffic.add`` calls do;
  a pair that skips a bucket adds ``0.0``, which leaves every
  non-negative sum unchanged;
- the by-object rows, built only when first read, are the
  (segment, site) groups in first-touch order, each emitting its
  ``dram`` row before its ``pmem`` row (the order both models call
  ``record_object`` in);
- site and object-subsystem names are numbered by first appearance.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.runtime.plan import WorkloadPlan
from repro.runtime.traffic import (
    ObjectFields,
    TrafficBatch,
    _PlacementPackBase,
)

#: one bucket's additions: (segment, loads, stores, serial_loads) columns
Adds = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

#: one object row kind's per-pair (recorded, loads, stores) columns
ObjColumns = Tuple[np.ndarray, np.ndarray, np.ndarray]


def builtin_sum(values: np.ndarray) -> float:
    """``sum(values.tolist())``: the scalar baselines' reduction."""
    return sum(values.tolist())


def segment_sums(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """The builtin ``sum`` of each segment's slice of ``values``.

    ``bounds[s]:bounds[s + 1]`` is segment ``s``'s slice.  The builtin
    ``sum`` is the scalar path's own reduction, so the result is exact
    whatever rounding the interpreter's ``sum`` applies.
    """
    v = values.tolist()
    b = bounds.tolist()
    return np.array([sum(v[lo:hi]) for lo, hi in zip(b[:-1], b[1:])],
                    dtype=float)


def two_tier_batch(
    plan: WorkloadPlan,
    subsystem_names: Sequence[str],
    pairs: _PlacementPackBase,
    *,
    dram: Adds,
    pmem: Adds,
    dram_present: np.ndarray,
    pmem_present: np.ndarray,
    dram_first: np.ndarray,
    objects: Callable[[], Tuple[ObjColumns, ObjColumns]],
    extra_latency_ns: Tuple[float, float] = (0.0, 0.0),
) -> TrafficBatch:
    """Assemble a ``TrafficBatch`` from per-pair DRAM/PMem columns.

    ``pairs`` holds the kept pairs in scalar order and their
    (segment, site) groups: the plan's pack base, or one built with the
    model's own keep rule.  Only its groups and site names are read.
    ``dram``/``pmem`` are each bucket's additions in call order.  The
    presence masks and ``dram_first`` (the ``dram`` bucket was created
    before ``pmem``) are per segment.  ``extra_latency_ns`` is set on
    present cells.

    The row matrices are set now; the object rows are built on first
    read (:meth:`TrafficBatch.deferred`).  ``objects()`` returns their
    per-pair inputs ``(obj_dram, obj_pmem)``, each ``(recorded, loads,
    stores)`` per kept pair: whether the pair records that row, and its
    values; a (segment, site) group records the same rows for every
    member.  It should keep only what it needs to recompute them, since
    the batch holds it until the rows are read.  Rows over a pair base
    other than the plan's are built at once, so the batch never keeps
    such a base alive.
    """
    S = plan.segments.num_segments
    K = len(subsystem_names)
    colmap = {name: k for k, name in enumerate(subsystem_names)}
    d, p = colmap["dram"], colmap["pmem"]

    loads = np.zeros((S, K))
    stores = np.zeros((S, K))
    serial = np.zeros((S, K))
    extra = np.zeros((S, K))
    present = np.zeros((S, K), dtype=bool)
    order_pos = np.full((S, K), np.inf)
    row_pos = np.arange(0.0, S * K, K)
    for col, adds, here, rank, ns in (
        (d, dram, dram_present, np.where(dram_first, 0.0, pmem_present),
         extra_latency_ns[0]),
        (p, pmem, pmem_present, np.where(dram_first, dram_present, 0.0),
         extra_latency_ns[1]),
    ):
        idx = adds[0]
        loads[:, col] = np.bincount(idx, weights=adds[1], minlength=S)
        stores[:, col] = np.bincount(idx, weights=adds[2], minlength=S)
        serial[:, col] = np.bincount(idx, weights=adds[3], minlength=S)
        extra[:, col] = np.where(here, ns, 0.0)
        present[:, col] = here
        order_pos[:, col] = np.where(here, row_pos + rank, np.inf)

    batch = TrafficBatch.deferred(
        partial(_two_tier_object_rows, pairs, objects),
        subsystems=list(subsystem_names),
        loads=loads, stores=stores, serial_loads=serial,
        extra_latency_ns=extra, present=present, order_pos=order_pos,
    )
    if pairs is not plan.pack_base:
        batch.obj_seg  # builds the rows and lets go of the private base
    return batch


def _two_tier_object_rows(
    pairs: _PlacementPackBase,
    objects: Callable[[], Tuple[ObjColumns, ObjColumns]],
) -> ObjectFields:
    """The by-object rows of :func:`two_tier_batch`, per (segment, site)
    group in first-touch order, ``dram`` row before ``pmem`` row."""
    obj_dram, obj_pmem = objects()
    ginv, gfirst = pairs.ginv, pairs.gfirst
    gseg, gsite = pairs.obj_seg_ord, pairs.obj_site_ord
    G = gfirst.size

    def group_sum(w: np.ndarray) -> np.ndarray:
        return np.bincount(ginv, weights=w, minlength=G)

    rec_d = obj_dram[0][gfirst]
    rec_p = obj_pmem[0][gfirst]
    nrows = rec_d.astype(np.int64) + rec_p
    row_g = np.repeat(np.arange(G), nrows)
    within = np.arange(row_g.size) - np.repeat(np.cumsum(nrows) - nrows, nrows)
    is_pmem = (within == 1) | ~rec_d[row_g]
    obj_loads = np.where(is_pmem, group_sum(obj_pmem[1])[row_g],
                         group_sum(obj_dram[1])[row_g])
    obj_stores = np.where(is_pmem, group_sum(obj_pmem[2])[row_g],
                          group_sum(obj_dram[2])[row_g])

    # object subsystems numbered by first appearance
    pmem_first = bool(is_pmem[0]) if is_pmem.size else False
    obj_sub = (is_pmem != pmem_first).astype(np.int64)
    sub_names: List[str] = (["pmem", "dram"] if pmem_first
                            else ["dram", "pmem"])[:obj_sub.max(initial=-1) + 1]

    # sites numbered by first appearance (rows list groups in first-touch
    # order, so a site's first row is its first kept pair)
    site_order = pairs.site_order
    renum = np.zeros(max(len(pairs.site_names), 1), dtype=np.int64)
    renum[site_order] = np.arange(site_order.size)

    return ([pairs.site_names[i] for i in site_order.tolist()], sub_names,
            gseg[row_g], renum[gsite[row_g]], obj_sub, obj_loads, obj_stores)
