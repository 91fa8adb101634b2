"""Trace container and serialization.

A :class:`Trace` is the product of one profiling run: time-ordered alloc/
free events, PEBS samples, and run metadata.  Alloc/free events are few
and stay as event-object lists; samples — the bulk of a trace — are held
*columnar* (structure-of-arrays: time/address/counter/rank/latency/weight)
and only materialized into :class:`SampleEvent` objects on demand, so the
vectorized tracer and analyzer can move sample batches without building a
Python object per event.

Two on-disk formats round-trip losslessly and into each other:

- JSON lines (one event per line, header first) — the original
  inspectable format, mirroring the Extrae trace-file -> Paramedir
  workflow;
- ``.npz`` — the sample columns dumped as NumPy arrays, an order of
  magnitude faster to (de)serialize for large traces.

:meth:`Trace.dump` / :meth:`Trace.load` dispatch on the ``.npz`` suffix.
"""

from __future__ import annotations

import json
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.errors import TraceError
from repro.binary.callstack import BOMFrame, HumanFrame, StackFormat
from repro.profiling.events import AllocEvent, FreeEvent, HardwareCounter, SampleEvent

#: fixed counter <-> column-code mapping (the enum is closed)
COUNTERS: Tuple[HardwareCounter, ...] = tuple(HardwareCounter)
COUNTER_CODE: Dict[HardwareCounter, int] = {c: i for i, c in enumerate(COUNTERS)}

#: npz format version; bump when the array layout changes
_NPZ_VERSION = 1


@dataclass(frozen=True)
class TraceMeta:
    """Run metadata recorded in the trace header."""

    workload: str
    ranks: int
    duration: float
    stack_format: StackFormat
    sampling_hz: float

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise TraceError(f"trace duration must be > 0, got {self.duration}")


@dataclass(frozen=True)
class SampleColumns:
    """Read-only structure-of-arrays view of a trace's samples."""

    times: np.ndarray     # float64, seconds since run start
    addresses: np.ndarray  # int64 data linear addresses
    codes: np.ndarray     # uint8 index into COUNTERS
    ranks: np.ndarray     # int32 MPI ranks
    latencies: np.ndarray  # float64, NaN where no latency was recorded
    weights: np.ndarray   # float64 true events per sample

    def __len__(self) -> int:
        return int(self.times.size)


class Trace:
    """An ordered event log plus metadata."""

    def __init__(self, meta: TraceMeta):
        self.meta = meta
        self.allocs: List[AllocEvent] = []
        self.frees: List[FreeEvent] = []
        # columnar sample storage: consolidated chunks + scalar staging
        self._chunks: List[Tuple[np.ndarray, ...]] = []
        self._pending: List[SampleEvent] = []
        self._cols: Optional[SampleColumns] = None
        self._sample_cache: Optional[List[SampleEvent]] = None

    def add_alloc(self, event: AllocEvent) -> None:
        self.allocs.append(event)

    def add_free(self, event: FreeEvent) -> None:
        self.frees.append(event)

    def add_sample(self, event: SampleEvent) -> None:
        """Append one sample (validated by :class:`SampleEvent` itself)."""
        self._pending.append(event)
        self._invalidate()

    def add_sample_batch(
        self,
        times: np.ndarray,
        addresses: np.ndarray,
        counter: HardwareCounter,
        *,
        rank: int = 0,
        latencies: Optional[np.ndarray] = None,
        weight: float = 1.0,
    ) -> None:
        """Append a batch of same-counter samples as columns.

        Applies the same validation :class:`SampleEvent` enforces per
        event, vectorized: non-negative times, positive weight, and no
        latency data on store samples.
        """
        times = np.asarray(times, dtype=np.float64)
        addresses = np.asarray(addresses, dtype=np.int64)
        n = times.size
        if addresses.size != n:
            raise TraceError(
                f"sample batch shape mismatch: {n} times, {addresses.size} addresses"
            )
        if n == 0:
            return
        if times.min() < 0:
            raise TraceError(f"sample event with negative time {times.min()}")
        if weight <= 0:
            raise TraceError(f"sample weight must be > 0, got {weight}")
        if latencies is None:
            lat = np.full(n, np.nan)
        else:
            if counter is HardwareCounter.ALL_STORES:
                raise TraceError("PEBS store samples carry no latency data")
            lat = np.asarray(latencies, dtype=np.float64)
            if lat.size != n:
                raise TraceError(
                    f"sample batch shape mismatch: {n} times, {lat.size} latencies"
                )
        self._flush_pending()
        self._chunks.append((
            times,
            addresses,
            np.full(n, COUNTER_CODE[counter], dtype=np.uint8),
            np.full(n, rank, dtype=np.int32),
            lat,
            np.full(n, weight, dtype=np.float64),
        ))
        self._invalidate()

    @classmethod
    def from_parts(
        cls,
        meta: TraceMeta,
        allocs: List[AllocEvent],
        frees: List[FreeEvent],
        columns: Optional[SampleColumns] = None,
    ) -> "Trace":
        """Assemble a trace directly from event lists and sample columns.

        No cross-event consistency checks are applied — the event streams
        are taken as-is.  This is the constructor the fault injectors use
        to build *deliberately* inconsistent traces (orphan frees,
        overlapping allocations, unattributable samples); consumers are
        expected to detect those at replay time, not here.  The column
        arrays are copied, so the new trace never aliases its inputs.
        """
        trace = cls(meta)
        trace.allocs = list(allocs)
        trace.frees = list(frees)
        if columns is not None and len(columns):
            trace._chunks = [(
                np.array(columns.times, dtype=np.float64, copy=True),
                np.array(columns.addresses, dtype=np.int64, copy=True),
                np.array(columns.codes, dtype=np.uint8, copy=True),
                np.array(columns.ranks, dtype=np.int32, copy=True),
                np.array(columns.latencies, dtype=np.float64, copy=True),
                np.array(columns.weights, dtype=np.float64, copy=True),
            )]
        return trace

    # -- columnar access -------------------------------------------------------

    def sample_columns(self) -> SampleColumns:
        """The consolidated structure-of-arrays view of all samples."""
        if self._cols is None:
            self._flush_pending()
            if not self._chunks:
                self._cols = SampleColumns(
                    times=np.empty(0), addresses=np.empty(0, dtype=np.int64),
                    codes=np.empty(0, dtype=np.uint8),
                    ranks=np.empty(0, dtype=np.int32),
                    latencies=np.empty(0), weights=np.empty(0),
                )
            else:
                if len(self._chunks) == 1:
                    cols = self._chunks[0]
                else:
                    cols = tuple(
                        np.concatenate([c[i] for c in self._chunks])
                        for i in range(6)
                    )
                self._cols = SampleColumns(*cols)
                self._chunks = [cols]
        return self._cols

    @property
    def samples(self) -> List[SampleEvent]:
        """The samples as event objects (materialized lazily, cached)."""
        if self._sample_cache is None:
            self._sample_cache = list(self._iter_samples())
        return self._sample_cache

    def _iter_samples(self, mask: Optional[np.ndarray] = None) -> Iterator[SampleEvent]:
        cols = self.sample_columns()
        idx = range(len(cols)) if mask is None else np.flatnonzero(mask)
        for i in idx:
            lat = float(cols.latencies[i])
            yield SampleEvent(
                time=float(cols.times[i]),
                counter=COUNTERS[cols.codes[i]],
                data_address=int(cols.addresses[i]),
                rank=int(cols.ranks[i]),
                latency_ns=None if np.isnan(lat) else lat,
                weight=float(cols.weights[i]),
            )

    def sort(self) -> None:
        """Time-order each stream (tracers may emit per phase)."""
        self.allocs.sort(key=lambda e: e.time)
        self.frees.sort(key=lambda e: e.time)
        cols = self.sample_columns()
        order = np.argsort(cols.times, kind="stable")
        self._chunks = [tuple(
            getattr(cols, f)[order]
            for f in ("times", "addresses", "codes", "ranks", "latencies", "weights")
        )]
        self._cols = SampleColumns(*self._chunks[0])
        self._sample_cache = None

    # -- stats -----------------------------------------------------------------

    @property
    def num_samples(self) -> int:
        return len(self.sample_columns())

    @property
    def num_events(self) -> int:
        return len(self.allocs) + len(self.frees) + self.num_samples

    def sample_counts(self) -> Dict[HardwareCounter, int]:
        """Per-counter sample counts, from the columnar counter index."""
        counts = np.bincount(self.sample_columns().codes, minlength=len(COUNTERS))
        return {c: int(counts[i]) for i, c in enumerate(COUNTERS)}

    def stats(self) -> dict:
        """Header-level summary used by reporting/docs tooling."""
        return {
            "workload": self.meta.workload,
            "duration_s": self.meta.duration,
            "sampling_hz": self.meta.sampling_hz,
            "stack_format": self.meta.stack_format.value,
            "allocs": len(self.allocs),
            "frees": len(self.frees),
            "samples": self.num_samples,
            "samples_per_counter": {
                c.value: n for c, n in self.sample_counts().items()
            },
        }

    def samples_for(self, counter: HardwareCounter) -> List[SampleEvent]:
        """Samples of one counter, selected through the columnar index."""
        mask = self.sample_columns().codes == COUNTER_CODE[counter]
        return list(self._iter_samples(mask))

    def same_events(self, other: "Trace") -> bool:
        """Bit-exact event equality (metadata, alloc/free lists, columns)."""
        a, b = self.sample_columns(), other.sample_columns()
        return (
            self.meta == other.meta
            and self.allocs == other.allocs
            and self.frees == other.frees
            and np.array_equal(a.times, b.times)
            and np.array_equal(a.addresses, b.addresses)
            and np.array_equal(a.codes, b.codes)
            and np.array_equal(a.ranks, b.ranks)
            and np.array_equal(a.latencies, b.latencies, equal_nan=True)
            and np.array_equal(a.weights, b.weights)
        )

    # -- serialization -------------------------------------------------------

    def dump(self, path: Union[str, Path]) -> None:
        """Write the trace; ``.npz`` suffix selects the binary format."""
        path = Path(path)
        if path.suffix == ".npz":
            self.dump_npz(path)
        else:
            self.dump_jsonl(path)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Trace":
        """Read a trace written by :meth:`dump` (suffix-dispatched)."""
        path = Path(path)
        if path.suffix == ".npz":
            return cls.load_npz(path)
        return cls.load_jsonl(path)

    def _header_dict(self) -> dict:
        return {
            "kind": "header",
            "workload": self.meta.workload,
            "ranks": self.meta.ranks,
            "duration": self.meta.duration,
            "stack_format": self.meta.stack_format.value,
            "sampling_hz": self.meta.sampling_hz,
        }

    @classmethod
    def _from_header(cls, header: dict) -> "Trace":
        return cls(TraceMeta(
            workload=header["workload"],
            ranks=header["ranks"],
            duration=header["duration"],
            stack_format=StackFormat(header["stack_format"]),
            sampling_hz=header["sampling_hz"],
        ))

    def dump_jsonl(self, path: Union[str, Path]) -> None:
        """Write the trace as JSON lines (header first)."""
        path = Path(path)
        cols = self.sample_columns()
        with path.open("w") as fh:
            fh.write(json.dumps(self._header_dict()) + "\n")
            for ev in self.allocs:
                fh.write(json.dumps({
                    "kind": "alloc", "t": ev.time, "addr": ev.address,
                    "size": ev.size, "rank": ev.rank,
                    "site": _encode_site(ev.site_key),
                }) + "\n")
            for ev in self.frees:
                fh.write(json.dumps({
                    "kind": "free", "t": ev.time, "addr": ev.address,
                    "rank": ev.rank,
                }) + "\n")
            for i in range(len(cols)):
                lat = float(cols.latencies[i])
                fh.write(json.dumps({
                    "kind": "sample", "t": float(cols.times[i]),
                    "addr": int(cols.addresses[i]),
                    "counter": COUNTERS[cols.codes[i]].value,
                    "rank": int(cols.ranks[i]),
                    "lat": None if np.isnan(lat) else lat,
                    "w": float(cols.weights[i]),
                }) + "\n")

    @classmethod
    def load_jsonl(cls, path: Union[str, Path]) -> "Trace":
        """Read a trace written by :meth:`dump_jsonl`.

        Every parse failure — malformed JSON (e.g. a file truncated
        mid-record), missing fields, bad enum values, event-level
        validation errors — is wrapped in :class:`TraceError` carrying the
        file path and the 1-based line number of the offending record.
        """
        path = Path(path)
        with path.open() as fh:
            header_line = fh.readline()
            try:
                header = json.loads(header_line)
            except json.JSONDecodeError as exc:
                raise TraceError(f"{path}: bad header line",
                                 path=str(path), record=1) from exc
            if not isinstance(header, dict) or header.get("kind") != "header":
                raise TraceError(f"{path}: first line is not a trace header",
                                 path=str(path), record=1)
            try:
                trace = cls._from_header(header)
            except (KeyError, ValueError, TypeError, TraceError) as exc:
                raise TraceError(f"{path}: bad trace header: {exc}",
                                 path=str(path), record=1) from exc
            fmt = trace.meta.stack_format
            for lineno, line in enumerate(fh, start=2):
                if not line.strip():
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise TraceError(
                        f"{path}:{lineno}: malformed JSON record "
                        f"(truncated or corrupt): {exc}",
                        path=str(path), record=lineno,
                    ) from exc
                kind = rec.get("kind") if isinstance(rec, dict) else None
                try:
                    if kind == "alloc":
                        trace.add_alloc(AllocEvent(
                            time=rec["t"], address=rec["addr"], size=rec["size"],
                            site_key=_decode_site(rec["site"], fmt),
                            rank=rec["rank"],
                        ))
                    elif kind == "free":
                        trace.add_free(FreeEvent(
                            time=rec["t"], address=rec["addr"], rank=rec["rank"],
                        ))
                    elif kind == "sample":
                        trace.add_sample(SampleEvent(
                            time=rec["t"], counter=HardwareCounter(rec["counter"]),
                            data_address=rec["addr"], rank=rec["rank"],
                            latency_ns=rec.get("lat"), weight=rec.get("w", 1.0),
                        ))
                    else:
                        raise TraceError(f"unknown event kind {kind!r}")
                except (KeyError, ValueError, TypeError, TraceError) as exc:
                    raise TraceError(
                        f"{path}:{lineno}: bad {kind or 'event'} record: {exc}",
                        path=str(path), record=lineno,
                    ) from exc
        return trace

    def dump_npz(self, path: Union[str, Path]) -> None:
        """Write the trace as a NumPy ``.npz`` archive (columnar)."""
        cols = self.sample_columns()
        header = dict(self._header_dict(), kind="npz-trace", version=_NPZ_VERSION,
                      counters=[c.value for c in COUNTERS])
        with Path(path).open("wb") as fh:
            np.savez(
                fh,
                header=np.array(json.dumps(header)),
                alloc_t=np.array([e.time for e in self.allocs], dtype=np.float64),
                alloc_addr=np.array([e.address for e in self.allocs], dtype=np.int64),
                alloc_size=np.array([e.size for e in self.allocs], dtype=np.int64),
                alloc_rank=np.array([e.rank for e in self.allocs], dtype=np.int32),
                alloc_site=np.array(
                    [json.dumps(_encode_site(e.site_key)) for e in self.allocs]
                ),
                free_t=np.array([e.time for e in self.frees], dtype=np.float64),
                free_addr=np.array([e.address for e in self.frees], dtype=np.int64),
                free_rank=np.array([e.rank for e in self.frees], dtype=np.int32),
                sample_t=cols.times,
                sample_addr=cols.addresses,
                sample_code=cols.codes,
                sample_rank=cols.ranks,
                sample_lat=cols.latencies,
                sample_w=cols.weights,
            )

    @classmethod
    def load_npz(cls, path: Union[str, Path]) -> "Trace":
        """Read a trace written by :meth:`dump_npz`.

        A truncated or corrupt archive (``zipfile.BadZipFile``, zlib
        decompression errors, missing arrays, malformed records) raises
        :class:`TraceError` with the file path — and, for per-event
        failures, the 0-based array row of the offending record.
        """
        path = Path(path)
        try:
            data = np.load(path, allow_pickle=False)
        except (OSError, ValueError, zipfile.BadZipFile, EOFError) as exc:
            raise TraceError(f"{path}: not a readable npz trace: {exc}",
                             path=str(path)) from exc
        with data:
            try:
                header = json.loads(str(data["header"][()]))
            except TraceError:
                raise
            except Exception as exc:
                raise TraceError(f"{path}: bad npz trace header: {exc}",
                                 path=str(path)) from exc
            if not isinstance(header, dict) or header.get("kind") != "npz-trace":
                raise TraceError(f"{path}: not an npz trace archive",
                                 path=str(path))
            if header.get("version") != _NPZ_VERSION:
                raise TraceError(
                    f"{path}: npz trace version {header.get('version')!r}, "
                    f"expected {_NPZ_VERSION}", path=str(path),
                )
            if header.get("counters") != [c.value for c in COUNTERS]:
                raise TraceError(f"{path}: counter legend mismatch",
                                 path=str(path))
            try:
                trace = cls._from_header(header)
            except (KeyError, ValueError, TypeError, TraceError) as exc:
                raise TraceError(f"{path}: bad npz trace header: {exc}",
                                 path=str(path)) from exc
            fmt = trace.meta.stack_format
            try:
                alloc_cols = (data["alloc_t"], data["alloc_addr"],
                              data["alloc_size"], data["alloc_rank"],
                              data["alloc_site"])
                free_cols = (data["free_t"], data["free_addr"],
                             data["free_rank"])
                sample_cols = (data["sample_t"], data["sample_addr"],
                               data["sample_code"], data["sample_rank"],
                               data["sample_lat"], data["sample_w"])
            except (KeyError, ValueError, OSError, zipfile.BadZipFile,
                    zlib.error, EOFError) as exc:
                raise TraceError(f"{path}: corrupt npz trace: {exc}",
                                 path=str(path)) from exc
            for i, (t, addr, size, rank, site) in enumerate(zip(*alloc_cols)):
                try:
                    trace.add_alloc(AllocEvent(
                        time=float(t), address=int(addr), size=int(size),
                        site_key=_decode_site(json.loads(str(site)), fmt),
                        rank=int(rank),
                    ))
                except (KeyError, ValueError, TypeError, TraceError) as exc:
                    raise TraceError(
                        f"{path}: alloc record {i}: {exc}",
                        path=str(path), record=i,
                    ) from exc
            for i, (t, addr, rank) in enumerate(zip(*free_cols)):
                try:
                    trace.add_free(FreeEvent(
                        time=float(t), address=int(addr), rank=int(rank),
                    ))
                except (ValueError, TypeError, TraceError) as exc:
                    raise TraceError(
                        f"{path}: free record {i}: {exc}",
                        path=str(path), record=i,
                    ) from exc
            if sample_cols[0].size:
                trace._chunks = [(
                    sample_cols[0].astype(np.float64, copy=True),
                    sample_cols[1].astype(np.int64, copy=True),
                    sample_cols[2].astype(np.uint8, copy=True),
                    sample_cols[3].astype(np.int32, copy=True),
                    sample_cols[4].astype(np.float64, copy=True),
                    sample_cols[5].astype(np.float64, copy=True),
                )]
        return trace

    # -- internals -------------------------------------------------------------

    def _invalidate(self) -> None:
        self._cols = None
        self._sample_cache = None

    def _flush_pending(self) -> None:
        if not self._pending:
            return
        events = self._pending
        self._pending = []
        self._chunks.append((
            np.array([e.time for e in events], dtype=np.float64),
            np.array([e.data_address for e in events], dtype=np.int64),
            np.array([COUNTER_CODE[e.counter] for e in events], dtype=np.uint8),
            np.array([e.rank for e in events], dtype=np.int32),
            np.array(
                [np.nan if e.latency_ns is None else e.latency_ns for e in events],
                dtype=np.float64,
            ),
            np.array([e.weight for e in events], dtype=np.float64),
        ))


def _encode_site(site_key: Tuple) -> list:
    frames = []
    for f in site_key:
        if isinstance(f, BOMFrame):
            frames.append(["bom", f.object_name, f.offset])
        elif isinstance(f, HumanFrame):
            frames.append(["human", f.source_file, f.line])
        else:
            raise TraceError(f"cannot serialize frame {f!r}")
    return frames


def _decode_site(frames: list, fmt: StackFormat) -> Tuple:
    out = []
    for kind, a, b in frames:
        if kind == "bom":
            out.append(BOMFrame(object_name=a, offset=b))
        elif kind == "human":
            out.append(HumanFrame(source_file=a, line=b))
        else:
            raise TraceError(f"unknown frame kind {kind!r}")
    decoded = tuple(out)
    expect = BOMFrame if fmt is StackFormat.BOM else HumanFrame
    if decoded and not isinstance(decoded[0], expect):
        raise TraceError(
            f"trace header says {fmt.value} but frames are {type(decoded[0]).__name__}"
        )
    return decoded
