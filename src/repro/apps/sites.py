"""Wiring allocation sites to concrete binaries and call stacks.

A workload names its sites symbolically (image + function chain); this
module synthesizes the binary images containing those functions, loads
them into per-process ASLR'd address spaces, and produces the raw
:class:`~repro.binary.callstack.CallStack` a process would capture at each
site.  Because each process gets different load bases, the same site
yields different raw frames per process/run — which is precisely the
problem the BOM / human-readable formats solve.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import WorkloadError
from repro.binary.aslr import AddressSpace
from repro.binary.callstack import CallStack, StackFormat
from repro.binary.image import BinaryImage, Symbol
from repro.apps.workload import AllocationSite, Workload

#: Offset into a function's code where the call instruction sits.  Using a
#: fixed fraction keeps frames deterministic per (image, function).
_CALL_OFFSET_FRACTION = 0.4


class SiteRegistry:
    """Builds and caches the binary images for a workload's sites.

    One registry serves all processes of a run: images are immutable and
    shared; per-process state (load bases) lives in :class:`ProcessImage`.
    What does not depend on the load bases is computed once per registry
    and shared by its processes: each function's call offset, and each
    site's BOM and HUMAN keys.  A workload's default registry is
    :attr:`Workload.site_registry <repro.apps.workload.Workload.site_registry>`,
    built once per workload.
    """

    def __init__(self, workload: Workload, *, with_debug_info: bool = True,
                 functions_per_image: int = 64, seed: int = 0,
                 debug_line_interval: int = 128,
                 debug_bytes_per_entry: int = 48):
        self.workload = workload
        self.debug_line_interval = debug_line_interval
        self.debug_bytes_per_entry = debug_bytes_per_entry
        self._images: Dict[str, BinaryImage] = {}
        self._call_offsets: Dict[Tuple[str, str], int] = {}
        #: (site name, format) -> BOM/HUMAN key, the same in every process;
        #: threads racing on a miss store equal keys, so it needs no lock
        self._stable_keys: Dict[Tuple[str, StackFormat], Tuple] = {}
        self._build_images(with_debug_info, functions_per_image, seed)

    def _build_images(self, with_debug_info: bool, extra_funcs: int, seed: int) -> None:
        # collect every function name used per image
        funcs_by_image: Dict[str, List[str]] = {}
        for site in self.workload.sites():
            bucket = funcs_by_image.setdefault(site.image, [])
            for fn in site.stack:
                if fn not in bucket:
                    bucket.append(fn)
        for image_name, funcs in funcs_by_image.items():
            # pad with filler functions so binaries have realistic symbol
            # counts (affects human-readable resolution cost)
            all_funcs = list(funcs) + [f"{image_name}::pad{i}" for i in range(extra_funcs)]
            symbols = []
            line_table = []
            offset = 0x1000
            for i, fn in enumerate(all_funcs):
                # crc32, not hash(): builtin str hashing is salted per
                # process (PYTHONHASHSEED), which would shift symbol sizes
                # — and hence BOM offsets — between invocations, breaking
                # the cross-process profile cache and Table I's stability
                size = 2048 + (zlib.crc32(f"{image_name}\0{fn}".encode()) % 4096)
                symbols.append(Symbol(name=fn, offset=offset, size=size))
                if with_debug_info:
                    src = f"{image_name.split('.')[0]}/{fn.split('::')[-1]}.cpp"
                    step = self.debug_line_interval
                    for k in range(0, size, step):
                        line_table.append((offset + k, src, 100 + k // step))
                self._call_offsets[(image_name, fn)] = (
                    offset + int(size * _CALL_OFFSET_FRACTION))
                offset += size + 16
            self._images[image_name] = BinaryImage(
                image_name,
                offset + 0x1000,
                symbols,
                line_table=line_table if with_debug_info else None,
                debug_bytes_per_entry=self.debug_bytes_per_entry,
            )

    @property
    def images(self) -> Dict[str, BinaryImage]:
        return dict(self._images)

    def call_offset(self, image: str, function: str) -> int:
        """The in-image offset of the call frame inside ``function``."""
        try:
            return self._call_offsets[(image, function)]
        except KeyError:
            raise WorkloadError(
                f"function {function!r} not in image {image!r}"
            ) from None

    def make_process(self, rank: int, *, aslr_seed: Optional[int]) -> "ProcessImage":
        """Create one process's loaded view of the workload's images."""
        space = AddressSpace(pid=rank, aslr_seed=aslr_seed)
        for image in self._images.values():
            space.load(image)
        return ProcessImage(registry=self, space=space, rank=rank)

    def total_debug_info_bytes(self) -> int:
        return sum(img.debug_info_bytes for img in self._images.values())


@dataclass
class ProcessImage:
    """One process's address space plus cached per-site call stacks and
    site keys."""

    registry: SiteRegistry
    space: AddressSpace
    rank: int

    def __post_init__(self) -> None:
        self._stacks: Dict[str, CallStack] = {}
        self._raw_keys: Dict[str, Tuple] = {}

    def callstack(self, site: AllocationSite) -> CallStack:
        """The raw call stack this process captures at ``site``."""
        cached = self._stacks.get(site.name)
        if cached is not None:
            return cached
        addrs = []
        for fn in site.stack:
            offset = self.registry.call_offset(site.image, fn)
            addrs.append(self.space.absolute(site.image, offset))
        stack = CallStack.from_addresses(addrs)
        self._stacks[site.name] = stack
        return stack

    def site_key(self, site: AllocationSite, fmt: StackFormat) -> Tuple:
        """The key of a site in ``fmt`` as seen by this process.

        BOM and HUMAN keys do not depend on the load bases (that is their
        point, Table I), so they are translated once per registry and
        read from its cache by every process.  RAW keys are this
        process's absolute addresses, translated once per process.
        """
        if fmt is StackFormat.RAW:
            key = self._raw_keys.get(site.name)
            if key is None:
                key = self._raw_keys[site.name] = self.callstack(site).key(
                    self.space, fmt)
            return key
        stable = self.registry._stable_keys
        key = stable.get((site.name, fmt))
        if key is None:
            key = stable[(site.name, fmt)] = self.callstack(site).key(
                self.space, fmt)
        return key
