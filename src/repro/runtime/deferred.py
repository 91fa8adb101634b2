"""Fields built on first read.

Most callers read a few fields of what the engine hands back: a sweep
ranks runs by ``total_time``, and the fixed point reads a traffic pack's
row matrices only.  :class:`Deferred` lets a dataclass set those fields
at once and leave a group of costlier ones to a builder that runs only
when one of them is read.
"""

from __future__ import annotations

import threading
from typing import Callable, ClassVar, Tuple


class Deferred:
    """Mixin for a dataclass whose ``_DEFERRED`` fields one builder makes.

    :meth:`_defer` makes an instance with every other field set now and
    the ``_DEFERRED`` group held as a builder.  The first read of any
    field of the group runs the builder once, under a per-instance lock,
    and stores the tuple it returns as plain attributes
    (``__getattr__`` is reached only while they are missing), so two
    threads reading at once share one build.  Pickling and copying build
    first and drop the builder and lock, so an instance crosses a process
    pool whole.  An instance made by the dataclass constructor has every
    field and never reaches the builder path.
    """

    _DEFERRED: ClassVar[Tuple[str, ...]] = ()

    @classmethod
    def _defer(cls, build: Callable[[], tuple], **fields):
        """An instance with ``fields`` set and ``_DEFERRED`` from ``build()``."""
        obj = cls.__new__(cls)
        obj.__dict__.update(fields, _build=build, _lock=threading.Lock())
        return obj

    def __getattr__(self, name: str):
        # reached only for attributes missing from __dict__: the deferred
        # group of an instance nobody has read yet
        if name not in self._DEFERRED:
            raise AttributeError(name)
        with self._lock:
            build = self.__dict__.get("_build")
            if build is not None:
                self.__dict__.update(zip(self._DEFERRED, build()))
                del self.__dict__["_build"]
        return self.__dict__[name]

    def __getstate__(self) -> dict:
        getattr(self, self._DEFERRED[0])  # builds a deferred group
        state = dict(self.__dict__)
        state.pop("_lock", None)
        return state
