"""The span recorder: self-time arithmetic across threads, clean restore."""

import sys
import threading
import types

import pytest

from bench.trace import SpanRecorder, Target


class _ThreadClock:
    """A clock each thread advances by hand, so durations are exact."""

    def __init__(self):
        self._local = threading.local()

    def __call__(self) -> float:
        return getattr(self._local, "t", 0.0)

    def tick(self, dt: float) -> None:
        self._local.t = self() + dt


def test_self_time_nested_across_two_threads():
    clock = _ThreadClock()
    rec = SpanRecorder(clock=clock)
    leaf = rec.wrap(lambda: clock.tick(2.0), "leaf", "layer.leaf")

    def middle_body():
        clock.tick(1.0)
        leaf()
        clock.tick(0.5)

    middle = rec.wrap(middle_body, "middle", "layer.middle")

    def outer_body():
        clock.tick(3.0)
        middle()
        leaf()
        clock.tick(4.0)

    outer = rec.wrap(outer_body, "outer", "layer.outer")
    barrier = threading.Barrier(2)

    def worker():
        barrier.wait(timeout=10)
        for _ in range(50):
            outer()

    threads = [threading.Thread(target=worker) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)

    # per call: outer 3+4 self, middle 1+0.5 self, two leaves of 2 each
    calls = 2 * 50
    assert rec.self_time_by_layer() == pytest.approx({
        "layer.outer": 7.0 * calls,
        "layer.middle": 1.5 * calls,
        "layer.leaf": 4.0 * calls,
    })
    assert rec.duration_of("layer.outer") == pytest.approx(12.5 * calls)
    by_id = {s.id: s for s in rec.spans}
    for span in rec.spans:
        if span.name == "outer":
            assert span.parent is None
        else:
            parent = by_id[span.parent]
            assert parent.thread == span.thread
            assert parent.start <= span.start and span.end <= parent.end


def test_counts_and_exceptions_still_close_the_span():
    rec = SpanRecorder()

    def boom():
        raise RuntimeError("x")

    wrapped = rec.wrap(boom, "boom", "layer.boom")
    counted = rec.wrap(lambda n: list(range(n)), "count", "layer.count",
                       count=lambda args, kwargs, result: {"items": len(result)})
    with pytest.raises(RuntimeError):
        wrapped()
    counted(3)
    counted(4)
    assert [s.name for s in rec.spans] == ["boom", "count", "count"]
    assert rec.counts == {"items": 7}
    assert rec._stack() == []


def _fake_modules():
    mod = types.ModuleType("fakebench.mod")

    def func(x):
        return x + 1

    class Thing:
        def method(self):
            return mod.func(1)

        @classmethod
        def make(cls):
            return cls()

        @staticmethod
        def helper():
            return 5

    mod.func = func
    mod.Thing = Thing
    other = types.ModuleType("fakebench.other")
    other.alias = func
    other.unrelated = len
    return mod, other


def test_install_patches_every_binding_and_restores_originals():
    mod, other = _fake_modules()
    raw = dict(mod.Thing.__dict__)
    sys.modules[mod.__name__] = mod
    sys.modules[other.__name__] = other
    try:
        rec = SpanRecorder()
        targets = [
            Target("l.func", "fakebench.mod", "func"),
            Target("l.method", "fakebench.mod", "Thing.method"),
            Target("l.make", "fakebench.mod", "Thing.make"),
            Target("l.helper", "fakebench.mod", "Thing.helper"),
        ]
        original = mod.func
        with rec.installed(targets, prefixes=("fakebench",)):
            assert mod.func is not original and other.alias is mod.func
            assert isinstance(mod.Thing.__dict__["make"], classmethod)
            assert isinstance(mod.Thing.__dict__["helper"], staticmethod)
            assert other.alias(1) == 2
            assert mod.Thing.make().method() == 2
            assert mod.Thing.helper() == 5
        assert mod.func is original and other.alias is original
        assert other.unrelated is len
        for name in ("method", "make", "helper"):
            assert mod.Thing.__dict__[name] is raw[name]
        names = [s.name for s in rec.spans]
        assert names.count("func") == 2
        assert {"Thing.method", "Thing.make", "Thing.helper"} <= set(names)
        method_span = next(s for s in rec.spans if s.name == "Thing.method")
        inner = [s for s in rec.spans if s.parent == method_span.id]
        assert [s.name for s in inner] == ["func"]
    finally:
        del sys.modules[mod.__name__]
        del sys.modules[other.__name__]


def test_task_spans_wrap_submitted_callables():
    from concurrent.futures import ThreadPoolExecutor

    rec = SpanRecorder()
    original = ThreadPoolExecutor.__dict__["submit"]
    rec.install_task_spans(ThreadPoolExecutor, "submit", "svc")
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            assert [pool.submit(pow, 2, k).result() for k in range(4)] == [1, 2, 4, 8]
    finally:
        rec.restore()
    assert ThreadPoolExecutor.__dict__["submit"] is original
    assert [s.layer for s in rec.spans] == ["svc"] * 4
    assert all(s.thread != threading.get_ident() for s in rec.spans)
