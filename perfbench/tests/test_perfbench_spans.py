"""Self-time arithmetic and function wrapping of the benchmark's tracer."""
import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from spans import Span, Tracer, self_times, union_length  # noqa: E402


def test_union_length_merges_overlaps_and_keeps_gaps():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == pytest.approx(4.0)
    assert union_length([(5.0, 6.0), (0.0, 10.0)]) == pytest.approx(10.0)


def test_self_time_nested_spans():
    spans = [
        Span(0, "outer", 1, 0.0, 10.0, None),
        Span(1, "mid", 1, 1.0, 4.0, 0),
        Span(2, "inner", 1, 1.5, 2.5, 1),
        Span(3, "mid", 1, 6.0, 7.0, 0),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 3.0 - 1.0)
    assert own[1] == pytest.approx(3.0 - 1.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(1.0)


def test_self_time_overlapping_children_counted_once_and_clipped():
    spans = [
        Span(0, "pipeline", 1, 0.0, 10.0, None),
        Span(1, "country", 2, 1.0, 5.0, 0),
        Span(2, "country", 3, 2.0, 6.0, 0),
        Span(3, "country", 4, 9.0, 12.0, 0),  # ends after its parent
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert sum(own.values()) == pytest.approx(4.0 + 4.0 + 4.0 + 3.0)


def test_pool_spans_attach_to_the_main_thread_caller():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda x: x * 2)

    def fan_out(n):
        with ThreadPoolExecutor(max_workers=3) as pool:
            return list(pool.map(leaf, range(n)))

    assert tracer.wrap("root", fan_out)(6) == [0, 2, 4, 6, 8, 10]
    root = [s for s in tracer.spans if s.name == "root"]
    leaves = [s for s in tracer.spans if s.name == "leaf"]
    assert len(root) == 1 and len(leaves) == 6
    assert all(s.parent == root[0].id for s in leaves)
    assert any(s.thread != threading.main_thread().ident for s in leaves)


def test_install_wraps_every_binding_and_records_missing_names(monkeypatch):
    def f(x):
        return x + 1

    pkg = types.ModuleType("fakepkg")
    pkg.__path__ = []
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")
    a.f = f
    b.f = f  # as after `from .a import f`
    pkg.f = f
    for name, mod in (("fakepkg", pkg), ("fakepkg.a", a), ("fakepkg.b", b)):
        monkeypatch.setitem(sys.modules, name, mod)

    tracer = Tracer()
    tracer.install("fakepkg", {"a": ("f", "gone"), "nomod": ("g",)},
                   {"a.f": lambda t, args, kwargs, result: t.add("seen", result)})
    assert a.f is b.f is pkg.f is not f
    assert b.f(1) == 2 and pkg.f(2) == 3
    assert [s.name for s in tracer.spans] == ["a.f", "a.f"]
    assert tracer.counts["seen"] == 5
    assert sorted(tracer.missing) == ["a.gone", "nomod.g"]
