"""Tests of the benchmark's tracing: self-time arithmetic and wrapper removal.

    python3 -m pytest perfbench
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import layers  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402


def test_self_time_is_duration_minus_covered_child_interval():
    spans = [
        Span(0, None, "root", 0.0, 10.0),
        Span(1, 0, "a", 1.0, 3.0),  # overlaps its sibling, as on another thread
        Span(2, 0, "b", 2.0, 5.0),
        Span(3, 0, "c", 9.0, 12.0),  # ends after its parent
        Span(4, 1, "a.child", 1.5, 2.0),
        Span(5, None, "other", 4.0, 6.0),  # overlaps root but is not its child
        Span(6, 0, "late", 11.0, 12.0),  # starts after its parent ended
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 1.0)  # covered: [1, 5] and [9, 10]
    assert selfs[1] == pytest.approx(2.0 - 0.5)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(0.5)
    assert selfs[5] == pytest.approx(2.0)
    assert selfs[6] == pytest.approx(1.0)


def _bound(bindings):
    return {
        (b.module, b.attr): getattr(importlib.import_module(b.module), b.attr) for b in bindings
    }


def test_wrappers_are_removed_after_traced_run():
    import oxgrid.distributions
    import oxgrid.generators
    import oxgrid.harness

    bindings = layers.bindings()
    originals = _bound(bindings)
    tracer = Tracer()
    with tracer.installed(bindings):
        assert oxgrid.generators.sample_truncated is not oxgrid.distributions.sample_truncated
        oxgrid.harness.sweep_giant([(30, 30, 60)], reps=4, seed=1, threads=2)
    restored = _bound(bindings)
    assert all(restored[key] is fn for key, fn in originals.items())
    assert oxgrid.generators.sample_truncated is oxgrid.distributions.sample_truncated
    assert oxgrid.harness.sample_tp is oxgrid.generators.sample_tp

    # spans from the harness's worker threads hang under the sweep call
    sweep = [s for s in tracer.spans if s.name == "harness.sweep_giant"]
    samples = [s for s in tracer.spans if s.name == "generators.sample_tp"]
    assert len(sweep) == 1 and len(samples) == 4
    assert all(s.parent == sweep[0].id for s in samples)
    assert not tracer.problems

    with pytest.raises(RuntimeError):
        with tracer.installed(bindings):
            raise RuntimeError("traced block failed")
    restored = _bound(bindings)
    assert all(restored[key] is fn for key, fn in originals.items())
