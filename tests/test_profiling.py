"""StepProfiler: span accounting, attach/detach lifecycle, reporting."""

from __future__ import annotations

import time

import pytest

from repro import profiling
from repro.profiling import StepProfiler, span
from repro.profiling.profiler import _NOOP, CORE_PHASES


class TestSpanLifecycle:
    def test_detached_span_is_shared_noop(self):
        first = span("attend")
        second = span("gather")
        assert first is _NOOP
        assert second is _NOOP
        with first:
            pass  # must be usable as a context manager

    def test_spans_record_only_while_attached(self):
        profiler = StepProfiler()
        with span("attend"):
            pass
        assert profiler.phase_times == {}
        with profiler:
            with span("attend"):
                pass
        with span("attend"):
            pass
        assert profiler.phase_counts == {"attend": 1}

    def test_double_attach_raises(self):
        profiler = StepProfiler()
        with profiler:
            with pytest.raises(RuntimeError, match="already attached"):
                profiler.attach()

    def test_detach_is_idempotent_and_restores_previous_sink(self):
        outer, inner = StepProfiler(), StepProfiler()
        with outer:
            with inner:
                with span("gather"):
                    pass
            with span("dequant"):
                pass
        inner.detach()  # second detach: no-op
        assert profiling.profiler._SINK is None
        assert "gather" in inner.phase_times
        assert "dequant" in outer.phase_times
        assert "gather" not in outer.phase_times


class TestExclusiveAccounting:
    def test_nested_child_time_is_charged_to_inner_phase_only(self):
        profiler = StepProfiler()
        with profiler:
            with span("step"):
                with span("attend"):
                    time.sleep(0.02)
                time.sleep(0.005)
        # attend owns its sleep; the step span keeps only its self-time,
        # reported as bookkeeping.
        assert profiler.phase_times["attend"] >= 0.02
        assert profiler.phase_times["bookkeeping"] < 0.02
        assert profiler.phase_times["bookkeeping"] >= 0.005

    def test_phases_sum_to_stepped_wall_time(self):
        profiler = StepProfiler()
        with profiler:
            for _ in range(3):
                with span("step"):
                    with span("project"):
                        time.sleep(0.002)
                    with span("attend"):
                        with span("gather"):
                            time.sleep(0.002)
        assert profiler.n_steps == 3
        total = sum(profiler.phase_times.values())
        assert total == pytest.approx(profiler.total_seconds, rel=1e-6)

    def test_step_span_feeds_percentiles(self):
        profiler = StepProfiler()
        durations = (0.001, 0.003, 0.02)
        with profiler:
            for duration in durations:
                with span("step"):
                    time.sleep(duration)
        assert profiler.step_percentile(0.0) >= durations[0]
        assert profiler.step_percentile(1.0) >= durations[-1]
        assert profiler.step_percentile(0.5) <= profiler.step_percentile(1.0)
        assert "step" not in profiler.phase_times  # renamed to bookkeeping
        assert profiler.phase_counts["bookkeeping"] == 3


class TestEnginePublishing:
    class _FakeStats:
        def __init__(self):
            self.phase_times: dict[str, float] = {"attend": 1.0}

    class _FakeEngine:
        def __init__(self):
            self.exec_stats = TestEnginePublishing._FakeStats()

    def test_detach_merges_phase_times_into_engine_stats(self):
        engine = self._FakeEngine()
        profiler = StepProfiler(engine)
        with profiler:
            with span("attend"):
                time.sleep(0.001)
            with span("mlp"):
                pass
        published = engine.exec_stats.phase_times
        assert published["attend"] == pytest.approx(
            1.0 + profiler.phase_times["attend"]
        )
        assert published["mlp"] == profiler.phase_times["mlp"]

    def test_engine_without_stats_is_tolerated(self):
        profiler = StepProfiler(object())
        with profiler:
            with span("attend"):
                pass
        assert profiler.phase_counts["attend"] == 1


class TestReporting:
    def _record(self) -> StepProfiler:
        profiler = StepProfiler()
        with profiler:
            with span("step"):
                with span("attend"):
                    time.sleep(0.002)
        return profiler

    def test_breakdown_fractions_sum_to_one(self):
        profiler = self._record()
        breakdown = profiler.phase_breakdown()
        assert sum(breakdown.values()) == pytest.approx(1.0)
        assert list(breakdown) == sorted(
            breakdown, key=lambda name: -breakdown[name]
        )
        assert StepProfiler().phase_breakdown() == {}

    def test_summary_and_table(self):
        profiler = self._record()
        summary = profiler.summary()
        assert summary["n_steps"] == 1
        assert summary["phase_seconds"].keys() == profiler.phase_times.keys()
        table = profiler.profile_table()
        assert "attend" in table and "bookkeeping" in table
        assert "us/call" in table

    def test_core_phase_names_cover_engine_annotations(self):
        assert {"schedule", "gather", "dequant", "project", "attend", "mlp",
                "logits", "bookkeeping"} == set(CORE_PHASES)

    def test_cprofile_capture(self):
        profiler = StepProfiler(cprofile=True)
        with profiler:
            sorted(range(1000), key=lambda x: -x)
        report = profiler.top_functions(5)
        assert "cumulative" in report
        with pytest.raises(RuntimeError, match="cprofile"):
            StepProfiler().top_functions()
