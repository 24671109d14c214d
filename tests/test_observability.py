"""Tests for the span tracer and the structured trace report.

Covers the tracer mechanics (nesting, counters, ambient activation,
Stopwatch integration), the golden schema of the ``--trace`` JSON
artefact, and the acceptance criterion that the per-stage times of a
traced TD-AC run account for (within 5%) the measured wall time.
"""

import json
import time

import pytest

from repro.cli import main as cli_main
from repro.metrics.timing import Stopwatch, Timer
from repro.observability import (
    NULL_TRACER,
    SpanTracer,
    TRACE_REPORT_KEYS,
    TRACE_SCHEMA,
    activate,
    current_tracer,
    trace_report,
    write_trace,
)

#: Stage names a traced TDAC.run emits, in pipeline order.
TDAC_STAGES = (
    "reference",
    "truth_vectors",
    "distance_matrix",
    "k_sweep",
    "silhouette_scoring",
    "block_runs",
    "merge",
)


class TestSpanTracer:
    def test_records_top_level_stages_in_order(self):
        tracer = SpanTracer()
        with tracer.span("alpha"):
            pass
        with tracer.span("beta"):
            pass
        assert list(tracer.stage_seconds()) == ["alpha", "beta"]

    def test_nested_spans_record_parent_and_depth(self):
        tracer = SpanTracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner = next(s for s in tracer.spans if s.name == "inner")
        assert inner.parent == "outer"
        assert inner.depth == 1
        assert list(tracer.stage_seconds()) == ["outer"]

    def test_repeated_spans_accumulate(self):
        tracer = SpanTracer()
        for _ in range(3):
            with tracer.span("stage"):
                time.sleep(0.001)
        assert len(tracer.spans) == 3
        assert tracer.stage_seconds()["stage"] >= 0.003

    def test_span_closes_on_exception(self):
        tracer = SpanTracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        assert [s.name for s in tracer.spans] == ["doomed"]

    def test_counters_accumulate(self):
        tracer = SpanTracer()
        tracer.count("tasks", 5)
        tracer.count("tasks", 2)
        assert tracer.counters == {"tasks": 7}

    def test_meta_is_kept(self):
        tracer = SpanTracer()
        with tracer.span("stage", n_blocks=4):
            pass
        assert tracer.spans[0].meta == {"n_blocks": 4}


class TestAmbientActivation:
    def test_default_is_null_tracer(self):
        assert current_tracer() is NULL_TRACER

    def test_activate_scopes_the_tracer(self):
        tracer = SpanTracer()
        with activate(tracer):
            assert current_tracer() is tracer
            with current_tracer().span("stage"):
                pass
        assert current_tracer() is NULL_TRACER
        assert [s.name for s in tracer.spans] == ["stage"]

    def test_activate_none_is_noop(self):
        with activate(None) as tracer:
            assert tracer is current_tracer()

    def test_null_tracer_absorbs_everything(self):
        with NULL_TRACER.span("ignored"):
            NULL_TRACER.count("ignored")
        assert NULL_TRACER.spans == []
        assert NULL_TRACER.counters == {}


class TestStopwatchIntegration:
    def test_live_mirroring_of_top_level_spans(self):
        stopwatch = Stopwatch()
        tracer = SpanTracer(stopwatch=stopwatch)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert list(stopwatch.phases) == ["outer"]

    def test_to_stopwatch_folds_stages(self):
        tracer = SpanTracer()
        with tracer.span("stage"):
            pass
        stopwatch = tracer.to_stopwatch()
        assert stopwatch.phases.keys() == {"stage"}
        assert stopwatch.total == pytest.approx(tracer.total_seconds)

    def test_stopwatch_from_tracer_accumulates_in_place(self):
        tracer = SpanTracer()
        with tracer.span("stage"):
            pass
        existing = Stopwatch(phases={"stage": 1.0})
        Stopwatch.from_tracer(tracer, existing)
        assert existing.phases["stage"] > 1.0


class TestTraceReportSchema:
    def test_golden_key_set(self):
        tracer = SpanTracer()
        with tracer.span("stage"):
            tracer.count("tasks", 3)
        report = trace_report(tracer, context={"dataset": "DS1"})
        assert tuple(sorted(report)) == tuple(sorted(TRACE_REPORT_KEYS))
        assert report["schema"] == TRACE_SCHEMA
        assert report["counters"] == {"tasks": 3}
        assert report["context"] == {"dataset": "DS1"}
        assert set(report["stage_fractions"]) == {"stage"}
        span = report["spans"][0]
        assert set(span) == {"name", "seconds", "parent", "depth", "meta"}

    def test_report_is_json_serialisable(self, tmp_path):
        tracer = SpanTracer()
        with tracer.span("stage", mode="masked"):
            pass
        path = write_trace(tmp_path / "trace.json", tracer)
        loaded = json.loads(path.read_text())
        assert loaded["schema"] == TRACE_SCHEMA

    def test_coverage_against_external_total(self):
        tracer = SpanTracer()
        with tracer.span("stage"):
            time.sleep(0.01)
        stage_sum = tracer.total_seconds
        report = trace_report(tracer, total_seconds=stage_sum * 2)
        assert report["stage_coverage"] == pytest.approx(0.5)

    def test_empty_tracer_reports_cleanly(self):
        report = trace_report(SpanTracer())
        assert report["total_seconds"] == 0.0
        assert report["stage_seconds"] == {}
        assert report["stage_coverage"] == 1.0


class TestTracedTDACRun:
    def test_stages_cover_wall_time_within_5_percent(self):
        from repro.algorithms import Accu
        from repro.core import TDAC, TDACConfig
        from repro.datasets import load

        dataset = load("DS2", scale=0.05)
        tracer = SpanTracer()
        with Timer() as timer:
            with activate(tracer):
                TDAC(Accu(), config=TDACConfig(seed=0, n_jobs=2)).run(dataset)
        report = trace_report(tracer, total_seconds=timer.elapsed)
        assert set(report["stage_seconds"]) == set(TDAC_STAGES)
        assert report["stage_coverage"] == pytest.approx(1.0, abs=0.05)

    def test_untraced_run_stays_silent(self):
        from repro.algorithms import MajorityVote
        from repro.core import TDAC, TDACConfig
        from repro.datasets import load

        dataset = load("DS1", scale=0.02)
        TDAC(MajorityVote(), config=TDACConfig(seed=0)).run(dataset)
        assert NULL_TRACER.spans == []


class TestCliTraceFlag:
    def test_run_emits_schema_valid_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        rc = cli_main(
            [
                "run",
                "TDAC+MajorityVote",
                "DS1",
                "--scale",
                "0.05",
                "--trace",
                str(out),
            ]
        )
        assert rc == 0
        assert f"trace: {out}" in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert tuple(sorted(report)) == tuple(sorted(TRACE_REPORT_KEYS))
        assert report["schema"] == TRACE_SCHEMA
        # TD-AC stages plus the runner's evaluate span tile the run.
        assert set(report["stage_seconds"]) == set(TDAC_STAGES) | {"evaluate"}
        assert report["context"]["dataset"] == "DS1"
        # Acceptance: per-stage times sum to within 5% of wall time.
        assert report["stage_coverage"] == pytest.approx(1.0, abs=0.05)

    def test_plain_algorithm_gets_discover_span(self, tmp_path):
        out = tmp_path / "trace.json"
        rc = cli_main(
            ["run", "MajorityVote", "DS1", "--scale", "0.05", "--trace", str(out)]
        )
        assert rc == 0
        report = json.loads(out.read_text())
        assert set(report["stage_seconds"]) == {"discover", "evaluate"}
