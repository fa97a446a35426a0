"""The unified observability layer (`repro.obs`).

Three contracts under test: the metrics substrate is **bounded** (a million
observations costs O(buckets) memory, with exact counts, sums and extrema),
traces driven by an injectable clock are **deterministic** (the same stream
traced twice yields identical span rows, exportable/reloadable through
JSONL), and kernel profiling is **off by default and observation only**
(enabling it changes no computed value).  The serving report's
bounded-memory regression for the latency series rides here too.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.context import FlowContextBuilder
from repro.core import NetFMConfig, NetFoundationModel, SequenceClassifier
from repro.net import PacketColumns, build_packet
from repro.nn.autograd import Tensor
from repro.nn.kernels import (
    ScratchPool,
    disable_kernel_profiling,
    enable_kernel_profiling,
    fused_layer_norm,
    kernel_profiler,
)
from repro.nn.optim import SGD
from repro.nn.trainer import Trainer
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TraceRecorder,
    critical_paths,
    load_trace,
    stage_breakdown,
)
from repro.serve import (
    ColumnsSource,
    InferenceEngine,
    PredictionCache,
    ServingReport,
    StreamingFlowAssembler,
    serve_stream,
)
from repro.tokenize import FieldAwareTokenizer, Vocabulary

MAX_TOKENS = 32


# ----------------------------------------------------------------------
# Metrics primitives
# ----------------------------------------------------------------------
class TestCounter:
    def test_inc_and_snapshot(self):
        a = Counter("x")
        a.inc()
        a.inc(4)
        a.inc(2.5)
        assert a.value == 7.5
        assert a.snapshot() == {"type": "counter", "value": 7.5}


class TestGauge:
    def test_envelope_is_exact(self):
        g = Gauge("depth")
        for v in (3, 1, 7, 2):
            g.set(v)
        assert (g.value, g.min, g.max, g.samples) == (2.0, 1.0, 7.0, 4)

    def test_unset_snapshot_has_no_envelope(self):
        assert Gauge("depth").snapshot() == {
            "type": "gauge", "value": 0.0, "min": None, "max": None, "samples": 0,
        }


class TestHistogram:
    def test_count_sum_min_max_mean_are_exact(self):
        h = Histogram("lat", 1e-6, 1e3)
        values = np.random.default_rng(0).lognormal(-5, 2, size=1000)
        for v in values:
            h.observe(v)
        assert h.count == 1000
        assert h.total == pytest.approx(values.sum(), rel=1e-12)
        assert h.min == values.min() and h.max == values.max()
        assert h.mean == pytest.approx(values.mean(), rel=1e-12)

    def test_percentile_within_one_bucket_width(self):
        bpo = 8
        h = Histogram("lat", 1e-6, 1e3, bins_per_octave=bpo)
        values = np.random.default_rng(1).lognormal(-4, 1.5, size=5000)
        h.observe_many(values)
        width = 2.0 ** (1.0 / bpo)
        for q in (50, 90, 99):
            exact = np.percentile(values, q)
            estimate = h.percentile(q)
            assert exact / width <= estimate <= exact * width

    def test_underflow_and_overflow_buckets(self):
        h = Histogram("h", 1.0, 16.0)
        for v in (0.0, -3.0, 0.5):
            h.observe(v)
        h.observe(16.0)
        h.observe(1e9)
        assert h.counts[0] == 3 and h.counts[-1] == 2
        assert h.count == 5 and h.min == -3.0 and h.max == 1e9

    def test_observe_many_matches_observe_loop(self):
        one, many = Histogram("h", 1e-3, 1e3), Histogram("h", 1e-3, 1e3)
        values = np.random.default_rng(2).lognormal(0, 3, size=2000)
        values[:10] = 0.0  # underflow path
        values[10:20] = 1e6  # overflow path
        for v in values:
            one.observe(v)
        many.observe_many(values)
        assert np.array_equal(one.counts, many.counts)
        assert one.count == many.count and one.total == many.total
        assert (one.min, one.max) == (many.min, many.max)

    def test_million_observations_stay_o_buckets(self):
        h = Histogram("lat", 1e-7, 1e3)
        buckets_before = h.counts.size
        bytes_before = h.counts.nbytes
        rng = np.random.default_rng(5)
        for _ in range(10):
            h.observe_many(rng.lognormal(-5, 2, size=100_000))
        assert h.count == 1_000_000
        # Fixed layout: the backing array never grew, and the histogram has
        # no per-observation state at all (__slots__ closes the door).
        assert h.counts.size == buckets_before
        assert h.counts.nbytes == bytes_before
        assert not hasattr(h, "__dict__")


class TestMetricsRegistry:
    def test_constructors_are_idempotent(self):
        r = MetricsRegistry()
        assert r.counter("c") is r.counter("c")
        assert r.histogram("h", 1, 10) is r.histogram("h", 1, 10)
        with pytest.raises(TypeError):
            r.gauge("c")
        with pytest.raises(ValueError, match="already registered with layout"):
            r.histogram("h", 1, 100)

    @staticmethod
    def _worker_registry(seed):
        rng = np.random.default_rng(seed)
        r = MetricsRegistry()
        r.counter("flows").inc(int(rng.integers(1, 100)))
        r.gauge("depth").set(float(rng.integers(1, 50)))
        r.histogram("lat", 1e-6, 1e3).observe_many(rng.lognormal(-4, 2, 300))
        return r

    def test_json_export_round_trips(self):
        r = self._worker_registry(7)
        data = json.loads(r.to_json())
        expected = r.to_dict()
        for snap in expected.values():  # JSON object keys are strings
            if "buckets" in snap:
                snap["buckets"] = {str(k): v for k, v in snap["buckets"].items()}
        assert data == expected
        assert data["flows"]["type"] == "counter"
        assert data["lat"]["count"] == 300
        assert sum(data["lat"]["buckets"].values()) == 300


# ----------------------------------------------------------------------
# ServingReport over the registry (satellites)
# ----------------------------------------------------------------------
class TestServingReportSatellites:
    def test_million_latencies_stay_o_buckets(self):
        # Satellite: the report's latency series is bounded — it has no
        # per-observation storage anywhere (the pre-obs implementation grew
        # a Python list entry per prediction).
        report = ServingReport()
        hist = report.metrics.get("serve.latency_s")
        size_before, nbytes_before = hist.counts.size, hist.counts.nbytes
        rng = np.random.default_rng(6)
        for _ in range(10):
            hist.observe_many(rng.lognormal(-6, 1, size=100_000))
        assert hist.count == 1_000_000
        assert hist.counts.size == size_before
        assert hist.counts.nbytes == nbytes_before
        assert not hasattr(report, "latencies")
        summary = report.summary()
        assert summary["p99_ms"] >= summary["p50_ms"] > 0


# ----------------------------------------------------------------------
# Trace recorder
# ----------------------------------------------------------------------
def _tiny_stream():
    packets = [
        build_packet(t, "10.0.0.1", "10.0.0.2", "TCP", 1111, 80,
                     metadata={"connection_id": conn})
        for conn, times in enumerate([(0.0, 0.1, 0.2), (0.05, 0.3), (0.4,)])
        for t in times
    ]
    return PacketColumns.from_packets(sorted(packets, key=lambda p: p.timestamp))


def _tiny_serving(tracer):
    columns = _tiny_stream()
    tokenizer = FieldAwareTokenizer()
    builder = FlowContextBuilder(max_tokens=MAX_TOKENS, label_key=None)
    contexts = builder.build(columns.to_packets(), tokenizer)
    vocabulary = Vocabulary.build([c.tokens for c in contexts])
    config = NetFMConfig(
        vocab_size=len(vocabulary), d_model=16, num_layers=1, num_heads=2,
        d_ff=32, max_len=MAX_TOKENS, dropout=0.0, seed=0,
    )
    classifier = SequenceClassifier(NetFoundationModel(config), num_classes=2)
    assembler = StreamingFlowAssembler(
        tokenizer, vocabulary,
        builder=FlowContextBuilder(max_tokens=MAX_TOKENS, label_key=None),
        tracer=tracer,
    )
    engine = InferenceEngine(
        classifier, batch_size=2, cache=PredictionCache(), tracer=tracer
    )
    predictions = list(serve_stream(
        ColumnsSource(columns, chunk_rows=2), assembler, engine
    ))
    return predictions


def _counting_clock():
    ticks = iter(range(1_000_000))
    return lambda: float(next(ticks))


class TestTraceRecorder:
    def test_sync_trace_is_deterministic_under_injected_clock(self):
        # Same stream, same counting clock -> identical trace rows, run to
        # run.
        first = TraceRecorder(clock=_counting_clock())
        second = TraceRecorder(clock=_counting_clock())
        _tiny_serving(first)
        _tiny_serving(second)
        assert first.to_rows() == second.to_rows()
        stages = {span.stage for span in first.spans}
        assert {"first_packet", "flow_closed", "encode", "batched",
                "inferred", "emitted"} <= stages

    def test_full_lifecycle_per_flow(self):
        tracer = TraceRecorder(clock=_counting_clock())
        predictions = _tiny_serving(tracer)
        assert predictions
        for p in predictions:
            stages = [
                s.stage for s in tracer.spans_for(p.record.key, p.record.generation)
            ]
            assert stages[0] == "first_packet"
            assert stages[-1] == "emitted"
            assert {"flow_closed", "encode", "batched", "inferred"} <= set(stages)

    def test_jsonl_round_trip(self, tmp_path):
        tracer = TraceRecorder(clock=_counting_clock())
        _tiny_serving(tracer)
        path = tmp_path / "trace.jsonl"
        written = tracer.export_jsonl(path)
        rows = load_trace(path)
        assert written == len(rows) == len(tracer.spans)
        assert rows == tracer.to_rows()
        breakdown = stage_breakdown(rows)
        assert breakdown["inferred"]["count"] > 0
        paths = critical_paths(rows)
        assert paths and all(p["end_to_end_ms"] >= 0 for p in paths)
        assert paths == sorted(
            paths, key=lambda p: -p["end_to_end_ms"]
        )

    def test_max_spans_bounds_memory(self):
        tracer = TraceRecorder(clock=_counting_clock(), max_spans=5)
        for i in range(20):
            tracer.annotate(f"flow-{i}", 0, "emitted")
        assert len(tracer) == 5 and tracer.dropped == 15

    def test_dead_letter_queue_annotates_with_provenance(self):
        from repro.serve import DeadLetter, DeadLetterQueue

        tracer = TraceRecorder(clock=_counting_clock())
        queue = DeadLetterQueue(tracer=tracer)
        queue.append(DeadLetter(
            stage="assembly", error="ChunkIntegrityError('bad ts')",
            action="dropped", flow_key="conn-9", generation=1,
            packet_count=4, chunk_index=2,
        ))
        (span,) = tracer.spans_for("conn-9")
        assert span.stage == "dead_letter" and span.kind == "event"
        assert span.attrs["failed_stage"] == "assembly"
        assert span.attrs["action"] == "dropped"
        assert span.attrs["chunk_index"] == 2

    def test_annotation_attrs_survive(self):
        tracer = TraceRecorder(clock=_counting_clock())
        tracer.annotate(
            "conn-1", 2, "dead_letter", failed_stage="assembly", action="dropped"
        )
        (span,) = tracer.spans_for("conn-1")
        assert span.generation == 2 and span.kind == "event"
        assert span.attrs == {"failed_stage": "assembly", "action": "dropped"}


# ----------------------------------------------------------------------
# Kernel profiling
# ----------------------------------------------------------------------
class TestKernelProfiling:
    def teardown_method(self):
        disable_kernel_profiling()

    @staticmethod
    def _run_kernel(pool, shape=(2, 4, 8)):
        x = Tensor(np.random.default_rng(0).normal(size=shape))
        gamma, beta = Tensor(np.ones(8)), Tensor(np.zeros(8))
        return fused_layer_norm(x, gamma, beta, 1e-5, pool).data

    def test_off_by_default_and_observation_only(self):
        assert kernel_profiler() is None
        pool = ScratchPool()
        baseline = self._run_kernel(pool)
        profiler = enable_kernel_profiling()
        profiled = self._run_kernel(ScratchPool())
        disable_kernel_profiling()
        assert kernel_profiler() is None
        # Profiling observes only: bit-identical output.
        np.testing.assert_array_equal(baseline, profiled)
        snap = profiler.snapshot()
        assert snap["kernels"]["layer_norm"]["calls"] == 1
        assert snap["kernels"]["layer_norm"]["wall_ms"] >= 0.0

    def test_pool_hit_miss_accounting(self):
        profiler = enable_kernel_profiling()
        pool = ScratchPool()
        self._run_kernel(pool)   # cold: misses allocate
        cold = profiler.snapshot()["pool"]
        self._run_kernel(pool)   # warm: same shapes hit
        warm = profiler.snapshot()["pool"]
        assert cold["misses"] > 0
        assert warm["misses"] == cold["misses"]
        assert warm["hits"] == cold["hits"] + cold["misses"]
        assert warm["bytes_served"] > cold["bytes_served"]
        self._run_kernel(pool, shape=(1, 3, 8))   # smaller: prefix views hit
        small = profiler.snapshot()["pool"]
        assert small["misses"] == warm["misses"]
        assert small["bytes_allocated"] == warm["bytes_allocated"]
        assert small["hits"] == warm["hits"] + cold["misses"]
        assert 0 < small["bytes_served"] - warm["bytes_served"] < (
            warm["bytes_served"] - cold["bytes_served"]
        )

    def test_shared_registry(self):
        registry = MetricsRegistry()
        registry.counter("serve.flows").inc(5)
        enable_kernel_profiling(registry=registry)
        self._run_kernel(ScratchPool())
        disable_kernel_profiling()
        assert "kernel.layer_norm.calls" in registry
        assert registry.get("serve.flows").value == 5


# ----------------------------------------------------------------------
# Trainer over the registry
# ----------------------------------------------------------------------
class _Scalar:
    """A trivial one-parameter model for exercising the trainer."""

    def __init__(self):
        self.w = Tensor(np.asarray(2.0), requires_grad=True)

    def parameters(self):
        return [self.w]

    def train(self):
        pass

    def eval(self):
        pass


class TestTrainerMetrics:
    def _fit(self, metrics=None):
        model = _Scalar()
        trainer = Trainer(
            model, SGD(model.parameters(), lr=0.1),
            max_grad_norm=None, metrics=metrics,
        )
        trainer.fit(lambda: [lambda: model.w * model.w for _ in range(3)], epochs=2)
        return trainer

    def test_history_to_registry(self):
        trainer = self._fit()
        registry = trainer.history.to_registry()
        assert registry.get("train.steps").value == 6
        assert registry.get("train.loss").count == 6
        assert registry.get("train.step_wall_s").count == 6
        assert registry.get("train.wall_s").value == pytest.approx(
            trainer.history.wall_time
        )

    def test_live_registry_matches_history(self):
        live = MetricsRegistry()
        trainer = self._fit(metrics=live)
        replay = trainer.history.to_registry()
        assert live.get("train.steps").value == replay.get("train.steps").value
        assert np.array_equal(
            live.get("train.loss").counts, replay.get("train.loss").counts
        )
        assert live.get("train.loss").total == pytest.approx(
            replay.get("train.loss").total
        )
