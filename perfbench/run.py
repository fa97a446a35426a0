"""End-to-end serving benchmark: capture -> assembly -> encode -> engine -> forward.

Drives the default synchronous ``repro.serve.serve_stream`` path on one of
three seeded workloads, checks every served flow against an offline
reference, and prints one JSON result line (see ``README.md``)::

    python3 perfbench/run.py --workload pcap_replay --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke        # all workloads, tiny, checks only

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ".perfbench"

if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"perfbench: no repro sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from repro.context.builders import FlowContextBuilder  # noqa: E402
from repro.core import NetFoundationModel, SequenceClassifier  # noqa: E402
from repro.net.pcap import read_pcap_columns, write_pcap_columns  # noqa: E402
from repro.nn.serialization import load_checkpoint  # noqa: E402
from repro.serve import (  # noqa: E402
    ColumnsSource,
    InferenceEngine,
    PcapReplaySource,
    PredictionCache,
    StreamingFlowAssembler,
    serve_stream,
)
from repro.tokenize import FieldAwareTokenizer, Vocabulary  # noqa: E402

import inputs  # noqa: E402
import probes  # noqa: E402
from probes import clock  # noqa: E402
from reference import Reference  # noqa: E402

SLO_S = 0.5
#: Standalone set-up repetitions per run, on top of one per pass.
SETUP_SAMPLES = 30
#: Rows of the trace served by the untimed warm-up pass.
WARMUP_ROWS = 2048


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    source: str  # "pcap" or "columns"
    chunk_rows: int
    model: str  # key of inputs.MODELS
    dtype: str
    cache: bool
    rate_pps: "float | None"  # open-loop packet rate; None replays unpaced


WORKLOADS = {
    w.name: w
    for w in (
        Workload("pcap_replay", "pcap", 256, "e14", "float64", False, None),
        Workload("large_model", "columns", 256, "large", "float32", False, None),
        Workload("live_paced", "columns", 16, "e14", "float32", True, 1250.0),
    )
}

END_TO_END = {
    "flows_per_s": "flows/s",
    "close_to_emit_p50_ms": "ms",
    "close_to_emit_p99_ms": "ms",
    "slo_500ms_share": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "pcap.busy_s": "s",
    "pcap.records": "count",
    "pcap.quarantined": "count",
    "stream.chunks": "count",
    "stream.busy_s": "s",
    "stream.idle_s": "s",
    "stream.late_p99_ms": "ms",
    "assembler.self_s": "s",
    "assembler.self_us_per_packet": "us",
    "assembler.flows_closed": "count",
    "assembler.evict_share": "ratio",
    "assembler.open_flows_max": "count",
    "encode.calls": "count",
    "encode.flows_per_call": "flows/call",
    "encode.busy_s": "s",
    "encode.us_per_flow": "us",
    "engine.self_s": "s",
    "engine.batches": "count",
    "engine.mean_batch": "rows",
    "engine.cache_hit_rate": "ratio",
    "engine.pending_max": "count",
    "engine.wait_p99_ms": "ms",
    "forward.calls": "count",
    "forward.rows": "count",
    "forward.busy_s": "s",
    "forward.ms_per_call": "ms",
    "forward.gflop": "GFLOP",
    "forward.gflop_per_s": "GFLOP/s",
    "forward.first_call_ms": "ms",
    "unattributed_s": "s",
    "traced_wall_s": "s",
    "trace_overhead": "ratio",
}


# ----------------------------------------------------------------------
# One serving pass
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Served:
    """The objects one pass serves with (what ``setup_s`` times)."""

    vocabulary: object
    classifier: object
    tokenizer: object
    builder: object
    assembler: object
    engine: object
    source: object


def setup(workload: Workload, data: inputs.Inputs, pcap_path=None, columns=None,
          pace: "float | None" = None, spans=None) -> Served:
    """Load the saved model and build the pipeline (timed as ``setup_s``).

    ``spans`` installs the builder and classifier probes (traced pass).
    """
    dims = inputs.MODELS[workload.model]
    vocabulary = Vocabulary.load(data.vocab_path)
    classifier = SequenceClassifier(
        NetFoundationModel(inputs.model_config(workload.model, len(vocabulary), 0)),
        num_classes=inputs.NUM_CLASSES,
    )
    load_checkpoint(classifier, data.checkpoint_path)
    if workload.dtype != classifier.model_dtype:
        classifier = classifier.serving_build(workload.dtype)
    tokenizer = FieldAwareTokenizer()
    builder = FlowContextBuilder(max_tokens=dims["max_tokens"])
    served_builder, served_classifier = builder, classifier
    if spans is not None:
        served_builder = probes.BuilderProbe(builder, spans)
        served_classifier = probes.ClassifierProbe(classifier, _dims(workload), spans)
    assembler = StreamingFlowAssembler(
        tokenizer, vocabulary, builder=served_builder,
        idle_timeout=inputs.IDLE_TIMEOUT,
    )
    engine = InferenceEngine(
        served_classifier, batch_size=inputs.BATCH_SIZE,
        cache=PredictionCache() if workload.cache else None,
    )
    if pcap_path is not None:
        source = PcapReplaySource(pcap_path, chunk_rows=workload.chunk_rows)
    else:
        source = ColumnsSource(columns, chunk_rows=workload.chunk_rows, pace=pace)
    return Served(vocabulary, classifier, tokenizer, builder, assembler, engine, source)


def _dims(workload: Workload) -> dict:
    return dict(inputs.MODELS[workload.model], num_classes=inputs.NUM_CLASSES)


def pace_for(workload: Workload, columns) -> "float | None":
    """Replay speed-up that offers ``rate_pps`` packets per second."""
    if workload.rate_pps is None:
        return None
    span = float(columns.timestamps[-1] - columns.timestamps[0])
    return workload.rate_pps * span / len(columns)


@dataclasses.dataclass
class PassResult:
    traced: bool
    setup_s: float
    wall_s: float  # first chunk request -> last prediction yielded
    loop_s: float  # first chunk request -> serve_stream exhausted
    predictions: "list | None"  # dropped once checked, so RSS stays flat
    latencies: np.ndarray  # close-to-emit seconds, aligned with predictions
    layer: dict  # per-layer metrics (traced passes only)
    spans: "probes.Spans | None" = None
    origin: float = 0.0
    correct: "np.ndarray | None" = None  # per prediction, set by the check
    flows: int = 0


def serve_pass(workload: Workload, data: inputs.Inputs, traced: bool) -> PassResult:
    spans = probes.Spans() if traced else None
    pace = pace_for(workload, data.columns)
    started = clock()
    served = setup(
        workload, data, pcap_path=data.pcap_path, columns=data.columns,
        pace=pace, spans=spans,
    )
    setup_s = clock() - started
    source = probes.SourceProbe(served.source, pace, spans)
    assembler = probes.AssemblerProbe(served.assembler, source, spans)
    engine = probes.EngineProbe(served.engine, spans) if traced else served.engine
    pcap = probes.PcapProbe(spans) if traced else None
    predictions, emitted = [], []
    due_of = assembler.due_of
    gc.collect()
    with pcap.installed() if pcap is not None else contextlib.nullcontext():
        origin = last = clock()
        for prediction in serve_stream(source, assembler, engine):
            last = clock()
            emitted.append(last - due_of.pop(id(prediction.record)))
            predictions.append(prediction)
        done = clock()
    result = PassResult(
        traced, setup_s, last - origin, done - origin, predictions,
        np.asarray(emitted), {}, spans, origin,
    )
    if traced:
        result.layer = layer_metrics(
            served, source, assembler, engine, pcap, spans, done - origin
        )
    return result


def layer_metrics(served, source, assembler, engine, pcap, spans, wall) -> dict:
    """Per-layer metrics of one traced pass (``spans`` closed)."""
    self_s = spans.self_s
    builder = served.assembler.builder
    classifier = served.engine.classifier
    summary = served.engine.summary()
    stream_self = self_s.get("stream", 0.0)
    packets = max(assembler.packets, 1)
    encode_s = self_s.get("encode", 0.0)
    forward_s = self_s.get("forward", 0.0)
    flows_closed = max(assembler.flows_closed, 1)
    metrics = {
        "pcap.busy_s": self_s.get("pcap", 0.0),
        "pcap.records": pcap.records,
        "pcap.quarantined": len(getattr(served.source, "errors", [])),
        "stream.chunks": source.chunks,
        "stream.busy_s": stream_self - source.idle_s,
        "stream.idle_s": source.idle_s,
        "stream.late_p99_ms": 1e3 * _percentile(source.late, 99),
        "assembler.self_s": self_s.get("assembler", 0.0),
        "assembler.self_us_per_packet": 1e6 * self_s.get("assembler", 0.0) / packets,
        "assembler.flows_closed": assembler.flows_closed,
        "assembler.evict_share": assembler.evicted / flows_closed,
        "assembler.open_flows_max": assembler.open_flows_max,
        "encode.calls": builder.calls,
        "encode.flows_per_call": builder.flows / max(builder.calls, 1),
        "encode.busy_s": encode_s,
        "encode.us_per_flow": 1e6 * encode_s / max(builder.flows, 1),
        "engine.self_s": self_s.get("engine", 0.0),
        "engine.batches": summary["batches"],
        "engine.mean_batch": summary["mean_batch"],
        "engine.cache_hit_rate": summary["cache_hit_rate"] or 0.0,
        "engine.pending_max": engine.pending_max,
        "engine.wait_p99_ms": summary["p99_ms"],
        "forward.calls": classifier.calls,
        "forward.rows": classifier.rows,
        "forward.busy_s": forward_s,
        "forward.ms_per_call": 1e3 * forward_s / max(classifier.calls, 1),
        "forward.gflop": classifier.flop / 1e9,
        "forward.gflop_per_s": classifier.flop / 1e9 / forward_s if forward_s else 0.0,
        "unattributed_s": wall - spans.top_level_s,
        "traced_wall_s": wall,
    }
    attributed = sum(self_s.values()) + metrics["unattributed_s"]
    if abs(attributed - wall) > 1e-6 * wall + 1e-9:
        raise AssertionError(
            f"layer self times + unattributed = {attributed!r} s, wall {wall!r} s"
        )
    return metrics


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def check_spans(spans: "probes.Spans") -> None:
    """Every span lies inside its parent (what makes self time additive)."""
    bounds = {span_id: (start, end) for span_id, _, start, end, _ in spans.records}
    for span_id, name, start, end, parent in spans.records:
        if end < start:
            raise AssertionError(f"span {span_id} ({name}) ends before it starts")
        if parent >= 0:
            p_start, p_end = bounds[parent]
            if start < p_start or end > p_end:
                raise AssertionError(f"span {span_id} ({name}) leaves its parent")


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def warm_up(workload: Workload, data: inputs.Inputs, workdir: Path) -> float:
    """Untimed pass over a prefix of the trace; returns the first forward (s).

    Warms imports, BLAS and allocator state with the host's default
    threading.  The pass is unpaced and builds its own engine and cache, so
    the timed passes start cold in the serving state that matters.
    """
    prefix = data.columns[:WARMUP_ROWS]
    pcap_path = None
    if data.pcap_path is not None:
        pcap_path = write_pcap_columns(workdir / "warmup.pcap", prefix)
    served = setup(workload, data, pcap_path=pcap_path, columns=prefix)
    first = served.engine.classifier = probes.ClassifierProbe(
        served.classifier, _dims(workload), None
    )
    for _ in serve_stream(served.source, served.assembler, served.engine):
        pass
    return first.first_call_s or 0.0


def make_reference(workload: Workload, data: inputs.Inputs) -> Reference:
    """The expected flows and logits, from a model loaded like a pass loads it.

    Its model is dropped on return, so the model's scratch buffers are gone
    before the timed passes set the RSS high-water mark.
    """
    served = setup(workload, data, columns=data.columns)
    columns = data.columns
    if data.pcap_path is not None:
        columns = read_pcap_columns(data.pcap_path, lazy_decode=True)
    return Reference(
        columns, served.tokenizer, served.vocabulary, served.builder,
        served.classifier,
    )


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        capture_s: float = inputs.CAPTURE_SECONDS,
        setup_samples: int = SETUP_SAMPLES) -> dict:
    out_dir = Path(OUT_DIR)
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=out_dir))
    try:
        data = inputs.prepare(
            seed, workload.model, workload.source == "pcap", workdir, capture_s
        )
        first_forward_s = warm_up(workload, data, workdir)
        reference = make_reference(workload, data)
        gc.collect()
        setup_s = []
        for _ in range(setup_samples):
            started = clock()
            setup(workload, data, pcap_path=data.pcap_path, columns=data.columns,
                  pace=pace_for(workload, data.columns))
            setup_s.append(clock() - started)
        passes, problems = [], []
        measured = 0.0
        attempted = failed = 0
        traced_next = False
        while True:
            result = serve_pass(workload, data, traced_next)
            measured += result.setup_s + result.loop_s
            setup_s.append(result.setup_s)
            correct, pass_failed, pass_problems = reference.check(result.predictions)
            result.correct = correct
            result.flows = len(result.predictions)
            result.predictions = None
            attempted += len(reference)
            failed += pass_failed
            problems.extend(pass_problems)
            if result.traced:
                check_spans(result.spans)
            passes.append(result)
            kinds = {p.traced for p in passes}
            if measured >= seconds and kinds == ({False, True} if trace else {False}):
                break
            if trace:
                traced_next = not traced_next
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        untraced = [p for p in passes if not p.traced]
        if trace:
            traced = [p for p in passes if p.traced]
            metrics = {
                name: statistics.median(p.layer[name] for p in traced)
                for name in PER_LAYER if name not in ("forward.first_call_ms", "trace_overhead")
            }
            metrics["forward.first_call_ms"] = 1e3 * first_forward_s
            metrics["trace_overhead"] = (
                statistics.median(p.wall_s for p in traced)
                / statistics.median(p.wall_s for p in untraced)
            )
            path = out_dir / f"trace-{workload.name}-seed{seed}.jsonl"
            traced[-1].spans.write_jsonl(path, traced[-1].origin)
            print(f"trace: {path} ({len(traced[-1].spans.records)} spans)")
            units = PER_LAYER
        else:
            metrics = {
                "flows_per_s": statistics.median(
                    p.flows / p.wall_s for p in untraced
                ),
                "close_to_emit_p50_ms": statistics.median(
                    1e3 * _percentile(p.latencies, 50) for p in untraced
                ),
                "close_to_emit_p99_ms": statistics.median(
                    1e3 * _percentile(p.latencies, 99) for p in untraced
                ),
                "slo_500ms_share": statistics.median(
                    float(np.sum(p.correct & (p.latencies <= SLO_S))) / len(reference)
                    for p in untraced
                ),
                "setup_s": statistics.median(setup_s),
                "peak_rss_mb": peak_rss_mb,
            }
            units = END_TO_END
        samples = [len(p.latencies) for p in untraced]
        print(f"workload {workload.name} seed {seed}: {len(passes)} passes "
              f"({len(untraced)} untraced), {len(data.columns)} packets, "
              f"{len(reference)} flows expected per pass, "
              f"close-to-emit samples per pass {samples}")
        print("per pass: " + ", ".join(
            f"{'traced' if p.traced else 'untraced'} {p.wall_s:.3f} s "
            f"{p.flows / p.wall_s:.1f} flows/s" for p in passes
        ))
        for problem in problems:
            print(f"check failed: {problem}")
        for name, value in metrics.items():
            print(f"{name:32s} {value:14.6g} {units[name]}")
        return {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": float(value), "unit": units[name]}
                for name, value in metrics.items()
            },
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def smoke(seed: int) -> bool:
    """All workloads at tiny size: correctness and the traced accounting."""
    ok = True
    for workload in WORKLOADS.values():
        result = run(workload, seed, 0.0, trace=True,
                     capture_s=inputs.SMOKE_CAPTURE_SECONDS, setup_samples=1)
        ok &= result["correct"] and result["failed"] == 0
        print(json.dumps({"smoke": workload.name, "correct": result["correct"],
                          "attempted": result["attempted"],
                          "failed": result["failed"]}))
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny size through the checks")
    parser.add_argument("--properties", action="store_true",
                        help="print the input properties of --seed and exit")
    args = parser.parse_args(argv)
    if args.properties:
        print(json.dumps(inputs.properties(args.seed)))
        return 0
    if args.smoke:
        return 0 if smoke(args.seed) else 1
    if args.workload is None:
        parser.error("--workload is required")
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
