"""Layer probes: delegating wrappers that time each serving layer from outside.

Nothing here changes ``repro``.  Each probe stands in for one object
``repro.serve.serve_stream`` already calls (the source, the assembler, the
engine) or one object those call in turn (the context builder the assembler
encodes with, the classifier the engine runs), forwards every call to the
real object, and records what happened around it:

* untraced, only the source and assembler probes are installed, and they
  keep one timestamp per chunk: when each chunk was due and which chunk
  closed each flow, which is what close-to-emit latency needs;
* traced, every probe opens a span (name, start, end, parent) around the
  call it forwards, so a layer's self time is its spans' time minus the
  time of the spans nested inside them.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

import repro.serve.stream as serve_stream_module

clock = time.perf_counter


class Spans:
    """In-memory span log; self time per layer is accumulated as spans close.

    Spans strictly nest (the serving loop is single-threaded and every probed
    call returns before ``serve_stream`` yields), so a stack is enough: a
    closing span's duration is charged to its parent's child time, and its
    self time is its duration minus its own child time.
    """

    def __init__(self):
        self.records: list[tuple[int, str, float, float, int]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.top_level_s = 0.0
        self._stack: list[list] = []

    def begin(self, name: str) -> None:
        self._stack.append([len(self.records) + len(self._stack), name, clock(), 0.0])

    def call(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span named ``name``."""
        self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end()

    def end(self) -> None:
        end = clock()
        span_id, name, start, child = self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - child
        if self._stack:
            parent = self._stack[-1]
            parent[3] += duration
            parent_id = parent[0]
        else:
            self.top_level_s += duration
            parent_id = -1
        self.records.append((span_id, name, start, end, parent_id))

    def write_jsonl(self, path, origin: float) -> None:
        """One JSON object per span; times in seconds from ``origin``."""
        with open(path, "w", encoding="utf-8") as out:
            for span_id, name, start, end, parent in sorted(
                self.records, key=lambda r: r[2]
            ):
                out.write(json.dumps({
                    "id": span_id, "name": name, "parent": parent,
                    "start": round(start - origin, 9), "end": round(end - origin, 9),
                }) + "\n")


class SourceProbe:
    """Wraps a packet source; stamps each chunk's due and delivery time.

    ``pace`` mirrors the source's own schedule: chunk ``i`` is due at the
    schedule origin (the first chunk request) plus its last packet's capture
    offset divided by ``pace``.  Unpaced, a chunk is due when it is handed
    off.  :attr:`due` always holds the due time of the chunk delivered last,
    and the end-of-stream time once the source is exhausted.
    """

    def __init__(self, source, pace: "float | None", spans: "Spans | None"):
        self.source = source
        self.pace = pace
        self.spans = spans
        self.due = 0.0
        self.chunks = 0
        self.idle_s = 0.0
        self.late: list[float] = []

    def __iter__(self):
        spans = self.spans
        chunks = iter(self.source)
        origin = base = None
        while True:
            called = clock()
            if origin is None:
                origin = called
            if spans is not None:
                spans.begin("stream")
            try:
                chunk = next(chunks)
            except StopIteration:
                self.due = clock()
                return
            finally:
                if spans is not None:
                    spans.end()
            delivered = clock()
            if self.pace is None:
                due = delivered
            else:
                if base is None:
                    base = float(chunk.timestamps[0])
                due = origin + (float(chunk.timestamps[-1]) - base) / self.pace
                # The source sleeps until the chunk is due when it runs early.
                self.idle_s += max(0.0, min(delivered, due) - called)
            self.due = due
            self.chunks += 1
            self.late.append(delivered - due)
            yield chunk


class AssemblerProbe:
    """Wraps a :class:`~repro.serve.assembler.StreamingFlowAssembler`.

    Maps every closed flow (by record identity) to the due time of the chunk
    that closed it; flows closed by ``flush`` get the end-of-stream time.
    Traced, also counts closures by reason and the open-flow high-water mark.
    """

    def __init__(self, assembler, source: SourceProbe, spans: "Spans | None"):
        self.assembler = assembler
        self.source = source
        self.spans = spans
        self.due_of: dict[int, float] = {}
        self.packets = 0
        self.flows_closed = 0
        self.evicted = 0
        self.open_flows_max = 0

    def _closed(self, fn, *args, packets: int = 0):
        spans = self.spans
        if spans is None:
            records = fn(*args)
        else:
            records = spans.call("assembler", fn, *args)
            self.packets += packets
            self.flows_closed += len(records)
            self.evicted += sum(r.closed_by == "evict" for r in records)
            self.open_flows_max = max(self.open_flows_max, len(self.assembler))
        due = self.source.due
        due_of = self.due_of
        for record in records:
            due_of[id(record)] = due
        return records

    def push(self, chunk):
        return self._closed(self.assembler.push, chunk, packets=len(chunk))

    def flush(self):
        return self._closed(self.assembler.flush)


class BuilderProbe:
    """A delegating context builder: times ``encode_columns`` calls.

    Passed to the assembler as ``builder=``; every other attribute (keys,
    ``max_packets``, ``max_tokens``) is read from the wrapped builder.
    """

    def __init__(self, builder, spans: Spans):
        self._builder = builder
        self._spans = spans
        self.calls = 0
        self.flows = 0

    def __getattr__(self, name):
        return getattr(self._builder, name)

    def encode_columns(self, columns, tokenizer, vocabulary, return_labels=False):
        out = self._spans.call(
            "encode", self._builder.encode_columns,
            columns, tokenizer, vocabulary, return_labels=return_labels,
        )
        self.calls += 1
        self.flows += len(out[0])
        return out


class EngineProbe:
    """Wraps an :class:`~repro.serve.engine.InferenceEngine`'s submit/flush."""

    def __init__(self, engine, spans: Spans):
        self.engine = engine
        self.spans = spans
        self.pending_max = 0

    def submit(self, record):
        completed = self.spans.call("engine", self.engine.submit, record)
        self.pending_max = max(self.pending_max, self.engine.pending)
        return completed

    def flush(self):
        return self.spans.call("engine", self.engine.flush)


def forward_flop(rows: int, width: int, dims: dict) -> float:
    """Multiply-add FLOPs of one encoder forward, from shapes alone.

    Per layer: the Q/K/V and output projections (4 d^2 per token), the
    score and context products (2 s d per token) and the two feed-forward
    matmuls (2 d d_ff per token), each counted as 2 FLOPs per multiply-add;
    plus the classification head on the ``[CLS]`` row.
    """
    d, ff = dims["d_model"], dims["d_ff"]
    per_token = 4 * d * d + 2 * width * d + 2 * d * ff
    return 2.0 * rows * (width * per_token * dims["num_layers"] + d * dims["num_classes"])


class ClassifierProbe:
    """A delegating classifier handed to the engine: times ``predict_logits``.

    ``spans`` may be None (the warm-up pass uses the probe only to time the
    process's first forward).
    """

    def __init__(self, classifier, dims: dict, spans: "Spans | None"):
        self._classifier = classifier
        self._dims = dims
        self._spans = spans
        self.calls = 0
        self.rows = 0
        self.flop = 0.0
        self.first_call_s: "float | None" = None

    def __getattr__(self, name):
        return getattr(self._classifier, name)

    def predict_logits(self, token_ids, attention_mask, batch_size=64):
        forward = self._classifier.predict_logits
        started = clock()
        if self._spans is None:
            logits = forward(token_ids, attention_mask, batch_size=batch_size)
        else:
            logits = self._spans.call(
                "forward", forward, token_ids, attention_mask, batch_size=batch_size
            )
        if self.first_call_s is None:
            self.first_call_s = clock() - started
        self.calls += 1
        self.rows += len(token_ids)
        self.flop += forward_flop(len(token_ids), token_ids.shape[1], self._dims)
        return logits


class PcapProbe:
    """Times ``read_pcap_columns`` as :mod:`repro.serve.stream` calls it.

    :meth:`installed` swaps the module attribute the replay source reads for
    a timing wrapper and always restores the original.
    """

    def __init__(self, spans: Spans):
        self.spans = spans
        self.records = 0

    @contextlib.contextmanager
    def installed(self):
        original = serve_stream_module.read_pcap_columns

        def read_pcap_columns(*args, **kwargs):
            columns = self.spans.call("pcap", original, *args, **kwargs)
            self.records += len(columns)
            return columns

        serve_stream_module.read_pcap_columns = read_pcap_columns
        try:
            yield self
        finally:
            serve_stream_module.read_pcap_columns = original
