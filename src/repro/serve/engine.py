"""Micro-batched model serving with a prediction cache and backpressure.

One flow at a time, a transformer forward wastes almost all of its time on
per-call overhead; the :class:`InferenceEngine` therefore *micro-batches*:
closed flows accumulate in length buckets and are run through one
eval-mode forward per bucket, trimmed to the bucket's longest real row (the
packed-batch discipline).  The engine is deterministic in the record
sequence, and float64 rows are computed independently of their batch, so
streaming the same trace through any chunking produces bit-identical
float64 logits (float32 builds stay within the documented ulp budget
instead).  Class predictions match the offline batched solver path (whose
fixed-width forward can differ from a trimmed one only in the last ulp of
the logits).

Repeated traffic is cheaper still.  Within a micro-batch, flows with the
same encoded context are *coalesced*: the forward runs one row per distinct
context and every flow gets its own copy of that row's logits.  Across
batches, a :class:`PredictionCache` keyed by the
encoded context (:attr:`~repro.serve.assembler.FlowRecord.cache_key` — the
serving twin of the PR 4 wire-byte decode-cache discipline) returns the
stored logits for flows the model has already seen, without any forward at
all.  A bounded pending queue provides backpressure: when more flows are
waiting than ``max_pending``, the engine drains buckets synchronously
instead of queueing without limit.

A bucket that neither fills nor is the fullest would wait for unrelated
traffic — on an unbounded stream, forever.  The *max-wait deadline* bounds
that: :meth:`InferenceEngine.advance_clock` moves the engine's stream clock
(capture time, not wall time, so a run stays deterministic) and runs every
bucket whose oldest flow has waited ``max_wait`` stream-seconds, oldest
first — the inference-side twin of the NetFlow active timeout.  Buckets
hold flows of one exact length, so the deadline changes only *when* a row
is served, never its float64 bits.  :func:`serve_stream` advances the clock
once per chunk.
"""

from __future__ import annotations

import dataclasses
import math
from collections import OrderedDict

import numpy as np

from ..nn.numeric import numeric_policy
from .assembler import FlowRecord
from .report import ServingReport
from .stream import chunk_clock

__all__ = ["PredictionCache", "FlowPrediction", "InferenceEngine", "serve_stream"]


class PredictionCache:
    """Bounded LRU cache from encoded contexts to logits.

    Keys are :attr:`FlowRecord.cache_key` byte strings — the exact model
    input — so a hit returns logits identical to the forward pass it
    replaces, and flows differing only in tokenizer-invisible bytes (DNS
    transaction ids, TLS randoms: PR 4's cache-exempt bytes) share one
    entry.
    """

    def __init__(self, max_entries: int = 4096):
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._entries: OrderedDict[bytes, np.ndarray] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: bytes) -> "np.ndarray | None":
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry.copy()

    def put(self, key: bytes, logits: np.ndarray) -> None:
        # Stored and returned values are copies: entries must stay equal to
        # the forward pass they replace even if a consumer mutates a served
        # prediction's logits in place (which would otherwise write through
        # the shared batch array).
        self._entries[key] = np.array(logits, copy=True)
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclasses.dataclass
class FlowPrediction:
    """One served flow: its record, logits and serving provenance."""

    record: FlowRecord
    logits: np.ndarray
    cached: bool
    latency: float  # seconds from submit to completion
    #: True when the logits are a degrade-policy fallback, not model output.
    degraded: bool = False

    @property
    def class_id(self) -> int:
        """The predicted class (argmax over logits)."""
        return int(np.argmax(self.logits))

    @property
    def probabilities(self) -> np.ndarray:
        """Softmax over the logits."""
        shifted = self.logits - self.logits.max()
        exp = np.exp(shifted)
        return exp / exp.sum()


class InferenceEngine:
    """Length-bucketed micro-batching over a classifier's eval-mode forward.

    Parameters
    ----------
    classifier:
        Any model with a ``predict_logits(token_ids, attention_mask,
        batch_size) -> np.ndarray`` method —
        :class:`~repro.core.finetuning.SequenceClassifier` (the foundation
        model's fine-tuned head, as served for the NetGLUE packet tasks) is
        the canonical one.
    batch_size:
        Target micro-batch size; a bucket reaching it is run immediately.
    max_pending:
        Backpressure bound: after every submission the engine drains the
        fullest buckets until at most this many flows are pending.
    cache:
        A :class:`PredictionCache`, or ``None`` to disable caching (the
        benchmark's gated configuration, so the measured speedup is pure
        micro-batching).
    max_wait:
        The deadline, in stream-seconds: :meth:`advance_clock` runs every
        bucket whose oldest flow has waited this long.  ``math.inf``
        disables it (buckets then run only when full, under backpressure,
        or at :meth:`flush`); ``0`` runs every pending flow at each clock
        advance.
    tracer:
        Optional :class:`repro.obs.trace.TraceRecorder`.  When set, every
        served flow gets a ``batched`` span (submit until its micro-batch
        ran: queue wait), an ``inferred`` span (the model forward, shared
        start/end across the batch) and an ``emitted`` event; cache hits
        get ``cache_hit`` + ``emitted`` events instead.  Tracing observes
        only — predictions, logits and cache contents are bit-identical
        with or without it — and ``None`` (the default) leaves the serving
        path unchanged.

    Flows are bucketed by *exact* context length and each bucket's forward
    is trimmed to that width, so short flows never pay full-width compute
    and no row in a batch carries padding: the forward skips attention
    masking entirely — bit-identical (no position is masked) and measurably
    faster, since the mask materializes ``(batch, heads, seq, seq)``
    temporaries.  Flows of one bucket with equal
    :attr:`~repro.serve.assembler.FlowRecord.cache_key` share one forward
    row (*coalescing*, counted as ``coalesced`` in :meth:`summary`): the
    bucket's trigger, the cache puts, the output guard and the trace spans
    all stay per flow, but a poisoned row reaches every flow on it.  The
    classifier is served as built; for the float32 packed-gemm path pass
    ``classifier.serving_build("float32")``.

    Cache keys are namespaced by the model build dtype: an engine caches
    and looks up under ``b"<dtype>:" + record.cache_key``, so a float32 and
    a float64 engine sharing one :class:`PredictionCache` (or one
    checkpoint) can never serve each other's logits — a hit is always the
    same dtype, same numeric policy as the forward it replaced.
    """

    def __init__(
        self,
        classifier,
        batch_size: int = 32,
        max_pending: int = 256,
        cache: "PredictionCache | None" = None,
        tracer=None,
        max_wait: float = 5.0,
    ):
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if max_pending < batch_size:
            raise ValueError("max_pending must be at least batch_size")
        if not max_wait >= 0:  # also rejects NaN
            raise ValueError(
                "max_wait must be non-negative (math.inf disables the deadline)"
            )
        self.classifier = classifier
        self.batch_size = batch_size
        self.max_pending = max_pending
        self.max_wait = float(max_wait)
        self.cache = cache
        # Optional output guard (resilience): called as guard(record, row)
        # for every non-finite logits row before the batch is emitted;
        # returns "drop"/"degrade" or raises, per policy.
        self.output_guard = None
        self.tracer = tracer
        self._completed_backlog: list[FlowPrediction] = []
        # Bucket entries are (record, key, submitted, trace_submit): the
        # record's ``cache_key`` (computed once per flow, it keys both the
        # cache and coalescing), the report timestamp and, when tracing,
        # the tracer-clock submit time the ``batched`` (queue-wait) span
        # starts from.  A bucket's key is its flows' exact length.
        self._buckets: dict[int, list[tuple[FlowRecord, bytes, float, float]]] = {}
        # bucket -> the stream clock when its oldest pending entry arrived
        # (-inf: it arrived before the clock was first advanced).
        self._born: dict[int, float] = {}
        self._clock = -math.inf
        self._pending = 0
        # Cache-key namespace: the build dtype is part of every key (see
        # class docstring).  Fixed at construction — a build's dtype is
        # set once by serving_build and never changes afterwards.
        self._cache_prefix = (self.model_dtype + ":").encode("ascii")
        self.report = ServingReport()
        self.report.model_dtype = self.model_dtype
        self.report.numeric_policy = numeric_policy(self.model_dtype)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def model_dtype(self) -> str:
        """The served model's build dtype (``"float64"`` / ``"float32"``)."""
        return getattr(self.classifier, "model_dtype", "float64")

    def cache_key_for(self, record: FlowRecord) -> bytes:
        """The dtype-namespaced cache key this engine stores ``record`` under."""
        return self._cache_prefix + record.cache_key

    @property
    def pending(self) -> int:
        """Flows submitted but not yet run through the model."""
        return self._pending

    @property
    def clock(self) -> float:
        """The stream clock: the latest time :meth:`advance_clock` reached."""
        return self._clock

    def summary(self) -> dict:
        """The serving scorecard (see :meth:`ServingReport.summary`)."""
        return self.report.summary(cache=self.cache)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def submit(self, record: FlowRecord) -> list[FlowPrediction]:
        """Enqueue one closed flow; return any predictions completed now.

        A cache hit completes immediately.  A miss joins its length bucket;
        buckets reaching ``batch_size`` run at once, and the backpressure
        bound then drains the fullest buckets until at most ``max_pending``
        flows wait.  Completions of *other* flows can therefore be returned
        by a submission — consume the returned list every call.
        """
        submitted = self.report.mark_submit()
        tracer = self.tracer
        trace_submit = tracer.clock() if tracer is not None else 0.0
        completed: list[FlowPrediction] = []
        key = record.cache_key
        if self.cache is not None:
            logits = self.cache.get(self._cache_prefix + key)
            if logits is not None:
                prediction = FlowPrediction(
                    record=record,
                    logits=logits,
                    cached=True,
                    latency=self.report.mark_submit() - submitted,
                )
                self.report.observe(prediction)
                if tracer is not None:
                    t = tracer.clock()
                    tracer.annotate(
                        record.key, record.generation, "cache_hit", t=t,
                    )
                    tracer.annotate(
                        record.key, record.generation, "emitted", t=t,
                        cached=True,
                    )
                return [prediction]
        bucket = len(record)
        queue = self._buckets.get(bucket)
        if queue is None:
            queue = self._buckets[bucket] = []
            self._born[bucket] = self._clock
        queue.append((record, key, submitted, trace_submit))
        self._pending += 1
        try:
            if len(queue) >= self.batch_size:
                completed.extend(self._run_bucket(bucket, "full"))
            while self._pending > self.max_pending:
                fullest = max(self._buckets, key=lambda b: len(self._buckets[b]))
                completed.extend(self._run_bucket(fullest, "backpressure"))
        except BaseException:
            # Earlier buckets in this call already emitted (observed, cached)
            # but their predictions were never returned; park them so a
            # caller that recovers can still deliver each exactly once.
            self._completed_backlog.extend(completed)
            raise
        return completed

    def advance_clock(self, t: float) -> list[FlowPrediction]:
        """Advance the stream clock to ``t``; run the buckets past deadline.

        Every bucket whose oldest flow arrived ``max_wait`` or more
        stream-seconds before the clock runs now, oldest first; a bucket
        that arrived before the clock was first advanced counts as arriving
        at ``t``.  The clock never moves back.  Crash-safe like
        :meth:`submit`: buckets that ran before a crash are parked for
        :meth:`drain_completed`, the crashed one stays pending.  Records the
        age of the oldest flow still pending afterwards
        (``oldest_pending_s`` in the report).
        """
        if t > self._clock:
            self._clock = t
        clock, max_wait = self._clock, self.max_wait
        due = []
        for bucket, born in self._born.items():
            if born == -math.inf:
                self._born[bucket] = born = clock
            if max_wait < math.inf and clock - born >= max_wait:
                due.append((born, bucket))
        completed: list[FlowPrediction] = []
        try:
            for _, bucket in sorted(due):
                completed.extend(self._run_bucket(bucket, "deadline"))
        except BaseException:
            self._completed_backlog.extend(completed)
            raise
        self.report.observe_oldest_pending(
            clock - min(self._born.values()) if self._born else 0.0
        )
        return completed

    def flush(self) -> list[FlowPrediction]:
        """Run every pending bucket (shortest first); return the predictions."""
        completed: list[FlowPrediction] = []
        try:
            for bucket in sorted(self._buckets):
                completed.extend(self._run_bucket(bucket, "flush"))
        except BaseException:
            self._completed_backlog.extend(completed)
            raise
        return completed

    def drain_completed(self) -> list[FlowPrediction]:
        """Predictions completed inside a call that then raised.

        A multi-bucket ``submit``/``advance_clock``/``flush`` may crash after
        some buckets already ran; those buckets' predictions were observed
        and cached but never returned to the caller.  They are parked here,
        and the crashed bucket stays pending, so a direct caller that
        catches the crash and collects them here before calling again still
        serves every record exactly once.
        """
        backlog = self._completed_backlog
        self._completed_backlog = []
        return backlog

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _run_bucket(self, bucket: int, trigger: str) -> list[FlowPrediction]:
        queue = self._buckets.pop(bucket, [])
        born = self._born.pop(bucket, None)
        if not queue:
            return []
        records = [record for record, _, _, _ in queue]
        # Coalescing: one forward row per distinct context in the bucket.
        row_of: dict[bytes, int] = {}
        rows: list[int] = []  # flow -> its forward row
        owners: list[int] = []  # forward row -> the flow it was stacked from
        for j, (_, key, _, _) in enumerate(queue):
            row = row_of.setdefault(key, len(owners))
            if row == len(owners):
                owners.append(j)
            rows.append(row)
        # Every flow in the bucket has exactly the bucket's length, and its
        # mask is a prefix mask (see FlowRecord), so the stacked rows carry
        # no padding and attention needs no mask at all: passing None is
        # bit-identical and skips the (batch, heads, seq, seq) mask
        # temporaries, the forward's largest arrays.
        ids = np.stack([records[j].token_ids[:bucket] for j in owners])
        # Batch invariance (a lone row's logits matching the same row inside
        # any batch) is guaranteed for float64 builds by the classifier's
        # eval fast path, which runs singleton chunks as a duplicated pair
        # at the kernel layer; float32 builds hold the ulp budget instead.
        tracer = self.tracer
        try:
            t_forward = tracer.clock() if tracer is not None else 0.0
            logits = self.classifier.predict_logits(ids, None, batch_size=len(ids))
            t_done = tracer.clock() if tracer is not None else 0.0
            # Fancy indexing gives every flow its own copy of its row, so a
            # consumer mutating one prediction's logits never reaches a twin.
            if len(owners) < len(records):
                logits = logits[rows]
            # Poisoned-output scan happens before any row is cached or
            # emitted, so a fail_fast guard raise leaves the whole batch
            # pending exactly like a forward crash.
            actions: dict[int, str] = {}
            if self.output_guard is not None:
                finite = np.isfinite(logits).all(axis=1)
                for j in np.flatnonzero(~finite):
                    actions[int(j)] = self.output_guard(
                        records[int(j)], logits[int(j)]
                    )
        except BaseException:
            # Crash before any emission: restore the bucket untouched so a
            # later call runs these records again — nothing was cached,
            # observed, or returned.
            self._buckets[bucket] = queue
            self._born[bucket] = born
            raise
        self._pending -= len(queue)
        done = self.report.mark_submit()
        predictions = []
        coalesced = 0
        for j, ((record, key, submitted, trace_submit), row) in enumerate(
            zip(queue, logits)
        ):
            action = actions.get(j)
            if action == "drop":
                continue
            degraded = action == "degrade"
            if degraded:
                row = np.zeros_like(row)
            prediction = FlowPrediction(
                record=record, logits=row, cached=False,
                latency=done - submitted, degraded=degraded,
            )
            # Never cache fallback logits: a later identical flow must get a
            # real forward, not a poisoned hit.
            if self.cache is not None and not degraded:
                self.cache.put(self._cache_prefix + key, row)
            self.report.observe(prediction)
            coalesced += not degraded and owners[rows[j]] != j
            if tracer is not None:
                tracer.record_span(
                    record.key, record.generation, "batched",
                    trace_submit, t_forward, batch=len(records),
                )
                tracer.record_span(
                    record.key, record.generation, "inferred",
                    t_forward, t_done, batch=len(records),
                )
                tracer.annotate(
                    record.key, record.generation, "emitted", t=t_done,
                    cached=False, degraded=degraded,
                )
            predictions.append(prediction)
        self.report.observe_batch(len(records), trigger, coalesced)
        return predictions


def serve_stream(
    source,
    assembler,
    engine,
    *,
    policy: str = "fail_fast",
    fault_plan=None,
    dead_letters=None,
    max_restarts: int = 0,
    restart_backoff: float = 0.05,
):
    """Drive ``source -> assembler -> engine``; yield every prediction once.

    The stages run in the calling thread, in one loop: chunks stream from
    the source, the assembler closes flows (by timeout mid-stream, and the
    remainder at end of stream), and the engine micro-batches the closed
    flows through the model, in order.  After each chunk's flows are
    submitted, and before the next read, the loop advances the engine's
    stream clock to the chunk's time (:func:`~repro.serve.stream.chunk_clock`),
    which runs the buckets past the engine's max-wait deadline.  The loop
    uses nothing but ``iter(source)``, ``assembler.push``/``flush``,
    ``engine.submit``/``flush`` and — when the engine has it —
    ``engine.advance_clock``, so any object with that interface (a
    delegating timing wrapper, say) serves unchanged; an engine without
    ``advance_clock`` runs buckets only when full, under backpressure or at
    the end of the stream.

    Resilience (see :mod:`repro.serve.resilience`): ``policy`` selects the
    per-stage error policy (``"fail_fast"`` — the default — ``"quarantine"``
    or ``"degrade"``), ``fault_plan`` arms a seeded
    :class:`~repro.serve.faults.FaultPlan`, ``dead_letters`` supplies a
    :class:`~repro.serve.resilience.DeadLetterQueue` to collect drop
    provenance, and ``max_restarts``/``restart_backoff`` bound how often a
    crashed forward is retried in place.  When any of them is non-default,
    an :class:`~repro.serve.resilience.ArmedRun` substitutes guarded
    stand-ins for the source and the assembler, arms the caller's engine
    with a retrying forward and an output guard, and the same loop runs
    over them; the engine gets its classifier and output guard back on
    every exit, including the consumer closing this generator early.  With
    every knob at its default nothing is wrapped.
    """
    armed = None
    if (
        policy != "fail_fast"
        or fault_plan is not None
        or dead_letters is not None
        or max_restarts > 0
    ):
        from .resilience import ArmedRun

        armed = ArmedRun(
            source, assembler, engine,
            policy=policy, fault_plan=fault_plan, dead_letters=dead_letters,
            max_restarts=max_restarts, restart_backoff=restart_backoff,
        )
        source, assembler, engine = armed.source, armed.assembler, armed.engine
    advance_clock = getattr(engine, "advance_clock", None)
    try:
        for chunk in source:
            for record in assembler.push(chunk):
                yield from engine.submit(record)
            if advance_clock is not None:
                clock = chunk_clock(chunk)
                if clock is not None:
                    yield from advance_clock(clock)
        for record in assembler.flush():
            yield from engine.submit(record)
        yield from engine.flush()
    finally:
        if armed is not None:
            armed.restore()
