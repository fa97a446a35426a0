"""Continuously batched model serving with a prediction cache.

One flow at a time, a transformer forward wastes almost all of its time on
per-call overhead; the :class:`InferenceEngine` therefore batches.  Closed
flows wait in one FIFO pending list, and *everything* pending runs in one
forward at each stream-clock tick (:meth:`InferenceEngine.advance_clock`,
which :func:`serve_stream` calls once per chunk), when ``max_pending``
flows wait, and at :meth:`~InferenceEngine.flush` — the continuous
batching of LLM servers: each step serves whatever is pending.  The forward
mixes lengths without padding: ``predict_logits`` scores every row over its
own valid prefix, in length-sorted ragged chunks (:mod:`repro.core.fastpath`),
so float64 logits depend only on the row's own tokens.  The engine is
deterministic in the record sequence and the clock, and float64 rows are
computed independently of their batch, so streaming the same trace through
any chunking produces bit-identical float64 logits (float32 builds stay
within the documented ulp budget instead).  Class predictions match the
offline batched solver path.

Repeated traffic is cheaper still.  Within a run, flows with the same
encoded context are *coalesced*: the forward runs one row per distinct
context and every flow gets its own copy of that row's logits.  Across
runs, a :class:`PredictionCache` keyed by the encoded context
(:attr:`~repro.serve.assembler.FlowRecord.cache_key` — the serving twin of
the wire-byte decode cache) returns the stored logits for flows the model
has already seen, without any forward at all.

Every flow is served by the next tick after it arrives: the clock is
capture time, not wall time, so a run stays deterministic, and no flow
waits for traffic of its own length.
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
    """Work-conserving batched serving over a classifier's eval-mode forward.

    Parameters
    ----------
    classifier:
        Any model with a ``predict_logits(token_ids, attention_mask,
        batch_size) -> np.ndarray`` method that scores prefix-masked rows
        of mixed length —
        :class:`~repro.core.finetuning.SequenceClassifier` (the foundation
        model's fine-tuned head, as served for the NetGLUE packet tasks) is
        the canonical one.
    batch_size:
        Rows per forward chunk: a run's distinct contexts are sorted by
        length and cut into chunks of this many rows.
    max_pending:
        Flows allowed to wait: the submission that brings the pending list
        to this size runs it (for callers that never advance the clock).
    cache:
        A :class:`PredictionCache`, or ``None`` to disable caching (the
        benchmark's gated configuration, so the measured speedup is pure
        batching).
    tracer:
        Optional :class:`repro.obs.trace.TraceRecorder`.  When set, every
        served flow gets a ``batched`` span (submit until its run started:
        queue wait), an ``inferred`` span (the model forward, shared
        start/end across the run) and an ``emitted`` event; cache hits get
        ``cache_hit`` + ``emitted`` events instead.  Tracing observes only —
        predictions, logits and cache contents are bit-identical with or
        without it — and ``None`` (the default) leaves the serving path
        unchanged.

    A *run* serves every pending flow: it coalesces equal
    :attr:`~repro.serve.assembler.FlowRecord.cache_key` contexts, stacks
    one row per distinct context padded to the widest with its prefix
    mask, makes one ``predict_logits`` call and emits in FIFO order.  Runs
    happen at each :meth:`advance_clock` (trigger ``clock``), when
    ``max_pending`` flows wait (``full``) and at :meth:`flush` (``flush``).
    Coalescing (counted as ``coalesced`` in :meth:`summary`) keeps the
    cache puts, the output guard and the trace spans per flow, but a
    poisoned row reaches every flow on it.  The policy never looks at the
    dtype, so float32 and float64 engines emit the same flows in the same
    order with the same cache hits.  The classifier is served as built;
    for the float32 packed-gemm path pass
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
    ):
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if max_pending <= 0:
            raise ValueError("max_pending must be positive")
        self.classifier = classifier
        self.batch_size = batch_size
        self.max_pending = max_pending
        self.cache = cache
        # Optional output guard (resilience): called as guard(record, row)
        # for every non-finite logits row before the run is emitted;
        # returns "drop"/"degrade" or raises, per policy.
        self.output_guard = None
        self.tracer = tracer
        # Pending entries are (record, key, submitted, trace_submit): the
        # record's ``cache_key`` (computed once per flow, it keys both the
        # cache and coalescing), the report timestamp and, when tracing,
        # the tracer-clock submit time the ``batched`` (queue-wait) span
        # starts from.  FIFO: a run emits in this order.
        self._pending: list[tuple[FlowRecord, bytes, float, float]] = []
        self._clock = -math.inf
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
        return len(self._pending)

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

        A cache hit completes immediately.  A miss joins the pending list,
        and the submission that brings it to ``max_pending`` flows runs
        every pending flow — completions of *other* flows can therefore be
        returned by a submission, so consume the returned list every call.
        """
        submitted = self.report.mark_submit()
        tracer = self.tracer
        trace_submit = tracer.clock() if tracer is not None else 0.0
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
                self.report.observe(prediction, self._clock)
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
        self._pending.append((record, key, submitted, trace_submit))
        if len(self._pending) >= self.max_pending:
            return self._run("full")
        return []

    def advance_clock(self, t: float) -> list[FlowPrediction]:
        """Advance the stream clock to ``t`` and run every pending flow.

        The clock never moves back.  A crashed forward leaves every flow
        pending (nothing was emitted, cached or observed), so the next call
        serves them all exactly once.
        """
        if t > self._clock:
            self._clock = t
        return self._run("clock")

    def flush(self) -> list[FlowPrediction]:
        """Run every pending flow; return the predictions."""
        return self._run("flush")

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _run(self, trigger: str) -> list[FlowPrediction]:
        queue = self._pending
        if not queue:
            return []
        # Coalescing: one forward row per distinct pending context.
        row_of: dict[bytes, int] = {}
        rows: list[int] = []  # flow -> its forward row
        owners: list[int] = []  # forward row -> the flow it was stacked from
        for j, (_, key, _, _) in enumerate(queue):
            row = row_of.setdefault(key, len(owners))
            if row == len(owners):
                owners.append(j)
            rows.append(row)
        # Every record's mask is a prefix mask (see FlowRecord): trimmed to
        # the widest distinct context, the rows stack without losing a
        # token, and the forward scores each over its own prefix.
        mask = np.stack([queue[j][0].attention_mask for j in owners])
        width = int(mask.sum(axis=1).max())
        ids = np.stack([queue[j][0].token_ids[:width] for j in owners])
        # A crash anywhere before the emission loop (the forward, the
        # output guard) leaves the pending list untouched, so a later call
        # runs these records again: nothing was cached, observed or returned.
        tracer = self.tracer
        t_forward = tracer.clock() if tracer is not None else 0.0
        logits = self.classifier.predict_logits(
            ids, mask[:, :width], batch_size=self.batch_size
        )
        t_done = tracer.clock() if tracer is not None else 0.0
        # Fancy indexing gives every flow its own copy of its row, so a
        # consumer mutating one prediction's logits never reaches a twin.
        if len(owners) < len(queue):
            logits = logits[rows]
        # The poisoned-output scan runs before any row is cached or emitted,
        # so a fail_fast guard raise leaves the run pending like a crash.
        actions: dict[int, str] = {}
        if self.output_guard is not None:
            finite = np.isfinite(logits).all(axis=1)
            for j in np.flatnonzero(~finite):
                actions[int(j)] = self.output_guard(queue[int(j)][0], logits[int(j)])
        self._pending = []
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
            coalesced += not degraded and owners[rows[j]] != j
            if tracer is not None:
                tracer.record_span(
                    record.key, record.generation, "batched",
                    trace_submit, t_forward, batch=len(queue),
                )
                tracer.record_span(
                    record.key, record.generation, "inferred",
                    t_forward, t_done, batch=len(queue),
                )
                tracer.annotate(
                    record.key, record.generation, "emitted", t=t_done,
                    cached=False, degraded=degraded,
                )
            predictions.append(prediction)
        self.report.observe_run(
            predictions, len(queue), trigger, coalesced, self._clock
        )
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
    remainder at end of stream), and the engine batches the closed flows
    through the model, in order.  After each chunk's flows are submitted,
    and before the next read, the loop advances the engine's stream clock
    to the chunk's time (:func:`~repro.serve.stream.chunk_clock`), which
    serves every flow still pending.  The loop uses nothing but
    ``iter(source)``, ``assembler.push``/``flush``, ``engine.submit``/``flush``
    and — when the engine has it — ``engine.advance_clock``, so any object
    with that interface (a delegating timing wrapper, say) serves
    unchanged; an engine without ``advance_clock`` runs only when
    ``max_pending`` flows wait and at the end of the stream.

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
