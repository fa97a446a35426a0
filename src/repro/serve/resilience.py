"""Per-stage error policies, dead-letter accounting, worker supervision.

The serving stack's failure model, layered over the unchanged fast path:

* **Policies** — every stage error is handled by one of :data:`POLICIES`:
  ``fail_fast`` (today's behavior and the default: stop the pipeline and
  re-raise), ``quarantine`` (drop the affected flows into the dead-letter
  queue and keep serving everything else), ``degrade`` (like quarantine for
  data that no longer exists — a lost chunk can't be served — but serve
  fallback predictions, flagged ``degraded=True``, where only the *model*
  failed).

* **Conservation** — the load-bearing invariant under ``quarantine``: every
  input packet is either served or accounted for in the dead-letter queue,
  and the served multiset equals the fault-free sync-path multiset minus
  exactly the dead-lettered flows.  The :class:`AssemblyGuard` enforces the
  flow-key poisoning discipline that makes this exact: a chunk that fails
  (source read, integrity validation, assembly) poisons every flow key it
  carried — their open buffers are discarded, their future packets dropped
  at the door with per-key packet accounting — while the stream clock still
  advances over the lost chunk so the surviving flows' idle evictions stay
  in step with the sync path.

* **Supervision** — the :class:`SupervisedForward` classifier proxy
  retries a crashed forward on the same batch, with bounded restarts and
  exponential backoff, so the recovered run is bit-identical to a
  fault-free run and serves every flow at the same point of the stream.
  Exhausted restarts condemn the worker: ``fail_fast`` re-raises,
  ``quarantine`` dead-letters every flow it would have forwarded,
  ``degrade`` serves zero-logit fallbacks — both through the
  :class:`LogitGuard`, the one drop/degrade path for model failures.

* **Arming** — :class:`ArmedRun` is how
  :func:`~repro.serve.engine.serve_stream` applies all of the above: it
  substitutes a source whose failed reads arrive as :class:`SourceFailure`
  markers and an :class:`AssemblyGuard`, installs the forward proxy and
  the guard on the caller's engine, and the driver's one loop runs over
  them.

* **Checkpoint/restore** — :func:`save_checkpoint`/:func:`load_checkpoint`
  persist an assembler's open-flow state (see
  :meth:`StreamingFlowAssembler.checkpoint`) so an interrupted pipeline
  resumes bit-identically.
"""

from __future__ import annotations

import dataclasses
import pickle
import time

import numpy as np

from .assembler import FlowRecord
from .faults import wrap_classifier, wrap_source
from .stream import SourceFailure, chunk_clock

__all__ = [
    "POLICIES",
    "ChunkIntegrityError",
    "PoisonedLogitsError",
    "DeadLetter",
    "DeadLetterQueue",
    "LogitGuard",
    "AssemblyGuard",
    "SupervisedForward",
    "SourceFailure",
    "ArmedRun",
    "save_checkpoint",
    "load_checkpoint",
]

#: The per-stage error policies, in increasing order of tolerance.
POLICIES = ("fail_fast", "quarantine", "degrade")


class ChunkIntegrityError(RuntimeError):
    """A chunk failed pre-assembly validation (corrupt lengths/timestamps)."""


class PoisonedLogitsError(RuntimeError):
    """A model forward produced non-finite logits under ``fail_fast``."""


@dataclasses.dataclass
class DeadLetter:
    """One dropped or degraded flow, with full provenance.

    ``stage`` is where the failure happened (``source``, ``assembly``,
    ``inference``, ``output``); ``action`` is what the policy did
    (``dropped`` or ``degraded``).  For chunk-level failures the entry is
    per *flow key* and ``packet_count`` keeps accumulating as later packets
    of the poisoned key are dropped at the door — so the queue's packet
    total plus the served packet total always equals the input packet total
    (the conservation invariant).
    """

    stage: str
    error: str
    action: str
    flow_key: object
    generation: int
    packet_count: int
    chunk_index: "int | None" = None


class DeadLetterQueue:
    """Append-only log of :class:`DeadLetter` entries.

    With a :class:`repro.obs.trace.TraceRecorder` attached, every appended
    entry also lands in the trace as a ``dead_letter`` event carrying the
    entry's full provenance — so a dropped flow's trace shows exactly where
    and why it left the pipeline.
    """

    def __init__(self, tracer=None):
        self._entries: list[DeadLetter] = []
        self.tracer = tracer

    def append(self, entry: DeadLetter) -> None:
        self._entries.append(entry)
        if self.tracer is not None:
            self.tracer.annotate(
                entry.flow_key, entry.generation, "dead_letter",
                failed_stage=entry.stage, error=entry.error,
                action=entry.action, packet_count=entry.packet_count,
                chunk_index=entry.chunk_index,
            )

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(list(self._entries))

    @property
    def entries(self) -> list[DeadLetter]:
        return list(self._entries)

    @property
    def packets(self) -> int:
        """Total packets accounted for across every entry."""
        return sum(entry.packet_count for entry in self._entries)

    def summary(self) -> dict:
        """Counts by (stage, action) plus the packet total."""
        by_stage: dict[str, int] = {}
        by_action: dict[str, int] = {}
        for entry in self._entries:
            by_stage[entry.stage] = by_stage.get(entry.stage, 0) + 1
            by_action[entry.action] = by_action.get(entry.action, 0) + 1
        return {
            "entries": len(self._entries),
            "packets": self.packets,
            "by_stage": by_stage,
            "by_action": by_action,
        }


class LogitGuard:
    """Policy for non-finite model outputs, installed as the engine's
    ``output_guard``.  Returns the engine's per-row action, or raises under
    ``fail_fast`` — before the batch emits anything, so the raise leaves the
    bucket pending like a forward crash.

    Once ``forward`` (the run's :class:`SupervisedForward`) is condemned,
    the non-finite rows are its stand-ins for a dead model: they are
    recorded as ``inference`` dead letters carrying the crash that
    condemned it.
    """

    def __init__(self, policy: str, dead_letters: DeadLetterQueue, report,
                 forward: "SupervisedForward"):
        self.policy = policy
        self.dead_letters = dead_letters
        self.report = report
        self.forward = forward

    def __call__(self, record: FlowRecord, row: np.ndarray) -> str:
        crash = self.forward.condemned
        if crash is None:
            if self.policy == "fail_fast":
                raise PoisonedLogitsError(
                    f"non-finite logits for flow {record.key!r} "
                    f"(generation {record.generation})"
                )
            self.report.count("errors")
        action = "dropped" if self.policy == "quarantine" else "degraded"
        self.dead_letters.append(DeadLetter(
            stage="output" if crash is None else "inference",
            error="non-finite logits" if crash is None else crash,
            action=action,
            flow_key=record.key,
            generation=record.generation,
            packet_count=record.packet_count,
        ))
        if self.policy == "quarantine":
            self.report.count("quarantined")
            return "drop"
        self.report.count("degraded")
        return "degrade"


def _failures_as_markers(source):
    """Yield ``source``'s chunks, and a :class:`SourceFailure` per failed read."""
    stream = iter(source)
    while True:
        try:
            chunk = next(stream)
        except StopIteration:
            return
        except Exception as error:
            yield SourceFailure(error)
            continue
        yield chunk


class AssemblyGuard:
    """Policy wrapper around an assembler: validation, fault injection,
    flow-key poisoning, and lost-chunk time accounting.

    The poisoning discipline is what makes quarantine *exact*: once a chunk
    fails, every flow key it carried is condemned forever — its open buffer
    discarded (counted), its later packets dropped at the door (counted into
    the same dead-letter entry) — because a flow that lost packets in the
    middle can never again produce the record the sync path would.  The
    stream clock is still advanced over the lost chunk so surviving flows
    evict on exactly the sync path's schedule.
    """

    def __init__(self, assembler, policy: str, dead_letters: DeadLetterQueue,
                 report, fault_plan=None):
        self.assembler = assembler
        self.policy = policy
        self.dead_letters = dead_letters
        self.report = report
        self.fault_plan = fault_plan
        #: key -> its DeadLetter entry (packet counts keep accumulating).
        self.poisoned: dict[object, DeadLetter] = {}
        #: Index of the latest source read, failed or not (dead-letter
        #: ``chunk_index`` provenance).
        self._chunk_index = -1

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------
    def push(self, chunk) -> list[FlowRecord]:
        """Assemble one source read: a chunk, or a :class:`SourceFailure`."""
        self._chunk_index += 1
        index = self._chunk_index
        if isinstance(chunk, SourceFailure):
            return self.source_failure(chunk.error, index)
        if len(chunk) == 0:
            return []
        clock = chunk_clock(chunk)
        chunk = self._strip_poisoned(chunk)
        spec = (
            self.fault_plan.take("assembly")
            if self.fault_plan is not None else None
        )
        try:
            if spec is not None:
                from .faults import AssemblyFaultError

                raise AssemblyFaultError(
                    f"injected assembly failure at chunk {index}"
                )
            self._validate(chunk, index)
            closed = (
                list(self.assembler.push(chunk)) if len(chunk) else []
            )
            if clock is not None:
                closed.extend(self.assembler.advance_clock(clock))
            return closed
        except Exception as error:
            if self.policy == "fail_fast":
                raise
            return self.quarantine(chunk, "assembly", index, error, clock)

    def source_failure(self, error, chunk_index: int) -> list[FlowRecord]:
        """Account a failed source read (``quarantine``/``degrade`` only).

        When the error carries the chunk that was lost
        (:class:`~repro.serve.faults.SourceFaultError` does), its flows are
        poisoned and its packets accounted, and the stream clock advances to
        its time (:func:`~repro.serve.stream.chunk_clock` — the same clock
        whose ticks run the engine's pending flows); an opaque failure just
        counts an error — there is nothing to conserve for data that never
        arrived.
        """
        chunk = getattr(error, "chunk", None)
        return self.quarantine(
            chunk, "source", chunk_index, error, chunk_clock(chunk)
        )

    def flush(self) -> list[FlowRecord]:
        return self.assembler.flush()

    # ------------------------------------------------------------------
    # Policy internals
    # ------------------------------------------------------------------
    def quarantine(self, chunk, stage: str, chunk_index: int, error,
                   clock: "float | None" = None) -> list[FlowRecord]:
        """Poison every flow key in a failed chunk; advance time past it."""
        self.report.count("errors")
        if chunk is not None and len(chunk):
            keys = self.assembler.row_keys(chunk)
            counts: dict[object, int] = {}
            for key in keys:
                counts[key] = counts.get(key, 0) + 1
            for key, in_chunk in counts.items():
                entry = self.poisoned.get(key)
                if entry is not None:
                    entry.packet_count += in_chunk
                    continue
                generation = self.assembler.pending_generation(key)
                buffered = self.assembler.discard_flow(key)
                entry = DeadLetter(
                    stage=stage,
                    error=repr(error),
                    action="dropped",
                    flow_key=key,
                    generation=generation,
                    packet_count=buffered + in_chunk,
                    chunk_index=chunk_index,
                )
                self.poisoned[key] = entry
                self.dead_letters.append(entry)
                self.report.count("quarantined")
        if clock is not None:
            return list(self.assembler.advance_clock(clock))
        return []

    def _strip_poisoned(self, chunk):
        """Drop rows of condemned keys, accumulating their packet counts."""
        if not self.poisoned:
            return chunk
        keys = self.assembler.row_keys(chunk)
        drop = [row for row, key in enumerate(keys) if key in self.poisoned]
        if not drop:
            return chunk
        for row in drop:
            self.poisoned[keys[row]].packet_count += 1
        keep = np.array(
            [row for row in range(len(chunk)) if keys[row] not in self.poisoned],
            dtype=np.int64,
        )
        return chunk[keep]

    def _validate(self, chunk, index: int) -> None:
        """Integrity checks a corrupt capture fails deterministically."""
        if len(chunk) == 0:
            return
        lengths = chunk.payload_lengths
        if lengths.min() < 0 or lengths.max() > chunk.payload.shape[-1]:
            raise ChunkIntegrityError(
                f"chunk {index}: payload lengths outside the payload matrix "
                f"(max {int(lengths.max())} vs width {chunk.payload.shape[-1]})"
            )
        if not np.isfinite(chunk.timestamps).all():
            raise ChunkIntegrityError(
                f"chunk {index}: non-finite timestamps"
            )


class SupervisedForward:
    """Classifier proxy that retries a crashed forward in place.

    A ``predict_logits`` that raises is re-run on the same batch and the
    same classifier after a backoff of ``backoff * 2**n`` (``n`` restarts so
    far), up to ``max_restarts`` times per run.  The engine never sees a
    recovered crash, so its buckets, stream clock and cache stay exactly as
    in a fault-free run: recovered logits are bit-identical for every build
    dtype, and every flow is served at the same point of the stream.

    Exhausted restarts condemn the worker: ``fail_fast`` re-raises, and
    under ``quarantine``/``degrade`` every later forward returns non-finite
    rows without calling the model, which the :class:`LogitGuard` drops or
    degrades as ``inference`` dead letters.  Cache hits never reach the
    forward, so a condemned worker still serves them.
    """

    def __init__(self, classifier, policy: str, report, *,
                 max_restarts: int, backoff: float, tracer=None,
                 sleep=time.sleep):
        self._classifier = classifier
        self.policy = policy
        self.report = report
        self.max_restarts = max_restarts
        self.backoff = backoff
        self.tracer = tracer
        self.sleep = sleep
        self.restarts = 0
        #: ``repr`` of the crash that condemned the worker, else ``None``.
        self.condemned: "str | None" = None

    def predict_logits(self, token_ids, attention_mask=None, **kwargs):
        while self.condemned is None:
            try:
                return self._classifier.predict_logits(
                    token_ids, attention_mask, **kwargs
                )
            except Exception as error:
                self.report.count("errors")
                if self.restarts < self.max_restarts:
                    self._restart(error, len(token_ids))
                elif self.policy == "fail_fast":
                    raise
                else:
                    self.condemned = repr(error)
        classes = getattr(self._classifier, "num_classes", None) or 2
        dtype = getattr(self._classifier, "model_dtype", "float64")
        return np.full((len(token_ids), int(classes)), np.nan, dtype=dtype)

    def _restart(self, error, rows: int) -> None:
        self.sleep(self.backoff * 2 ** self.restarts)
        self.restarts += 1
        self.report.count("restarts")
        self.report.count("retries", rows)
        if self.tracer is not None:
            # Restarts are per-worker, not per-flow; "worker" stands in as
            # the trace key so provenance still lands in the trace.
            self.tracer.annotate(
                "worker", self.restarts, "worker_restart",
                error=repr(error), rows=rows,
            )

    def __getattr__(self, name):
        return getattr(self._classifier, name)


class ArmedRun:
    """The resilience layer armed for one
    :func:`~repro.serve.engine.serve_stream` run.

    Substitutes a stand-in for two stages — :attr:`source` (under a
    non-``fail_fast`` policy a failed read becomes a :class:`SourceFailure`
    marker instead of an exception) and :attr:`assembler` (an
    :class:`AssemblyGuard`) — so the driver runs its one loop over them
    unchanged; :attr:`engine` is the caller's engine.  Dropped flows land
    in :attr:`dead_letters` (a fresh queue when ``None`` is passed).

    Arming installs a :class:`SupervisedForward` over the fault plan's
    classifier wrapper, and a :class:`LogitGuard`, on the caller's engine;
    :meth:`restore` puts both back, so a later run on the same engine never
    inherits this run's dead-letter queue, injected faults or condemned
    worker.
    """

    def __init__(self, source, assembler, engine, *, policy: str, fault_plan,
                 dead_letters, max_restarts: int, restart_backoff: float):
        if policy not in POLICIES:
            raise ValueError(
                f"unknown policy {policy!r} (choose from {POLICIES})"
            )
        self.dead_letters = (
            dead_letters if dead_letters is not None
            else DeadLetterQueue(tracer=engine.tracer)
        )
        report = engine.report
        source = wrap_source(source, fault_plan)
        self.source = (
            source if policy == "fail_fast" else _failures_as_markers(source)
        )
        self.assembler = AssemblyGuard(
            assembler, policy, self.dead_letters, report, fault_plan=fault_plan
        )
        self.engine = engine
        # Mutate the caller's engine last: restore() undoes exactly this.
        self._saved = (engine.classifier, engine.output_guard)
        forward = SupervisedForward(
            wrap_classifier(engine.classifier, fault_plan), policy, report,
            max_restarts=max_restarts, backoff=restart_backoff,
            tracer=engine.tracer,
        )
        engine.classifier = forward
        engine.output_guard = LogitGuard(
            policy, self.dead_letters, report, forward
        )

    def restore(self) -> None:
        """Give the caller's engine back its classifier and output guard."""
        self.engine.classifier, self.engine.output_guard = self._saved


# ----------------------------------------------------------------------
# Checkpoint / restore
# ----------------------------------------------------------------------
def save_checkpoint(assembler, path) -> dict:
    """Snapshot ``assembler``'s open-flow state to ``path`` (pickle).

    Writes :meth:`StreamingFlowAssembler.checkpoint` and returns the state
    dict that was written.
    """
    state = assembler.checkpoint()
    with open(path, "wb") as handle:
        pickle.dump(state, handle)
    return state


def load_checkpoint(assembler, path):
    """Restore ``assembler`` from a :func:`save_checkpoint` file.

    The assembler must be configured identically (same timeouts) to
    the one that saved the snapshot; resuming the remaining stream then
    produces records bit-identical to the uninterrupted run.  Returns the
    assembler.
    """
    with open(path, "rb") as handle:
        state = pickle.load(handle)
    assembler.restore(state)
    return assembler
