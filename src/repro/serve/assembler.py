"""Incremental flow assembly across chunk boundaries.

The offline pipeline groups a *complete* trace into flow contexts with one
lexicographic argsort
(:meth:`repro.context.builders.FlowContextBuilder.encode_columns`).  A
serving system never holds the complete trace; packets of one flow arrive
interleaved with every other flow's, split across chunks.  The
:class:`StreamingFlowAssembler` closes that gap: it buffers per-flow state
as chunks arrive, closes flows on NetFlow-style idle/active timeouts (or at
:meth:`flush`), and emits each closed flow as a :class:`FlowRecord` whose
encoded context row is **bit-identical** to what the offline
``encode_columns`` produces for the same flow on the equivalent full trace —
for any chunk size.

Two properties make that equivalence hold:

* grouping uses exactly the offline keys — the builder's own
  :meth:`~repro.context.builders.FlowContextBuilder.row_keys` (metadata id
  when present, 5-tuple/endpoint fallback otherwise), applied row by row, so
  a chunk boundary can never change which flow a packet joins;
* the per-flow buffer keeps only the first ``max_packets`` rows (the only
  rows the offline context and its majority label can depend on), and
  closed flows re-enter the builder's own ``encode_columns``, so
  tokenization, truncation and ``[CLS]``/``[SEP]`` assembly are literally
  the same code path.

Closure is batched.  Each :meth:`~StreamingFlowAssembler.push` gathers every
kept row of its chunk with one ``select`` (open flows hold ``(part, start,
stop)`` references into those per-chunk gathers), and every flow one
``push``, ``advance_clock`` or ``flush`` closes is encoded by a single
``encode_columns`` call: the closing flows' rows are concatenated
flow-major and each flow gets a synthetic group id, so the builder groups
them with its ``np.unique`` path and returns one row per flow, in closing
order.

Timeout semantics are shared with the offline feature table: the idle-split
predicate is :func:`repro.net.flow_columns.is_idle_split`, the rule
``FlowTable(idle_timeout=...)`` applies, so streamed flow splitting matches
``FlowStatsColumns.from_columns(..., idle_timeout=...)`` packet for packet
on time-ordered traces.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..context.builders import FlowContextBuilder
from ..net.columns import PacketColumns
from ..net.flow_columns import is_idle_split

__all__ = ["FlowRecord", "StreamingFlowAssembler"]


@dataclasses.dataclass
class FlowRecord:
    """One closed flow, encoded and ready for inference.

    ``token_ids`` / ``attention_mask`` are the exact ``encode_columns`` row
    (``[CLS] tokens... [SEP]`` padded to the builder's ``max_tokens``) the
    offline pipeline would produce for this flow; ``label`` is the per-flow
    majority label (``None`` when unlabelled, e.g. parsed captures).  The
    mask is a prefix mask: its first ``len(record)`` entries are True and
    the rest False, so ``token_ids[:len(record)]`` is the whole context.
    """

    key: object
    generation: int
    token_ids: np.ndarray
    attention_mask: np.ndarray
    label: str | None
    packet_count: int
    start_time: float
    end_time: float
    closed_by: str  # "idle" | "active" | "evict" | "flush"

    @property
    def cache_key(self) -> bytes:
        """The prediction-cache key: the real (unpadded) token ids as bytes.

        Keyed on the *encoded context*, the value the model's output is a
        function of — the serving twin of PR 4's wire-byte decode-cache
        discipline.  Two flows whose packets differ only in bytes the
        tokenizer abstracts away (DNS transaction ids, TLS randoms — exactly
        the decode cache's exempt bytes) map to the same key, and a hit
        returns logits identical to a fresh forward pass.
        """
        ids = self.token_ids[self.attention_mask]
        return ids.astype(np.int64, copy=False).tobytes()

    def __len__(self) -> int:
        return int(self.attention_mask.sum())


@dataclasses.dataclass
class _FlowState:
    """Open-flow buffer: the first ``max_packets`` rows plus counters.

    ``parts`` lists ``(columns, start, stop)`` references: the flow's kept
    rows are ``columns[start:stop]`` of each, in arrival order, where
    ``columns`` is a per-chunk gather shared with the chunk's other flows.
    """

    generation: int
    seq: int
    parts: list
    kept: int
    count: int
    start: float
    last: float


class StreamingFlowAssembler:
    """Group packets into flows incrementally, one bounded chunk at a time.

    Parameters
    ----------
    tokenizer, vocabulary:
        The (fitted) tokenizer and fixed vocabulary the offline pipeline
        trained with; closed flows are encoded against them.
    builder:
        A :class:`~repro.context.builders.FlowContextBuilder` (or
        :class:`~repro.context.builders.SessionContextBuilder`) instance
        defining the grouping keys, ``max_tokens``/``max_packets`` and label
        key.  Defaults to ``FlowContextBuilder()``.
    idle_timeout:
        NetFlow expiry: a per-flow gap strictly longer than this many
        seconds starts a new flow *generation* (and any flow idle longer
        than this against the stream clock is evicted and emitted).  0
        disables idle splitting — flows close only at :meth:`flush`.
    active_timeout:
        Long-lived flow cap: a packet arriving more than this many seconds
        after its flow's first packet closes the flow and starts a new
        generation.  0 disables.  Both rules depend only on each flow's own
        packet sequence, so the emitted records are chunk-size invariant.
    tracer:
        Optional :class:`repro.obs.trace.TraceRecorder`.  When set, every
        flow open is annotated as a ``first_packet`` event (the capture
        timestamp rides in the ``packet_ts`` attr), every close as a
        ``flow_closed`` event (reason and packet count), and each closed
        flow gets an ``encode`` span covering the batched ``encode_columns``
        call that encoded it (its own token count in ``tokens``).  Tracing
        observes only — the emitted records are bit-identical with or
        without it — and ``None`` (the default) leaves the assembly path
        unchanged.

    Chunks must arrive in capture-time order (all sources in
    :mod:`repro.serve.stream` yield time-sorted traces); within that
    contract the records are bit-identical to the offline
    ``encode_columns`` rows of the equivalent full trace.
    """

    def __init__(
        self,
        tokenizer,
        vocabulary,
        builder: FlowContextBuilder | None = None,
        idle_timeout: float = 0.0,
        active_timeout: float = 0.0,
        tracer=None,
    ):
        self.tokenizer = tokenizer
        self.vocabulary = vocabulary
        self.builder = builder if builder is not None else FlowContextBuilder()
        self.idle_timeout = float(idle_timeout)
        self.active_timeout = float(active_timeout)
        self.tracer = tracer
        self._flows: dict[object, _FlowState] = {}
        self._next_generation: dict[object, int] = {}
        self._clock = float("-inf")  # stream time: max timestamp seen
        self._seq = 0  # arrival counter for deterministic flush order

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of currently open flows."""
        return len(self._flows)

    # ------------------------------------------------------------------
    # Grouping keys
    # ------------------------------------------------------------------
    def row_keys(self, chunk: PacketColumns) -> list:
        """Per-row flow keys (resilience policies need them to attribute a
        failed chunk's rows to flows): the builder's :meth:`row_keys`."""
        return self.builder.row_keys(chunk)

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------
    def push(self, chunk: PacketColumns) -> list[FlowRecord]:
        """Absorb one chunk; return the flows it closed (possibly none).

        Closure happens three ways: an idle gap inside a flow's own packet
        sequence (``idle_timeout``), a flow outliving ``active_timeout``,
        and idle *eviction* — flows whose last packet has fallen more than
        ``idle_timeout`` behind the stream clock are closed even though no
        further packet of theirs arrived (bounding open-flow state and
        worst-case latency).
        """
        if len(chunk) == 0:
            return []
        timestamps = chunk.timestamps
        per_key: dict[object, list[int]] = {}
        for row, key in enumerate(self.builder.row_keys(chunk)):
            per_key.setdefault(key, []).append(row)
        closing: list[tuple] = []
        appends: list[tuple[_FlowState, list[int]]] = []
        for key, rows in per_key.items():
            state = self._flows.get(key)
            segment: list[int] = []
            for row in rows:
                t = float(timestamps[row])
                if state is not None:
                    idle = is_idle_split(t - state.last, self.idle_timeout)
                    active = (
                        self.active_timeout > 0
                        and t - state.start > self.active_timeout
                    )
                    if idle or active:
                        if segment:
                            self._append(state, segment, appends)
                            segment = []
                        closing.append(
                            self._detach(key, state, "idle" if idle else "active")
                        )
                        state = self._open(key, t, generation=state.generation + 1)
                    else:
                        state.last = t
                if state is None:
                    state = self._open(key, t)
                segment.append(row)
            if segment:
                self._append(state, segment, appends)
        if appends:
            # One gather for the whole chunk, flow-major; each flow keeps a
            # reference to its slice.
            gathered = chunk.select(np.asarray(
                [row for _, keep in appends for row in keep], dtype=np.int64
            ))
            start = 0
            for state, keep in appends:
                state.parts.append((gathered, start, start + len(keep)))
                start += len(keep)
        closing.extend(self._expire(float(timestamps.max())))
        return self._encode(closing)

    def advance_clock(self, t: float) -> list[FlowRecord]:
        """Advance the stream clock to ``t`` and evict flows idle against it.

        :meth:`push` applies the same rule with its chunk's largest
        timestamp; a resilience policy calls this directly to advance time
        past a failed chunk, so the surviving flows' idle evictions stay in
        step with the unfailed run.
        """
        return self._encode(self._expire(t))

    def flush(self) -> list[FlowRecord]:
        """Close and emit every remaining open flow, in first-arrival order."""
        return self._encode([
            self._detach(key, state, "flush")
            for key, state in sorted(
                self._flows.items(), key=lambda item: item[1].seq
            )
        ])

    # ------------------------------------------------------------------
    # Resilience hooks
    # ------------------------------------------------------------------
    def pending_generation(self, key: object) -> int:
        """The generation the *next* record of ``key`` would carry.

        The open flow's generation when one is buffered, else the next
        generation counter.  Quarantine policies record this before
        :meth:`discard_flow` so they can match exactly the sync-path records
        the poisoned flow key would have produced from here on.
        """
        state = self._flows.get(key)
        if state is not None:
            return state.generation
        return self._next_generation.get(key, 0)

    def discard_flow(self, key: object) -> int:
        """Drop ``key``'s open buffer without emitting a record.

        Returns the number of buffered packets discarded (0 when the flow
        was not open).  The generation counter is bumped exactly as a close
        would bump it, so a later reappearance of the key starts a fresh
        generation — the same numbering the sync path uses.
        """
        state = self._flows.pop(key, None)
        if state is None:
            return 0
        self._next_generation[key] = state.generation + 1
        return state.count

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    CHECKPOINT_FORMAT = "repro.serve.assembler/v1"

    def checkpoint(self) -> dict:
        """A picklable snapshot of all open-flow state and the stream clock.

        Captures everything :meth:`restore` needs to resume bit-identically:
        the clock, the arrival counter, per-key next-generation numbers, and
        each open flow's buffered rows (concatenated into one
        :class:`PacketColumns`) plus its counters.  The tokenizer, vocabulary
        and builder are configuration, not stream state — the restoring side
        supplies its own (equal) instances.
        """
        flows = []
        for key, state in sorted(self._flows.items(), key=lambda i: i[1].seq):
            columns = self._gather([state]) if state.parts else None
            flows.append({
                "key": key,
                "generation": state.generation,
                "seq": state.seq,
                "kept": state.kept,
                "count": state.count,
                "start": state.start,
                "last": state.last,
                "columns": columns,
            })
        return {
            "format": self.CHECKPOINT_FORMAT,
            "version": 1,
            "idle_timeout": self.idle_timeout,
            "active_timeout": self.active_timeout,
            "clock": self._clock,
            "seq": self._seq,
            "next_generation": dict(self._next_generation),
            "flows": flows,
        }

    def restore(self, state: dict) -> None:
        """Load a :meth:`checkpoint` snapshot, replacing current stream state.

        Raises ``ValueError`` on a foreign format or mismatched timeout
        configuration (a checkpoint only resumes correctly into an assembler
        with the same closure rules).
        """
        if state.get("format") != self.CHECKPOINT_FORMAT:
            raise ValueError(
                f"not an assembler checkpoint: {state.get('format')!r}"
            )
        for knob in ("idle_timeout", "active_timeout"):
            if float(state[knob]) != float(getattr(self, knob)):
                raise ValueError(
                    f"checkpoint {knob}={state[knob]} does not match "
                    f"assembler {knob}={getattr(self, knob)}"
                )
        self._clock = float(state["clock"])
        self._seq = int(state["seq"])
        self._next_generation = dict(state["next_generation"])
        self._flows = {}
        for flow in state["flows"]:
            columns = flow["columns"]
            self._flows[flow["key"]] = _FlowState(
                generation=int(flow["generation"]),
                seq=int(flow["seq"]),
                parts=[] if columns is None else [(columns, 0, len(columns))],
                kept=int(flow["kept"]),
                count=int(flow["count"]),
                start=float(flow["start"]),
                last=float(flow["last"]),
            )

    # ------------------------------------------------------------------
    # Flow state
    # ------------------------------------------------------------------
    def _open(self, key: object, t: float, generation: "int | None" = None) -> _FlowState:
        if generation is None:
            generation = self._next_generation.get(key, 0)
        state = _FlowState(
            generation=generation, seq=self._seq, parts=[],
            kept=0, count=0, start=t, last=t,
        )
        self._seq += 1
        self._flows[key] = state
        if self.tracer is not None:
            self.tracer.annotate(key, generation, "first_packet", packet_ts=t)
        return state

    def _append(self, state: _FlowState, rows: list[int], appends: list) -> None:
        """Count ``rows`` into ``state``; queue the rows it keeps in
        ``appends`` for the chunk's single gather."""
        state.count += len(rows)
        quota = self.builder.max_packets - state.kept
        if quota > 0:
            keep = rows[:quota]
            appends.append((state, keep))
            state.kept += len(keep)

    def _detach(self, key: object, state: _FlowState, reason: str) -> tuple:
        """Remove a closing flow from the open set; it is encoded later."""
        del self._flows[key]
        self._next_generation[key] = state.generation + 1
        if self.tracer is not None:
            self.tracer.annotate(
                key, state.generation, "flow_closed",
                reason=reason, packet_count=state.count,
            )
        return key, state, reason

    def _expire(self, t: float) -> list[tuple]:
        """Advance the clock to ``t``; detach flows idle against it."""
        self._clock = max(self._clock, float(t))
        if self.idle_timeout <= 0:
            return []
        return [
            self._detach(key, self._flows[key], "evict")
            for key in [
                key
                for key, state in self._flows.items()
                if is_idle_split(self._clock - state.last, self.idle_timeout)
            ]
        ]

    @staticmethod
    def _gather(states: list[_FlowState]) -> PacketColumns:
        """The kept rows of ``states`` as one batch, flow-major.

        One ``concat`` of the distinct per-chunk gathers the flows reference,
        then one ``select`` of their slices.
        """
        parts: list = []
        offsets: dict[int, int] = {}
        total = 0
        index: list[np.ndarray] = []
        for state in states:
            for part, start, stop in state.parts:
                offset = offsets.get(id(part))
                if offset is None:
                    offset = offsets[id(part)] = total
                    parts.append(part)
                    total += len(part)
                index.append(np.arange(offset + start, offset + stop))
        merged = type(parts[0]).concat(parts)
        return merged.select(np.concatenate(index))

    def _encode(self, closing: list[tuple]) -> list[FlowRecord]:
        """Encode detached flows with one ``encode_columns`` call."""
        if not closing:
            return []
        states = [state for _, state, _ in closing]
        batch = self._gather(states)
        # A synthetic id per flow: the builder groups by it with one
        # np.unique, numbering groups in closing order.
        groups = np.repeat(
            np.arange(len(states), dtype=np.int64),
            [state.kept for state in states],
        )
        batch.connection_ids = groups
        batch.session_ids = groups
        tracer = self.tracer
        if tracer is not None:
            t0 = tracer.clock()
        ids, mask, labels = self.builder.encode_columns(
            batch, self.tokenizer, self.vocabulary, return_labels=True
        )
        if tracer is not None:
            t1 = tracer.clock()
            tokens = mask.sum(axis=1).tolist()
            for (key, state, _), count in zip(closing, tokens):
                tracer.record_span(
                    key, state.generation, "encode", t0, t1, tokens=count,
                )
        return [
            FlowRecord(
                key=key,
                generation=state.generation,
                token_ids=ids[row],
                attention_mask=mask[row],
                label=labels[row],
                packet_count=state.count,
                start_time=state.start,
                end_time=state.last,
                closed_by=reason,
            )
            for row, (key, state, reason) in enumerate(closing)
        ]

