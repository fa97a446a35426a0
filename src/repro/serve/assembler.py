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

* grouping uses exactly the offline keys — the builder's metadata id
  (``connection_id`` / ``session_id``) when present, its 5-tuple/endpoint
  fallback otherwise — applied row by row, so a chunk boundary can never
  change which flow a packet joins;
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
import zlib

import numpy as np

from ..context.builders import FlowContextBuilder
from ..net.columns import PacketColumns
from ..net.flow_columns import is_idle_split

__all__ = ["FlowRecord", "StreamingFlowAssembler", "ShardedAssembler"]


@dataclasses.dataclass
class FlowRecord:
    """One closed flow, encoded and ready for inference.

    ``token_ids`` / ``attention_mask`` are the exact ``encode_columns`` row
    (``[CLS] tokens... [SEP]`` padded to the builder's ``max_tokens``) the
    offline pipeline would produce for this flow; ``label`` is the per-flow
    majority label (``None`` when unlabelled, e.g. parsed captures).
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

    @property
    def stream_time(self) -> float:
        """The stream clock: the largest packet timestamp seen so far."""
        return self._clock

    # ------------------------------------------------------------------
    # Grouping keys
    # ------------------------------------------------------------------
    def row_keys(self, chunk: PacketColumns) -> list:
        """Public per-row group keys (resilience policies need them to
        attribute a failed chunk's rows to flows)."""
        return self._row_keys(chunk)

    def _row_keys(self, chunk: PacketColumns) -> list:
        """Per-row group keys, identical to the builder's offline grouping.

        Always the uniform per-row rule (metadata id string, else the
        builder's fallback key) — never the all-integer fast path — so a
        flow keeps one key even when *other* rows of some chunk lack ids.
        """
        builder = self.builder
        id_key = builder._id_key
        prefix = builder._id_prefix
        keys = []
        for row, md in enumerate(chunk.metadata):
            if id_key in md:
                keys.append(f"{prefix}-{md[id_key]}")
            else:
                keys.append(builder._fallback_key(chunk, row))
        return keys

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
        for row, key in enumerate(self._row_keys(chunk)):
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
        timestamp; a :class:`ShardedAssembler` additionally broadcasts the
        *whole* chunk's clock to every shard — including shards that received
        no rows — so the set of evicted flows (and each record's
        ``closed_by`` reason) is identical to the single-assembler run on the
        unsharded stream.
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


_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)


def _mix64(ids: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer over a uint64 column (vectorized, seed-free).

    The shard hash must be a pure function of the value — stable across
    processes and Python hash randomization — and well-mixed, so consecutive
    connection ids (the generators hand them out sequentially) spread evenly
    instead of striping shards.
    """
    x = (ids + np.uint64(0x9E3779B97F4A7C15)) & _MASK64
    x = ((x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & _MASK64
    x = ((x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)) & _MASK64
    return x ^ (x >> np.uint64(31))


def _string_shard(key: object, num_shards: int) -> int:
    """Deterministic shard of a string flow key (CRC32, hash-seed free)."""
    return zlib.crc32(str(key).encode("utf-8")) % num_shards


_INT64_MAX = 2**63 - 1


def _canonical_id(value) -> int:
    """A metadata id as a vectorizable int64, or ``-1`` for the string path.

    Pure function of the value (never of the surrounding chunk), so a flow's
    shard is stable across any chunking.  Only plain non-negative integers in
    int64 range qualify; bools, negatives, huge ints and everything else
    falls back to hashing the rendered key string.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        value = int(value)
        if 0 <= value <= _INT64_MAX:
            return value
    return -1


class ShardedAssembler:
    """Partition a packet stream across per-shard flow assemblers by key hash.

    The sharding invariant: the shard of a row is a pure function of the
    row's *flow key* — the exact key :class:`StreamingFlowAssembler` groups
    by — so every packet of a flow lands on the same shard and each shard's
    assembler sees a complete, order-preserved sub-stream.  Together with a
    per-chunk stream-clock broadcast (:meth:`StreamingFlowAssembler.advance_clock`,
    so idle eviction fires on the same global clock everywhere), the multiset
    of emitted :class:`FlowRecord` objects — keys, generations, encoded
    contexts, labels, packet counts, timestamps and ``closed_by`` reasons —
    is identical to a single assembler consuming the unsharded stream.

    Bucketing is vectorized: rows whose metadata carries the builder's
    integer id (``connection_id`` / ``session_id``) are sharded by a
    SplitMix64 hash of the id column in one array pass; only rows without a
    usable integer id fall back to a per-row CRC32 of the same string key
    the assembler itself would group by.  Those two hash domains can never
    disagree about one key: an integer id ``n`` always produces the key
    ``f"{prefix}-{n}"`` and always hashes through the integer path, while
    fallback keys (5-tuple / endpoint strings, or non-canonical id values)
    always hash through the string path.

    ``push``/``flush`` are synchronous — sharding partitions the *state*,
    and :func:`~repro.serve.engine.serve_stream` drives it like any
    assembler.  Records closed by one call are merged in stream-clock order
    (``end_time``, then ``start_time``, key and generation as tie-breaks),
    deterministically for any shard count.
    """

    def __init__(self, assemblers: list[StreamingFlowAssembler]):
        if not assemblers:
            raise ValueError("at least one shard assembler is required")
        template = assemblers[0]
        for other in assemblers[1:]:
            if other.builder.__class__ is not template.builder.__class__:
                raise ValueError("shard assemblers must share a builder type")
        self.assemblers = assemblers
        self.builder = template.builder

    @classmethod
    def from_template(
        cls, assembler: StreamingFlowAssembler, shards: int
    ) -> "ShardedAssembler":
        """Build ``shards`` assemblers configured like ``assembler``.

        The shards share the template's tokenizer, vocabulary, builder and
        tracer (all read-mostly at serve time; the trace recorder is
        thread-safe); each gets its own flow-state dictionaries.  The
        template itself is not used, so its open-flow state stays untouched.
        """
        if shards <= 0:
            raise ValueError("shards must be positive")
        return cls([
            StreamingFlowAssembler(
                assembler.tokenizer,
                assembler.vocabulary,
                builder=assembler.builder,
                idle_timeout=assembler.idle_timeout,
                active_timeout=assembler.active_timeout,
                tracer=assembler.tracer,
            )
            for _ in range(shards)
        ])

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self.assemblers)

    def __len__(self) -> int:
        """Total currently-open flows across every shard."""
        return sum(len(assembler) for assembler in self.assemblers)

    # ------------------------------------------------------------------
    # Bucketing
    # ------------------------------------------------------------------
    def shard_rows(self, chunk: PacketColumns) -> np.ndarray:
        """Per-row shard indices (the vectorized hash-bucketing pass)."""
        num_shards = self.num_shards
        builder = self.builder
        id_key = builder._id_key
        prefix = builder._id_prefix
        n = len(chunk)
        metadata = chunk.metadata
        ids = np.fromiter(
            (_canonical_id(md.get(id_key)) for md in metadata), np.int64, n
        )
        shards = np.empty(n, dtype=np.int64)
        have_id = ids >= 0
        if have_id.any():
            shards[have_id] = (
                _mix64(ids[have_id].astype(np.uint64)) % np.uint64(num_shards)
            ).astype(np.int64)
        for row in np.flatnonzero(~have_id):
            md = metadata[row]
            if id_key not in md:
                shards[row] = _string_shard(
                    builder._fallback_key(chunk, row), num_shards
                )
                continue
            # Non-canonical id value.  Its rendered key may still collide
            # with a canonical id's rendering (value "5" and value 5 both
            # group as "conn-5"), so digit-canonical renderings re-enter the
            # integer hash domain; everything else is string-hashed.  One key
            # string therefore always hashes through exactly one domain.
            rendered = str(md[id_key])
            if (
                rendered.isascii()
                and rendered.isdigit()
                and (rendered == "0" or not rendered.startswith("0"))
                and int(rendered) <= _INT64_MAX
            ):
                shards[row] = int(
                    _mix64(np.asarray([int(rendered)], dtype=np.uint64))[0]
                ) % num_shards
            else:
                shards[row] = _string_shard(f"{prefix}-{rendered}", num_shards)
        return shards

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------
    def push(self, chunk: PacketColumns) -> list[FlowRecord]:
        """Route one chunk's rows to their shards; return the closed flows."""
        closed: list[FlowRecord] = []
        if len(chunk) == 0:
            return closed
        shards = self.shard_rows(chunk)
        for shard, assembler in enumerate(self.assemblers):
            rows = np.flatnonzero(shards == shard)
            if len(rows):
                closed.extend(assembler.push(chunk[rows]))
        # Broadcast the chunk clock so shards that saw no rows still evict
        # exactly what the single-assembler run would have evicted here.
        clock = float(chunk.timestamps.max())
        for assembler in self.assemblers:
            closed.extend(assembler.advance_clock(clock))
        return self._merged(closed)

    def advance_clock(self, t: float) -> list[FlowRecord]:
        """Broadcast the stream clock to every shard; merge the evictions.

        Lets a resilience policy advance time past a failed chunk (whose
        rows were lost) so the surviving flows' idle evictions stay in step
        with the single-assembler sync path.
        """
        closed: list[FlowRecord] = []
        for assembler in self.assemblers:
            closed.extend(assembler.advance_clock(t))
        return self._merged(closed)

    def flush(self) -> list[FlowRecord]:
        """Close and emit every remaining open flow on every shard."""
        closed: list[FlowRecord] = []
        for assembler in self.assemblers:
            closed.extend(assembler.flush())
        return self._merged(closed)

    # ------------------------------------------------------------------
    # Resilience hooks
    # ------------------------------------------------------------------
    def row_keys(self, chunk: PacketColumns) -> list:
        """Per-row flow keys, identical to any shard's own grouping."""
        return self.assemblers[0].row_keys(chunk)

    def pending_generation(self, key: object) -> int:
        """The generation ``key``'s next record would carry (its shard's)."""
        # Only the owning shard has state for the key; the rest report 0.
        return max(a.pending_generation(key) for a in self.assemblers)

    def discard_flow(self, key: object) -> int:
        """Drop ``key``'s open buffer on whichever shard holds it."""
        return sum(a.discard_flow(key) for a in self.assemblers)

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    CHECKPOINT_FORMAT = "repro.serve.sharded-assembler/v1"

    def checkpoint(self) -> dict:
        """Nested snapshot: one per-shard assembler checkpoint each."""
        return {
            "format": self.CHECKPOINT_FORMAT,
            "version": 1,
            "shards": [a.checkpoint() for a in self.assemblers],
        }

    def restore(self, state: dict) -> None:
        """Load a :meth:`checkpoint` snapshot into matching shards."""
        if state.get("format") != self.CHECKPOINT_FORMAT:
            raise ValueError(
                f"not a sharded-assembler checkpoint: {state.get('format')!r}"
            )
        shards = state["shards"]
        if len(shards) != self.num_shards:
            raise ValueError(
                f"checkpoint has {len(shards)} shards, assembler has "
                f"{self.num_shards}"
            )
        for assembler, shard_state in zip(self.assemblers, shards):
            assembler.restore(shard_state)

    @staticmethod
    def _merged(closed: list[FlowRecord]) -> list[FlowRecord]:
        """Stream-clock merge: deterministic order for any shard count."""
        closed.sort(
            key=lambda r: (r.end_time, r.start_time, str(r.key), r.generation)
        )
        return closed
