"""Deterministic, seeded fault injection for the serving stack.

A :class:`FaultPlan` is a schedule of :class:`FaultSpec` entries, each naming
a *site* (``source``, ``assembly``, ``forward``, ``logits``), the ordinal at
which it fires at that site, and what it does there (raise, corrupt a chunk,
poison logits with NaN).  The plan is consulted by thin wrappers —
:func:`wrap_source` around a chunk iterator and :func:`wrap_classifier`
around a ``SequenceClassifier`` — so the production pipeline code never has
to know whether faults are armed.  Everything is counter-based and seeded,
which makes chaos runs exactly reproducible: the same plan against the same
stream fires the same faults at the same records every time.

One plan is consulted by the source, the assembler and the engine's
forward, retries included, each advancing its own site's ordinal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FAULT_SITES",
    "FaultSpec",
    "FaultPlan",
    "ServingFaultError",
    "SourceFaultError",
    "AssemblyFaultError",
    "EngineCrashError",
    "wrap_source",
    "wrap_classifier",
]

#: Sites a fault can target, in pipeline order.
FAULT_SITES = ("source", "assembly", "forward", "logits")

#: What a fault does when it fires, per site.
FAULT_KINDS = {
    "source": ("raise", "corrupt"),
    "assembly": ("raise",),
    "forward": ("raise",),
    "logits": ("nan",),
}


class ServingFaultError(RuntimeError):
    """Base class for every injected fault (lets tests catch them all)."""


class SourceFaultError(ServingFaultError):
    """Injected failure while reading a source chunk.

    Carries the chunk that was being produced (``.chunk``) so resilience
    policies can account for the packets that were lost with it.
    """

    def __init__(self, message: str, chunk=None, chunk_index: int = -1):
        super().__init__(message)
        self.chunk = chunk
        self.chunk_index = chunk_index


class AssemblyFaultError(ServingFaultError):
    """Injected failure inside flow assembly."""


class EngineCrashError(ServingFaultError):
    """Injected crash in a worker's model forward."""


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: fire ``count`` times starting at ``index``.

    ``site``  — one of :data:`FAULT_SITES`.
    ``index`` — 0-based ordinal of the site event the fault first fires on
                (chunk number for ``source``/``assembly``, forward-call
                number for ``forward``/``logits``).
    ``kind``  — site-specific action (see :data:`FAULT_KINDS`).
    ``count`` — how many consecutive ordinals the fault covers.
    """

    site: str
    index: int
    kind: str
    count: int = 1

    def __post_init__(self):
        if self.site not in FAULT_SITES:
            raise ValueError(f"unknown fault site {self.site!r}")
        if self.kind not in FAULT_KINDS[self.site]:
            raise ValueError(
                f"kind {self.kind!r} not valid for site {self.site!r} "
                f"(choose from {FAULT_KINDS[self.site]})"
            )
        if self.index < 0 or self.count < 1:
            raise ValueError("index must be >= 0 and count >= 1")


@dataclass
class FaultPlan:
    """A deterministic schedule of faults, consulted by ordinal per site."""

    specs: tuple = ()
    #: Record of (site, ordinal, spec) triples that actually fired.
    fired: list = field(default_factory=list)

    def __post_init__(self):
        self.specs = tuple(self.specs)
        self._counters = {site: 0 for site in FAULT_SITES}

    def take(self, site: str):
        """Advance ``site``'s ordinal; return the matching spec or ``None``."""
        ordinal = self._counters[site]
        self._counters[site] = ordinal + 1
        for spec in self.specs:
            if spec.site != site:
                continue
            if spec.index <= ordinal < spec.index + spec.count:
                self.fired.append((site, ordinal, spec))
                return spec
        return None

    def reset(self):
        """Rewind all ordinal counters (reuse one plan across runs)."""
        self._counters = {site: 0 for site in FAULT_SITES}
        self.fired.clear()

    @classmethod
    def random(
        cls,
        seed: int,
        *,
        faults: int = 3,
        max_index: int = 12,
        sites=FAULT_SITES,
    ) -> "FaultPlan":
        """A seeded plan of ``faults`` random specs — the chaos-sweep entry."""
        rng = np.random.default_rng(seed)
        specs = []
        for _ in range(faults):
            site = str(rng.choice(list(sites)))
            specs.append(
                FaultSpec(
                    site=site,
                    index=int(rng.integers(0, max_index)),
                    kind=str(rng.choice(list(FAULT_KINDS[site]))),
                )
            )
        return cls(specs=tuple(specs))


def _corrupt_chunk(chunk, seed: int = 0):
    """A corrupted *copy* of ``chunk`` (never mutates shared column arrays).

    Scrambles payload lengths past the token matrix and zeroes timestamps on
    a few rows — the kind of damage a truncated or bit-flipped capture
    produces, and exactly what ``AssemblyGuard`` validation is meant to trap.
    """
    n = len(chunk)
    bad = chunk[np.arange(n)]  # fancy-index select materializes a copy
    rng = np.random.default_rng(seed)
    rows = rng.choice(n, size=max(1, n // 4), replace=False)
    lengths = bad.payload_lengths.copy()
    lengths[rows] = 10**9  # way past any payload matrix width
    bad.payload_lengths = lengths
    # NaN the earliest row's timestamp, never the latest: quarantine uses
    # the chunk's (nan-)max timestamp as the lost chunk's clock, and that
    # must match the clean chunk's for surviving flows' eviction parity.
    times = bad.timestamps.copy()
    times[int(np.argmin(times))] = np.nan
    bad.timestamps = times
    return bad


class _FaultySource:
    """Iterator wrapper that consults the plan once per produced chunk.

    Resumable: raising does not consume the underlying iterator's next
    chunk, so a ``quarantine`` policy can keep pulling after a failure.
    """

    def __init__(self, source, plan: FaultPlan):
        self._inner = iter(source)
        self._plan = plan
        self._index = -1

    def __iter__(self):
        return self

    def __next__(self):
        chunk = next(self._inner)
        self._index += 1
        spec = self._plan.take("source")
        if spec is None:
            return chunk
        if spec.kind == "corrupt":
            return _corrupt_chunk(chunk, seed=spec.index)
        raise SourceFaultError(
            f"injected source failure at chunk {self._index}",
            chunk=chunk,
            chunk_index=self._index,
        )


def wrap_source(source, plan: "FaultPlan | None"):
    """Wrap a chunk iterator so the plan's ``source`` faults fire on it."""
    if plan is None:
        return source
    return _FaultySource(source, plan)


class FaultInjectedClassifier:
    """Classifier proxy that consults ``forward``/``logits`` faults."""

    def __init__(self, classifier, plan: FaultPlan):
        self._classifier = classifier
        self._plan = plan

    def predict_logits(self, token_ids, attention_mask=None, **kwargs):
        spec = self._plan.take("forward")
        if spec is not None:
            raise EngineCrashError(
                f"injected worker crash (forward ordinal {spec.index})"
            )
        logits = self._classifier.predict_logits(
            token_ids, attention_mask, **kwargs
        )
        spec = self._plan.take("logits")
        if spec is not None:
            logits = np.array(logits, copy=True)
            logits[0] = np.nan
        return logits

    def __getattr__(self, name):
        return getattr(self._classifier, name)


def wrap_classifier(classifier, plan: "FaultPlan | None"):
    """Wrap a classifier so the plan's forward/logits faults fire on it."""
    if plan is None:
        return classifier
    if isinstance(classifier, FaultInjectedClassifier):
        return classifier
    return FaultInjectedClassifier(classifier, plan)
