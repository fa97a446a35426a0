"""Columnar packet corpora: traffic scenarios collected into one column batch.

The text corpus in :mod:`repro.corpus.generator` feeds the word-embedding
baselines; this module is its packet-side counterpart for the foundation
model.  A :class:`PacketTraceCorpus` runs one or more traffic scenarios,
converts each generated trace into :class:`~repro.net.columns.PacketColumns`
once, and concatenates the columns — so everything downstream (tokenizer
``encode_batch``, :meth:`~repro.context.builders.PacketContextBuilder.encode_columns`,
:meth:`~repro.core.pretraining.Pretrainer.pretrain_encoded`) can stay columnar
and never re-materializes per-packet Python objects.

Corpora also persist to disk as a sharded columnar format
(:meth:`PacketTraceCorpus.save_shards` / :meth:`PacketTraceCorpus.open_shards`):
one ``.npz`` per shard plus a JSON manifest, loaded lazily shard by shard so
pre-training can stream a corpus far larger than memory.  The shard format is
specified in ``docs/PIPELINE.md`` and validated by ``tools/check_shards.py``.

Examples
--------
>>> from repro.corpus import PacketTraceCorpus
>>> from repro.traffic import EnterpriseScenario, EnterpriseScenarioConfig
>>> corpus = PacketTraceCorpus.from_scenarios(
...     [EnterpriseScenario(EnterpriseScenarioConfig(seed=s, duration=5.0))
...      for s in (0, 1)]
... )
>>> len(corpus) == len(corpus.columns)
True
>>> corpus.labels()[0] is not None
True
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..net.columns import PacketColumns
from ..net.packet import Packet

__all__ = ["PacketTraceCorpus", "ShardedCorpus", "SHARD_FORMAT", "SHARD_VERSION"]

#: Manifest ``format`` tag and schema version of the on-disk shard layout.
SHARD_FORMAT = "repro-packet-trace-corpus"
SHARD_VERSION = 1
MANIFEST_NAME = "manifest.json"

#: PacketColumns fields stored as plain arrays in each shard ``.npz``.
_ARRAY_FIELDS = tuple(
    field.name
    for field in dataclasses.fields(PacketColumns)
    if field.name not in (
        "applications", "metadata", "ip_names", "mac_names", "spelling_overrides"
    )
)
#: PacketColumns fields stored as pickled object arrays (decoded application
#: objects, metadata dicts) or pickled dicts (address spellings).
_OBJECT_FIELDS = ("applications", "metadata")
_DICT_FIELDS = ("ip_names", "mac_names", "spelling_overrides")


def _object_array(values: list) -> np.ndarray:
    array = np.empty(len(values), dtype=object)
    array[:] = values
    return array


class PacketTraceCorpus:
    """A pre-training corpus of traffic held in columnar form.

    Parameters
    ----------
    columns:
        The packet batch, one row per packet, in capture order.
    """

    def __init__(self, columns: PacketColumns):
        self.columns = columns

    @classmethod
    def from_packets(cls, packets: Sequence[Packet]) -> "PacketTraceCorpus":
        """Columnarize an already generated (or parsed) trace."""
        return cls(PacketColumns.from_packets(packets))

    @classmethod
    def from_scenarios(cls, scenarios: Iterable) -> "PacketTraceCorpus":
        """Generate every scenario and concatenate the columnar traces.

        ``scenarios`` is any iterable of objects with a ``generate() ->
        list[Packet]`` method (all of :mod:`repro.traffic`'s scenario and
        workload generators qualify).  Generators that synthesize columns
        natively (``generate_columns``) never materialize packet objects at
        all; others are generated and converted once.
        """
        parts = [
            scenario.generate_columns()
            if hasattr(scenario, "generate_columns")
            else PacketColumns.from_packets(scenario.generate())
            for scenario in scenarios
        ]
        return cls(PacketColumns.concat(parts))

    def __len__(self) -> int:
        return len(self.columns)

    def packets(self) -> list[Packet]:
        """Materialize per-packet objects (compatibility escape hatch)."""
        return self.columns.to_packets()

    def labels(self, key: str = "application") -> list:
        """Per-row metadata labels (``None`` where absent)."""
        return [row.get(key) for row in self.columns.metadata]

    # ------------------------------------------------------------------
    # On-disk sharded format
    # ------------------------------------------------------------------
    def save_shards(
        self,
        directory: str | Path,
        shard_rows: int = 4096,
        label_keys: Sequence[str] = ("application",),
    ) -> Path:
        """Write the corpus as ``shard-%05d.npz`` files plus a manifest.

        Each shard holds ``shard_rows`` consecutive packets (the last one the
        remainder) with every :class:`PacketColumns` field: numeric columns
        as plain arrays, the payload matrix trimmed to the shard's own
        maximum length, application objects and metadata dicts as pickled
        object arrays, and the address-spelling dicts (with shard-relative
        override rows) pickled whole.  The manifest records the schema
        version, per-shard row counts and a label vocabulary summary so
        tooling can validate a corpus without unpickling it.

        The manifest is written last, only after all shard files are on
        disk, so a reader that finds a manifest can rely on every shard it
        names existing.
        """
        if shard_rows <= 0:
            raise ValueError("shard_rows must be positive")
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        columns = self.columns
        n = len(columns)
        shards = []
        for index, start in enumerate(range(0, n, shard_rows)):
            stop = min(start + shard_rows, n)
            part = columns[start:stop]
            payload = {name: getattr(part, name) for name in _ARRAY_FIELDS}
            for name in _OBJECT_FIELDS:
                payload[name] = _object_array(getattr(part, name))
            for name in _DICT_FIELDS:
                value = getattr(part, name)
                if name == "spelling_overrides":
                    value = {f"{field}:{row}": spelling
                             for (field, row), spelling in value.items()}
                payload[name] = np.array(value, dtype=object)
            filename = f"shard-{index:05d}.npz"
            np.savez(directory / filename, **payload)
            shards.append({
                "file": filename,
                "rows": stop - start,
                "start": start,
                "payload_width": int(part.payload.shape[1]),
            })
        vocabulary = {
            key: sorted({str(v) for v in self.labels(key) if v is not None})
            for key in label_keys
        }
        manifest = {
            "format": SHARD_FORMAT,
            "version": SHARD_VERSION,
            "num_rows": n,
            "shard_rows": shard_rows,
            "num_shards": len(shards),
            "shards": shards,
            "array_fields": list(_ARRAY_FIELDS),
            "object_fields": list(_OBJECT_FIELDS + _DICT_FIELDS),
            "label_vocab": vocabulary,
        }
        (directory / MANIFEST_NAME).write_text(
            json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
        )
        return directory

    @classmethod
    def open_shards(cls, directory: str | Path) -> "ShardedCorpus":
        """Open a sharded corpus for lazy, shard-at-a-time access."""
        return ShardedCorpus(directory)


class ShardedCorpus:
    """Lazy view over a corpus saved with :meth:`PacketTraceCorpus.save_shards`.

    Shards are loaded on demand and released as iteration advances, so a
    corpus larger than memory streams through encoding and pre-training one
    shard at a time — the memory high-water mark is a single shard plus the
    encoded matrices.  (NumPy cannot memory-map members of an ``.npz``
    archive, so per-shard laziness, not ``mmap``, is the bounding
    mechanism.)
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        manifest_path = self.directory / MANIFEST_NAME
        if not manifest_path.is_file():
            raise FileNotFoundError(f"no {MANIFEST_NAME} in {self.directory}")
        self.manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        if self.manifest.get("format") != SHARD_FORMAT:
            raise ValueError(f"{manifest_path} is not a {SHARD_FORMAT} manifest")
        if self.manifest.get("version") != SHARD_VERSION:
            raise ValueError(
                f"unsupported shard format version {self.manifest.get('version')!r}"
            )

    def __len__(self) -> int:
        return int(self.manifest["num_rows"])

    @property
    def num_shards(self) -> int:
        return int(self.manifest["num_shards"])

    def shard(self, index: int) -> PacketColumns:
        """Load shard ``index`` into a :class:`PacketColumns` batch."""
        entry = self.manifest["shards"][index]
        with np.load(self.directory / entry["file"], allow_pickle=True) as archive:
            kwargs = {name: np.asarray(archive[name]) for name in _ARRAY_FIELDS}
            for name in _OBJECT_FIELDS:
                kwargs[name] = list(archive[name])
            for name in _DICT_FIELDS:
                value = archive[name].item()
                if name == "spelling_overrides":
                    restored = {}
                    for key, spelling in value.items():
                        field, _, row = key.rpartition(":")
                        restored[(field, int(row))] = spelling
                    value = restored
                kwargs[name] = value
        return PacketColumns(**kwargs)

    def __iter__(self) -> Iterator[PacketColumns]:
        for index in range(self.num_shards):
            yield self.shard(index)

    def columns(self) -> PacketColumns:
        """Concatenate every shard (the in-memory escape hatch)."""
        parts = list(self)
        if not parts:
            return PacketColumns.from_packets([])
        return PacketColumns.concat(parts)

    def labels(self, key: str = "application") -> list:
        """Per-row metadata labels, streamed shard by shard.

        Reads only each shard's ``metadata`` member — the npz archive loads
        members on demand, so the (far larger) pickled application objects
        are never touched.
        """
        values: list = []
        for entry in self.manifest["shards"]:
            with np.load(
                self.directory / entry["file"], allow_pickle=True
            ) as archive:
                values.extend(row.get(key) for row in archive["metadata"])
        return values

    def encode_columns(self, builder, tokenizer, vocabulary):
        """Encode the corpus through ``builder.encode_columns`` per shard.

        Returns the stacked ``(ids, mask)`` matrices — identical, for
        row-local builders such as
        :class:`~repro.context.builders.PacketContextBuilder`, to encoding
        the fully concatenated corpus, but without ever holding more than
        one shard of raw packet columns in memory.  The encoded matrices
        (``max_tokens`` ints per packet) are what
        :meth:`~repro.core.pretraining.Pretrainer.pretrain_encoded` consumes
        to stream length-bucketed :class:`~repro.nn.data.PackedBatch`es.
        """
        ids_parts, mask_parts = [], []
        for shard in self:
            ids, mask = builder.encode_columns(shard, tokenizer, vocabulary)
            ids_parts.append(ids)
            mask_parts.append(mask)
        if not ids_parts:
            width = getattr(builder, "max_tokens", 0)
            return (
                np.zeros((0, width), dtype=np.int64),
                np.zeros((0, width), dtype=bool),
            )
        return np.concatenate(ids_parts), np.concatenate(mask_parts)
