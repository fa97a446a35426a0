"""Vocabulary: the mapping between tokens and integer ids.

All tokenizers in this package share the same special-token convention,
mirroring BERT: ``[PAD]``, ``[UNK]``, ``[CLS]``, ``[SEP]``, ``[MASK]``.

Examples
--------
>>> from repro.tokenize import Vocabulary
>>> vocabulary = Vocabulary.build([["tp=tcp", "tcp.dport=443"], ["tp=tcp"]])
>>> vocabulary.encode(["tp=tcp", "tcp.dport=443", "never-seen"])
[5, 6, 1]
>>> vocabulary.decode([5, 6, 1])
['tp=tcp', 'tcp.dport=443', '[UNK]']
>>> ids, mask = vocabulary.encode_ids_batch([["tp=tcp"], ["tp=tcp", "tcp.dport=443"]])
>>> ids.tolist(), mask.tolist()
([[5, 0], [5, 6]], [[True, False], [True, True]])
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

__all__ = ["Vocabulary", "SPECIAL_TOKENS", "PAD", "UNK", "CLS", "SEP", "MASK"]

PAD = "[PAD]"
UNK = "[UNK]"
CLS = "[CLS]"
SEP = "[SEP]"
MASK = "[MASK]"
SPECIAL_TOKENS = (PAD, UNK, CLS, SEP, MASK)


class Vocabulary:
    """Bidirectional token <-> id mapping with reserved special tokens."""

    def __init__(self, tokens: Iterable[str] = ()):
        self._token_to_id: dict[str, int] = {}
        self._id_to_token: list[str] = []
        for token in SPECIAL_TOKENS:
            self._add(token)
        for token in tokens:
            self._add(token)

    def _add(self, token: str) -> int:
        if token in self._token_to_id:
            return self._token_to_id[token]
        index = len(self._id_to_token)
        self._token_to_id[token] = index
        self._id_to_token.append(token)
        return index

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        token_sequences: Iterable[Iterable[str]],
        min_count: int = 1,
        max_size: int | None = None,
    ) -> "Vocabulary":
        """Build a vocabulary from token sequences, most frequent first."""
        counts: Counter[str] = Counter()
        for sequence in token_sequences:
            counts.update(sequence)
        items = [(token, count) for token, count in counts.items() if count >= min_count]
        items.sort(key=lambda kv: (-kv[1], kv[0]))
        if max_size is not None:
            items = items[: max(max_size - len(SPECIAL_TOKENS), 0)]
        return cls(token for token, _ in items)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def token_to_id(self, token: str) -> int:
        return self._token_to_id.get(token, self._token_to_id[UNK])

    def id_to_token(self, index: int) -> str:
        if not 0 <= index < len(self._id_to_token):
            raise IndexError(f"token id {index} out of range")
        return self._id_to_token[index]

    def encode(self, tokens: Iterable[str]) -> list[int]:
        return [self.token_to_id(t) for t in tokens]

    def decode(self, ids: Iterable[int]) -> list[str]:
        return [self.id_to_token(i) for i in ids]

    def encode_ids_batch(
        self,
        token_sequences: Iterable[Sequence[str]],
        max_len: int | None = None,
        dtype=np.int32,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Encode many token sequences into one padded id matrix in one shot.

        Returns ``(ids, mask)`` where ``ids`` has shape
        ``(num_sequences, width)`` — ``width`` is ``max_len`` when given,
        otherwise the longest sequence — padded with ``pad_id``, and ``mask``
        is True at real-token positions.  The token -> id mapping runs in a
        single pass over all tokens and the padding/scatter is pure NumPy,
        which is what the batched tokenizer and training fast paths build on.
        """
        sequences = [
            seq if max_len is None or len(seq) <= max_len else seq[:max_len]
            for seq in token_sequences
        ]
        n = len(sequences)
        lengths = np.fromiter((len(s) for s in sequences), dtype=np.int64, count=n)
        width = max_len if max_len is not None else (int(lengths.max()) if n else 0)
        ids = np.full((n, width), self.pad_id, dtype=dtype)
        mask = np.arange(width)[None, :] < lengths[:, None]
        total = int(lengths.sum())
        if total:
            get = self._token_to_id.get
            unk = self._token_to_id[UNK]
            flat = np.fromiter(
                (get(t, unk) for seq in sequences for t in seq), dtype=dtype, count=total
            )
            ids[mask] = flat
        return ids, mask

    def decode_batch(self, ids: np.ndarray, mask: np.ndarray | None = None) -> list[list[str]]:
        """Invert :meth:`encode_ids_batch`: padded id matrix back to token lists."""
        ids = np.asarray(ids)
        if mask is None:
            mask = ids != self.pad_id
        table = self._id_to_token
        return [
            [table[int(i)] for i in row[np.asarray(valid, dtype=bool)]]
            for row, valid in zip(ids, mask)
        ]

    @property
    def pad_id(self) -> int:
        return self._token_to_id[PAD]

    @property
    def unk_id(self) -> int:
        return self._token_to_id[UNK]

    @property
    def cls_id(self) -> int:
        return self._token_to_id[CLS]

    @property
    def sep_id(self) -> int:
        return self._token_to_id[SEP]

    @property
    def mask_id(self) -> int:
        return self._token_to_id[MASK]

    @property
    def special_ids(self) -> set[int]:
        return {self._token_to_id[t] for t in SPECIAL_TOKENS}

    def tokens(self) -> list[str]:
        """All tokens in id order (including specials)."""
        return list(self._id_to_token)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self._id_to_token, indent=0), encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        tokens = json.loads(Path(path).read_text(encoding="utf-8"))
        vocab = cls()
        for token in tokens:
            vocab._add(token)
        return vocab
