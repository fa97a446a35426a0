"""The network foundation model: a BERT-style encoder over packet tokens.

This is the system the paper envisions: a transformer encoder pre-trained on
unlabeled traffic with masked-token modeling (plus optional network-specific
objectives), whose contextual embeddings are then reused by every downstream
task (classification, anomaly detection, few-shot adaptation).
"""

from __future__ import annotations

import numpy as np

from ..nn.autograd import Tensor
from ..nn.layers import Dropout, Embedding, LayerNorm, Linear
from ..nn.module import Module
from ..nn.transformer import TransformerEncoder
from .config import NetFMConfig

__all__ = ["NetFoundationModel", "MaskedTokenHead", "SegmentPairHead"]


class NetFoundationModel(Module):
    """Transformer encoder with token, position and segment embeddings.

    Parameters
    ----------
    config:
        A :class:`NetFMConfig`.  ``config.vocab_size`` must match the
        vocabulary used to encode contexts.
    """

    def __init__(self, config: NetFMConfig):
        super().__init__()
        self.config = config
        rng = np.random.default_rng(config.seed)
        self.token_embedding = Embedding(config.vocab_size, config.d_model, rng=rng)
        self.position_embedding = Embedding(config.max_len, config.d_model, rng=rng)
        self.segment_embedding = Embedding(config.num_segments, config.d_model, rng=rng)
        self.embedding_norm = LayerNorm(config.d_model, fused=config.fused)
        self.embedding_dropout = Dropout(config.dropout, rng=rng)
        self.encoder = TransformerEncoder(
            num_layers=config.num_layers,
            d_model=config.d_model,
            num_heads=config.num_heads,
            d_ff=config.d_ff,
            dropout=config.dropout,
            rng=rng,
            fused=config.fused,
        )

    # ------------------------------------------------------------------
    # Forward passes
    # ------------------------------------------------------------------
    def embed_tokens(self, token_ids: np.ndarray) -> Tensor:
        """Token-embedding lookup only (used by integrated gradients)."""
        return self.token_embedding(np.asarray(token_ids, dtype=np.int64))

    def forward(
        self,
        token_ids: np.ndarray | None = None,
        attention_mask: np.ndarray | None = None,
        segment_ids: np.ndarray | None = None,
        inputs_embeds: Tensor | None = None,
    ) -> Tensor:
        """Return contextual embeddings of shape ``(batch, seq, d_model)``.

        Either ``token_ids`` or pre-computed ``inputs_embeds`` (as produced by
        :meth:`embed_tokens`, possibly scaled — the integrated-gradients path)
        must be provided.
        """
        if inputs_embeds is None:
            if token_ids is None:
                raise ValueError("either token_ids or inputs_embeds is required")
            token_ids = np.asarray(token_ids, dtype=np.int64)
            batch, seq = token_ids.shape
            token_part = self.token_embedding(token_ids)
        else:
            batch, seq = inputs_embeds.shape[0], inputs_embeds.shape[1]
            token_part = inputs_embeds
        if seq > self.config.max_len:
            raise ValueError(f"sequence length {seq} exceeds max_len {self.config.max_len}")
        positions = np.tile(np.arange(seq), (batch, 1))
        embeddings = token_part + self.position_embedding(positions)
        if segment_ids is not None:
            segment_ids = np.clip(np.asarray(segment_ids), 0, self.config.num_segments - 1)
            embeddings = embeddings + self.segment_embedding(segment_ids)
        embeddings = self.embedding_dropout(self.embedding_norm(embeddings))
        return self.encoder(embeddings, attention_mask=attention_mask)

    def encode_cls(
        self,
        token_ids: np.ndarray,
        attention_mask: np.ndarray | None = None,
        segment_ids: np.ndarray | None = None,
    ) -> Tensor:
        """The ``[CLS]`` (first position) embedding for each sequence."""
        hidden = self.forward(token_ids, attention_mask, segment_ids)
        return hidden[:, 0, :]

    def encode_mean(
        self,
        token_ids: np.ndarray,
        attention_mask: np.ndarray,
        segment_ids: np.ndarray | None = None,
    ) -> Tensor:
        """Mean-pooled embedding over non-padding positions."""
        hidden = self.forward(token_ids, attention_mask, segment_ids)
        mask = np.asarray(attention_mask, dtype=hidden.data.dtype)[..., None]
        summed = (hidden * Tensor(mask)).sum(axis=1)
        counts = np.maximum(mask.sum(axis=1), 1.0)
        return summed * Tensor(1.0 / counts)

    # ------------------------------------------------------------------
    # Introspection used by the embedding-analysis experiments
    # ------------------------------------------------------------------
    def input_embedding_matrix(self) -> np.ndarray:
        """The (vocab_size, d_model) input embedding table (detached copy)."""
        return self.token_embedding.weight.data.copy()

    def attention_maps(self) -> list[np.ndarray]:
        """Per-layer attention maps of the most recent module forward
        (``[]`` after the logits-only eval fast path)."""
        return self.encoder.attention_maps()


class MaskedTokenHead(Module):
    """Projection from hidden states to vocabulary logits for MLM."""

    def __init__(self, config: NetFMConfig, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(config.seed + 1)
        self.transform = Linear(config.d_model, config.d_model, rng=rng)
        self.norm = LayerNorm(config.d_model, fused=config.fused)
        self.decoder = Linear(config.d_model, config.vocab_size, rng=rng)

    def forward(self, hidden: Tensor) -> Tensor:
        return self.decoder(self.norm(self.transform(hidden).gelu()))


class SegmentPairHead(Module):
    """Binary classifier over the ``[CLS]`` embedding for pair-level objectives.

    Used both for next-segment prediction (does segment B follow segment A in
    the same flow?) and for query-answer prediction (is B the answer to query
    A?), the two network-specific pre-training tasks of Section 4.1.4.
    """

    def __init__(self, config: NetFMConfig, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(config.seed + 2)
        self.classifier = Linear(config.d_model, 2, rng=rng)

    def forward(self, cls_embedding: Tensor) -> Tensor:
        return self.classifier(cls_embedding)
