"""Configuration of the network foundation model."""

from __future__ import annotations

import dataclasses

__all__ = ["NetFMConfig"]


@dataclasses.dataclass
class NetFMConfig:
    """Hyper-parameters of :class:`~repro.core.model.NetFoundationModel`.

    The defaults are intentionally tiny (two layers, 48-dimensional) so that
    pre-training plus fine-tuning completes in seconds on a laptop CPU; every
    benchmark can scale them up through its own config.
    """

    vocab_size: int = 512
    d_model: int = 48
    num_layers: int = 2
    num_heads: int = 4
    d_ff: int = 96
    max_len: int = 128
    dropout: float = 0.1
    num_segments: int = 16
    seed: int = 0
    #: Run attention/layernorm/losses as fused tape nodes and dispatch
    #: ``predict_logits`` to the no-tape eval fast path.  ``False`` selects
    #: the composed reference ops (kept for the differential harness).
    fused: bool = True

    def __post_init__(self) -> None:
        if self.d_model % self.num_heads != 0:
            raise ValueError(
                f"d_model={self.d_model} must be divisible by num_heads={self.num_heads}"
            )
        if self.vocab_size < 6:
            raise ValueError("vocab_size must cover at least the special tokens")
        if self.max_len < 4:
            raise ValueError("max_len must be at least 4")
