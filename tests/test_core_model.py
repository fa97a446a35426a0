"""Tests for the foundation model, masking, pre-training objectives and heads."""

from __future__ import annotations

import numpy as np
import pytest

from repro.context import FlowContextBuilder
from repro.core import (
    MaskedTokenHead,
    NetFMConfig,
    NetFoundationModel,
    Pretrainer,
    PretrainingConfig,
    SegmentPairHead,
    make_query_answer_pairs,
    make_segment_pairs,
    mask_tokens,
)
from repro.nn import Tensor
from repro.tokenize import CLS, FieldAwareTokenizer, SEP, Vocabulary


def tiny_config(vocab_size: int = 50, max_len: int = 24) -> NetFMConfig:
    return NetFMConfig(
        vocab_size=vocab_size, d_model=16, num_layers=1, num_heads=2, d_ff=32,
        max_len=max_len, dropout=0.0, seed=0,
    )


class TestNetFMConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            NetFMConfig(d_model=10, num_heads=3)
        with pytest.raises(ValueError):
            NetFMConfig(vocab_size=2)
        with pytest.raises(ValueError):
            NetFMConfig(max_len=1)


class TestNetFoundationModel:
    def test_forward_shapes(self):
        model = NetFoundationModel(tiny_config())
        ids = np.random.default_rng(0).integers(0, 50, size=(3, 10))
        mask = np.ones((3, 10), dtype=bool)
        hidden = model(ids, attention_mask=mask)
        assert hidden.shape == (3, 10, 16)
        assert model.encode_cls(ids, mask).shape == (3, 16)
        assert model.encode_mean(ids, mask).shape == (3, 16)

    def test_segment_ids_change_output(self):
        model = NetFoundationModel(tiny_config())
        model.eval()
        ids = np.zeros((1, 6), dtype=np.int64) + 7
        mask = np.ones((1, 6), dtype=bool)
        base = model(ids, attention_mask=mask).data
        seg = model(ids, attention_mask=mask, segment_ids=np.array([[0, 0, 1, 1, 2, 2]])).data
        assert not np.allclose(base, seg)

    def test_sequence_length_limit(self):
        model = NetFoundationModel(tiny_config(max_len=8))
        with pytest.raises(ValueError):
            model(np.zeros((1, 9), dtype=np.int64))

    def test_inputs_embeds_path_matches_token_path(self):
        model = NetFoundationModel(tiny_config())
        model.eval()
        ids = np.random.default_rng(1).integers(0, 50, size=(2, 6))
        mask = np.ones((2, 6), dtype=bool)
        direct = model(ids, attention_mask=mask).data
        via_embeds = model(
            attention_mask=mask, inputs_embeds=model.embed_tokens(ids)
        ).data
        np.testing.assert_allclose(direct, via_embeds, rtol=1e-10)

    def test_forward_requires_some_input(self):
        model = NetFoundationModel(tiny_config())
        with pytest.raises(ValueError):
            model(attention_mask=np.ones((1, 4), dtype=bool))

    def test_attention_maps_and_embedding_matrix(self):
        model = NetFoundationModel(tiny_config())
        ids = np.zeros((1, 5), dtype=np.int64)
        model(ids, attention_mask=np.ones((1, 5), dtype=bool))
        maps = model.attention_maps()
        assert len(maps) == 1 and maps[0].shape == (1, 2, 5, 5)
        assert model.input_embedding_matrix().shape == (50, 16)

    def test_heads_shapes(self):
        config = tiny_config()
        mlm = MaskedTokenHead(config)
        pair = SegmentPairHead(config)
        hidden = Tensor(np.zeros((2, 5, 16)))
        assert mlm(hidden).shape == (2, 5, 50)
        assert pair(Tensor(np.zeros((2, 16)))).shape == (2, 2)


class TestMasking:
    def test_mask_tokens_properties(self):
        vocab = Vocabulary([f"t{i}" for i in range(30)])
        rng = np.random.default_rng(0)
        ids = rng.integers(5, len(vocab), size=(8, 20))
        mask = np.ones_like(ids, dtype=bool)
        mask[:, 15:] = False
        masked, targets, loss_mask = mask_tokens(ids, mask, vocab, rng, 0.15)
        np.testing.assert_array_equal(targets, ids)
        # Only valid, non-special positions may be selected.
        assert not loss_mask[:, 15:].any()
        # Every row has at least one masked position.
        assert loss_mask.any(axis=1).all()
        # Unselected positions are untouched.
        assert np.array_equal(masked[~loss_mask], ids[~loss_mask])
        # Most selected positions carry the [MASK] id.
        assert (masked[loss_mask] == vocab.mask_id).mean() > 0.5

    def test_mask_probability_validation(self):
        with pytest.raises(ValueError):
            PretrainingConfig(mask_probability=0.0)
        with pytest.raises(ValueError):
            PretrainingConfig(objectives=("bogus",))


class TestPairObjectives:
    def test_segment_pairs_structure(self, small_contexts):
        contexts, _ = small_contexts
        rng = np.random.default_rng(0)
        pairs = make_segment_pairs(contexts, rng)
        assert pairs
        labels = {label for _, label in pairs}
        assert labels == {0, 1}
        for tokens, _ in pairs:
            assert tokens[0] == CLS

    def test_query_answer_pairs(self, small_dns_trace):
        rng = np.random.default_rng(0)
        pairs = make_query_answer_pairs(small_dns_trace, FieldAwareTokenizer(), rng)
        assert pairs
        labels = [label for _, label in pairs]
        assert 0 in labels and 1 in labels
        for tokens, _ in pairs:
            assert tokens.count(SEP) >= 2

    def test_query_answer_requires_dns(self):
        rng = np.random.default_rng(0)
        assert make_query_answer_pairs([], FieldAwareTokenizer(), rng) == []


class TestPretrainer:
    def test_mlm_pretraining_reduces_loss(self, small_contexts):
        contexts, vocab = small_contexts
        contexts = contexts[:60]
        model = NetFoundationModel(tiny_config(vocab_size=len(vocab), max_len=48))
        pretrainer = Pretrainer(model, vocab, PretrainingConfig(epochs=3, batch_size=16, seed=0))
        history = pretrainer.pretrain(contexts)
        first_epoch = np.mean(history.losses[: len(history.losses) // 3])
        last_epoch = np.mean(history.losses[-len(history.losses) // 3:])
        assert last_epoch < first_epoch
        accuracy = pretrainer.masked_token_accuracy(contexts, samples=32)
        assert 0.0 <= accuracy <= 1.0

    def test_accuracy_probe_leaves_training_unchanged(self, small_contexts):
        contexts, vocab = small_contexts
        contexts = contexts[:40]

        def run(probe: bool) -> list[float]:
            model = NetFoundationModel(tiny_config(vocab_size=len(vocab), max_len=48))
            pretrainer = Pretrainer(
                model, vocab, PretrainingConfig(epochs=1, batch_size=16, seed=0)
            )
            losses = list(pretrainer.pretrain(contexts).losses)
            if probe:
                pretrainer.masked_token_accuracy(contexts, samples=16)
            return losses + list(pretrainer.pretrain(contexts).losses)

        assert run(probe=True) == run(probe=False)

    def test_repeated_accuracy_probes_agree(self, small_contexts):
        contexts, vocab = small_contexts
        model = NetFoundationModel(tiny_config(vocab_size=len(vocab), max_len=48))
        pretrainer = Pretrainer(
            model, vocab, PretrainingConfig(epochs=3, batch_size=16, seed=0)
        )
        pretrainer.pretrain(contexts[:60])
        first = pretrainer.masked_token_accuracy(contexts, samples=32)
        assert first > 0.0
        for _ in range(3):
            assert pretrainer.masked_token_accuracy(contexts, samples=32) == first

    def test_qa_objective_requires_packets(self, small_contexts):
        contexts, vocab = small_contexts
        model = NetFoundationModel(tiny_config(vocab_size=len(vocab), max_len=48))
        pretrainer = Pretrainer(
            model, vocab, PretrainingConfig(epochs=1, objectives=("mlm", "qa"))
        )
        with pytest.raises(ValueError):
            pretrainer.pretrain(contexts[:10])

    def test_nsp_objective_runs(self, small_contexts):
        contexts, vocab = small_contexts
        model = NetFoundationModel(tiny_config(vocab_size=len(vocab), max_len=48))
        pretrainer = Pretrainer(
            model, vocab,
            PretrainingConfig(epochs=1, batch_size=16, objectives=("mlm", "nsp")),
        )
        history = pretrainer.pretrain(contexts[:40])
        assert history.losses
