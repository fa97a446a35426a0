"""The ragged serving forward — differential harness.

``SequenceClassifier.predict_logits`` scores every prefix-masked row over
its own valid prefix: rows are sorted by length and cut into chunks, and a
chunk mixes lengths in one flat ``(tokens, d)`` layout with no padding
(:class:`repro.nn.kernels.RaggedLayout`).  The float64 contract is that a
row's logits are bit-identical to an unmasked module forward of the row
trimmed to its length — whatever it is batched with, however wide it was
padded and however the call is chunked.  Float32 holds the ``logits`` ulp
budget of that oracle with the same argmax.  A mask row that is empty or
not a prefix raises ``ValueError`` on the fast path and in the module loop
alike, and every mask the library builds is a prefix mask.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.context import FlowContextBuilder, encode_contexts
from repro.core.config import NetFMConfig
from repro.core.fastpath import length_chunks, prefix_lengths
from repro.core.finetuning import FinetuneConfig, SequenceClassifier
from repro.core.model import NetFoundationModel
from repro.nn import no_grad
from repro.nn.data import pack_batches
from repro.nn import kernels
from repro.nn.kernels import RaggedLayout
from repro.nn.numeric import assert_within_ulp, ulp_budget
from repro.serve import StreamingFlowAssembler, chunk_columns
from repro.tokenize import FieldAwareTokenizer, Vocabulary
from repro.traffic import EnterpriseScenario, EnterpriseScenarioConfig

MAX_LEN = 24

#: (d_model, heads, layers, d_ff): a small model and the large serving
#: model's d_ff of 512, where a float64 gemm row's bits depend on M.
MODELS = {
    "small": (16, 2, 2, 32),
    "wide_ff": (64, 4, 1, 512),
}


def classifier(name: str, fused: bool = True) -> SequenceClassifier:
    d, heads, layers, d_ff = MODELS[name]
    model = NetFoundationModel(NetFMConfig(
        vocab_size=37, d_model=d, num_heads=heads, num_layers=layers,
        d_ff=d_ff, max_len=MAX_LEN, dropout=0.0, seed=5, fused=fused,
    ))
    return SequenceClassifier(model, 4, FinetuneConfig(dropout=0.0))


def mixed_batch(seed: int, rows: int = 23):
    """Prefix-masked rows of mixed length: length 1, ``MAX_LEN`` rows, a
    singleton length group and repeated lengths, in shuffled order."""
    rng = np.random.default_rng(seed)
    lengths = np.concatenate([
        [1, MAX_LEN, MAX_LEN, 7, 7, 7, 13],  # 13: a singleton group
        rng.integers(2, MAX_LEN, rows - 7),
    ])
    lengths = rng.permutation(lengths)
    ids = rng.integers(0, 37, (rows, MAX_LEN))
    mask = np.arange(MAX_LEN) < lengths[:, None]
    return ids, mask, lengths


def exact_width(clf: SequenceClassifier, ids, lengths) -> np.ndarray:
    """The oracle: the module forward of each row alone, trimmed to its
    length and unmasked.  Each row runs as a duplicated pair, so its head
    gemm is not the 1-row BLAS path."""
    out = []
    with clf.eval_mode(), no_grad():
        for row, length in zip(ids, lengths):
            pair = np.stack([row[:length], row[:length]])
            out.append(clf(pair).data[0])
    return np.stack(out)


class TestRaggedForward:
    @pytest.mark.parametrize("model", sorted(MODELS))
    @pytest.mark.parametrize("batch_size", [1, 5, 64])
    def test_float64_rows_equal_exact_width(self, model, batch_size):
        clf = classifier(model)
        ids, mask, lengths = mixed_batch(seed=len(model) + batch_size)
        expected = exact_width(clf, ids, lengths)
        got = clf.predict_logits(ids, mask, batch_size=batch_size)
        assert got.dtype == np.float64
        assert np.array_equal(got, expected)
        if batch_size > 1:
            # The module loop trims the same way, fused or composed (its
            # 1-row chunks run a 1-row head gemm, hence batch_size > 1).
            for reference in (clf, classifier(model, fused=False)):
                assert np.array_equal(
                    reference.predict_logits_reference(ids, mask, batch_size), got
                )

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_float64_padding_width_is_invisible(self, model):
        # The same rows padded to the call's widest row instead of MAX_LEN.
        clf = classifier(model)
        ids, mask, lengths = mixed_batch(seed=3)
        keep = lengths < MAX_LEN
        width = int(lengths[keep].max())
        narrow = clf.predict_logits(ids[keep, :width], mask[keep, :width])
        assert np.array_equal(narrow, clf.predict_logits(ids, mask)[keep])

    @pytest.mark.parametrize("model", sorted(MODELS))
    @pytest.mark.parametrize("batch_size", [1, 5, 64])
    def test_float32_within_budget(self, model, batch_size):
        clf = classifier(model)
        ids, mask, lengths = mixed_batch(seed=11 + batch_size)
        expected = exact_width(clf, ids, lengths)
        got = clf.serving_build("float32").predict_logits(ids, mask, batch_size)
        assert got.dtype == np.float32
        assert_within_ulp(got, expected, ulp_budget("logits"), "ragged f32 logits")
        assert np.array_equal(got.argmax(axis=1), expected.argmax(axis=1))

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_reference_maps_are_padded_in_input_order(self, dtype):
        clf = classifier("small").serving_build(dtype)
        ids, mask, lengths = mixed_batch(seed=5, rows=9)
        clf.predict_logits_reference(ids, mask)
        maps = clf.model.attention_maps()
        assert len(maps) == 2
        for layer, weights in enumerate(maps):
            assert weights.shape == (9, 2, MAX_LEN, MAX_LEN)
            assert weights.dtype == dtype
            for row, length in enumerate(lengths):
                clf.predict_logits_reference(ids[row : row + 1, :length], None)
                alone = clf.model.attention_maps()[layer][0]
                got = weights[row, :, :length, :length]
                if dtype == "float64":
                    assert np.array_equal(got, alone)
                else:  # the packed float32 layer norm rounds per batch shape
                    assert_within_ulp(got, alone, ulp_budget("softmax"), "map")
                padded = weights[row].copy()
                padded[:, :length, :length] = 0
                assert not padded.any()

    @pytest.mark.parametrize("residual", [True, False])
    def test_rollout_over_padded_maps(self, residual):
        from repro.interpret import attention_rollout

        clf = classifier("small")
        ids, mask, _ = mixed_batch(seed=6, rows=9)
        clf.predict_logits_reference(ids, mask)
        rolled = attention_rollout(clf.model.attention_maps(), add_residual=residual)
        assert np.isfinite(rolled).all()
        np.testing.assert_allclose(rolled.sum(axis=1), 1.0, rtol=1e-9)
        assert not rolled[~mask].any()

    def test_layout_groups_and_positions(self):
        layout = RaggedLayout([2, 2, 3, 5], num_heads=2)
        assert layout.tokens == 12 and layout.rows == 4
        assert layout.groups == [(2, 0, 2, 0, 4), (3, 2, 3, 4, 7), (5, 3, 4, 7, 12)]
        assert layout.cls.tolist() == [0, 2, 4, 7]
        assert layout.positions.tolist() == [0, 1, 0, 1, 0, 1, 2, 0, 1, 2, 3, 4]
        tables = layout.tables()
        # head_major is a permutation and token_major its inverse.
        assert sorted(tables["head_major"]) == list(range(24))
        assert np.array_equal(
            tables["head_major"][tables["token_major"]], np.arange(24)
        )
        with pytest.raises(ValueError, match="sorted"):
            RaggedLayout([3, 2], num_heads=2)

    def test_chunks_are_length_sorted_and_stable(self):
        lengths = np.array([5, 2, 5, 1, 2, 5])
        chunks = length_chunks(lengths, 4)
        assert [c.tolist() for c in chunks] == [[3, 1, 4, 0], [2, 5]]

    @pytest.mark.parametrize("path", ["predict_logits", "predict_logits_reference"])
    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_nonpositive_batch_size_raises(self, path, batch_size):
        # A chunk size below 1 cuts no chunk: it must not leave the
        # logits buffer unwritten or the maps unbound.
        clf = classifier("small")
        ids, mask, _ = mixed_batch(seed=4, rows=9)
        with pytest.raises(ValueError, match="batch_size"):
            getattr(clf, path)(ids, mask, batch_size=batch_size)
        with pytest.raises(ValueError, match="batch_size"):
            length_chunks(np.array([3, 1, 2]), batch_size)


class TestBlockedGemm:
    """Float32 flat gemms run in row blocks of bounded work, so a small
    model's gemms stay under the BLAS threading threshold at every call
    size (a chunk-wide gemm would cross it only in a large burst)."""

    def test_small_model_gemms_are_bounded_blocks(self, monkeypatch):
        model = NetFoundationModel(NetFMConfig(
            vocab_size=37, d_model=32, num_heads=4, num_layers=2, d_ff=64,
            max_len=MAX_LEN, dropout=0.0, seed=5,
        ))
        clf = SequenceClassifier(model, 4, FinetuneConfig(dropout=0.0))
        ids, mask, lengths = mixed_batch(seed=7, rows=64)
        assert lengths.sum() * 32 * 64 > kernels._BLOCK_MACS  # one flat gemm would not be
        expected = exact_width(clf, ids, lengths)
        served = clf.serving_build("float32")
        work = []
        matmul = np.matmul

        def spy(a, b, *args, **kwargs):
            if np.ndim(a) == 2 and np.ndim(b) == 2:
                work.append(a.shape[0] * a.shape[1] * b.shape[1])
            return matmul(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "matmul", spy)
        got = served.predict_logits(ids, mask, batch_size=64)
        monkeypatch.undo()
        assert work and max(work) <= kernels._BLOCK_MACS
        assert_within_ulp(got, expected, ulp_budget("logits"), "blocked f32 logits")
        assert np.array_equal(got.argmax(axis=1), expected.argmax(axis=1))

    @pytest.mark.parametrize("k, n, flat", [(32, 64, False), (256, 512, True)])
    def test_blocks_match_one_gemm(self, monkeypatch, k, n, flat):
        rng = np.random.default_rng(k)
        src = rng.standard_normal((700, k)).astype(np.float32)
        weight = rng.standard_normal((k, n)).astype(np.float32)
        calls = []
        matmul = np.matmul
        monkeypatch.setattr(
            np, "matmul", lambda a, *rest, **kw: calls.append(len(a)) or matmul(a, *rest, **kw)
        )
        out = kernels._blocked_matmul(src, weight, np.empty((700, n), np.float32))
        monkeypatch.undo()
        # A weight too large for _BLOCK_MIN_ROWS rows per block runs one gemm.
        assert (calls == [700]) == flat
        assert sum(calls) == 700
        np.testing.assert_allclose(out, src @ weight, rtol=1e-5, atol=1e-4)


class TestPrefixMasks:
    @pytest.mark.parametrize("path", ["predict_logits", "predict_logits_reference"])
    @pytest.mark.parametrize("bad", ["hole", "empty", "suffix", "shape"])
    def test_non_prefix_mask_raises(self, path, bad):
        clf = classifier("small")
        ids = np.random.default_rng(0).integers(0, 37, (3, 6))
        mask = np.ones((3, 6), dtype=bool)
        if bad == "hole":
            mask[1, 2] = False
        elif bad == "empty":
            mask[2] = False
        elif bad == "suffix":
            mask[0, :2] = False
        else:
            mask = mask[:, :5]
        with pytest.raises(ValueError, match="mask"):
            getattr(clf, path)(ids, mask)

    def test_every_library_mask_is_a_prefix_mask(self):
        columns = EnterpriseScenario(EnterpriseScenarioConfig(
            seed=2, duration=6.0, dns_clients=2, dns_queries_per_client=3,
            http_sessions=3, tls_sessions=3, iot_devices_per_type=1,
        )).generate_columns()
        tokenizer = FieldAwareTokenizer()
        builder = FlowContextBuilder(max_tokens=32)
        contexts = builder.build(columns.to_packets(), tokenizer)
        vocabulary = Vocabulary.build([c.tokens for c in contexts])
        masks = []
        ids, mask = builder.encode_columns(columns, tokenizer, vocabulary)
        masks.append(mask)
        masks.append(encode_contexts(contexts, vocabulary, 32)[1])
        masks.extend(
            batch.attention_mask
            for batch in pack_batches(ids, mask, 8, rng=np.random.default_rng(0))
        )
        assembler = StreamingFlowAssembler(tokenizer, vocabulary, builder=builder)
        records = [r for c in chunk_columns(columns, 16) for r in assembler.push(c)]
        records += assembler.flush()
        masks.append(np.stack([r.attention_mask for r in records]))
        for mask in masks:
            lengths = prefix_lengths(mask, mask.shape)  # raises otherwise
            assert (lengths >= 1).all()
