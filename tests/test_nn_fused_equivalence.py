"""Differential harness: fused kernels vs the composed reference paths.

Every fused fast path in ``repro.nn`` keeps its composed reference
implementation alive behind a flag (``fused=False`` on the layers and
losses, ``in_place=False`` on the optimizers, ``predict_logits_reference``
on the classifier).  This file drives both sides over the same inputs and
pins the equivalence contract:

* forwards and loss *values* are **bit-identical** (the fused forward
  replays the composed NumPy op sequence exactly);
* backwards are analytic single-pass VJPs — equal to the composed
  gradients to ``assert_allclose`` tolerance (last-ulp association
  differences only), so training curves stay loss-for-loss identical;
* in-place optimizer updates are bit-identical to the reference update
  expressions, state buffers included;
* the tape-free eval forward is bit-identical to the module-graph loop
  and makes a lone row's logits equal to the same row served in any batch
  (the batch-invariance contract the serving engine relies on);
* float32 models stay float32 end to end on the fused path;
* steady-state training allocates no scratch buffers, and each scratch
  pool holds one buffer per slot, sized to its largest request, whose
  prefix views never carry data from one request into the next.

Shapes deliberately cover 1-element, odd and power-of-two rows, singleton
batches, and padded vs padding-free masks.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import NetFMConfig
from repro.core.finetuning import FinetuneConfig, SequenceClassifier
from repro.core.model import NetFoundationModel
from repro.core.pretraining import Pretrainer, PretrainingConfig
from repro.nn import (
    Adam,
    AdamW,
    SGD,
    LayerNorm,
    MultiHeadAttention,
    Tensor,
    Trainer,
    cross_entropy,
    masked_cross_entropy,
    no_grad,
    scratch_allocations,
)
from repro.nn.numeric import assert_within_ulp, ulp_budget
from repro.tokenize import Vocabulary

SHAPES = [(1, 1, 4), (1, 7, 8), (2, 1, 8), (3, 5, 8), (4, 16, 16)]


def random_mask(rng: np.random.Generator, batch: int, seq: int) -> np.ndarray:
    """A padding mask with at least one valid position per row."""
    mask = np.ones((batch, seq), dtype=bool)
    for row in range(batch):
        mask[row, rng.integers(1, seq + 1) :] = False
    return mask


def build_model_pair(fused_dropout: float = 0.0, **overrides):
    """Two identically-initialized foundation models, fused and reference."""
    kwargs = dict(
        vocab_size=37, d_model=16, num_heads=2, num_layers=2, d_ff=32,
        max_len=24, dropout=fused_dropout, seed=11,
    )
    kwargs.update(overrides)
    fused = NetFoundationModel(NetFMConfig(fused=True, **kwargs))
    reference = NetFoundationModel(NetFMConfig(fused=False, **kwargs))
    return fused, reference


class TestForwardBitIdentity:
    @pytest.mark.parametrize("batch,seq,d", SHAPES)
    def test_layer_norm_forward(self, batch, seq, d):
        rng = np.random.default_rng(batch * 100 + seq)
        x = rng.normal(size=(batch, seq, d))
        fused = LayerNorm(d, fused=True)
        reference = LayerNorm(d, fused=False)
        out_fused = fused(Tensor(x, requires_grad=True))
        out_ref = reference(Tensor(x, requires_grad=True))
        assert np.array_equal(out_fused.data, out_ref.data)
        with no_grad():
            assert np.array_equal(fused(Tensor(x)).data, out_ref.data)

    @pytest.mark.parametrize("batch,seq,d", SHAPES)
    @pytest.mark.parametrize("masked", [False, True])
    def test_attention_forward(self, batch, seq, d, masked):
        rng = np.random.default_rng(batch * 10 + seq + masked)
        x = rng.normal(size=(batch, seq, d))
        mask = random_mask(rng, batch, seq) if masked else None
        fused = MultiHeadAttention(d, 2, rng=np.random.default_rng(0), fused=True)
        reference = MultiHeadAttention(d, 2, rng=np.random.default_rng(0), fused=False)
        fused.eval(), reference.eval()
        out_fused = fused(Tensor(x, requires_grad=True), attention_mask=mask)
        out_ref = reference(Tensor(x, requires_grad=True), attention_mask=mask)
        assert np.array_equal(out_fused.data, out_ref.data)
        assert np.array_equal(fused.last_attention, reference.last_attention)

    @pytest.mark.parametrize("masked", [False, True])
    def test_model_logits(self, masked):
        fused, reference = build_model_pair()
        clf_fused = SequenceClassifier(fused, 4, FinetuneConfig(dropout=0.0))
        clf_ref = SequenceClassifier(reference, 4, FinetuneConfig(dropout=0.0))
        rng = np.random.default_rng(5)
        for batch, seq in [(1, 6), (3, 9), (4, 16), (2, 1)]:
            ids = rng.integers(0, 37, (batch, seq))
            mask = random_mask(rng, batch, seq) if masked else None
            lf = clf_fused.predict_logits(ids, mask)
            lr = clf_ref.predict_logits(ids, mask)
            if batch == 1:
                # The fast path trades exact 1-row reproduction of the
                # composed loop for batch invariance (see TestEvalFastPath).
                np.testing.assert_allclose(lf, lr)
            else:
                assert np.array_equal(lf, lr)


class TestLossEquivalence:
    def test_cross_entropy_value_and_grad(self):
        rng = np.random.default_rng(2)
        for n, c in [(1, 2), (5, 7), (8, 16)]:
            logits = rng.normal(size=(n, c))
            targets = rng.integers(0, c, size=n)
            tf, tr = Tensor(logits, requires_grad=True), Tensor(logits, requires_grad=True)
            lf = cross_entropy(tf, targets, fused=True)
            lr = cross_entropy(tr, targets, fused=False)
            assert np.array_equal(lf.data, lr.data)
            lf.backward(), lr.backward()
            np.testing.assert_allclose(tf.grad, tr.grad, atol=1e-12)

    def test_cross_entropy_label_smoothing(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(6, 5))
        targets = rng.integers(0, 5, size=6)
        tf, tr = Tensor(logits, requires_grad=True), Tensor(logits, requires_grad=True)
        lf = cross_entropy(tf, targets, label_smoothing=0.1, fused=True)
        lr = cross_entropy(tr, targets, label_smoothing=0.1, fused=False)
        np.testing.assert_allclose(lf.data, lr.data, rtol=1e-12)
        lf.backward(), lr.backward()
        np.testing.assert_allclose(tf.grad, tr.grad, atol=1e-12)

    def test_masked_cross_entropy_value_and_grad(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(3, 6, 9))
        targets = rng.integers(0, 9, size=(3, 6))
        mask = rng.random((3, 6)) < 0.4
        mask[1, 2] = True
        tf, tr = Tensor(logits, requires_grad=True), Tensor(logits, requires_grad=True)
        lf = masked_cross_entropy(tf, targets, mask, fused=True)
        lr = masked_cross_entropy(tr, targets, mask, fused=False)
        assert np.array_equal(lf.data, lr.data)
        lf.backward(), lr.backward()
        np.testing.assert_allclose(tf.grad, tr.grad, atol=1e-12)

    def test_masked_cross_entropy_empty_mask(self):
        logits = Tensor(np.ones((2, 3, 4)), requires_grad=True)
        mask = np.zeros((2, 3), dtype=bool)
        for fused in (True, False):
            loss = masked_cross_entropy(logits, np.zeros((2, 3), dtype=np.int64), mask, fused=fused)
            assert float(loss.data) == 0.0


class TestGradientEquivalence:
    @pytest.mark.parametrize("batch,seq,d", SHAPES)
    def test_layer_norm_backward(self, batch, seq, d):
        rng = np.random.default_rng(batch + seq)
        x = rng.normal(size=(batch, seq, d))
        grads = {}
        for fused in (True, False):
            layer = LayerNorm(d, fused=fused)
            inp = Tensor(x, requires_grad=True)
            (layer(inp) * layer(inp)).sum().backward()
            grads[fused] = (inp.grad, layer.gamma.grad, layer.beta.grad)
        for gf, gr in zip(grads[True], grads[False]):
            np.testing.assert_allclose(gf, gr, atol=1e-10)

    @pytest.mark.parametrize("masked", [False, True])
    def test_attention_backward(self, masked):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(3, 7, 8))
        mask = random_mask(rng, 3, 7) if masked else None
        grads = {}
        for fused in (True, False):
            layer = MultiHeadAttention(8, 2, rng=np.random.default_rng(1), fused=fused)
            layer.eval()
            inp = Tensor(x, requires_grad=True)
            (layer(inp, attention_mask=mask) ** 2).sum().backward()
            grads[fused] = [inp.grad] + [p.grad for p in layer.parameters()]
        for gf, gr in zip(grads[True], grads[False]):
            np.testing.assert_allclose(gf, gr, atol=1e-10)


class TestTrainingEquivalence:
    def _fit(self, fused: bool) -> tuple[list, SequenceClassifier]:
        kwargs = dict(
            vocab_size=23, d_model=12, num_heads=2, num_layers=1, d_ff=24,
            max_len=12, dropout=0.0, seed=2,
        )
        model = NetFoundationModel(NetFMConfig(fused=fused, **kwargs))
        clf = SequenceClassifier(
            model, 3, FinetuneConfig(epochs=2, batch_size=4, dropout=0.0, seed=0)
        )
        rng = np.random.default_rng(0)
        ids = rng.integers(0, 23, (12, 10))
        mask = np.ones((12, 10), dtype=bool)
        labels = rng.integers(0, 3, 12)
        history = clf.fit(ids, mask, labels)
        return history.losses, clf

    def test_finetune_curves_loss_for_loss(self):
        losses_fused, clf_fused = self._fit(True)
        losses_ref, clf_ref = self._fit(False)
        np.testing.assert_allclose(losses_fused, losses_ref)
        for pf, pr in zip(clf_fused.parameters(), clf_ref.parameters()):
            np.testing.assert_allclose(pf.data, pr.data, atol=1e-10)

    def test_pretrain_curves_loss_for_loss(self):
        vocabulary = Vocabulary(["a", "b", "c", "d"])
        losses = {}
        for fused in (True, False):
            config = NetFMConfig(
                vocab_size=len(vocabulary), d_model=12, num_heads=2, num_layers=1,
                d_ff=24, max_len=10, dropout=0.0, seed=4, fused=fused,
            )
            rng = np.random.default_rng(6)
            ids = rng.integers(0, len(vocabulary), (10, 8))
            mask = np.ones((10, 8), dtype=bool)
            pretrainer = Pretrainer(
                NetFoundationModel(config), vocabulary,
                PretrainingConfig(epochs=2, batch_size=5, seed=0),
            )
            losses[fused] = pretrainer.pretrain_encoded(ids, mask).losses
        np.testing.assert_allclose(losses[True], losses[False])


class TestOptimizerStateEquivalence:
    CONFIGS = [
        (SGD, dict(lr=0.1)),
        (SGD, dict(lr=0.1, momentum=0.9, weight_decay=0.01)),
        (Adam, dict(lr=1e-2)),
        (Adam, dict(lr=1e-2, weight_decay=0.01)),
        (AdamW, dict(lr=1e-2, weight_decay=0.05)),
    ]

    @pytest.mark.parametrize("cls,kwargs", CONFIGS)
    def test_in_place_updates_bit_identical(self, cls, kwargs):
        rng = np.random.default_rng(7)
        shapes = [(4, 3), (3,), (2, 2)]
        datas = [rng.normal(size=s) for s in shapes]
        grads = [[rng.normal(size=s) for s in shapes] for _ in range(5)]

        def run(in_place):
            params = [Tensor(d.copy(), requires_grad=True) for d in datas]
            opt = cls(params, in_place=in_place, **kwargs)
            for step_grads in grads:
                opt.zero_grad(set_to_none=not in_place)
                for p, g in zip(params, step_grads):
                    p._add_grad(g.copy())
                opt.step()
            return params, opt

        params_ip, opt_ip = run(True)
        params_ref, opt_ref = run(False)
        for pi, pr in zip(params_ip, params_ref):
            assert np.array_equal(pi.data, pr.data)
        if isinstance(opt_ip, Adam):
            for mi, mr in zip(opt_ip._m, opt_ref._m):
                assert np.array_equal(mi, mr)
            for vi, vr in zip(opt_ip._v, opt_ref._v):
                assert np.array_equal(vi, vr)

    def test_untouched_parameter_skipped_with_preallocated_buffers(self):
        p_active = Tensor(np.ones(3), requires_grad=True)
        p_idle = Tensor(np.ones(3), requires_grad=True)
        opt = Adam([p_active, p_idle], lr=0.1, in_place=True)
        before = p_idle.data.copy()
        for _ in range(2):
            opt.zero_grad(set_to_none=False)
            p_active._add_grad(np.ones(3))
            opt.step()
        assert np.array_equal(p_idle.data, before)
        assert not np.array_equal(p_active.data, np.ones(3))

    def test_grad_buffers_reused_between_steps(self):
        p = Tensor(np.ones((2, 2)), requires_grad=True)
        opt = SGD([p], lr=0.1, in_place=True)
        opt.zero_grad(set_to_none=False)
        p._add_grad(np.ones((2, 2)))
        opt.step()
        buffer = p.grad
        opt.zero_grad(set_to_none=False)
        p._add_grad(np.ones((2, 2)))
        assert p.grad is buffer


class TestEvalFastPath:
    def _classifier(self, seed=0):
        model, _ = build_model_pair(seed=seed)
        return SequenceClassifier(model, 4, FinetuneConfig(dropout=0.0))

    @pytest.mark.parametrize("masked", [False, True])
    def test_bit_identical_to_module_loop(self, masked):
        clf = self._classifier()
        rng = np.random.default_rng(1)
        for batch, seq in [(2, 5), (3, 1), (5, 13), (4, 16)]:
            ids = rng.integers(0, 37, (batch, seq))
            mask = random_mask(rng, batch, seq) if masked else None
            assert np.array_equal(
                clf.predict_logits(ids, mask),
                clf.predict_logits_reference(ids, mask),
            )

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @settings(max_examples=20, deadline=None)
    @given(
        batch=st.integers(min_value=1, max_value=6),
        seq=st.integers(min_value=1, max_value=12),
        chunk=st.integers(min_value=1, max_value=7),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_property_singleton_matches_in_batch(
        self, dtype, batch, seq, chunk, seed
    ):
        """A row's served logits never depend on batch packing or chunking.

        Float64 builds hold this bit for bit.  Float32 builds do not (packed
        gemms round differently per batch shape), so every f32 packing is
        held to the ``logits`` ulp budget of the f64 reference instead.
        """
        clf = self._classifier()
        rng = np.random.default_rng(seed)
        ids = rng.integers(0, 37, (batch, seq))
        mask = random_mask(rng, batch, seq)
        full = clf.predict_logits(ids, mask)
        if dtype == "float64":
            chunked = clf.predict_logits(ids, mask, batch_size=chunk)
            assert np.array_equal(full, chunked)
            for row in range(batch):
                lone = clf.predict_logits(ids[row : row + 1], mask[row : row + 1])
                assert np.array_equal(lone[0], full[row])
            return
        f32 = clf.serving_build("float32")
        budget = ulp_budget("logits")
        packings = {
            "full": f32.predict_logits(ids, mask),
            "chunked": f32.predict_logits(ids, mask, batch_size=chunk),
        }
        for name, logits in packings.items():
            assert logits.dtype == np.float32
            assert_within_ulp(logits, full, budget, f"{name} f32 logits")
        for row in range(batch):
            lone = f32.predict_logits(ids[row : row + 1], mask[row : row + 1])
            assert_within_ulp(lone[0], full[row], budget, f"row {row} alone")

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_fast_path_records_no_maps(self, dtype):
        """The fast path serves logits only: right after the module loop
        recorded maps, a fast-path call leaves none to read."""
        clf = self._classifier().serving_build(dtype)
        rng = np.random.default_rng(8)
        ids = rng.integers(0, 37, (3, 7))
        mask = random_mask(rng, 3, 7)
        for rows in (3, 0):
            clf.predict_logits_reference(ids, mask)
            maps = clf.model.attention_maps()
            assert len(maps) == clf.model.config.num_layers
            assert all(m.shape == (3, 2, 7, 7) and m.dtype == dtype for m in maps)
            clf.predict_logits(ids[:rows], mask[:rows])
            assert clf.model.attention_maps() == []

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("num_layers", [1, 2])
    def test_reference_maps_match_composed_model(self, num_layers, masked):
        """The one recorder, the module forward, writes the same float64
        maps through the fused kernel as through the composed ops."""
        fused, composed = build_model_pair(num_layers=num_layers)
        fused = SequenceClassifier(fused, 4, FinetuneConfig(dropout=0.0))
        composed = SequenceClassifier(composed, 4, FinetuneConfig(dropout=0.0))
        rng = np.random.default_rng(num_layers)
        ids = rng.integers(0, 37, (6, 17))
        mask = random_mask(rng, 6, 17) if masked else None
        assert np.array_equal(
            fused.predict_logits_reference(ids, mask),
            composed.predict_logits_reference(ids, mask),
        )
        ours, theirs = fused.model.attention_maps(), composed.model.attention_maps()
        assert len(ours) == len(theirs) == num_layers
        for got, expected in zip(ours, theirs):
            assert got.dtype == np.float64
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("batch", [2, 3, 7, 25])
    @pytest.mark.parametrize("seq", [10, 31])
    def test_wide_feed_forward_bit_identical(self, batch, seq):
        """``d_ff`` 512 (the large serving model's width): float64 stays
        bit-identical to the composed loop.  A float64 gemm row's bits can
        depend on the row count M at this K on OpenBLAS, so the f64 forward
        must keep running every position through every layer."""
        model, _ = build_model_pair(d_model=64, num_heads=4, num_layers=1, d_ff=512, max_len=32)
        clf = SequenceClassifier(model, 4, FinetuneConfig(dropout=0.0))
        ids = np.random.default_rng(batch * 100 + seq).integers(0, 37, (batch, seq))
        assert np.array_equal(
            clf.predict_logits(ids, None), clf.predict_logits_reference(ids, None)
        )

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_scratch_is_one_buffer_per_slot_across_shapes(self, dtype):
        """Serving many batch shapes keeps one scratch buffer per slot, and
        a forward after a larger one matches a cold forward bit for bit.
        Rows carry no padding, so the activation slots hold the largest
        call's valid tokens, not its padded ``rows * width``."""
        shapes = [(2, 5), (4, 16), (3, 1), (1, 9), (4, 16), (5, 13)]
        rng = np.random.default_rng(3)
        batches = [
            (rng.integers(0, 37, shape), random_mask(rng, *shape)) for shape in shapes
        ]
        warm = self._classifier().serving_build(dtype)
        for ids, mask in batches:
            cold = self._classifier().serving_build(dtype)
            assert np.array_equal(
                warm.predict_logits(ids, mask), cold.predict_logits(ids, mask)
            )
        buffers = warm._fastpath._pool._buffers
        assert len({slot for slot, _ in buffers}) == len(buffers)
        largest = max(int(mask.sum()) for _, mask in batches)
        assert buffers[("res0", np.dtype(dtype).char)].size == largest * 16

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_dropped_classifier_frees_its_scratch_at_once(self, dtype):
        """A served classifier is freed by reference counting: its scratch
        buffers do not outlive it until some later cyclic collection."""
        import gc
        import weakref

        clf = self._classifier().serving_build(dtype)
        clf.predict_logits(np.arange(8).reshape(2, 4), None)
        fastpath, model = weakref.ref(clf._fastpath), weakref.ref(clf.model)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del clf
            assert fastpath() is None and model() is None
        finally:
            if enabled:
                gc.enable()

    def test_weight_updates_are_picked_up(self):
        clf = self._classifier()
        ids = np.arange(8).reshape(2, 4)
        before = clf.predict_logits(ids, None)
        clf.head.weight.data += 0.5
        after = clf.predict_logits(ids, None)
        assert not np.array_equal(before, after)
        assert np.array_equal(after, clf.predict_logits_reference(ids, None))


class TestFloat32ClsTail:
    """Float32 runs the last layer past attention on the [CLS] rows only."""

    def _pair(self, num_layers=2):
        """(float32 serving build, float64 composed-oracle classifier)."""
        fused, reference = build_model_pair(num_layers=num_layers, max_len=32)
        clf = SequenceClassifier(fused, 4, FinetuneConfig(dropout=0.0))
        oracle = SequenceClassifier(reference, 4, FinetuneConfig(dropout=0.0))
        return clf.serving_build("float32"), oracle

    @pytest.mark.parametrize("after_reference", [False, True])
    @pytest.mark.parametrize("num_layers", [1, 2])
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("seq", [1, 2, 3, 31])
    @pytest.mark.parametrize("batch", [1, 5])
    def test_logits_within_budget_of_oracle(
        self, batch, seq, masked, num_layers, after_reference
    ):
        """Within budget and logits-only, also right after the module loop
        recorded maps on the same build."""
        f32, oracle = self._pair(num_layers)
        rng = np.random.default_rng(batch * 1000 + seq)
        ids = rng.integers(0, 37, (batch, seq))
        mask = random_mask(rng, batch, seq) if masked else None
        if after_reference:
            f32.predict_logits_reference(ids, mask)
            assert len(f32.model.attention_maps()) == num_layers
        logits = f32.predict_logits(ids, mask)
        expected = oracle.predict_logits_reference(ids, mask)
        assert logits.dtype == np.float32
        assert_within_ulp(logits, expected, ulp_budget("logits"), "f32 [CLS] tail")
        assert np.array_equal(logits.argmax(axis=1), expected.argmax(axis=1))
        assert f32.model.attention_maps() == []


class TestFloat32Discipline:
    def _cast(self, module, dtype):
        for p in module.parameters():
            p.data = p.data.astype(dtype)
        return module

    def test_fused_forward_stays_float32(self):
        model, _ = build_model_pair()
        clf = SequenceClassifier(model, 4, FinetuneConfig(dropout=0.0))
        self._cast(clf, np.float32)
        ids = np.arange(12).reshape(3, 4)
        logits = clf.predict_logits(ids, np.ones((3, 4), dtype=bool))
        assert logits.dtype == np.float32
        # An empty batch comes back in the model's dtype from both loops.
        empty = np.zeros((0, 4), dtype=np.int64)
        for predict in (clf.predict_logits, clf.predict_logits_reference):
            out = predict(empty, None)
            assert out.shape == (0, 4) and out.dtype == np.float32

    def test_fused_float32_tracks_float64(self):
        ids = np.arange(12).reshape(3, 4)
        mask = np.ones((3, 4), dtype=bool)
        model64, _ = build_model_pair()
        clf64 = SequenceClassifier(model64, 4, FinetuneConfig(dropout=0.0))
        logits64 = clf64.predict_logits(ids, mask)
        model32, _ = build_model_pair()
        clf32 = self._cast(
            SequenceClassifier(model32, 4, FinetuneConfig(dropout=0.0)), np.float32
        )
        logits32 = clf32.predict_logits(ids, mask)
        np.testing.assert_allclose(logits32, logits64, rtol=1e-3, atol=1e-4)

    def test_fused_loss_stays_float32(self):
        rng = np.random.default_rng(0)
        logits = Tensor(rng.normal(size=(4, 5)).astype(np.float32), requires_grad=True)
        loss = cross_entropy(logits, np.zeros(4, dtype=np.int64), fused=True)
        assert loss.data.dtype == np.float32
        loss.backward()
        assert logits.grad.dtype == np.float32


class TestAllocationDiscipline:
    def test_steady_state_training_allocates_no_scratch(self):
        model, _ = build_model_pair()
        clf = SequenceClassifier(model, 3, FinetuneConfig(dropout=0.0))
        optimizer = Adam(clf.parameters(), lr=1e-3)
        trainer = Trainer(clf, optimizer)
        rng = np.random.default_rng(0)
        ids = rng.integers(0, 37, (4, 8))
        mask = np.ones((4, 8), dtype=bool)
        labels = rng.integers(0, 3, 4)
        for _ in range(4):
            trainer.train_step(lambda: cross_entropy(clf(ids, mask), labels))
        history = trainer.history
        assert len(history.step_wall_times) == len(history.losses) == 4
        assert all(t > 0 for t in history.step_wall_times)
        # After the first step every pooled shape exists; later same-shape
        # steps must not miss the pool.
        assert history.step_scratch_allocations[1:] == [0, 0, 0]
        # The taped graph has a fixed size per batch shape.
        assert len(set(history.step_tensor_allocations[1:])) == 1

    @staticmethod
    def _train_pass(norm, attention, x):
        """One taped LayerNorm -> attention forward and backward."""
        inp = Tensor(x, requires_grad=True)
        out = attention(norm(inp))
        (out * out).sum().backward()
        return out.data, inp.grad

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_pool_holds_one_buffer_per_slot_sized_to_largest_request(self, dtype):
        """Taped passes over three widths, the largest not first, leave each
        module pool with one buffer per ``(slot, dtype)`` — exactly what a
        pool that only ever saw the largest width holds — and every pass
        matches a cold module bit for bit."""
        def modules():
            norm = LayerNorm(16)
            attention = MultiHeadAttention(16, 4, rng=np.random.default_rng(5))
            for module in (norm, attention):
                for p in module.parameters():
                    p.data = p.data.astype(dtype)
            return norm, attention

        rng = np.random.default_rng(7)
        widths = [9, 21, 4]
        warm = modules()
        for width in widths:
            x = rng.normal(size=(3, width, 16)).astype(dtype)
            out, grad = self._train_pass(*warm, x)
            cold_out, cold_grad = self._train_pass(*modules(), x)
            assert np.array_equal(out, cold_out) and np.array_equal(grad, cold_grad)
        largest = modules()
        self._train_pass(*largest, rng.normal(size=(3, max(widths), 16)).astype(dtype))
        for module, reference in zip(warm, largest):
            sizes = {key: buf.size for key, buf in module._pool._buffers.items()}
            assert all(char == np.dtype(dtype).char for _, char in sizes)
            assert sizes == {key: buf.size for key, buf in reference._pool._buffers.items()}

    def test_prefix_reuse_never_aliases_live_data(self):
        """A packed fit whose pools were pre-grown by a max-width batch (and
        then poisoned with NaN) allocates no scratch and gives per-step
        losses equal to a cold fit: narrower batches only ever read prefix
        views they wrote themselves."""
        def classifier():
            model, _ = build_model_pair(max_len=24)
            return SequenceClassifier(model, 3, FinetuneConfig(epochs=2, dropout=0.0))

        rng = np.random.default_rng(2)
        ids = rng.integers(5, 37, (96, 24))
        mask = random_mask(rng, 96, 24)
        labels = rng.integers(0, 3, 96)
        batch = FinetuneConfig().batch_size

        cold = classifier().fit(ids, mask, labels).losses
        grown = classifier()
        full = np.ones((batch, ids.shape[1]), dtype=bool)
        cross_entropy(grown(ids[:batch], attention_mask=full), labels[:batch]).backward()
        grown.zero_grad()
        pools = [grown.model.embedding_norm._pool, grown.model.encoder.final_norm._pool]
        for layer in grown.model.encoder.layers:
            pools += [layer.norm1._pool, layer.norm2._pool, layer.attention._pool]
        for pool in pools:
            for buf in pool._buffers.values():
                buf.fill(np.nan)
        before = scratch_allocations()
        warm = grown.fit(ids, mask, labels).losses
        assert scratch_allocations() == before
        assert len(set(mask.sum(axis=1))) >= 3
        assert warm == cold

    def test_grad_mode_is_thread_local_for_fused_kernels(self):
        layer = LayerNorm(4, fused=True)
        x = rng_x = np.random.default_rng(0).normal(size=(2, 3, 4))
        results = {}

        def eval_worker():
            with no_grad():
                results["eval"] = layer(Tensor(rng_x, requires_grad=True))

        inp = Tensor(x, requires_grad=True)
        out = layer(inp)  # taped in the main thread
        worker = threading.Thread(target=eval_worker)
        worker.start()
        worker.join()
        assert not results["eval"].requires_grad
        out.sum().backward()
        assert inp.grad is not None and layer.gamma.grad is not None
