"""The documented-ulp numeric policy (``repro.nn.numeric``).

Three layers of coverage:

* the ulp harness itself, on hand-built arrays — adjacent values, sign
  flips across zero, denormals, infinities, NaNs, signed zeros, mixed
  dtypes — where every distance is known by construction;
* the tolerance table: policy identifiers per dtype, ``Budget`` lookups,
  the float64 bit-exact degenerate case, unknown-layer errors;
* seeded f32-vs-f64 sweeps over every fused kernel at serving shapes,
  parametrized over both dtypes: the float64 arm pins the bit-exact policy
  (budget 0), the float32 arm pins the documented :data:`ULP_BUDGETS`.

Plus the build machinery the policy governs: the one-time cast of
:meth:`SequenceClassifier.serving_build` (the only place a model's dtype is
chosen) and checkpoint round-trips that preserve the serving dtype.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.config import NetFMConfig
from repro.core.finetuning import FinetuneConfig, SequenceClassifier
from repro.core.model import NetFoundationModel
from repro.nn import (
    LayerNorm,
    MultiHeadAttention,
    Tensor,
    cross_entropy,
    load_checkpoint,
    masked_cross_entropy,
    no_grad,
    save_checkpoint,
)
from repro.nn import init
from repro.nn.kernels import (
    RaggedLayout,
    ScratchPool,
    eval_layer_norm,
    ragged_attention,
    ragged_matmul,
)
from repro.nn.numeric import (
    POLICY_BIT_EXACT_F64,
    POLICY_RELAXED_ULP_F32,
    Budget,
    ULP_BUDGETS,
    assert_within_ulp,
    max_ulp_diff,
    numeric_policy,
    ulp_budget,
    ulp_diff,
)

# ---------------------------------------------------------------------------
# The harness on hand-built arrays
# ---------------------------------------------------------------------------


class TestUlpDiff:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_identical_arrays_are_zero(self, dtype):
        x = np.array([-3.5, -0.0, 0.0, 1e-30, 7.25], dtype=dtype)
        assert np.array_equal(ulp_diff(x, x.copy()), np.zeros(5))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_adjacent_values_are_one(self, dtype):
        one = dtype(1.0)
        x = np.array([one], dtype=dtype)
        y = np.array([np.nextafter(one, dtype(2.0))], dtype=dtype)
        assert max_ulp_diff(x, y) == 1.0
        assert max_ulp_diff(y, x) == 1.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_signed_zeros_are_equal(self, dtype):
        assert max_ulp_diff(
            np.array([0.0], dtype=dtype), np.array([-0.0], dtype=dtype)
        ) == 0.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_denormal_is_one_ulp_from_zero(self, dtype):
        tiny = np.nextafter(dtype(0.0), dtype(1.0))  # smallest denormal
        assert max_ulp_diff(
            np.array([tiny], dtype=dtype), np.array([0.0], dtype=dtype)
        ) == 1.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sign_flip_counts_through_zero(self, dtype):
        # The distance from +tiny to -tiny must cross zero: one ulp down to
        # 0.0, one ulp further to -tiny.
        tiny = np.nextafter(dtype(0.0), dtype(1.0))
        a = np.array([tiny], dtype=dtype)
        b = np.array([-tiny], dtype=dtype)
        assert max_ulp_diff(a, b) == 2.0

    def test_sign_flip_of_large_values_is_huge_not_overflowed(self):
        # Opposite-sign int64 orderings can overflow naive subtraction; the
        # distance must come back as the (astronomical) true magnitude.
        a = np.array([np.finfo(np.float64).max], dtype=np.float64)
        b = -a
        diff = max_ulp_diff(a, b)
        assert np.isfinite(diff) and diff > 2**62

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_infinities(self, dtype):
        inf = np.array([np.inf], dtype=dtype)
        assert max_ulp_diff(inf, inf.copy()) == 0.0
        assert max_ulp_diff(inf, -inf) == np.inf
        assert max_ulp_diff(inf, np.array([1.0], dtype=dtype)) == np.inf

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_nans(self, dtype):
        nan = np.array([np.nan], dtype=dtype)
        assert max_ulp_diff(nan, nan.copy()) == 0.0  # NaN-vs-NaN: equal
        assert max_ulp_diff(nan, np.array([1.0], dtype=dtype)) == np.inf

    def test_mixed_dtypes_measure_in_float32_ulps(self):
        # A float64 reference is cast down once, so a reference value that
        # rounds to the same float32 is distance zero.
        a32 = np.array([1.0], dtype=np.float32)
        b64 = np.array([1.0 + 1e-12], dtype=np.float64)
        assert max_ulp_diff(a32, b64) == 0.0
        # ... and one float32 ulp of separation is distance one.
        c64 = np.array([1.0 + 1.25 * np.finfo(np.float32).eps], dtype=np.float64)
        assert max_ulp_diff(a32, c64) == 1.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            ulp_diff(np.zeros(3), np.zeros(4))

    def test_integer_arrays_are_rejected(self):
        with pytest.raises(TypeError, match="float32/float64"):
            ulp_diff(np.zeros(3, dtype=np.int64), np.zeros(3, dtype=np.int64))

    def test_empty_arrays(self):
        assert max_ulp_diff(np.zeros(0), np.zeros(0)) == 0.0
        assert assert_within_ulp(np.zeros(0), np.zeros(0), 0) == 0.0


class TestAssertWithinUlp:
    def test_passes_and_returns_measured_max(self):
        a = np.array([1.0], dtype=np.float32)
        b = np.array([np.nextafter(np.float32(1.0), np.float32(2.0))])
        assert assert_within_ulp(a, b.astype(np.float32), 4) == 1.0

    def test_failure_names_worst_element(self):
        a = np.array([1.0, 2.0], dtype=np.float32)
        b = a.copy()
        b[1] = np.nextafter(np.nextafter(b[1], 9.0), 9.0)  # 2 ulps off
        with pytest.raises(AssertionError, match=r"logit row.*index \(1,\)"):
            assert_within_ulp(a, b, 1, what="logit row")

    def test_budget_atol_floor_exempts_cancellation(self):
        # 1e-8 is thousands of ulps from 2e-8 in float32 but well inside a
        # 1e-6 absolute floor — the Budget's second member must exempt it.
        a = np.array([1e-8], dtype=np.float32)
        b = np.array([2e-8], dtype=np.float32)
        assert max_ulp_diff(a, b) > 1000
        assert assert_within_ulp(a, b, Budget(ulp=1, atol=1e-6)) == 0.0
        with pytest.raises(AssertionError):
            assert_within_ulp(a, b, Budget(ulp=1, atol=0.0))

    def test_bare_int_budget_means_zero_atol(self):
        a = np.array([1e-8], dtype=np.float32)
        b = np.array([2e-8], dtype=np.float32)
        with pytest.raises(AssertionError):
            assert_within_ulp(a, b, 1000)


# ---------------------------------------------------------------------------
# The tolerance table
# ---------------------------------------------------------------------------


class TestPolicyTable:
    def test_policy_identifiers(self):
        assert numeric_policy("float64") == POLICY_BIT_EXACT_F64
        assert numeric_policy(np.float32) == POLICY_RELAXED_ULP_F32
        with pytest.raises(ValueError, match="float16"):
            numeric_policy("float16")

    def test_float64_budget_is_bit_exact_for_every_layer(self):
        for layer in ULP_BUDGETS:
            assert ulp_budget(layer, "float64") == Budget(0, 0.0)

    def test_float32_budgets_come_from_the_table(self):
        for layer, budget in ULP_BUDGETS.items():
            assert ulp_budget(layer) == budget
            assert budget.ulp > 0 and budget.atol >= 0.0

    def test_unknown_layer_raises_with_known_keys(self):
        with pytest.raises(KeyError, match="conv.*layer_norm"):
            ulp_budget("conv")


# ---------------------------------------------------------------------------
# Seeded f32-vs-f64 sweeps over the fused kernels at serving shapes
# ---------------------------------------------------------------------------

SERVING_SHAPES = [(4, 16, 32), (32, 64, 32), (2, 7, 16)]

DTYPES = [np.float64, np.float32]


def _check(actual, reference, layer, dtype, what):
    """Assert the per-layer contract: bit-exact for f64, budget for f32."""
    budget = ulp_budget(layer, dtype)
    if dtype == np.float64:
        assert np.array_equal(np.asarray(actual), np.asarray(reference)), what
    assert_within_ulp(actual, reference, budget, what)


def _prefix_mask(rng, batch, seq):
    """A key mask keeping a random non-empty prefix of every row."""
    mask = np.ones((batch, seq), dtype=bool)
    for row in range(batch):
        mask[row, rng.integers(1, seq + 1) :] = False
    return mask


class TestFusedKernelSweep:
    """Every fused kernel, both dtypes, against the float64 fused reference.

    The float64 arm is the bit-exact policy restated (budget 0, plus a
    direct ``array_equal``); the float32 arm is the documented relaxed
    budget.  The no-tape cases run the one dtype dispatch of
    `repro.nn.kernels` (`eval_layer_norm`, `ragged_attention`,
    `ragged_matmul`) that the fused modules and the serving fast path call:
    the exact replay for float64, the packed layer norm
    (`eval_layer_norm_packed`) and the ragged float32 kernels for float32.
    Module attention runs the exact replay in both dtypes, so its float32
    arm is also bit-identical to the composed float32 module.
    """

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("batch,seq,d", SERVING_SHAPES)
    def test_layer_norm(self, dtype, batch, seq, d):
        rng = np.random.default_rng(batch * 31 + seq)
        x = rng.normal(size=(batch, seq, d))
        gamma, beta = rng.normal(size=d), rng.normal(size=d)
        reference = LayerNorm(d, fused=True)
        reference.gamma.data, reference.beta.data = gamma, beta
        subject = LayerNorm(d, fused=True)
        subject.gamma.data = gamma.astype(dtype)
        subject.beta.data = beta.astype(dtype)
        with no_grad():
            ref = reference(Tensor(x)).data
            out = subject(Tensor(x.astype(dtype))).data
        assert out.dtype == dtype
        _check(out, ref, "layer_norm", dtype, f"layer_norm {batch}x{seq}x{d}")

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("batch,seq,d", SERVING_SHAPES)
    def test_attention(self, dtype, masked, batch, seq, d):
        rng = np.random.default_rng(batch + seq * 7 + masked)
        x = rng.normal(size=(batch, seq, d))
        reference = MultiHeadAttention(d, 4, rng=np.random.default_rng(3), fused=True)
        subject = MultiHeadAttention(d, 4, rng=np.random.default_rng(3), fused=True)
        for ours, theirs in zip(subject.parameters(), reference.parameters()):
            ours.data = theirs.data.astype(dtype)
        reference.eval(), subject.eval()
        mask = _prefix_mask(rng, batch, seq) if masked else None
        with no_grad():
            ref = reference(Tensor(x), attention_mask=mask).data
            out = subject(Tensor(x.astype(dtype)), attention_mask=mask).data
        assert out.dtype == dtype
        what = f"attention {batch}x{seq}x{d} masked={masked}"
        _check(out, ref, "attention", dtype, what)
        _check(
            subject.last_attention, reference.last_attention,
            "softmax", dtype, "attention weights " + what,
        )

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("batch,seq,d", SERVING_SHAPES)
    def test_float32_module_attention_is_the_composed_path(self, masked, batch, seq, d):
        """Without a tape, fused float32 attention replays the composed
        float32 module bit for bit: outputs and recorded weights."""
        rng = np.random.default_rng(batch + seq * 7 + masked)
        x = rng.normal(size=(batch, seq, d)).astype(np.float32)
        fused, composed = (
            MultiHeadAttention(d, 4, rng=np.random.default_rng(3), fused=flag)
            for flag in (True, False)
        )
        for module in (fused, composed):
            for p in module.parameters():
                p.data = p.data.astype(np.float32)
            module.eval()
        mask = _prefix_mask(rng, batch, seq) if masked else None
        with no_grad():
            got = fused(Tensor(x), attention_mask=mask).data
            want = composed(Tensor(x), attention_mask=mask).data
        assert got.dtype == np.float32
        assert np.array_equal(got, want)
        assert np.array_equal(fused.last_attention, composed.last_attention)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_eval_kernels_into_shared_growing_pool(self, dtype):
        """``eval_layer_norm`` / ``ragged_attention`` / ``ragged_matmul``
        called directly, writing into ``out=`` buffers of one shared
        :class:`ScratchPool`, against the composed float64 modules.

        Shapes run largest first, so every later call gets prefix views of
        buffers an earlier call sized — the serving fast path's situation.
        A masked batch runs as the ragged layout of its rows' valid
        lengths; its reference is the composed module over each group of
        equal-length rows at their exact width, unmasked.
        """
        pool = ScratchPool()
        shapes = sorted(SERVING_SHAPES, key=np.prod, reverse=True)
        for (batch, seq, d), masked in itertools.product(shapes, (False, True)):
            what = f"{batch}x{seq}x{d} masked={masked}"
            rng = np.random.default_rng(batch * 131 + seq + masked)
            x = rng.normal(size=(batch, seq, d))
            xd = x.astype(dtype)

            norm = LayerNorm(d, fused=False)
            norm.gamma.data, norm.beta.data = rng.normal(size=d), rng.normal(size=d)
            with no_grad():
                ref = norm(Tensor(x)).data
            out = pool.take("ln_out", x.shape, dtype)
            got = eval_layer_norm(
                xd, norm.gamma.data.astype(dtype), norm.beta.data.astype(dtype),
                norm.eps, pool, out=out,
            )
            assert got is out and out.dtype == dtype
            _check(out, ref, "layer_norm", dtype, "eval_layer_norm " + what)

            # Attention over the rows' valid prefixes, then the output
            # projection through ragged_matmul, both in the ragged layout.
            att = MultiHeadAttention(d, 4, rng=np.random.default_rng(3), fused=False)
            att.eval()
            lengths = np.full(batch, seq)
            if masked:
                lengths = rng.integers(1, seq + 1, batch)
            order = np.argsort(lengths, kind="stable")
            layout = RaggedLayout(lengths[order], num_heads=4)
            rows = [x[i, : lengths[i]] for i in order]
            ref = np.empty((layout.tokens, d))
            with no_grad():
                for s, a, b, t0, t1 in layout.groups:
                    group = Tensor(np.stack(rows[a:b]))
                    ref[t0:t1] = att(group).data.reshape(-1, d)
            params = [
                p.data.astype(dtype)
                for lin in (att.q_proj, att.k_proj, att.v_proj)
                for p in (lin.weight, lin.bias)
            ]
            merged = pool.take("att_merged", (layout.tokens, d), dtype)
            got = ragged_attention(
                np.concatenate(rows).astype(dtype), *params, layout, pool, merged
            )
            assert got is merged
            projected = pool.take("proj", (layout.tokens, d), dtype)
            ragged_matmul(
                merged, att.out_proj.weight.data.astype(dtype), projected, layout
            )
            projected += att.out_proj.bias.data.astype(dtype)
            assert projected.dtype == dtype
            _check(projected, ref, "attention", dtype, "ragged_attention " + what)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_cross_entropy(self, dtype):
        rng = np.random.default_rng(17)
        logits = rng.normal(size=(128, 7)) * 3.0
        targets = rng.integers(0, 7, 128)
        with no_grad():
            ref = cross_entropy(Tensor(logits), targets, fused=True).data
            out = cross_entropy(
                Tensor(logits.astype(dtype)), targets, fused=True
            ).data
        _check(out, ref, "cross_entropy", dtype, "cross_entropy")

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_masked_cross_entropy(self, dtype):
        rng = np.random.default_rng(23)
        logits = rng.normal(size=(8, 16, 7)) * 3.0
        targets = rng.integers(0, 7, (8, 16))
        mask = rng.random((8, 16)) < 0.7
        mask[:, 0] = True
        with no_grad():
            ref = masked_cross_entropy(
                Tensor(logits), targets, mask, fused=True
            ).data
            out = masked_cross_entropy(
                Tensor(logits.astype(dtype)), targets, mask, fused=True
            ).data
        _check(out, ref, "cross_entropy", dtype, "masked_cross_entropy")

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("masked", [False, True])
    def test_end_to_end_logits(self, dtype, masked):
        classifier = _build_classifier()
        serving = classifier.serving_build(np.dtype(dtype).name)
        rng = np.random.default_rng(41)
        ids = rng.integers(0, 37, (16, 48))
        mask = None
        if masked:
            mask = np.ones((16, 48), dtype=bool)
            for row in range(16):
                mask[row, rng.integers(1, 49) :] = False
        ref = classifier.predict_logits(ids, mask, batch_size=8)
        out = serving.predict_logits(ids, mask, batch_size=8)
        assert out.dtype == dtype
        _check(out, ref, "logits", dtype, f"logits masked={masked}")
        assert np.array_equal(out.argmax(-1), ref.argmax(-1))


# ---------------------------------------------------------------------------
# Serving builds and checkpoint round-trips
# ---------------------------------------------------------------------------


def _build_classifier(**overrides):
    kwargs = dict(
        vocab_size=37, d_model=32, num_heads=4, num_layers=2, d_ff=64,
        max_len=64, dropout=0.0, seed=7,
    )
    kwargs.update(overrides)
    model = NetFoundationModel(NetFMConfig(fused=True, **kwargs))
    return SequenceClassifier(model, 5, FinetuneConfig(dropout=0.0))


class TestServingBuild:
    @pytest.mark.parametrize("fused", [True, False])
    def test_construction_is_float64(self, fused):
        # No constructor casts: every build starts as the float64 reference.
        config = NetFMConfig(
            vocab_size=37, d_model=16, num_heads=2, num_layers=1, d_ff=32,
            max_len=16, fused=fused,
        )
        classifier = SequenceClassifier(NetFoundationModel(config), 3)
        assert classifier.model_dtype == "float64"
        assert all(p.data.dtype == np.float64 for p in classifier.parameters())

    @pytest.mark.parametrize("dtype", ["float16", "int64"])
    def test_rejects_dtype_without_policy(self, dtype):
        classifier = _build_classifier()
        before = classifier.state_dict()
        with pytest.raises(ValueError, match="no numeric policy"):
            classifier.serving_build(dtype)
        # The refused build leaves the source as it was.
        assert classifier.model_dtype == "float64"
        assert all(
            np.array_equal(value, classifier.state_dict()[name])
            for name, value in before.items()
        )

    def test_casts_every_parameter_once(self):
        classifier = _build_classifier()
        serving = classifier.serving_build("float32")
        assert serving.model_dtype == "float32"
        assert all(p.data.dtype == np.float32 for p in serving.parameters())
        # The trained float64 build is untouched — it stays the reference.
        assert classifier.model_dtype == "float64"
        assert all(p.data.dtype == np.float64 for p in classifier.parameters())
        # A dtype without a numeric policy has no serving build.
        with pytest.raises(ValueError, match="no numeric policy"):
            classifier.serving_build("float16")

    def test_weights_are_the_rounded_originals(self):
        classifier = _build_classifier()
        serving = classifier.serving_build("float32")
        for ours, theirs in zip(serving.parameters(), classifier.parameters()):
            assert np.array_equal(ours.data, theirs.data.astype(np.float32))

    def test_float64_build_is_bit_identical(self):
        classifier = _build_classifier()
        serving = classifier.serving_build("float64")
        ids = np.random.default_rng(0).integers(0, 37, (4, 12))
        assert np.array_equal(
            serving.predict_logits(ids, None), classifier.predict_logits(ids, None)
        )


def _used_classifier():
    """A float64 classifier carrying everything a replica must not: moved
    weights, gradients, recorded attention maps, an eval fast path and
    filled scratch pools — left in eval mode."""
    classifier = _build_classifier()
    rng = np.random.default_rng(3)
    for param in classifier.parameters():
        param.data += rng.normal(0.0, 0.01, param.data.shape)
    ids = rng.integers(0, 37, (4, 12))
    classifier(ids).sum().backward()
    classifier.eval()
    classifier.predict_logits(ids, None)
    # The fast path records nothing; the module loop leaves the maps.
    classifier.predict_logits_reference(ids, None)
    return classifier


def _replica_by_construction(source, dtype):
    """The serving replica built by constructing a second (float64) model,
    loading the source's state into it and casting each parameter (the
    reference for the cast)."""
    replica = SequenceClassifier(
        NetFoundationModel(source.model.config), source.num_classes,
        config=source.config,
    )
    replica.load_state_dict(source.state_dict())
    for param in replica.parameters():
        param.data = param.data.astype(dtype)
    return replica


class TestServingReplica:
    """What a serving replica carries, and what it must not share."""

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_state_is_the_cast_source(self, dtype):
        source = _used_classifier()
        replica = source.serving_build(np.dtype(dtype).name)
        state, expected = replica.state_dict(), source.state_dict()
        assert list(state) == list(expected)
        for name, value in expected.items():
            assert state[name].dtype == dtype
            assert np.array_equal(state[name], value.astype(dtype)), name
        # The replica owns an equal copy of the model config.
        assert replica.model.config == source.model.config
        assert replica.model.config is not source.model.config

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_no_array_is_shared(self, dtype):
        source = _used_classifier()
        replica = source.serving_build(np.dtype(dtype).name)
        pairs = list(zip(source.parameters(), replica.parameters()))
        for theirs, ours in pairs:
            assert not np.shares_memory(theirs.data, ours.data)
        before = replica.state_dict()
        for theirs, _ in pairs:
            theirs.data += 1.0
        assert all(
            np.array_equal(value, replica.state_dict()[name])
            for name, value in before.items()
        )
        before = source.state_dict()
        for _, ours in pairs:
            ours.data *= 0.0
        assert all(
            np.array_equal(value, source.state_dict()[name])
            for name, value in before.items()
        )

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_carries_no_grads_maps_fastpath_or_scratch(self, dtype):
        source = _used_classifier()
        # Every parameter but the (unused) segment table has a gradient.
        graded = [p for p in source.parameters() if p.grad is not None]
        assert len(graded) == len(source.parameters()) - 1
        assert source.model.attention_maps() and source._fastpath is not None
        replica = source.serving_build(np.dtype(dtype).name)
        assert all(p.grad is None and not p.has_grad for p in replica.parameters())
        assert replica.model.attention_maps() == []
        assert replica._fastpath is None
        pools = [replica.model.embedding_norm._pool, replica.model.encoder.final_norm._pool]
        for layer in replica.model.encoder.layers:
            pools += [layer.norm1._pool, layer.norm2._pool, layer.attention._pool]
        assert all(pool._buffers == {} for pool in pools)
        # Train mode, as a freshly constructed build starts in.
        assert replica.training and replica.model.encoder.layers[0].attention.training
        # Dropout generators are copies of the source's, not the same objects.
        assert replica.dropout.rng is not source.dropout.rng
        assert (
            replica.dropout.rng.bit_generator.state
            == source.dropout.rng.bit_generator.state
        )
        # The source keeps what it had.
        assert all(p.grad is not None for p in graded)
        assert source.model.attention_maps() and source._fastpath is not None

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("path", ["fast", "reference"])
    def test_logits_equal_a_replica_built_by_construction(self, dtype, path):
        """Same logits on either forward; only the module loop records
        maps, and those are equal too."""
        source = _used_classifier()
        name = np.dtype(dtype).name
        replica = source.serving_build(name)
        reference = _replica_by_construction(source, name)
        forward = "predict_logits" if path == "fast" else "predict_logits_reference"
        rng = np.random.default_rng(8)
        for batch, seq in [(1, 7), (2, 1), (5, 16), (9, 33)]:
            ids = rng.integers(0, 37, (batch, seq))
            mask = np.ones((batch, seq), dtype=bool)
            mask[0, seq // 2 + 1 :] = False
            assert np.array_equal(
                getattr(replica, forward)(ids, mask),
                getattr(reference, forward)(ids, mask),
            )
            ours, theirs = replica.model.attention_maps(), reference.model.attention_maps()
            assert len(ours) == len(theirs) == (0 if path == "fast" else 2)
            assert all(np.array_equal(a, b) for a, b in zip(ours, theirs))

    def test_builds_without_random_init(self, monkeypatch):
        source = _used_classifier()

        def refuse(*args, **kwargs):
            raise AssertionError("a serving build must not initialize weights")

        monkeypatch.setattr(init, "xavier_uniform", refuse)
        monkeypatch.setattr(init, "normal", refuse)
        for dtype in ("float32", "float64"):
            replica = source.serving_build(dtype)
            assert replica.model_dtype == dtype

    @pytest.mark.parametrize("build", ["float64", "float32"])
    def test_load_state_dict_owns_its_arrays(self, build):
        # Stored values take the parameter's dtype, whichever way the cast
        # goes: float32 state into the float64 reference, float64 state
        # into a float32 serving build.
        classifier = _build_classifier().serving_build(build)
        stored = np.float32 if build == "float64" else np.float64
        state = {name: value.astype(stored) for name, value in
                 _build_classifier(seed=8).state_dict().items()}
        classifier.load_state_dict(state)
        assert classifier.model_dtype == build
        for name, param in classifier.named_parameters():
            assert param.data.dtype == build
            assert np.array_equal(param.data, state[name].astype(build))
            assert not np.shares_memory(param.data, state[name])


class TestCheckpointDtypeRoundTrip:
    def test_float32_checkpoint_restores_as_float32(self, tmp_path):
        classifier = _build_classifier()
        serving = classifier.serving_build("float32")
        path = tmp_path / "serving.npz"
        save_checkpoint(serving, path)

        # Load into a fresh float64 build, then make the serving build the
        # metadata names: float32 -> float64 -> float32 is exact.
        restored = _build_classifier()
        metadata = load_checkpoint(restored, path)
        assert metadata["model_dtype"] == "float32"
        restored = restored.serving_build(metadata["model_dtype"])
        assert restored.model_dtype == "float32"
        ids = np.random.default_rng(1).integers(0, 37, (4, 12))
        assert np.array_equal(
            restored.predict_logits(ids, None), serving.predict_logits(ids, None)
        )

    def test_default_load_casts_to_build_dtype(self, tmp_path):
        classifier = _build_classifier()
        serving = classifier.serving_build("float32")
        path = tmp_path / "serving.npz"
        save_checkpoint(serving, path)

        restored = _build_classifier()
        load_checkpoint(restored, path)  # cast to the build dtype
        assert restored.model_dtype == "float64"

    def test_float64_checkpoint_loads_into_float32_build(self, tmp_path):
        classifier = _build_classifier()
        path = tmp_path / "reference.npz"
        save_checkpoint(classifier, path)

        # Loading never changes a build's dtype: the float32 serving build
        # stays float32 and equals the serving build of the saved model.
        restored = _build_classifier(seed=8).serving_build("float32")
        metadata = load_checkpoint(restored, path)
        assert metadata["model_dtype"] == "float64"
        assert restored.model_dtype == "float32"
        ids = np.random.default_rng(2).integers(0, 37, (4, 12))
        assert np.array_equal(
            restored.predict_logits(ids, None),
            classifier.serving_build("float32").predict_logits(ids, None),
        )

    def test_float64_checkpoint_metadata(self, tmp_path):
        classifier = _build_classifier()
        path = tmp_path / "reference.npz"
        save_checkpoint(classifier, path)
        metadata = load_checkpoint(_build_classifier(), path)
        assert metadata["model_dtype"] == "float64"
