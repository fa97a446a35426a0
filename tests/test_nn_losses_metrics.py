"""Tests for losses, metrics, optimizers, schedules, trainer and serialization."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (
    Adam,
    AdamW,
    ConstantSchedule,
    CosineSchedule,
    Linear,
    SGD,
    Sequential,
    Tensor,
    Trainer,
    WarmupLinearSchedule,
    accuracy,
    auroc,
    average_precision,
    binary_cross_entropy_with_logits,
    classification_report,
    clip_grad_norm,
    confusion_matrix,
    cross_entropy,
    fpr_at_tpr,
    load_checkpoint,
    load_state,
    macro_f1,
    mae_loss,
    masked_cross_entropy,
    mse_loss,
    precision_recall_f1,
    save_checkpoint,
    save_state,
    train_test_split,
    weighted_f1,
    iterate_minibatches,
)


class TestLosses:
    def test_cross_entropy_matches_manual(self):
        logits = np.array([[2.0, 0.0, -1.0], [0.5, 0.5, 0.5]])
        targets = np.array([0, 2])
        loss = cross_entropy(Tensor(logits), targets).item()
        log_probs = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        expected = -(log_probs[0, 0] + log_probs[1, 2]) / 2
        assert loss == pytest.approx(expected, rel=1e-6)

    def test_cross_entropy_label_smoothing_increases_loss_on_confident_preds(self):
        logits = Tensor(np.array([[10.0, -10.0]]))
        targets = np.array([0])
        plain = cross_entropy(logits, targets).item()
        smoothed = cross_entropy(logits, targets, label_smoothing=0.2).item()
        assert smoothed > plain

    def test_cross_entropy_shape_checks(self):
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.zeros((2, 3, 4))), np.zeros(2))
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.zeros((2, 3))), np.zeros(3))

    def test_masked_cross_entropy_only_counts_masked_positions(self):
        logits = np.zeros((1, 4, 5))
        logits[0, 1, 2] = 10.0  # confident correct prediction at masked position
        targets = np.full((1, 4), 2)
        mask = np.zeros((1, 4), dtype=bool)
        mask[0, 1] = True
        loss = masked_cross_entropy(Tensor(logits), targets, mask).item()
        assert loss < 0.01
        empty = masked_cross_entropy(Tensor(logits), targets, np.zeros((1, 4), bool))
        assert empty.item() == 0.0

    def test_bce_with_logits_stable_at_extremes(self):
        logits = Tensor(np.array([100.0, -100.0]))
        loss = binary_cross_entropy_with_logits(logits, np.array([1.0, 0.0])).item()
        assert np.isfinite(loss) and loss < 1e-6

    def test_mse_and_mae(self):
        predictions = Tensor(np.array([1.0, 3.0]))
        targets = np.array([0.0, 0.0])
        assert mse_loss(predictions, targets).item() == pytest.approx(5.0)
        assert mae_loss(predictions, targets).item() == pytest.approx(2.0)

    def test_cross_entropy_gradient_direction(self):
        logits = Tensor(np.zeros((1, 3)), requires_grad=True)
        cross_entropy(logits, np.array([1])).backward()
        # Gradient should be negative for the true class, positive for others.
        assert logits.grad[0, 1] < 0
        assert logits.grad[0, 0] > 0


class TestMetrics:
    def test_accuracy_and_confusion(self):
        y_true = np.array([0, 1, 1, 2])
        y_pred = np.array([0, 1, 2, 2])
        assert accuracy(y_true, y_pred) == pytest.approx(0.75)
        matrix = confusion_matrix(y_true, y_pred)
        assert matrix[1, 2] == 1 and matrix.sum() == 4

    def test_accuracy_shape_mismatch(self):
        with pytest.raises(ValueError):
            accuracy(np.zeros(3), np.zeros(4))

    def test_f1_perfect_and_zero(self):
        y = np.array([0, 1, 0, 1])
        assert macro_f1(y, y) == pytest.approx(1.0)
        assert weighted_f1(y, 1 - y) == pytest.approx(0.0)

    def test_precision_recall_f1_values(self):
        y_true = np.array([0, 0, 1, 1])
        y_pred = np.array([0, 1, 1, 1])
        stats = precision_recall_f1(y_true, y_pred)
        assert stats["precision"][1] == pytest.approx(2 / 3)
        assert stats["recall"][1] == pytest.approx(1.0)

    def test_auroc_perfect_and_random(self):
        labels = np.array([0, 0, 1, 1])
        assert auroc(labels, np.array([0.1, 0.2, 0.8, 0.9])) == pytest.approx(1.0)
        assert auroc(labels, np.array([0.9, 0.8, 0.2, 0.1])) == pytest.approx(0.0)
        assert auroc(labels, np.array([0.5, 0.5, 0.5, 0.5])) == pytest.approx(0.5)

    def test_auroc_requires_both_classes(self):
        with pytest.raises(ValueError):
            auroc(np.array([1, 1]), np.array([0.5, 0.6]))

    def test_fpr_at_tpr(self):
        labels = np.array([0] * 50 + [1] * 50)
        scores = np.concatenate([np.linspace(0, 0.4, 50), np.linspace(0.6, 1.0, 50)])
        assert fpr_at_tpr(labels, scores, 0.95) == pytest.approx(0.0)

    def test_average_precision_perfect(self):
        labels = np.array([0, 1, 0, 1])
        scores = np.array([0.1, 0.9, 0.2, 0.8])
        assert average_precision(labels, scores) == pytest.approx(1.0)

    def test_classification_report_contains_classes(self):
        report = classification_report(np.array([0, 1]), np.array([0, 1]), ["cat-a", "cat-b"])
        assert "cat-a" in report and "macro" in report


@given(st.integers(2, 40), st.integers(2, 5))
@settings(max_examples=25, deadline=None)
def test_property_f1_bounded(n, classes):
    rng = np.random.default_rng(n * 7 + classes)
    y_true = rng.integers(0, classes, size=n)
    y_pred = rng.integers(0, classes, size=n)
    for metric in (macro_f1, weighted_f1):
        value = metric(y_true, y_pred, classes)
        assert 0.0 <= value <= 1.0


class TestOptimizers:
    def _toy_problem(self):
        rng = np.random.default_rng(0)
        features = rng.normal(size=(64, 3))
        weights_true = np.array([[1.0], [-2.0], [0.5]])
        targets = features @ weights_true
        return features, targets

    @pytest.mark.parametrize("optimizer_cls", [SGD, Adam, AdamW])
    def test_optimizers_reduce_loss(self, optimizer_cls):
        features, targets = self._toy_problem()
        model = Linear(3, 1, rng=np.random.default_rng(1))
        lr = 0.05 if optimizer_cls is SGD else 0.05
        optimizer = optimizer_cls(model.parameters(), lr=lr)
        first_loss = None
        for _ in range(60):
            optimizer.zero_grad()
            loss = mse_loss(model(Tensor(features)), targets)
            loss.backward()
            optimizer.step()
            if first_loss is None:
                first_loss = loss.item()
        assert loss.item() < first_loss * 0.2

    def test_sgd_momentum_and_weight_decay(self):
        param = Tensor(np.array([1.0]), requires_grad=True)
        optimizer = SGD([param], lr=0.1, momentum=0.9, weight_decay=0.1)
        param.grad = np.array([1.0])
        optimizer.step()
        assert param.data[0] < 1.0

    def test_invalid_learning_rate(self):
        with pytest.raises(ValueError):
            SGD([Tensor([1.0], requires_grad=True)], lr=0.0)

    def test_clip_grad_norm(self):
        params = [Tensor(np.zeros(4), requires_grad=True) for _ in range(2)]
        for p in params:
            p.grad = np.full(4, 10.0)
        norm = clip_grad_norm(params, max_norm=1.0)
        assert norm > 1.0
        total = np.sqrt(sum(float((p.grad ** 2).sum()) for p in params))
        assert total == pytest.approx(1.0, rel=1e-6)


class TestSchedules:
    def test_warmup_linear_shape(self):
        optimizer = SGD([Tensor([0.0], requires_grad=True)], lr=1.0)
        schedule = WarmupLinearSchedule(optimizer, warmup_steps=5, total_steps=20)
        rates = [schedule.step() for _ in range(20)]
        assert rates[0] < rates[4]
        assert max(rates) == pytest.approx(1.0, abs=0.01)
        assert rates[-1] < 0.1

    def test_cosine_schedule_decays(self):
        optimizer = SGD([Tensor([0.0], requires_grad=True)], lr=1.0)
        schedule = CosineSchedule(optimizer, total_steps=10, min_factor=0.1)
        rates = [schedule.step() for _ in range(10)]
        assert rates[0] > rates[-1]
        assert rates[-1] == pytest.approx(0.1, abs=0.02)

    def test_constant_schedule(self):
        optimizer = SGD([Tensor([0.0], requires_grad=True)], lr=0.5)
        schedule = ConstantSchedule(optimizer)
        assert schedule.step() == pytest.approx(0.5)

    def test_invalid_total_steps(self):
        optimizer = SGD([Tensor([0.0], requires_grad=True)], lr=0.5)
        with pytest.raises(ValueError):
            WarmupLinearSchedule(optimizer, 1, 0)


class TestTrainerAndData:
    def test_trainer_runs_and_records_history(self):
        model = Linear(2, 1, rng=np.random.default_rng(0))
        optimizer = Adam(model.parameters(), lr=0.05)
        trainer = Trainer(model, optimizer)
        features = np.random.default_rng(1).normal(size=(32, 2))
        targets = features.sum(axis=1, keepdims=True)

        def batches():
            return [lambda: mse_loss(model(Tensor(features)), targets) for _ in range(4)]

        history = trainer.fit(batches, epochs=3)
        assert len(history.losses) == 12
        assert history.losses[-1] < history.losses[0]
        assert history.wall_time > 0

    def test_trainer_early_stopping(self):
        model = Linear(1, 1)
        optimizer = SGD(model.parameters(), lr=0.01)
        trainer = Trainer(model, optimizer)
        constant = [0.5]

        def batches():
            return [lambda: mse_loss(model(Tensor(np.ones((2, 1)))), np.ones((2, 1)))]

        def eval_fn():
            return {"f1": constant[0]}

        history = trainer.fit(batches, epochs=20, eval_fn=eval_fn, patience=2)
        assert len(history.eval_metrics) < 20

    def test_trainer_rejects_non_tensor_loss(self):
        model = Linear(1, 1)
        trainer = Trainer(model, SGD(model.parameters(), lr=0.01))
        with pytest.raises(TypeError):
            trainer.train_step(lambda: 3.0)

    def test_iterate_minibatches_and_split(self):
        features = np.arange(20).reshape(10, 2)
        labels = np.arange(10)
        batches = list(iterate_minibatches([features, labels], batch_size=4, shuffle=False))
        assert len(batches) == 3
        assert batches[0][0].shape == (4, 2)
        (train, train_y), (test, test_y) = train_test_split([features, labels], 0.3)
        assert len(train) + len(test) == 10
        with pytest.raises(ValueError):
            list(iterate_minibatches([features, labels[:5]], 2))

    def test_checkpoint_roundtrip(self, tmp_path):
        model = Sequential(Linear(3, 3, rng=np.random.default_rng(5)))
        path = tmp_path / "model.npz"
        save_checkpoint(model, path, metadata={"step": 7})
        other = Sequential(Linear(3, 3, rng=np.random.default_rng(6)))
        metadata = load_checkpoint(other, path)
        assert metadata["step"] == 7
        np.testing.assert_allclose(
            model.state_dict()["layers.items.0.weight"],
            other.state_dict()["layers.items.0.weight"],
        )

    def test_state_is_stored_as_one_array_per_dtype(self, tmp_path):
        state = {
            "w": np.arange(6, dtype=np.float64).reshape(2, 3),
            "b": np.array([0.5, -1.5]),
            "scale": np.array(2.0),
            "empty": np.zeros((0, 4)),
            "half": np.arange(4, dtype=np.float32),
            "steps": np.array([3, 4], dtype=np.int64),
        }
        path = save_state(state, tmp_path / "state.npz", metadata={"step": 9})
        with np.load(path, allow_pickle=False) as archive:
            # Metadata plus one member per dtype, not one per parameter.
            assert len(archive.files) == 1 + 3
        loaded, metadata = load_state(path)
        assert metadata == {"step": 9}
        assert list(loaded) == list(state)
        for name, value in state.items():
            assert loaded[name].dtype == value.dtype
            assert loaded[name].shape == value.shape
            assert np.array_equal(loaded[name], value)

    def test_reserved_metadata_key_is_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_state({"w": np.zeros(2)}, tmp_path / "state.npz",
                       metadata={"__checkpoint_layout__": {}})

    def test_per_array_compressed_checkpoint_still_loads(self, tmp_path):
        # The earlier layout: one compressed member per parameter, metadata
        # JSON holding only the caller's entries.
        model = Sequential(Linear(3, 2, rng=np.random.default_rng(5)))
        path = tmp_path / "old.npz"
        np.savez_compressed(
            path,
            **model.state_dict(),
            __checkpoint_meta__=np.frombuffer(b'{"step": 3}', dtype=np.uint8),
        )
        other = Sequential(Linear(3, 2, rng=np.random.default_rng(6)))
        assert load_checkpoint(other, path) == {"step": 3}
        for name, value in model.state_dict().items():
            assert np.array_equal(other.state_dict()[name], value)
        state, metadata = load_state(path)
        assert metadata == {"step": 3}
        assert sorted(state) == sorted(model.state_dict())
