"""Simple regressors for the performance-prediction task.

The paper's performance-prediction downstream task is a regression problem;
these models (ridge regression and a tiny MLP on top of the NumPy autograd)
serve as the per-task baselines a foundation model would be compared against.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..nn.autograd import Tensor, no_grad
from ..nn.layers import Linear, ReLU
from ..nn.losses import mse_loss
from ..nn.module import Module, Sequential
from ..nn.optim import Adam
from ..nn.trainer import Trainer

__all__ = ["RidgeRegression", "MLPRegressorConfig", "MLPRegressor", "regression_metrics"]


def regression_metrics(targets: np.ndarray, predictions: np.ndarray) -> dict[str, float]:
    """MAE, RMSE and R^2."""
    targets = np.asarray(targets, dtype=float)
    predictions = np.asarray(predictions, dtype=float)
    errors = predictions - targets
    mae = float(np.abs(errors).mean())
    rmse = float(np.sqrt((errors ** 2).mean()))
    variance = float(((targets - targets.mean()) ** 2).sum())
    r2 = 1.0 - float((errors ** 2).sum()) / variance if variance > 0 else 0.0
    return {"mae": mae, "rmse": rmse, "r2": r2}


class RidgeRegression:
    """Closed-form L2-regularized linear regression."""

    def __init__(self, alpha: float = 1.0):
        self.alpha = alpha
        self.weights: np.ndarray | None = None

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "RidgeRegression":
        features = np.asarray(features, dtype=float)
        targets = np.asarray(targets, dtype=float)
        design = np.hstack([features, np.ones((len(features), 1))])
        regularizer = self.alpha * np.eye(design.shape[1])
        regularizer[-1, -1] = 0.0  # do not penalize the intercept
        self.weights = np.linalg.solve(design.T @ design + regularizer, design.T @ targets)
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        if self.weights is None:
            raise RuntimeError("fit() must be called first")
        design = np.hstack([np.asarray(features, dtype=float), np.ones((len(features), 1))])
        return design @ self.weights

    def evaluate(self, features: np.ndarray, targets: np.ndarray) -> dict[str, float]:
        return regression_metrics(targets, self.predict(features))


@dataclasses.dataclass
class MLPRegressorConfig:
    hidden: int = 32
    epochs: int = 60
    batch_size: int = 64
    learning_rate: float = 1e-2
    seed: int = 0


class MLPRegressor(Module):
    """Two-layer perceptron regressor on the NumPy autograd substrate."""

    def __init__(self, input_dim: int, config: MLPRegressorConfig | None = None):
        super().__init__()
        self.config = config or MLPRegressorConfig()
        rng = np.random.default_rng(self.config.seed)
        self.network = Sequential(
            Linear(input_dim, self.config.hidden, rng=rng),
            ReLU(),
            Linear(self.config.hidden, 1, rng=rng),
        )

    def forward(self, features: np.ndarray) -> Tensor:
        return self.network(Tensor(np.asarray(features, dtype=float))).squeeze(-1)

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "MLPRegressor":
        cfg = self.config
        features = np.asarray(features, dtype=float)
        targets = np.asarray(targets, dtype=float)
        optimizer = Adam(self.parameters(), lr=cfg.learning_rate)
        trainer = Trainer(self, optimizer)
        rng = np.random.default_rng(cfg.seed)

        def make_batches():
            order = rng.permutation(len(targets))
            closures = []
            for start in range(0, len(order), cfg.batch_size):
                idx = order[start : start + cfg.batch_size]

                def loss_fn(idx=idx) -> Tensor:
                    return mse_loss(self(features[idx]), targets[idx])

                closures.append(loss_fn)
            return closures

        trainer.fit(make_batches, epochs=cfg.epochs)
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        with self.eval_mode(), no_grad():
            return self(features).data

    def evaluate(self, features: np.ndarray, targets: np.ndarray) -> dict[str, float]:
        return regression_metrics(targets, self.predict(features))
