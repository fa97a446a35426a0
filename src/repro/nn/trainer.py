"""A small generic training loop with history tracking and early stopping."""

from __future__ import annotations

import dataclasses
import time
from typing import Callable

import numpy as np

from .autograd import Tensor, tensor_allocations
from .kernels import scratch_allocations
from .module import Module
from .optim import Optimizer, clip_grad_norm
from .schedules import LRSchedule

__all__ = ["TrainingHistory", "Trainer"]


@dataclasses.dataclass
class TrainingHistory:
    """Losses and metrics recorded during training."""

    losses: list[float] = dataclasses.field(default_factory=list)
    eval_metrics: list[dict[str, float]] = dataclasses.field(default_factory=list)
    learning_rates: list[float] = dataclasses.field(default_factory=list)
    wall_time: float = 0.0
    #: Real (non-padding) tokens consumed by the recorded train steps, when
    #: the batch closures advertise a ``num_tokens`` attribute.
    tokens_processed: int = 0
    #: Per-step wall time in seconds, parallel to ``losses``.
    step_wall_times: list[float] = dataclasses.field(default_factory=list)
    #: Scratch-pool buffer allocations per step (fused-kernel pool misses).
    #: Should reach 0 once every batch shape has warmed up; the E14
    #: ``train_step`` gate asserts this no-allocation steady state.
    step_scratch_allocations: list[int] = dataclasses.field(default_factory=list)
    #: Tensor objects constructed per step (graph size; stable per shape).
    step_tensor_allocations: list[int] = dataclasses.field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else float("nan")

    @property
    def tokens_per_second(self) -> float:
        """Training throughput over the whole fit, in real tokens per second."""
        if self.wall_time <= 0.0 or self.tokens_processed <= 0:
            return 0.0
        return self.tokens_processed / self.wall_time

    def to_registry(self, registry=None):
        """Express this history over a :class:`repro.obs.metrics.MetricsRegistry`.

        Scalar totals become ``train.*`` counters and the per-step series
        become bounded log-scale histograms — the same JSON-exportable
        shapes the serving report uses, so training and serving
        telemetry fold into one registry.  Pass a registry to accumulate
        into (e.g. across fits); a fresh one is created otherwise.
        """
        from ..obs.metrics import MetricsRegistry

        if registry is None:
            registry = MetricsRegistry()
        registry.counter("train.steps").inc(len(self.losses))
        registry.counter("train.tokens").inc(self.tokens_processed)
        registry.counter("train.wall_s").inc(self.wall_time)
        registry.counter("train.scratch_allocations").inc(
            sum(self.step_scratch_allocations)
        )
        registry.counter("train.tensor_allocations").inc(
            sum(self.step_tensor_allocations)
        )
        if self.losses:
            registry.histogram("train.loss", 1e-6, 1e6).observe_many(self.losses)
        if self.step_wall_times:
            registry.histogram("train.step_wall_s", 1e-6, 1e3).observe_many(
                self.step_wall_times
            )
        return registry


class Trainer:
    """Drives epochs of (batch -> loss) closures over a model.

    The trainer is deliberately generic: the caller supplies a
    ``loss_fn(batch) -> Tensor`` closure, so the same loop serves MLM
    pre-training, classification fine-tuning, Word2Vec and the GRU baselines.
    """

    def __init__(
        self,
        model: Module,
        optimizer: Optimizer,
        schedule: LRSchedule | None = None,
        max_grad_norm: float | None = 1.0,
        preallocate_grads: bool = True,
        metrics=None,
    ):
        self.model = model
        self.optimizer = optimizer
        self.schedule = schedule
        self.max_grad_norm = max_grad_norm
        #: Keep zero-filled gradient buffers alive between steps
        #: (``zero_grad(set_to_none=False)``) so steady-state training does
        #: not reallocate parameter gradients.
        self.preallocate_grads = bool(preallocate_grads)
        self.history = TrainingHistory()
        #: Optional :class:`repro.obs.metrics.MetricsRegistry` receiving the
        #: same per-step observations live (``train.*`` names, see
        #: :meth:`TrainingHistory.to_registry`).  ``None`` (default) skips
        #: all registry work in the step loop.
        self.metrics = metrics

    def train_step(self, loss_fn: Callable[[], Tensor]) -> float:
        """One optimization step; returns the scalar loss value."""
        step_start = time.perf_counter()
        scratch_before = scratch_allocations()
        tensors_before = tensor_allocations()
        self.model.train()
        self.optimizer.zero_grad(set_to_none=not self.preallocate_grads)
        loss = loss_fn()
        if not isinstance(loss, Tensor):
            raise TypeError("loss_fn must return a Tensor")
        loss.backward()
        if self.max_grad_norm is not None:
            clip_grad_norm(self.optimizer.parameters, self.max_grad_norm)
        self.optimizer.step()
        if self.schedule is not None:
            lr = self.schedule.step()
        else:
            lr = self.optimizer.lr
        value = loss.item()
        step_wall = time.perf_counter() - step_start
        step_scratch = scratch_allocations() - scratch_before
        step_tensors = tensor_allocations() - tensors_before
        self.history.losses.append(value)
        self.history.learning_rates.append(lr)
        self.history.step_wall_times.append(step_wall)
        self.history.step_scratch_allocations.append(step_scratch)
        self.history.step_tensor_allocations.append(step_tensors)
        if self.metrics is not None:
            self.metrics.counter("train.steps").inc()
            self.metrics.counter("train.scratch_allocations").inc(step_scratch)
            self.metrics.counter("train.tensor_allocations").inc(step_tensors)
            self.metrics.histogram("train.loss", 1e-6, 1e6).observe(value)
            self.metrics.histogram("train.step_wall_s", 1e-6, 1e3).observe(step_wall)
        return value

    def fit(
        self,
        batches: Callable[[], list[Callable[[], Tensor]]],
        epochs: int = 1,
        eval_fn: Callable[[], dict[str, float]] | None = None,
        patience: int | None = None,
        monitor: str = "f1",
        verbose: bool = False,
    ) -> TrainingHistory:
        """Run ``epochs`` passes over ``batches()`` (a factory of loss closures).

        Parameters
        ----------
        batches:
            Called at the start of every epoch; must return a list of zero-arg
            closures, each computing the loss of one mini-batch.
        eval_fn:
            Optional; called after each epoch to compute validation metrics.
        patience:
            If set, stop early when ``monitor`` has not improved for this many
            consecutive epochs.
        """
        start = time.perf_counter()
        tokens_before = self.history.tokens_processed
        best = -np.inf
        stale = 0
        for epoch in range(epochs):
            epoch_losses = []
            for loss_fn in batches():
                epoch_losses.append(self.train_step(loss_fn))
                self.history.tokens_processed += int(getattr(loss_fn, "num_tokens", 0))
            if eval_fn is not None:
                metrics = eval_fn()
                self.history.eval_metrics.append(metrics)
                if verbose:
                    mean_loss = float(np.mean(epoch_losses)) if epoch_losses else float("nan")
                    print(f"epoch {epoch + 1}/{epochs} loss={mean_loss:.4f} {metrics}")
                if patience is not None:
                    current = metrics.get(monitor, -np.inf)
                    if current > best + 1e-9:
                        best = current
                        stale = 0
                    else:
                        stale += 1
                        if stale >= patience:
                            break
            elif verbose:
                mean_loss = float(np.mean(epoch_losses)) if epoch_losses else float("nan")
                print(f"epoch {epoch + 1}/{epochs} loss={mean_loss:.4f}")
        self.history.wall_time = time.perf_counter() - start
        if self.metrics is not None:
            self.metrics.counter("train.wall_s").inc(self.history.wall_time)
            self.metrics.counter("train.tokens").inc(
                self.history.tokens_processed - tokens_before
            )
        return self.history
