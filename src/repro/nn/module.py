"""Module base class and parameter containers for ``repro.nn``.

A :class:`Module` owns named :class:`~repro.nn.autograd.Tensor` parameters
and possibly child modules.  It provides the usual conveniences:
``parameters()``, ``named_parameters()``, ``zero_grad()``, ``train()`` /
``eval()`` mode switching (``eval_mode()`` for a block), and a flat
``state_dict`` for serialization.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import numpy as np

from .autograd import Tensor

__all__ = ["Module", "Parameter", "Sequential", "ModuleList"]


class Parameter(Tensor):
    """A :class:`Tensor` that is registered as a trainable parameter."""

    def __init__(self, data, name: str = ""):
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all neural network modules.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes in ``__init__`` and implement :meth:`forward`.
    """

    def __init__(self) -> None:
        self.training = True

    # ------------------------------------------------------------------
    # Forward dispatch
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    # ------------------------------------------------------------------
    # Parameter and module discovery
    # ------------------------------------------------------------------
    def named_children(self) -> Iterator[tuple[str, "Module"]]:
        for name, value in vars(self).items():
            if isinstance(value, Module):
                yield name, value
            elif isinstance(value, (list, tuple)):
                for index, item in enumerate(value):
                    if isinstance(item, Module):
                        yield f"{name}.{index}", item

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, value in vars(self).items():
            full = f"{prefix}{name}"
            if isinstance(value, Parameter):
                yield full, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{full}.")
            elif isinstance(value, (list, tuple)):
                for index, item in enumerate(value):
                    if isinstance(item, Parameter):
                        yield f"{full}.{index}", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{full}.{index}.")

    def parameters(self) -> list[Parameter]:
        return [param for _, param in self.named_parameters()]

    def num_parameters(self) -> int:
        """Total number of scalar parameters in this module tree."""
        return int(sum(param.size for param in self.parameters()))

    # ------------------------------------------------------------------
    # Gradient and mode management
    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for _, child in self.named_children():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    @contextmanager
    def eval_mode(self) -> Iterator["Module"]:
        """Eval mode for a ``with`` block, then the caller's mode back.

        The mode on entry is restored also when the block raises, so an
        eval helper never flips its caller's train/eval mode.
        """
        was_training = self.training
        self.eval()
        try:
            yield self
        finally:
            self.train(was_training)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Return a flat mapping of parameter names to array copies."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray], strict: bool = True) -> None:
        """Load parameter values from a flat mapping produced by :meth:`state_dict`.

        Stored values are cast to each parameter's dtype: loading never
        changes a module's dtype.
        """
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if strict and (missing or unexpected):
            raise KeyError(
                f"state mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            if name not in state:
                continue
            # One fresh array per parameter: the cast (if any) is the copy.
            value = np.array(state[name], dtype=param.data.dtype, copy=True)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: expected {param.data.shape}, got {value.shape}"
                )
            param.data = value


class ModuleList(Module):
    """A list of sub-modules that is properly registered for discovery."""

    def __init__(self, modules: list[Module] | None = None):
        super().__init__()
        self.items: list[Module] = list(modules or [])

    def append(self, module: Module) -> None:
        self.items.append(module)

    def __iter__(self):
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, index: int) -> Module:
        return self.items[index]

    def forward(self, *args, **kwargs):  # pragma: no cover - containers have no forward
        raise RuntimeError("ModuleList is a container and cannot be called")


class Sequential(Module):
    """Compose modules by calling them in order on a single input."""

    def __init__(self, *modules: Module):
        super().__init__()
        self.layers = ModuleList(list(modules))

    def forward(self, x):
        for layer in self.layers:
            x = layer(x)
        return x

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]
