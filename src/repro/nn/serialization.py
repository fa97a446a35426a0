"""Model checkpointing: save / load parameter state dicts to ``.npz`` files.

A checkpoint is an uncompressed ``.npz`` holding one flat array per dtype
(``__checkpoint_array_<i>__``) plus a ``__checkpoint_meta__`` JSON member.
The JSON carries the caller's metadata and, under ``__checkpoint_layout__``,
each parameter's ``[array member, offset, shape]``; loading slices every
parameter out of those few arrays instead of reading one member per
parameter.  Older files that store one (possibly compressed) member per
parameter still load: every member that is neither the metadata nor a
listed array is a parameter.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .module import Module

__all__ = ["save_checkpoint", "load_checkpoint", "save_state", "load_state"]

_META_KEY = "__checkpoint_meta__"
_LAYOUT_KEY = "__checkpoint_layout__"


def save_state(state: dict[str, np.ndarray], path: str | Path, metadata: dict | None = None) -> Path:
    """Write a flat parameter mapping to an ``.npz`` file, one array per dtype."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    metadata = dict(metadata or {})
    if _LAYOUT_KEY in metadata:
        raise ValueError(f"metadata key {_LAYOUT_KEY!r} is reserved")
    members: dict[str, str] = {}  # dtype string -> array member name
    pieces: dict[str, list[np.ndarray]] = {}
    layout: dict[str, list] = {}
    for name, value in state.items():
        value = np.asarray(value)
        dtype = value.dtype.str
        if dtype not in members:
            members[dtype] = f"__checkpoint_array_{len(members)}__"
            pieces[dtype] = []
        offset = sum(piece.size for piece in pieces[dtype])
        layout[name] = [members[dtype], offset, list(value.shape)]
        pieces[dtype].append(value.ravel())
    metadata[_LAYOUT_KEY] = layout
    payload = {
        _META_KEY: np.frombuffer(json.dumps(metadata).encode("utf-8"), dtype=np.uint8)
    }
    for dtype, member in members.items():
        payload[member] = np.concatenate(pieces[dtype])
    np.savez(path, **payload)
    return path


def load_state(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a parameter mapping and metadata written by :func:`save_state`.

    Parameters come back as views into the per-dtype arrays
    (:meth:`Module.load_state_dict <repro.nn.module.Module.load_state_dict>`
    copies them).
    """
    path = Path(path)
    with np.load(path, allow_pickle=False) as archive:
        metadata = {}
        if _META_KEY in archive.files:
            metadata = json.loads(bytes(archive[_META_KEY]).decode("utf-8"))
        layout = metadata.pop(_LAYOUT_KEY, {})
        listed = {member for member, _, _ in layout.values()}
        arrays: dict[str, np.ndarray] = {}
        state: dict[str, np.ndarray] = {}
        for key in archive.files:
            if key == _META_KEY:
                continue
            if key in listed:
                arrays[key] = archive[key]
            else:
                state[key] = archive[key]
    for name, (member, offset, shape) in layout.items():
        size = math.prod(shape)
        state[name] = arrays[member][offset : offset + size].reshape(shape)
    return state, metadata


def save_checkpoint(model: Module, path: str | Path, metadata: dict | None = None) -> Path:
    """Serialize a module's parameters plus optional metadata.

    The parameter arrays keep their build dtype in the ``.npz``, and the
    dominant dtype is also recorded as ``model_dtype`` metadata, so a
    loader can tell a serving checkpoint from a reference one without
    opening the arrays (see :func:`load_checkpoint`).
    """
    state = model.state_dict()
    metadata = dict(metadata or {})
    if "model_dtype" not in metadata and state:
        dtypes = sorted({str(value.dtype) for value in state.values()})
        metadata["model_dtype"] = dtypes[0] if len(dtypes) == 1 else "mixed"
    return save_state(state, path, metadata)


def load_checkpoint(model: Module, path: str | Path, strict: bool = True) -> dict:
    """Restore a module's parameters; returns the stored metadata.

    Stored values are cast to the module's dtype.  A float32 serving
    checkpoint restores exactly by loading it into a float64 build and
    then calling ``serving_build(metadata["model_dtype"])``: float32 to
    float64 and back is lossless.
    """
    state, metadata = load_state(path)
    model.load_state_dict(state, strict=strict)
    return metadata
