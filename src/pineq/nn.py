"""Trainable building blocks on top of the autodiff tensor.

A :class:`Module` owns parameters (tensors with ``requires_grad``) and
submodules as plain attributes; :meth:`Module.named_parameters` walks
that attribute tree and yields dotted names (``blocks.0.attn.wq.weight``),
which double as the naming scheme for checkpoints.  Everything takes an
explicit ``numpy`` generator for initialization so that a seed pins the
whole model down.
"""

from __future__ import annotations

import math
from typing import Dict, List

import numpy as np

from .autodiff import ShapeError, Tensor, attention, layer_norm, linear

__all__ = ["Module", "Linear", "LayerNorm", "SelfAttention", "TransformerBlock"]


class Module:
    """Base class: parameter discovery, casting, checkpoint dictionaries."""

    def named_parameters(self, prefix: str = "") -> Dict[str, Tensor]:
        out: Dict[str, Tensor] = {}
        for name, value in vars(self).items():
            key = prefix + name
            if isinstance(value, Tensor):
                if value.requires_grad:
                    out[key] = value
            elif isinstance(value, Module):
                out.update(value.named_parameters(key + "."))
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        out.update(item.named_parameters(f"{key}.{i}."))
                    elif isinstance(item, Tensor) and item.requires_grad:
                        out[f"{key}.{i}"] = item
        return out

    def parameters(self) -> List[Tensor]:
        return list(self.named_parameters().values())

    def set_parameter(self, name: str, tensor: Tensor) -> None:
        """Replace the parameter at a dotted ``name`` with ``tensor``."""
        parts = name.split(".")
        obj = self
        for part in parts[:-1]:
            obj = obj[int(part)] if part.isdigit() else getattr(obj, part)
        leaf = parts[-1]
        if leaf.isdigit():
            obj[int(leaf)] = tensor
        else:
            if not isinstance(getattr(obj, leaf), Tensor):
                raise KeyError(f"{name} is not a parameter")
            setattr(obj, leaf, tensor)

    def cast(self, dtype) -> "Module":
        """Cast every parameter in place (float64 for gradient checks)."""
        for p in self.parameters():
            p.data = p.data.astype(dtype)
        return self

    def state_dict(self) -> Dict[str, np.ndarray]:
        return {k: p.data.copy() for k, p in self.named_parameters().items()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        params = self.named_parameters()
        missing = sorted(set(params) - set(state))
        extra = sorted(set(state) - set(params))
        if missing or extra:
            raise KeyError(
                f"checkpoint mismatch: missing {missing or 'none'}, unexpected {extra or 'none'}"
            )
        for k, p in params.items():
            arr = np.asarray(state[k])
            if arr.shape != p.data.shape:
                raise ShapeError(
                    f"{k}: checkpoint shape {arr.shape} != parameter shape {p.data.shape}"
                )
            p.data = arr.astype(p.data.dtype)


class Linear(Module):
    """Affine map on the last axis of (M, C) or (B, N, C) input."""

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator):
        self.weight = Tensor(
            rng.normal(0.0, 1.0 / math.sqrt(n_in), size=(n_in, n_out)).astype(np.float32),
            requires_grad=True,
        )
        self.bias = Tensor(np.zeros(n_out, dtype=np.float32), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)


class LayerNorm(Module):
    """Learnable normalization of the last axis."""

    def __init__(self, dim: int):
        self.gamma = Tensor(np.ones(dim, dtype=np.float32), requires_grad=True)
        self.beta = Tensor(np.zeros(dim, dtype=np.float32), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gamma, self.beta)


class SelfAttention(Module):
    """Multi-head scaled dot-product self-attention over (B, N, C)."""

    def __init__(self, dim: int, heads: int, rng: np.random.Generator):
        if dim % heads != 0:
            raise ShapeError(f"token dim {dim} not divisible by {heads} heads")
        self.heads = heads
        self.wq = Linear(dim, dim, rng)
        self.wk = Linear(dim, dim, rng)
        self.wv = Linear(dim, dim, rng)
        self.wo = Linear(dim, dim, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return self.wo(attention(self.wq(x), self.wk(x), self.wv(x), self.heads))


class TransformerBlock(Module):
    """Pre-norm residual block: attention then a two-layer rectifier MLP."""

    def __init__(self, dim: int, heads: int, rng: np.random.Generator,
                 mlp_ratio: int = 2):
        self.ln1 = LayerNorm(dim)
        self.attn = SelfAttention(dim, heads, rng)
        self.ln2 = LayerNorm(dim)
        self.fc1 = Linear(dim, mlp_ratio * dim, rng)
        self.fc2 = Linear(mlp_ratio * dim, dim, rng)

    def __call__(self, x: Tensor) -> Tensor:
        x = x + self.attn(self.ln1(x))
        return x + self.fc2(self.fc1(self.ln2(x)).relu())
