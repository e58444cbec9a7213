"""Reverse-mode automatic differentiation on numpy arrays.

The training side of this package needs gradients for a fairly small
set of operations: elementwise arithmetic, rectifier/exp/log, matrix
products (plain and batched), 2-D convolution, max pooling over disjoint
windows, softmax and the shape plumbing around them
(reshape/transpose/concat/narrow/take/sum).
Rather than pulling in a framework, this module records a computation
graph while the forward pass runs and replays it backwards.

Design notes
------------
* A :class:`Tensor` wraps an ``np.ndarray`` plus an optional gradient.
  Results of operations keep references to their parent tensors and a
  closure computing the vector-Jacobian product, so the graph is the
  set of live Python objects; ``backward()`` topologically sorts it and
  visits every node exactly once, accumulating gradients additively at
  fan-out points.
* dtype follows the inputs (float32 for training, float64 for gradient
  checking); nothing silently upcasts.
* Binary operations broadcast like numpy internally, and gradients are
  summed back down to each parent's shape.  The public
  :func:`elementwise` dispatcher enforces the stricter equal-shape /
  scalar-only rule and is what external callers should use if they want
  that contract checked.
* ``grad_check`` compares analytic gradients against central finite
  differences in float64 and refuses points where a rectifier input is
  exactly zero (the derivative is undefined there, so the check would
  be meaningless).
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "DomainError",
    "NonCheckableError",
    "MissingGradientError",
    "elementwise",
    "matmul",
    "bmm",
    "conv2d",
    "maxpool2d",
    "softmax",
    "log_softmax",
    "layer_norm",
    "concat",
    "narrow",
    "take",
    "grad_check",
    "Adam",
]

_LOG2E = math.log2(math.e)


class ShapeError(ValueError):
    """Operands have incompatible shapes for the requested operation."""


class DomainError(ValueError):
    """Operand values lie outside the operation's domain (e.g. log(-1))."""


class NonCheckableError(ValueError):
    """The point handed to grad_check sits on a non-differentiable kink."""


class MissingGradientError(RuntimeError):
    """An optimizer step found a registered parameter without a gradient."""


def _as_array(value) -> np.ndarray:
    arr = np.asarray(value)
    if not np.issubdtype(arr.dtype, np.floating):
        arr = arr.astype(np.float32)
    return arr


class Tensor:
    """An n-d array with an optional gradient and graph bookkeeping.

    Parameters
    ----------
    data:
        Array-like; non-float input is cast to float32.
    requires_grad:
        Whether ``backward()`` should produce a gradient for this leaf.
    """

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False, *,
                 op: str = "leaf", _parents: tuple = (), _vjp=None):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self.op = op
        self._parents = _parents
        self._vjp = _vjp

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Tensor(op={self.op}, shape={self.data.shape}, grad={self.grad is not None})"

    # -- graph construction -------------------------------------------------

    def backward(self) -> None:
        """Backpropagate from a scalar; visits each graph node once."""
        if self.data.size != 1:
            raise ShapeError(
                f"backward() needs a scalar loss, got shape {self.data.shape}"
            )
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._vjp is None or node.grad is None:
                continue
            for parent, g in zip(node._parents, node._vjp(node.grad)):
                if g is None or not parent.requires_grad:
                    continue
                parent.grad = g if parent.grad is None else parent.grad + g

    # -- operators ------------------------------------------------------------

    def __add__(self, other):
        return _binary("add", self, _wrap(other), np.add)

    __radd__ = __add__

    def __sub__(self, other):
        return _binary("sub", self, _wrap(other), np.subtract)

    def __rsub__(self, other):
        return _binary("sub", _wrap(other), self, np.subtract)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return _scale(self, float(other))
        return _binary("mul", self, _wrap(other), np.multiply)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return _scale(self, 1.0 / float(other))
        return _binary("div", self, _wrap(other), np.divide)

    def __neg__(self):
        return _scale(self, -1.0)

    def __pow__(self, exponent):
        return _pow(self, float(exponent))

    def __matmul__(self, other):
        return matmul(self, _wrap(other))

    def relu(self) -> "Tensor":
        x = self.data
        out = np.maximum(x, 0.0)
        def vjp(g):
            return (g * (x > 0),)
        return _node(out, (self,), vjp, "relu")

    def exp(self) -> "Tensor":
        out = np.exp(self.data)
        def vjp(g):
            return (g * out,)
        return _node(out, (self,), vjp, "exp")

    def log(self) -> "Tensor":
        x = self.data
        if (x <= 0).any():
            raise DomainError("log of non-positive input")
        out = np.log(x)
        def vjp(g):
            return (g / x,)
        return _node(out, (self,), vjp, "log")

    def sqrt(self) -> "Tensor":
        x = self.data
        if (x < 0).any():
            raise DomainError("sqrt of negative input")
        out = np.sqrt(x)
        def vjp(g):
            return (g * (0.5 / out),)
        return _node(out, (self,), vjp, "sqrt")

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        shape = self.data.shape
        out = self.data.sum(axis=axis, keepdims=keepdims)
        def vjp(g):
            if axis is None:
                return (np.broadcast_to(g, shape).copy(),)
            gk = g if keepdims else np.expand_dims(g, axis)
            return (np.broadcast_to(gk, shape).copy(),)
        return _node(out, (self,), vjp, "sum")

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            n = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            n = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        orig = self.data.shape
        out = self.data.reshape(shape)
        def vjp(g):
            return (g.reshape(orig),)
        return _node(out, (self,), vjp, "reshape")

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inv = np.argsort(axes)
        out = np.transpose(self.data, axes)
        def vjp(g):
            return (np.transpose(g, inv),)
        return _node(out, (self,), vjp, "transpose")


def _wrap(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _node(data: np.ndarray, parents: tuple, vjp, op: str) -> Tensor:
    rg = any(p.requires_grad for p in parents)
    return Tensor(data, rg, op=op, _parents=parents if rg else (),
                  _vjp=vjp if rg else None)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _binary(op: str, a: Tensor, b: Tensor, ufunc) -> Tensor:
    try:
        out = ufunc(a.data, b.data)
    except ValueError as exc:
        raise ShapeError(f"{op}: {a.data.shape} vs {b.data.shape}") from exc
    ash, bsh = a.data.shape, b.data.shape
    if op == "add":
        def vjp(g):
            return (_unbroadcast(g, ash), _unbroadcast(g, bsh))
    elif op == "sub":
        def vjp(g):
            return (_unbroadcast(g, ash), _unbroadcast(-g, bsh))
    elif op == "mul":
        def vjp(g):
            return (_unbroadcast(g * b.data, ash), _unbroadcast(g * a.data, bsh))
    elif op == "div":
        def vjp(g):
            ga = _unbroadcast(g / b.data, ash)
            gb = _unbroadcast(-g * out / b.data, bsh)
            return (ga, gb)
    else:  # pragma: no cover
        raise ValueError(op)
    return _node(out, (a, b), vjp, op)


def _scale(a: Tensor, s: float) -> Tensor:
    out = a.data * s
    def vjp(g):
        return (g * s,)
    return _node(out, (a,), vjp, "scale")


def _pow(a: Tensor, p: float) -> Tensor:
    x = a.data
    if p != int(p) and (x < 0).any():
        raise DomainError("fractional power of negative input")
    out = x ** p
    def vjp(g):
        return (g * p * x ** (p - 1.0),)
    return _node(out, (a,), vjp, "pow")


_ELEMENTWISE_BINARY = {"add", "sub", "mul"}
_ELEMENTWISE_UNARY = {"relu", "exp", "log"}


def elementwise(kind: str, a: Tensor, b=None) -> Tensor:
    """Strict elementwise dispatcher.

    Binary kinds (``add``/``sub``/``mul``) require equal shapes or a
    scalar second operand; ``scale`` takes a python float; the unary
    kinds (``relu``/``exp``/``log``) ignore ``b``.
    """
    if kind in _ELEMENTWISE_UNARY:
        return getattr(a, kind)()
    if kind == "scale":
        if not isinstance(b, (int, float)):
            raise TypeError("scale expects a python scalar")
        return _scale(a, float(b))
    if kind not in _ELEMENTWISE_BINARY:
        raise ValueError(f"unknown elementwise kind: {kind!r}")
    b = _wrap(b)
    if a.data.shape != b.data.shape and a.data.size != 1 and b.data.size != 1:
        raise ShapeError(
            f"{kind} needs equal shapes or a scalar, got "
            f"{a.data.shape} vs {b.data.shape}"
        )
    return {"add": Tensor.__add__, "sub": Tensor.__sub__,
            "mul": Tensor.__mul__}[kind](a, b)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """(m, k) @ (k, n) matrix product."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(
            f"matmul expects rank-2 operands, got {a.data.ndim} and {b.data.ndim}"
        )
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul inner extents differ: {a.data.shape} @ {b.data.shape}")
    out = a.data @ b.data
    ad, bd = a.data, b.data
    def vjp(g):
        return (g @ bd.T, ad.T @ g)
    return _node(out, (a, b), vjp, "matmul")


def bmm(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product over equal leading dimensions."""
    if a.data.ndim != 3 or b.data.ndim != 3:
        raise ShapeError("bmm expects rank-3 operands")
    if a.data.shape[0] != b.data.shape[0] or a.data.shape[2] != b.data.shape[1]:
        raise ShapeError(f"bmm shapes incompatible: {a.data.shape} @ {b.data.shape}")
    out = np.matmul(a.data, b.data)
    ad, bd = a.data, b.data
    def vjp(g):
        return (np.matmul(g, bd.swapaxes(1, 2)), np.matmul(ad.swapaxes(1, 2), g))
    return _node(out, (a, b), vjp, "bmm")


def _im2col(xp: np.ndarray, kh: int, kw: int, s: int, ho: int, wo: int) -> np.ndarray:
    n, c = xp.shape[:2]
    cols = np.empty((n, c, kh, kw, ho, wo), dtype=xp.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i : i + s * ho : s, j : j + s * wo : s]
    return cols.reshape(n, c * kh * kw, ho * wo)


def conv2d(x: Tensor, w: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation of (N,C,H,W) input with (O,C,kh,kw) kernels.

    ``stride`` and ``padding`` apply equally to both spatial axes.
    """
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ShapeError("conv2d expects (N,C,H,W) input and (O,C,kh,kw) kernels")
    n, c, h, wd = x.data.shape
    o, c2, kh, kw = w.data.shape
    if c != c2:
        raise ShapeError(f"conv2d channel mismatch: input {c}, kernel {c2}")
    s, p = int(stride), int(padding)
    ho = (h + 2 * p - kh) // s + 1
    wo = (wd + 2 * p - kw) // s + 1
    if ho < 1 or wo < 1:
        raise ShapeError(
            f"conv2d kernel {kh}x{kw} does not fit padded input {h + 2 * p}x{wd + 2 * p}"
        )
    xp = np.pad(x.data, ((0, 0), (0, 0), (p, p), (p, p)))
    cols = _im2col(xp, kh, kw, s, ho, wo)                   # (N, C*kh*kw, L)
    w2 = w.data.reshape(o, c * kh * kw)
    out = np.matmul(w2[None], cols).reshape(n, o, ho, wo)

    def vjp(g):
        g2 = g.reshape(n, o, ho * wo)
        # recompute cols rather than closing over them: conv activations on
        # audio-sized maps make stored columns the dominant memory cost
        cols_b = _im2col(xp, kh, kw, s, ho, wo)
        dw = np.einsum("nol,nkl->ok", g2, cols_b, optimize=True)
        dcols = np.matmul(w2.T[None], g2)                   # (N, K, L)
        dcols = dcols.reshape(n, c, kh, kw, ho, wo)
        dxp = np.zeros_like(xp)
        for i in range(kh):
            for j in range(kw):
                dxp[:, :, i : i + s * ho : s, j : j + s * wo : s] += dcols[:, :, i, j]
        dx = dxp[:, :, p : p + h, p : p + wd] if p else dxp
        return (dx, dw.reshape(w.data.shape))

    return _node(out, (x, w), vjp, "conv2d")


def maxpool2d(x: Tensor, window: int) -> Tensor:
    """Max over disjoint ``window`` x ``window`` blocks of (N,C,H,W) input.

    Trailing rows and columns that fill no whole block are dropped (and get
    zero gradient); each block's gradient goes to its first maximum in
    row-major order.
    """
    if x.data.ndim != 4:
        raise ShapeError("maxpool2d expects (N,C,H,W)")
    k = int(window)
    xd = x.data
    h, w = xd.shape[2:]
    if k > h or k > w:
        raise ShapeError(f"pool window {k} exceeds input {h}x{w}")
    ho, wo = h // k, w // k
    taps = [(slice(None), slice(None), slice(i, i + k * ho, k), slice(j, j + k * wo, k))
            for i in range(k) for j in range(k)]          # row-major block offsets
    out = xd[taps[0]].copy()
    for t in taps[1:]:
        np.maximum(out, xd[t], out=out)  # keeps the earlier value on ties

    def vjp(g):
        dx = np.zeros_like(xd)
        hit = np.empty(out.shape, dtype=bool)
        open_ = np.ones(out.shape, dtype=bool)            # blocks not yet routed
        for t in taps:
            np.equal(xd[t], out, out=hit)
            hit &= open_
            open_ ^= hit
            np.copyto(dx[t], g, where=hit)
        return (dx,)

    return _node(out, (x,), vjp, "maxpool2d")


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    xd = x.data
    m = xd.max(axis=axis, keepdims=True)
    y = np.subtract(xd, m)
    # exp(x) == exp2(x * log2(e)); exp2 is the faster SIMD path and this
    # softmax sits on the hot path of attention
    np.multiply(y, xd.dtype.type(_LOG2E), out=y)
    np.exp2(y, out=y)
    denom = y.sum(axis=axis, keepdims=True)
    np.divide(y, denom, out=y)

    def vjp(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return ((g - dot) * y,)

    return _node(y, (x,), vjp, "softmax")


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """log(softmax(x)) computed stably via the max-shift identity."""
    shift = Tensor(x.data.max(axis=axis, keepdims=True))  # constant; shift-invariant
    z = x - shift
    lse = z.exp().sum(axis=axis, keepdims=True).log()
    return z - lse


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean/unit variance, then affine."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = (var + Tensor(np.asarray(eps, dtype=x.dtype))).sqrt()
    normed = centered / inv
    return normed * gamma + beta


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    ts = list(tensors)
    if not ts:
        raise ShapeError("concat of empty sequence")
    out = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.data.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)
    def vjp(g):
        sl = [slice(None)] * g.ndim
        grads = []
        for i in range(len(sizes)):
            sl[axis] = slice(offsets[i], offsets[i + 1])
            grads.append(g[tuple(sl)])
        return tuple(grads)
    return _node(out, tuple(ts), vjp, "concat")


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Slice ``length`` entries from ``start`` along ``axis``."""
    if start < 0 or start + length > x.data.shape[axis]:
        raise ShapeError(
            f"narrow [{start}:{start + length}] out of bounds for axis {axis} "
            f"of shape {x.data.shape}"
        )
    sl = [slice(None)] * x.data.ndim
    sl[axis] = slice(start, start + length)
    sl = tuple(sl)
    out = x.data[sl]
    shape = x.data.shape
    def vjp(g):
        dx = np.zeros(shape, dtype=g.dtype)
        dx[sl] = g
        return (dx,)
    return _node(out, (x,), vjp, "narrow")


def take(x: Tensor, index) -> Tensor:
    """Rows ``x[index]`` gathered along axis 0; rows may repeat or go unused.

    The gradient of a row taken more than once is the sum of its copies'.
    """
    idx = np.asarray(index)
    if x.data.ndim == 0 or idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
        raise ShapeError(f"take needs rows and a vector of integer indices, got "
                         f"shape {x.data.shape} and {idx!r}")
    n = x.data.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ShapeError(f"take index out of range for {n} rows: {idx.tolist()}")
    idx = idx.astype(np.intp)
    out = x.data[idx]
    shape = x.data.shape

    def vjp(g):
        dx = np.zeros(shape, dtype=g.dtype)
        np.add.at(dx, idx, g)
        return (dx,)

    return _node(out, (x,), vjp, "take")


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------


def _find_relu_kinks(root: Tensor) -> bool:
    seen: set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node.op == "relu" and (node._parents[0].data == 0).any():
            return True
        stack.extend(node._parents)
    return False


def grad_check(f: Callable[..., Tensor], points: Tensor | Iterable[Tensor],
               eps: float = 1e-4) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` must map the given tensors to a scalar Tensor and be pure
    (re-runnable).  The check runs in float64 regardless of the input
    dtype.  Relative error uses max(|finite difference|, 1e-6) as the
    denominator.  Raises :class:`NonCheckableError` if any rectifier in
    the graph receives an exact zero at the evaluation point.
    """
    pts = [points] if isinstance(points, Tensor) else list(points)
    work = [Tensor(p.data.astype(np.float64), requires_grad=True) for p in pts]
    out = f(*work)
    if out.data.size != 1:
        raise ShapeError("grad_check expects a scalar-valued function")
    if _find_relu_kinks(out):
        raise NonCheckableError("relu input exactly zero at the evaluation point")
    out.backward()
    analytic = [np.zeros_like(w.data) if w.grad is None else w.grad.copy()
                for w in work]

    frozen = [Tensor(w.data, requires_grad=False) for w in work]

    def value() -> float:
        return float(f(*frozen).data)

    worst = 0.0
    for t, grad in zip(frozen, analytic):
        flat = t.data.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = value()
            flat[i] = orig - eps
            f_minus = value()
            flat[i] = orig
            fd = (f_plus - f_minus) / (2.0 * eps)
            rel = abs(gflat[i] - fd) / max(abs(fd), 1e-6)
            worst = max(worst, rel)
    return worst


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


class Adam:
    """Adam with bias correction (Kingma & Ba defaults).

    ``step()`` raises :class:`MissingGradientError` if any registered
    parameter has no gradient, applies the update in place, and clears
    all gradients.
    """

    def __init__(self, params: Sequence[Tensor], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for p in self.params:
            if p.grad is None:
                raise MissingGradientError("parameter has no gradient; call backward() first")
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            update = (m / c1) / (np.sqrt(v / c2) + self.eps)
            p.data -= self.lr * update
            p.grad = None
