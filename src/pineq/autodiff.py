"""Reverse-mode automatic differentiation on numpy arrays.

The training side of this package needs gradients for a fairly small
set of operations: arithmetic, rectifier/exp/log, matrix
products (plain and batched), 2-D convolution, max pooling over disjoint
windows, softmax and the shape plumbing around them
(reshape/transpose/concat/narrow/take/sum).  The transformer layers run
as a few nodes each: :func:`linear` (matrix product plus bias),
:func:`layer_norm` and :func:`attention` are one node apiece, with
closed-form vector-Jacobian products; attention takes (B, N, C) operands
and a head count, reads each head's columns as views, and stores no (N, N)
score or probability array, forward or backward.
Rather than pulling in a framework, this module records a computation
graph while the forward pass runs and replays it backwards.

Design notes
------------
* A :class:`Tensor` wraps an ``np.ndarray`` plus an optional gradient.
  Results of operations keep references to their parent tensors and a
  closure computing the vector-Jacobian product, so the graph is the
  set of live Python objects; ``backward()`` topologically sorts it and
  visits every node exactly once, accumulating gradients additively at
  fan-out points, and frees each inner node's gradient and closure as
  soon as that closure has run.
* dtype follows the inputs (float32 for training, float64 for gradient
  checking); nothing silently upcasts.
* Binary operations broadcast like numpy, and gradients are summed
  back down to each parent's shape.
* Inside :func:`no_grad` no graph is recorded: each result is a constant,
  so an intermediate array is freed as soon as the next operation has
  read it.  Forward-only passes (evaluation) use it; their peak memory is
  then one layer's arrays rather than the whole graph's.
* ``grad_check`` compares analytic gradients against central finite
  differences in float64 and refuses points where a rectifier input is
  exactly zero (the derivative is undefined there, so the check would
  be meaningless).
* :func:`attention`, :func:`conv2d` and :func:`maxpool2d` (forward and
  vjp) and large :class:`Adam` updates split their (batch*head) slices,
  samples or blocks over the CPUs in the process's affinity (at most
  two), on threads that the op starts and joins before it returns.  Each
  slice, sample or block is computed as on one CPU, into its own part of
  the result, and the kernel gradient's per-sample terms are summed in
  sample order, so results are bit for bit the one-CPU results.  The
  calling thread allocates every share's scratch.  Only an op called on
  the main thread splits; on any other thread (a parallel experiment
  cell's, say) it runs inline, since the other threads already use the
  other CPUs.
* Graph recording is per thread: :func:`no_grad` on one thread leaves
  another thread's graph alone.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "DomainError",
    "NonCheckableError",
    "MissingGradientError",
    "matmul",
    "linear",
    "bmm",
    "attention",
    "conv2d",
    "maxpool2d",
    "softmax",
    "log_softmax",
    "layer_norm",
    "concat",
    "narrow",
    "take",
    "grad_check",
    "no_grad",
    "Adam",
]

_LOG2E = math.log2(math.e)
# Queries per block in attention: one (128, M) score block per share (and,
# in the vjp, one score-gradient block of that size) is the largest array
# attention holds beyond its operand-sized ones, forward or backward.
ATTENTION_CHUNK = 128
# Elements per block of an Adam update: a block's operands stay in cache,
# and a parameter of more blocks than one spreads them over the CPUs.
ADAM_BLOCK = 65536


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


# Shares an op on the main thread splits its samples or blocks into: the
# process's CPUs, but at most two, because each running share of a conv
# holds its own column block and a conv holds no more than a few sample
# blocks at once.
_workers = min(_cpu_count(), 2)


def _per_sample(fn: Callable[[int, object], None], n: int,
                scratch: Callable[[], object] = lambda: None) -> None:
    """Call ``fn(i, buf)`` for every ``i`` in ``range(n)``.

    On the main thread the indices are cut into one contiguous share per
    worker (at most ``n``); the calling thread runs the first share and
    threads started for this call run the rest, and are joined before it
    returns.  ``scratch()`` makes one share's reusable buffer, always on
    the calling thread, so no worker thread allocates a large array.  With
    one share, or on any thread but the main one, everything runs inline.
    ``fn`` must write only its own index's slice of any shared output.
    """
    main = threading.current_thread() is threading.main_thread()
    k = max(1, min(_workers if main else 1, n))
    bufs = [scratch() for _ in range(k)]
    cuts = [n * j // k for j in range(k + 1)]
    errors = np.geterr()  # numpy keeps one per thread; every share takes the caller's

    def share(j: int) -> None:
        with np.errstate(**errors):
            for i in range(cuts[j], cuts[j + 1]):
                fn(i, bufs[j])

    if k == 1:
        return share(0)
    with ThreadPoolExecutor(k - 1, thread_name_prefix="pineq-op") as pool:
        futures = [pool.submit(share, j) for j in range(1, k)]
        share(0)
    for f in futures:
        f.result()


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
        """Backpropagate from a scalar; visits each graph node once.

        Only leaves keep ``.grad``: each inner node drops its gradient and
        its vjp, with the arrays the vjp holds, once the vjp has run.  A
        second ``backward()`` through the consumed graph raises
        ``RuntimeError``.
        """
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
            if node._parents and node._vjp is None:
                raise RuntimeError(
                    f"backward() through a graph already consumed: this {node.op} "
                    "node's vjp ran and was freed by an earlier backward()"
                )
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._vjp is None:  # a leaf
                continue
            grads = node._vjp(node.grad)
            node.grad = node._vjp = None
            for parent, g in zip(node._parents, grads):
                if g is None or not parent.requires_grad:
                    continue
                parent.grad = g if parent.grad is None else parent.grad + g

    # -- operators ------------------------------------------------------------

    def __add__(self, other):
        return _binary("add", self, _wrap(other, self.data.dtype), np.add)

    __radd__ = __add__

    def __sub__(self, other):
        return _binary("sub", self, _wrap(other, self.data.dtype), np.subtract)

    def __rsub__(self, other):
        return _binary("sub", _wrap(other, self.data.dtype), self, np.subtract)

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


def _wrap(value, dtype=None) -> Tensor:
    """``value`` as a Tensor; a Python ``int`` or ``float`` takes ``dtype``
    when given, since a float64 0-d array would upcast a float32 operand."""
    if isinstance(value, Tensor):
        return value
    if dtype is not None and isinstance(value, (int, float)):
        return Tensor(np.asarray(value, dtype=dtype))
    return Tensor(value)


class _Recording(threading.local):
    on = True  # False inside this thread's no_grad()


_recording = _Recording()


@contextmanager
def no_grad():
    """Record no graph in the block, on this thread: results of operations
    need no gradient and keep no parents, whatever their inputs."""
    before, _recording.on = _recording.on, False
    try:
        yield
    finally:
        _recording.on = before


def _node(data: np.ndarray, parents: tuple, vjp, op: str) -> Tensor:
    rg = _recording.on and any(p.requires_grad for p in parents)
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


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map ``x @ w + b`` on the last axis of (M, K) or (B, N, K) input.

    The bias gradient is a column sum; an input that needs no gradient
    gets none.
    """
    if x.data.ndim not in (2, 3):
        raise ShapeError(f"linear expects rank 2 or 3 input, got {x.data.ndim}")
    if w.data.ndim != 2 or x.data.shape[-1] != w.data.shape[0] \
            or b.data.shape != w.data.shape[1:]:
        raise ShapeError(f"linear shapes incompatible: {x.data.shape} @ {w.data.shape} "
                         f"+ {b.data.shape}")
    shape = x.data.shape
    x2 = x.data.reshape(-1, shape[-1])
    wd = w.data
    out = x2 @ wd
    out += b.data

    def vjp(g):
        g2 = g.reshape(-1, wd.shape[1])
        dx = (g2 @ wd.T).reshape(shape) if x.requires_grad else None
        return (dx, x2.T @ g2, g2.sum(axis=0))

    return _node(out.reshape(shape[:-1] + wd.shape[1:]), (x, w, b), vjp, "linear")


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


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int = 1) -> Tensor:
    """``softmax(q k^T / sqrt(d)) v`` per head over (B, N, C) queries and
    (B, M, C) keys with (B, M, E) values, into a (B, N, E) output.

    Forward and vjp run one (batch*head) slice at a time, split over the
    CPUs; slice ``i`` is a view of head ``i % heads``'s ``d = C/heads`` (or
    ``E/heads``) columns of sample ``i // heads``.  Each block of its
    ``ATTENTION_CHUNK`` queries is scored into one cache-sized (128, M)
    block, exponentiated, multiplied with the values and then divided by
    its row sums.  Only the output and each row's log-sum-exp are kept; the
    vjp recomputes each block's probabilities from the log-sum-exp and uses
    ``rowsum(dO * O)`` for the softmax's shift term (Rabe & Staats 2021;
    Dao et al. 2022).  Each slice writes only its own block of every
    result, so the bits are the same on any number of CPUs.
    """
    if q.data.ndim != 3 or k.data.ndim != 3 or v.data.ndim != 3:
        raise ShapeError("attention expects rank-3 (B, N, C) operands")
    qd, kd, vd = q.data, k.data, v.data
    b, n, c = qd.shape
    if kd.shape != (b, kd.shape[1], c) or vd.shape[:2] != kd.shape[:2] \
            or heads < 1 or c % heads or vd.shape[2] % heads:
        raise ShapeError(f"attention shapes incompatible with {heads} heads: q {qd.shape}, "
                         f"k {kd.shape}, v {vd.shape}")
    scale = 1.0 / math.sqrt(c // heads)
    # base-2 logits: exp2(qs k^T) == exp(q k^T / sqrt(d)), and exp2 is the
    # faster SIMD path; scaling q costs N*C products rather than N*M*heads
    qs = qd * (scale * _LOG2E)
    out = np.empty((b, n, vd.shape[2]), dtype=np.result_type(qs, kd, vd))
    lse = np.empty((b * heads, n, 1), dtype=out.dtype)  # base-2 log-sum-exp per row
    chunks = [slice(start, min(start + ATTENTION_CHUNK, n))
              for start in range(0, n, ATTENTION_CHUNK)]

    def head(a, i):  # slice i's columns of a (B, rows, heads * width) array
        w = a.shape[2] // heads
        return a[i // heads, :, i % heads * w : (i % heads + 1) * w]

    def block():
        return np.empty((min(n, ATTENTION_CHUNK), kd.shape[1]), dtype=out.dtype)

    def forward(i, p):
        qi, kt, vi, oi, li = head(qs, i), head(kd, i).T, head(vd, i), head(out, i), lse[i]
        for rows in chunks:
            s = np.matmul(qi[rows], kt, out=p[: rows.stop - rows.start])
            top = s.max(axis=-1, keepdims=True)
            s -= top
            np.exp2(s, out=s)
            total = s.sum(axis=-1, keepdims=True)
            np.matmul(s, vi, out=oi[rows])
            oi[rows] /= total
            li[rows] = top + np.log2(total)

    _per_sample(forward, b * heads, block)

    def vjp(g):
        dq = np.empty_like(qs)
        dk = np.zeros_like(kd)
        dv = np.zeros_like(vd)

        def backward(i, blocks):
            p, ds = blocks
            qi, ki, vt, gi, li = head(qs, i), head(kd, i), head(vd, i).T, head(g, i), lse[i]
            dqi, dki, dvi = head(dq, i), head(dk, i), head(dv, i)
            dsum = (gi * head(out, i)).sum(axis=-1, keepdims=True)
            for rows in chunks:
                s = np.matmul(qi[rows], ki.T, out=p[: rows.stop - rows.start])
                s -= li[rows]
                np.exp2(s, out=s)
                dvi += np.matmul(s.T, gi[rows])
                # dP, then the score gradient in place
                dsi = np.matmul(gi[rows], vt, out=ds[: rows.stop - rows.start])
                dsi -= dsum[rows]
                dsi *= s
                np.matmul(dsi, ki, out=dqi[rows])
                dki += np.matmul(dsi.T, qi[rows])
            dqi *= scale
            dki *= 1.0 / _LOG2E  # qs carries scale * log2(e); the key gradient wants scale

        _per_sample(backward, b * heads, lambda: (block(), block()))
        return (dq, dk, dv)

    return _node(out, (q, k, v), vjp, "attention")


def _im2col(xp: np.ndarray, kh: int, kw: int, ho: int, wo: int,
            cols: np.ndarray) -> np.ndarray:
    """Fill ``cols`` with the (C*kh*kw, ho*wo) columns of one padded (C, H, W)
    sample, and return it."""
    c = xp.shape[0]
    taps = cols.reshape(c, kh, kw, ho, wo)
    for i in range(kh):
        for j in range(kw):
            taps[:, i, j] = xp[:, i : i + ho, j : j + wo]
    return cols


def conv2d(x: Tensor, w: Tensor, padding: int = 0) -> Tensor:
    """Stride-1 2-D cross-correlation of (N,C,H,W) input with (O,C,kh,kw)
    kernels.

    ``padding`` applies equally to both spatial axes.  Forward
    and vjp build one sample's im2col columns at a time (a batch's block is
    ~100 MB on audio-sized maps), in one reused block per CPU, and split the
    samples over the CPUs.  The kernel gradient is the sum, in sample order,
    of each sample's term, so it has the same bits on any number of CPUs.
    An input that needs no gradient gets none.
    """
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ShapeError("conv2d expects (N,C,H,W) input and (O,C,kh,kw) kernels")
    n, c, h, wd = x.data.shape
    o, c2, kh, kw = w.data.shape
    if c != c2:
        raise ShapeError(f"conv2d channel mismatch: input {c}, kernel {c2}")
    p = int(padding)
    ho = h + 2 * p - kh + 1
    wo = wd + 2 * p - kw + 1
    if ho < 1 or wo < 1:
        raise ShapeError(
            f"conv2d kernel {kh}x{kw} does not fit padded input {h + 2 * p}x{wd + 2 * p}"
        )
    xp = np.pad(x.data, ((0, 0), (0, 0), (p, p), (p, p)))
    w2 = w.data.reshape(o, c * kh * kw)
    out = np.empty((n, o, ho * wo), dtype=np.result_type(xp, w2))

    def columns():
        return np.empty((c * kh * kw, ho * wo), dtype=out.dtype)

    def forward(b, cols):
        np.matmul(w2, _im2col(xp[b], kh, kw, ho, wo, cols), out=out[b])

    _per_sample(forward, n, columns)

    def vjp(g):
        g2 = g.reshape(n, o, ho * wo)
        terms = np.empty((n,) + w2.shape, dtype=out.dtype)
        dxp = np.zeros_like(xp) if x.requires_grad else None

        def backward(b, cols):
            # recompute columns rather than closing over them: on audio-sized
            # maps stored columns would be the dominant memory cost
            np.matmul(g2[b], _im2col(xp[b], kh, kw, ho, wo, cols).T, out=terms[b])
            if dxp is None:
                return
            dcols = np.matmul(w2.T, g2[b], out=cols).reshape(c, kh, kw, ho, wo)
            for i in range(kh):
                for j in range(kw):
                    dxp[b, :, i : i + ho, j : j + wo] += dcols[:, i, j]

        _per_sample(backward, n, columns)
        dw = np.zeros(w2.shape, dtype=out.dtype)
        for term in terms:
            dw += term
        dw = dw.reshape(w.data.shape)
        if dxp is None:
            return (None, dw)
        return (dxp[:, :, p : p + h, p : p + wd], dw)

    return _node(out.reshape(n, o, ho, wo), (x, w), vjp, "conv2d")


def maxpool2d(x: Tensor, window: int) -> Tensor:
    """Max over disjoint ``window`` x ``window`` blocks of (N,C,H,W) input.

    Trailing rows and columns that fill no whole block are dropped (and get
    zero gradient); each block's gradient goes to its first maximum in
    row-major order.  Forward and vjp run one sample at a time, with the
    samples split over the CPUs.
    """
    if x.data.ndim != 4:
        raise ShapeError("maxpool2d expects (N,C,H,W)")
    k = int(window)
    xd = x.data
    n, _, h, w = xd.shape
    if k > h or k > w:
        raise ShapeError(f"pool window {k} exceeds input {h}x{w}")
    ho, wo = h // k, w // k
    taps = [(slice(None), slice(i, i + k * ho, k), slice(j, j + k * wo, k))
            for i in range(k) for j in range(k)]          # row-major block offsets
    out = np.empty(xd.shape[:2] + (ho, wo), dtype=xd.dtype)

    def forward(b, _):
        xb, ob = xd[b], out[b]
        np.copyto(ob, xb[taps[0]])
        for t in taps[1:]:
            np.maximum(ob, xb[t], out=ob)  # keeps the earlier value on ties

    _per_sample(forward, n)

    def vjp(g):
        dx = np.zeros_like(xd)

        def masks():
            return np.empty((2,) + out.shape[1:], dtype=bool)

        def backward(b, mask):
            hit, open_ = mask                              # open_: blocks not yet routed
            open_.fill(True)
            xb, ob, gb, db = xd[b], out[b], g[b], dx[b]
            for t in taps:
                np.equal(xb[t], ob, out=hit)
                hit &= open_
                open_ ^= hit
                np.copyto(db[t], gb, where=hit)

        _per_sample(backward, n, masks)
        return (dx,)

    return _node(out, (x,), vjp, "maxpool2d")


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    xd = x.data
    m = xd.max(axis=axis, keepdims=True)
    y = np.subtract(xd, m)
    # exp(x) == exp2(x * log2(e)); exp2 is the faster SIMD path
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
    """Normalize the last axis to zero mean/unit variance, then affine.

    One node: the vjp is the closed form
    ``(dy_hat - mean(dy_hat) - x_hat * mean(dy_hat * x_hat)) / std``.
    """
    xd = x.data
    n = xd.shape[-1]
    xhat = xd - xd.sum(axis=-1, keepdims=True) * (1.0 / n)
    std = np.sqrt((xhat * xhat).sum(axis=-1, keepdims=True) * (1.0 / n) + eps)
    xhat /= std
    gd = gamma.data
    out = xhat * gd + beta.data

    def vjp(g):
        dxhat = g * gd
        dx = dxhat - dxhat.mean(axis=-1, keepdims=True)
        dx -= xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        dx /= std
        return (dx, _unbroadcast(g * xhat, gd.shape), _unbroadcast(g, beta.data.shape))

    return _node(out, (x, gamma, beta), vjp, "layer_norm")


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    ts = list(tensors)
    if not ts:
        raise ShapeError("concat of empty sequence")
    out = np.concatenate([t.data for t in ts], axis=axis)
    cuts = np.cumsum([t.data.shape[axis] for t in ts])[:-1]
    def vjp(g):
        return tuple(np.split(g, cuts, axis=axis))
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
    all gradients.  A parameter is updated in blocks of about
    ``ADAM_BLOCK`` elements along its first axis, split over the CPUs; a
    parameter of one block or less is updated on the calling thread.
    Beyond the two moment arrays, a step holds only two temporaries per
    share, each a block or half the parameter, whichever is smaller.  The update is elementwise, so the result is
    bit for bit the formula's whatever the blocks, the CPU count or the
    parameter's memory layout.
    """

    beta1 = 0.9    # first-moment decay
    beta2 = 0.999  # second-moment decay
    eps = 1e-8     # keeps the update finite where the second moment is 0

    def __init__(self, params: Sequence[Tensor], lr: float = 1e-3):
        self.params = list(params)
        self.lr = float(lr)
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
            # blocks of whole rows: slicing the first axis gives views of
            # each array whatever its memory layout
            w, g, m, v = (np.atleast_1d(a) for a in (p.data, p.grad, m, v))
            rows = max(1, ADAM_BLOCK * w.shape[0] // max(w.size, 1))
            # rows per temporary: a block, but at most half the parameter,
            # so a step's temporaries never outgrow the parameter
            part = min(rows, -(-w.shape[0] // 2))

            def update(i, buf):
                # update = (m / c1) / (sqrt(v / c2) + eps), written in place
                # through the share's two temporaries u and q, part rows at a
                # time; each operation is the one the formula implies, in its
                # order
                end = min((i + 1) * rows, w.shape[0])
                for start in range(i * rows, end, part):
                    sl = slice(start, min(start + part, end))
                    wb, gb, mb, vb = w[sl], g[sl], m[sl], v[sl]
                    ub, qb = (a[: len(wb)] for a in buf)
                    mb *= b1
                    np.multiply(gb, 1.0 - b1, out=ub)
                    mb += ub
                    vb *= b2
                    np.multiply(gb, gb, out=ub)
                    ub *= 1.0 - b2
                    vb += ub
                    np.divide(vb, c2, out=ub)
                    np.sqrt(ub, out=ub)
                    ub += self.eps
                    np.divide(mb, c1, out=qb)
                    np.divide(qb, ub, out=ub)
                    ub *= self.lr
                    wb -= ub

            _per_sample(update, math.ceil(w.shape[0] / rows),
                        lambda: np.empty((2, part) + w.shape[1:], m.dtype))
            p.grad = None
