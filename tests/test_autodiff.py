"""Tests for the reverse-mode autodiff core.

Forward results are checked against deliberately naive reference
implementations (triple-loop matmul, direct convolution sums) and
every backward rule is checked against central finite differences in
float64.
"""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from pineq import autodiff as ad
from pineq.autodiff import (
    Adam,
    DomainError,
    MissingGradientError,
    NonCheckableError,
    ShapeError,
    Tensor,
    attention,
    bmm,
    concat,
    conv2d,
    grad_check,
    layer_norm,
    linear,
    log_softmax,
    matmul,
    maxpool2d,
    narrow,
    softmax,
    take,
)
from pineq.nn import Module

RNG = np.random.default_rng(1234)


def t64(*shape, lo=-2.0, hi=2.0, grad=True):
    return Tensor(RNG.uniform(lo, hi, shape), requires_grad=grad)


# ---------------------------------------------------------------------------
# naive reference implementations (oracles)
# ---------------------------------------------------------------------------


def naive_matmul(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n), dtype=a.dtype)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for p in range(k):
                acc += a[i, p] * b[p, j]
            out[i, j] = acc
    return out


def naive_conv2d(x, w, stride=1, padding=0):
    n, c, h, wd = x.shape
    o, c2, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((n, o, ho, wo), dtype=x.dtype)
    for ni in range(n):
        for oi in range(o):
            for yi in range(ho):
                for xi in range(wo):
                    acc = 0.0
                    for ci in range(c):
                        for ky in range(kh):
                            for kx in range(kw):
                                acc += (
                                    xp[ni, ci, yi * stride + ky, xi * stride + kx]
                                    * w[oi, ci, ky, kx]
                                )
                    out[ni, oi, yi, xi] = acc
    return out


def naive_maxpool(x, window):
    n, c, h, w = x.shape
    ho, wo = h // window, w // window
    out = np.zeros((n, c, ho, wo), dtype=x.dtype)
    for ni in range(n):
        for ci in range(c):
            for yi in range(ho):
                for xi in range(wo):
                    out[ni, ci, yi, xi] = x[
                        ni, ci, yi * window : (yi + 1) * window,
                        xi * window : (xi + 1) * window,
                    ].max()
    return out


def naive_maxpool_grad(x, window, g):
    """Each block's output gradient at its first maximum in row-major order."""
    dx = np.zeros_like(x)
    for ni, ci, yi, xi in np.ndindex(g.shape):
        block = x[ni, ci, yi * window : (yi + 1) * window,
                  xi * window : (xi + 1) * window]
        ky, kx = divmod(int(np.argmax(block)), window)  # argmax: first maximum
        dx[ni, ci, yi * window + ky, xi * window + kx] = g[ni, ci, yi, xi]
    return dx


# ---------------------------------------------------------------------------
# forward semantics
# ---------------------------------------------------------------------------


def test_elementwise_forward_matches_numpy():
    a = t64(3, 4)
    b = t64(3, 4)
    np.testing.assert_allclose((a + b).data, a.data + b.data)
    np.testing.assert_allclose((a - b).data, a.data - b.data)
    np.testing.assert_allclose((a * b).data, a.data * b.data)
    np.testing.assert_allclose(a.relu().data, np.maximum(a.data, 0))
    np.testing.assert_allclose(a.exp().data, np.exp(a.data))
    np.testing.assert_allclose((a * 2.5).data, a.data * 2.5)
    pos = t64(3, 4, lo=0.1, hi=3.0)
    np.testing.assert_allclose(pos.log().data, np.log(pos.data))


def test_log_of_non_positive_raises():
    with pytest.raises(DomainError):
        Tensor(np.array([1.0, 0.0])).log()
    with pytest.raises(DomainError):
        Tensor(np.array([-1.0])).log()


def test_matmul_against_triple_loop():
    for _ in range(10):
        m, k, n = RNG.integers(1, 7, size=3)
        a = t64(m, k)
        b = t64(k, n)
        np.testing.assert_allclose(
            matmul(a, b).data, naive_matmul(a.data, b.data), rtol=1e-12
        )


def test_matmul_shape_errors():
    with pytest.raises(ShapeError):
        matmul(t64(2, 3), t64(4, 2))
    with pytest.raises(ShapeError):
        matmul(t64(2, 3, 4), t64(4, 2))


def test_conv2d_against_direct_summation():
    for stride, padding in [(1, 0), (1, 2), (2, 1), (3, 0)]:
        x = t64(2, 3, 9, 8)
        w = t64(4, 3, 3, 3)
        got = conv2d(x, w, stride=stride, padding=padding).data
        want = naive_conv2d(x.data, w.data, stride=stride, padding=padding)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


def _f32(rng, *shape):
    return rng.normal(size=shape).astype(np.float32)


def test_conv2d_input_without_grad_gets_no_gradient():
    rng = np.random.default_rng(21)
    x, w = _f32(rng, 3, 2, 11, 9), Tensor(_f32(rng, 4, 2, 3, 3), requires_grad=True)
    frozen = conv2d(Tensor(x), w, stride=2, padding=1)
    g = _f32(rng, *frozen.shape)
    dx, dw = frozen._vjp(g)
    assert dx is None
    dx_live, dw_live = conv2d(Tensor(x, requires_grad=True), w, stride=2, padding=1)._vjp(g)
    assert dx_live is not None
    np.testing.assert_array_equal(dw, dw_live)


def _traced_peak(fn):
    """(result, peak bytes numpy and Python allocated while ``fn`` ran)."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("stride,padding", [(2, 1), (1, 2)])
def test_conv2d_runs_one_sample_at_a_time(stride, padding):
    rng = np.random.default_rng(22)
    n, c, h, wd, o, k = 8, 8, 24, 20, 4, 3
    x, w = _f32(rng, n, c, h, wd), Tensor(_f32(rng, o, c, k, k))
    ho, wo = (h + 2 * padding - k) // stride + 1, (wd + 2 * padding - k) // stride + 1
    g = _f32(rng, n, o, ho, wo)

    def forward_and_dx():
        y = conv2d(Tensor(x, requires_grad=True), w, stride, padding)
        return y.data, y._vjp(g)[0]

    (y, dx), peak = _traced_peak(forward_and_dx)
    for b in range(n):
        yb = conv2d(Tensor(x[b : b + 1], requires_grad=True), w, stride, padding)
        np.testing.assert_array_equal(y[b : b + 1], yb.data)
        np.testing.assert_array_equal(dx[b : b + 1], yb._vjp(g[b : b + 1])[0])
    # the padded input, its gradient and the output, plus a few one-sample
    # column blocks; a batch's column block (n of them) never exists at once
    padded = n * c * (h + 2 * padding) * (wd + 2 * padding) * 4
    sample_cols = c * k * k * ho * wo * 4
    assert peak < 2 * padded + y.nbytes + 4 * sample_cols


# ---------------------------------------------------------------------------
# work split over CPUs: the same bits on one worker and on several
# ---------------------------------------------------------------------------

# shares beyond this machine's CPUs still run, on the pool's threads
SHARES = [2, 3]


def _with_workers(monkeypatch, workers, fn):
    """``fn()`` on ``workers`` shares, each on its own thread, switching
    between threads as often as the interpreter allows."""
    monkeypatch.setattr(ad, "_workers", workers)
    monkeypatch.setattr(ad, "_pool", None)  # a pool of workers - 1 threads
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        return fn()
    finally:
        sys.setswitchinterval(interval)


def _assert_same_bits(serial, split):
    assert len(serial) == len(split)
    for a, b in zip(serial, split):
        assert (a is None) == (b is None)
        if a is not None:
            assert np.array_equal(a, b)


@pytest.mark.parametrize("shares", SHARES)
@pytest.mark.parametrize("n", [1, 5])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("input_grad", [True, False], ids=["dx", "no-dx"])
def test_conv2d_has_the_same_bits_on_one_worker_and_several(monkeypatch, shares, n,
                                                            stride, input_grad):
    rng = np.random.default_rng(31)
    x, w = _f32(rng, n, 3, 13, 11), _f32(rng, 4, 3, 3, 3)
    g = _f32(rng, n, 4, 12 // stride + 1, 10 // stride + 1)

    def run(b=slice(None)):
        y = conv2d(Tensor(x[b], requires_grad=input_grad), Tensor(w, requires_grad=True),
                   stride, 1)
        return (y.data,) + y._vjp(g[b])

    serial = _with_workers(monkeypatch, 1, run)
    assert (serial[1] is None) == (not input_grad)
    _assert_same_bits(serial, _with_workers(monkeypatch, shares, run))
    # the kernel gradient is the running sum, in sample order, of each
    # sample's own gradient
    dw = np.zeros_like(w)
    for b in range(n):
        dw += run(slice(b, b + 1))[2]
    assert np.array_equal(serial[2], dw)


@pytest.mark.parametrize("shares", SHARES)
@pytest.mark.parametrize("window", [2, 3])
def test_maxpool2d_has_the_same_bits_on_one_worker_and_several(monkeypatch, shares,
                                                               window):
    rng = np.random.default_rng(33)
    # few distinct values tie most blocks; neither 11 nor 8 is a multiple of
    # 3, and 11 is odd, so trailing rows and columns are dropped
    x = rng.integers(0, 3, size=(5, 2, 11, 8)).astype(np.float32)

    def run():
        y = maxpool2d(Tensor(x, requires_grad=True), window)
        g = np.random.default_rng(34).normal(size=y.shape).astype(np.float32)
        return y.data, y._vjp(g)[0]

    _assert_same_bits(_with_workers(monkeypatch, 1, run),
                      _with_workers(monkeypatch, shares, run))


# (slices, queries, keys, query/key width, value width), dtype; two slices
# leave a third share without one, and 130, 300 and 129 queries end in a
# partial block of ATTENTION_CHUNK
ATTENTION_CASES = {
    "one-slice": ((1, 200, 200, 8, 8), np.float32),
    "two-slices": ((2, 130, 130, 8, 8), np.float32),
    "odd-slices": ((5, 130, 130, 8, 8), np.float32),
    "keys-differ": ((3, 300, 77, 16, 12), np.float32),
    "float64": ((4, 129, 140, 8, 6), np.float64),
}


@pytest.mark.parametrize("shares", SHARES)
@pytest.mark.parametrize("case", sorted(ATTENTION_CASES))
def test_attention_has_the_same_bits_on_one_worker_and_several(monkeypatch, shares, case):
    (b, n, m, d, e), dtype = ATTENTION_CASES[case]
    rng = np.random.default_rng(37)
    q, k, v, g = (rng.normal(size=shape).astype(dtype)
                  for shape in ((b, n, d), (b, m, d), (b, m, e), (b, n, e)))

    def run(i=slice(None)):
        y = attention(*(Tensor(a[i], requires_grad=True) for a in (q, k, v)))
        return (y.data,) + y._vjp(g[i])

    serial = _with_workers(monkeypatch, 1, run)
    assert all(a.dtype == dtype for a in serial)
    _assert_same_bits(serial, _with_workers(monkeypatch, shares, run))
    # each slice is computed as a one-slice call computes it
    for i in range(b):
        _assert_same_bits([a[i : i + 1] for a in serial], run(slice(i, i + 1)))


def test_every_share_keeps_the_callers_numpy_error_state(monkeypatch):
    x = np.ones((4, 1, 4, 4), dtype=np.float32)
    x[-1] = 1e30                       # only the last share's sample overflows
    w = Tensor(np.full((1, 1, 3, 3), 1e30, dtype=np.float32))

    def run():
        return conv2d(Tensor(x), w)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="ignore"):
            _with_workers(monkeypatch, 2, run)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        _with_workers(monkeypatch, 2, run)


def test_import_and_a_one_sample_op_start_no_thread():
    code = ("import threading\n"
            "n = threading.active_count()\n"
            "import numpy as np, pineq, pineq.cli, pineq.autodiff as ad\n"
            "assert threading.active_count() == n, threading.enumerate()\n"
            "ad._workers = 2  # the split path, whatever this machine's CPUs\n"
            "ad.conv2d(ad.Tensor(np.ones((1, 1, 4, 4))), ad.Tensor(np.ones((1, 1, 3, 3))))\n"
            "x = ad.Tensor(np.ones((1, 300, 8)), requires_grad=True)\n"
            "ad.attention(x, x, x).sum().backward()\n"
            "assert threading.active_count() == n and ad._pool is None\n")
    env = dict(os.environ, PYTHONPATH=str(Path(ad.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_conv2d_kernel_larger_than_input_raises():
    with pytest.raises(ShapeError):
        conv2d(t64(1, 1, 4, 4), t64(1, 1, 5, 5))


def test_maxpool_forward_and_tie_break():
    x = t64(2, 3, 8, 6)
    got = maxpool2d(x, window=2)
    np.testing.assert_allclose(got.data, naive_maxpool(x.data, 2))
    # ties must route the gradient to the first element in row-major order
    tie = Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
    out = maxpool2d(tie, window=2)
    out.sum().backward()
    np.testing.assert_array_equal(
        tie.grad, np.array([[[[1.0, 0.0], [0.0, 0.0]]]])
    )


@pytest.mark.parametrize("window", [2, 3])
def test_maxpool_matches_naive_on_ties_and_ragged_edges(window):
    rng = np.random.default_rng(window)
    # few distinct values, so most blocks hold tied maxima; neither side
    # is a multiple of the window, so trailing rows and columns are dropped
    x = rng.integers(-2, 3, size=(2, 3, 3 * window + 1, 5 * window - 1)).astype(np.float64)
    xt = Tensor(x, requires_grad=True)
    out = maxpool2d(xt, window)
    np.testing.assert_array_equal(out.data, naive_maxpool(x, window))
    g = rng.normal(size=out.shape)
    (out * Tensor(g)).sum().backward()
    np.testing.assert_array_equal(xt.grad, naive_maxpool_grad(x, window, g))
    assert not xt.grad[:, :, 3 * window:].any()
    assert not xt.grad[:, :, :, 4 * window:].any()


def test_maxpool_window_exceeding_input_raises():
    with pytest.raises(ShapeError):
        maxpool2d(t64(1, 1, 2, 2), window=3)


def test_softmax_rows_sum_to_one_and_shift_invariance():
    x = t64(5, 7)
    y = softmax(x, axis=-1).data
    np.testing.assert_allclose(y.sum(axis=-1), np.ones(5), rtol=1e-12)
    assert (y > 0).all()
    shifted = softmax(x + Tensor(np.full((5, 7), 123.4)), axis=-1).data
    np.testing.assert_allclose(y, shifted, atol=1e-12)


def test_softmax_extreme_logits_stay_finite():
    x = Tensor(np.array([[1e4, -1e4, 0.0]]))
    y = softmax(x, axis=-1).data
    assert np.isfinite(y).all()
    np.testing.assert_allclose(y.sum(), 1.0, rtol=1e-12)


def test_log_softmax_matches_log_of_softmax():
    x = t64(4, 9)
    np.testing.assert_allclose(
        log_softmax(x, axis=-1).data,
        np.log(softmax(x, axis=-1).data),
        atol=1e-12,
    )


def test_layer_norm_zero_mean_unit_variance():
    x = t64(6, 13)
    g = Tensor(np.ones(13))
    b = Tensor(np.zeros(13))
    y = layer_norm(x, g, b, eps=1e-10).data
    np.testing.assert_allclose(y.mean(axis=-1), np.zeros(6), atol=1e-9)
    np.testing.assert_allclose(y.var(axis=-1), np.ones(6), rtol=1e-6)


def test_bmm_matches_stacked_matmul():
    a = t64(5, 3, 4)
    b = t64(5, 4, 2)
    got = bmm(a, b).data
    want = np.stack([a.data[i] @ b.data[i] for i in range(5)])
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_concat_and_narrow_roundtrip():
    a = t64(2, 3)
    b = t64(2, 5)
    cat = concat([a, b], axis=1)
    assert cat.data.shape == (2, 8)
    back = narrow(cat, axis=1, start=3, length=5)
    np.testing.assert_array_equal(back.data, b.data)


@pytest.mark.parametrize("index", [[2, 0, 2, 2], [1, 3], [3, 2, 1, 0]],
                         ids=["repeated-and-unused", "unused", "permutation"])
def test_take_gathers_rows_like_fancy_indexing(index):
    x = t64(4, 3, 2)
    np.testing.assert_array_equal(take(x, index).data, x.data[index])
    weights = Tensor(RNG.normal(size=(len(index), 3, 2)))
    err = grad_check(lambda x: (take(x, index) * weights).sum(), x)
    assert err < 1e-6, err


def test_take_rejects_out_of_range_index():
    x = t64(3, 2)
    for bad in ([0, 3], [-1], [[0, 1]], [0.5]):
        with pytest.raises(ShapeError):
            take(x, bad)


def test_linear_and_attention_reject_bad_shapes():
    with pytest.raises(ShapeError, match="rank 2 or 3"):
        linear(t64(2, 3, 4, 5), t64(5, 2), t64(2))
    with pytest.raises(ShapeError):
        linear(t64(3, 4), t64(5, 2), t64(2))
    with pytest.raises(ShapeError):
        linear(t64(3, 4), t64(4, 2), t64(3))
    with pytest.raises(ShapeError):
        attention(t64(2, 5, 3), t64(2, 5, 4), t64(2, 5, 3))
    with pytest.raises(ShapeError):
        attention(t64(2, 5, 3), t64(2, 6, 3), t64(2, 5, 3))
    with pytest.raises(ShapeError):
        attention(t64(5, 3), t64(5, 3), t64(5, 3))


# the node chains the fused ops replace, kept as references


def composite_attention(q, k, v):
    scores = bmm(q * (1.0 / math.sqrt(q.data.shape[-1])), k.transpose(0, 2, 1))
    return bmm(softmax(scores, axis=-1), v)


def composite_layer_norm(x, gamma, beta, eps=1e-5):
    centered = x - x.mean(axis=-1, keepdims=True)
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered / (var + eps).sqrt() * gamma + beta


def composite_linear(x, w, b):
    shape = x.data.shape
    y = matmul(x.reshape(-1, shape[-1]), w)
    return y.reshape(*shape[:-1], w.data.shape[1]) + b


FUSED = {
    "attention": (attention, composite_attention,
                  [(4, 300, 16), (4, 300, 16), (4, 300, 16)]),
    "layer_norm": (layer_norm, composite_layer_norm, [(4, 50, 32), (32,), (32,)]),
    "linear-rank2": (linear, composite_linear, [(60, 32), (32, 24), (24,)]),
    "linear-rank3": (linear, composite_linear, [(4, 50, 32), (32, 24), (24,)]),
}


@pytest.mark.parametrize("name", sorted(FUSED))
def test_fused_op_matches_its_composite_in_float32(name):
    fused, composite, shapes = FUSED[name]
    rng = np.random.default_rng(40)
    arrays = [_f32(rng, *shape) for shape in shapes]
    results = []
    for op in (fused, composite):
        inputs = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        y = op(*inputs)
        coeff = Tensor(np.random.default_rng(41).normal(size=y.shape).astype(np.float32))
        (y * coeff).sum().backward()
        assert y.data.dtype == np.float32
        results.append([y.data] + [t.grad for t in inputs])
    # norm-wise: each order rounds differently in its last bits
    for got, want in zip(*results):
        assert got.dtype == np.float32
        rel = np.linalg.norm(got - want) / np.linalg.norm(want)
        assert rel < 1e-6, f"{name}: relative difference {rel:.2e}"


def test_attention_never_holds_a_full_score_array(monkeypatch):
    rng = np.random.default_rng(42)
    b, n, d = 32, 708, 32
    arrays = [_f32(rng, b, n, d) for _ in range(3)]
    # operand-sized arrays: the scaled queries, the output, its gradient, the
    # three input gradients and one more for the row statistics and small
    # temporaries; plus each share's score and score-gradient blocks
    operand = b * n * d * 4
    block = ad.ATTENTION_CHUNK * n * 4
    for shares in (1, 2):
        q, k, v = (Tensor(a, requires_grad=True) for a in arrays)

        def forward_and_backward():
            attention(q, k, v).sum().backward()

        _, peak = _with_workers(monkeypatch, shares,
                                lambda: _traced_peak(forward_and_backward))
        bound = 7 * operand + 2 * shares * block
        assert 6 * operand + b * block > bound  # one block of every slice's scores fails it
        assert peak < bound, f"{shares} shares: peak {peak / 1e6:.1f} MB >= {bound / 1e6:.1f} MB"
        assert all(t.grad is not None and t.grad.shape == (b, n, d) for t in (q, k, v))


# ---------------------------------------------------------------------------
# backward semantics
# ---------------------------------------------------------------------------


def test_backward_requires_scalar():
    x = t64(3, 3)
    with pytest.raises(ShapeError):
        (x * x).backward()


def test_gradients_accumulate_across_fanout():
    x = Tensor(np.array([1.5, -0.5, 2.0]), requires_grad=True)
    y = x * 2.0
    z = (y + y).sum()  # y used twice: dz/dx = 4
    z.backward()
    np.testing.assert_allclose(x.grad, np.full(3, 4.0))


def _graph(root):
    seen, stack, nodes = set(), [root], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def test_backward_frees_non_leaf_nodes_and_keeps_leaf_gradients():
    x, w, b = t64(4, 3), t64(3, 2), t64(2)
    loss = (softmax(matmul(x, w) + b, axis=1) * 2.0).sum()
    nodes = _graph(loss)
    inner = [n for n in nodes if n._parents]
    assert inner and all(n._vjp is not None for n in inner)
    loss.backward()
    assert all(n.grad is None and n._vjp is None for n in inner)
    assert all(t.grad is not None and t.grad.shape == t.shape for t in (x, w, b))


def test_second_backward_over_a_consumed_graph_raises():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    sq = x * x
    y = sq.sum()
    y.backward()
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])
    x.grad = None
    with pytest.raises(RuntimeError, match="already consumed"):
        y.backward()
    # a new root over part of the consumed graph fails the same way
    with pytest.raises(RuntimeError, match="already consumed"):
        (sq * 2.0).sum().backward()
    assert x.grad is None


def test_unused_branch_gets_no_gradient():
    x = t64(3)
    y = t64(3)
    (x.sum()).backward()
    assert y.grad is None


def test_no_grad_records_no_graph_and_keeps_values():
    x, w = t64(4, 3), t64(3, 2)
    expected = softmax(matmul(x, w) * 2.0, axis=1)
    with ad.no_grad():
        out = softmax(matmul(x, w) * 2.0, axis=1)
    assert not out.requires_grad and out._parents == () and out._vjp is None
    np.testing.assert_array_equal(out.data, expected.data)
    # recording resumes after the block, also after an exception inside it
    with pytest.raises(ShapeError):
        with ad.no_grad():
            matmul(x, x)
    assert matmul(x, w).requires_grad


def test_broadcast_add_gradient_sums_over_batch():
    x = t64(4, 3)
    bias = t64(3)
    (x + bias).sum().backward()
    np.testing.assert_allclose(bias.grad, np.full(3, 4.0))
    np.testing.assert_allclose(x.grad, np.ones((4, 3)))


# central-difference checks for every differentiable primitive
@pytest.mark.parametrize(
    "name,builder",
    [
        ("add", lambda a, b: (a + b).sum()),
        ("sub", lambda a, b: (a - b).sum()),
        ("mul", lambda a, b: (a * b * 0.7).sum()),
        ("div", lambda a, b: (a / (b * b + 1.0)).sum()),
        ("relu_mix", lambda a, b: ((a + 0.05).relu() * b).sum()),
        ("exp", lambda a, b: (a.exp() + b).sum()),
        ("sqrt", lambda a, b: ((a * a + 1.0).sqrt() * b).sum()),
    ],
)
def test_elementwise_gradients_match_finite_differences(name, builder):
    a = t64(3, 4)
    b = t64(3, 4)
    err = grad_check(builder, [a, b], eps=1e-4)
    assert err < 1e-3, f"{name}: max rel grad error {err}"


def test_log_gradient_matches_finite_differences():
    a = t64(3, 4, lo=0.5, hi=3.0)
    err = grad_check(lambda t: (t.log() * 0.3).sum(), [a], eps=1e-5)
    assert err < 1e-3


def test_matmul_gradient_matches_finite_differences():
    a = t64(3, 5)
    b = t64(5, 2)
    err = grad_check(lambda x, y: matmul(x, y).sum(), [a, b], eps=1e-4)
    assert err < 1e-3


def test_bmm_gradient_matches_finite_differences():
    a = t64(2, 3, 4)
    b = t64(2, 4, 3)
    err = grad_check(
        lambda x, y: (bmm(x, y) * bmm(x, y)).sum(), [a, b], eps=1e-4
    )
    assert err < 1e-3


def test_conv2d_gradient_matches_finite_differences():
    x = t64(2, 2, 6, 5)
    w = t64(3, 2, 3, 3)
    err = grad_check(
        lambda xx, ww: (conv2d(xx, ww, stride=2, padding=1) ** 2).sum(),
        [x, w],
        eps=1e-4,
    )
    assert err < 1e-3


def test_maxpool_gradient_matches_finite_differences():
    x = t64(2, 2, 6, 6)
    err = grad_check(
        lambda xx: (maxpool2d(xx, window=2) ** 2).sum(), [x], eps=1e-5
    )
    assert err < 1e-3


def test_softmax_gradient_matches_finite_differences():
    x = t64(4, 6)
    w = t64(4, 6)
    err = grad_check(
        lambda xx, ww: (softmax(xx, axis=-1) * ww).sum(), [x, w], eps=1e-5
    )
    assert err < 1e-3


def test_layer_norm_gradient_matches_finite_differences():
    x = t64(2, 3, 8)
    g = t64(8)
    b = t64(8)
    err = grad_check(
        lambda xx, gg, bb: (layer_norm(xx, gg, bb) ** 2).sum(),
        [x, g, b],
        eps=1e-5,
    )
    assert err < 1e-3


@pytest.mark.parametrize("shape", [(5, 4), (2, 3, 4)], ids=["rank2", "rank3"])
def test_linear_gradient_matches_finite_differences(shape):
    x, w, b = t64(*shape), t64(4, 3), t64(3)
    coeff = Tensor(RNG.normal(size=shape[:-1] + (3,)))
    err = grad_check(lambda xx, ww, bb: (linear(xx, ww, bb) * coeff).sum(), [x, w, b])
    assert err < 1e-6, err


def test_linear_input_without_grad_gets_no_gradient():
    x, w, b = t64(2, 3, 4, grad=False), t64(4, 3), t64(3)
    dx, dw, db = linear(x, w, b)._vjp(np.ones((2, 3, 3)))
    assert dx is None and dw.shape == (4, 3) and db.shape == (3,)


@pytest.mark.parametrize("n", [5, ad.ATTENTION_CHUNK, 2 * ad.ATTENTION_CHUNK, 300],
                         ids=["short", "one-chunk", "two-chunks", "ragged"])
def test_attention_gradient_matches_finite_differences(n):
    b, d = (2, 3) if n < ad.ATTENTION_CHUNK else (1, 2)
    q, k, v = t64(b, n, d), t64(b, n, d), t64(b, n, d + 1)
    coeff = Tensor(RNG.normal(size=(b, n, d + 1)))
    err = grad_check(lambda qq, kk, vv: (attention(qq, kk, vv) * coeff).sum(), [q, k, v])
    assert err < 1e-5, err


def test_reshape_transpose_concat_narrow_gradients():
    a = t64(2, 6)
    b = t64(3, 4)
    def f(x, y):
        xr = x.reshape(3, 4).transpose(1, 0)  # (4, 3)
        yr = y.transpose(1, 0)                # (4, 3)
        cat = concat([xr, yr], axis=1)        # (4, 6)
        return (narrow(cat, 1, 1, 4) ** 2).sum()
    err = grad_check(f, [a, b], eps=1e-5)
    assert err < 1e-3


def test_sum_and_mean_gradients():
    x = t64(4, 5)
    err = grad_check(lambda t: (t.sum(axis=0) ** 2).sum(), [x], eps=1e-5)
    assert err < 1e-3
    err = grad_check(lambda t: (t.mean(axis=1) ** 2).sum(), [x], eps=1e-5)
    assert err < 1e-3


# ---------------------------------------------------------------------------
# grad_check itself
# ---------------------------------------------------------------------------


def test_grad_check_linear_map_is_tiny():
    # loss = c . x is linear, so analytic and FD agree almost exactly
    c = Tensor(RNG.uniform(-1, 1, (7,)))
    x = t64(7)
    err = grad_check(lambda t: (t * c).sum(), [x], eps=1e-4)
    assert err < 1e-9


def test_grad_check_softmax_log_likelihood_composite():
    logits = t64(2, 5)
    w = t64(5, 5)
    def f(lg, ww):
        h = matmul(lg, ww).relu() + lg
        lp = log_softmax(h, axis=-1)
        return narrow(lp, 1, 0, 1).sum() * (-1.0)
    err = grad_check(f, [logits, w], eps=1e-4)
    assert err < 1e-4


def test_grad_check_rejects_relu_kink():
    x = Tensor(np.array([1.0, 0.0, -1.0]), requires_grad=True)
    with pytest.raises(NonCheckableError):
        grad_check(lambda t: t.relu().sum(), [x], eps=1e-4)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def test_adam_first_step_magnitude():
    # with bias correction the very first update is lr * g / (|g| + eps)
    w = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    w0 = w.data.copy()
    g = np.array([0.3, -0.2, 0.001])
    w.grad = g.copy()
    opt = Adam([w], lr=1e-3)
    opt.step()
    np.testing.assert_allclose(
        w0 - w.data, 1e-3 * g / (np.abs(g) + 1e-8), rtol=1e-9
    )


def test_adam_zero_gradient_leaves_parameters_unchanged():
    w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    w.grad = np.zeros(2)
    Adam([w], lr=0.1).step()
    np.testing.assert_array_equal(w.data, np.array([1.0, 2.0]))


def test_adam_missing_gradient_raises():
    w = Tensor(np.ones(2), requires_grad=True)
    with pytest.raises(MissingGradientError):
        Adam([w]).step()


def test_adam_clears_gradients_after_step():
    w = Tensor(np.ones(2), requires_grad=True)
    w.grad = np.ones(2)
    opt = Adam([w])
    opt.step()
    assert w.grad is None


def test_adam_float32_steps_run_in_place_and_match_the_formula():
    rng = np.random.default_rng(23)
    w = Tensor(_f32(rng, 256, 128), requires_grad=True)
    data, want = w.data, w.data.copy()
    m, v = np.zeros_like(want), np.zeros_like(want)
    b1, b2, eps, lr = Adam.beta1, Adam.beta2, Adam.eps, 1e-2
    opt = Adam([w], lr=lr)
    for t in range(1, 4):
        g = _f32(rng, *want.shape)
        w.grad = g
        _, peak = _traced_peak(opt.step)
        # at most one parameter-sized temporary; written with temporaries the
        # formula holds three at once
        assert peak < 2 * g.nbytes
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * (g * g)
        c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
        want -= lr * ((m / c1) / (np.sqrt(v / c2) + eps))
        assert w.data is data and w.data.dtype == np.float32
        np.testing.assert_array_equal(w.data, want)


def _adam_formula(w, grads, lr):
    """``w`` after one Adam step per gradient, written as the formula."""
    w, m, v = w.copy(), np.zeros_like(w), np.zeros_like(w)
    b1, b2, eps = Adam.beta1, Adam.beta2, Adam.eps
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * (g * g)
        c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
        w -= lr * ((m / c1) / (np.sqrt(v / c2) + eps))
    return w


@pytest.mark.parametrize("shares", SHARES)
@pytest.mark.parametrize("shapes", [[(10, ad.ADAM_BLOCK // 4)], [(), (3,), (4, 5), (2, 3, 3)]],
                         ids=["two-and-a-half-blocks", "small"])
def test_adam_has_the_same_bits_on_one_worker_and_several(monkeypatch, shares, shapes):
    rng = np.random.default_rng(35)
    starts = [_f32(rng, *shape) for shape in shapes]
    grads = [[_f32(rng, *shape) for shape in shapes] for _ in range(3)]

    def run():
        params = [Tensor(w.copy(), requires_grad=True) for w in starts]
        opt = Adam(params, lr=1e-2)
        for step in grads:
            for p, g in zip(params, step):
                p.grad = g
            opt.step()
        return [p.data for p in params]

    serial = _with_workers(monkeypatch, 1, run)
    _assert_same_bits(serial, _with_workers(monkeypatch, shares, run))
    for i, w in enumerate(starts):
        assert np.array_equal(serial[i], _adam_formula(w, [g[i] for g in grads], 1e-2))


class _OneWeight(Module):
    def __init__(self, shape):
        self.w = Tensor(np.zeros(shape, dtype=np.float32), requires_grad=True)


@pytest.mark.parametrize("workers", [1] + SHARES)
def test_adam_updates_a_fortran_ordered_parameter_from_a_state(monkeypatch, workers):
    # about three blocks; reshape(-1) of a Fortran-ordered array is a copy,
    # so an update through flat views of it would be lost
    rng = np.random.default_rng(36)
    shape = (384, ad.ADAM_BLOCK // 128 + 5)
    w0 = np.asfortranarray(_f32(rng, *shape))
    grads = [_f32(rng, *shape) for _ in range(3)]

    def run():
        model = _OneWeight(shape)
        opt = Adam(model.parameters(), lr=1e-2)
        model.load_state_dict({"w": w0})
        assert not model.w.data.flags.c_contiguous
        for g in grads:
            model.w.grad = g
            opt.step()
        return model.w.data

    want = _adam_formula(np.ascontiguousarray(w0), grads, 1e-2)
    assert np.array_equal(_with_workers(monkeypatch, workers, run), want)


def test_adam_quadratic_converges_100x():
    rng = np.random.default_rng(7)
    c = rng.uniform(-1, 1, 32)
    w = Tensor(c + rng.uniform(-0.01, 0.01, 32), requires_grad=True)
    target = Tensor(c)
    opt = Adam([w], lr=1e-3)
    def loss_val():
        return float(((w.data - c) ** 2).sum())
    f0 = loss_val()
    for _ in range(200):
        loss = ((w - target) * (w - target)).sum()
        loss.backward()
        opt.step()
    assert loss_val() < f0 / 100.0


def test_training_dtype_is_preserved():
    a = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
    b = Tensor(np.ones((2, 2), dtype=np.float32))
    out = matmul(a, b).relu().sum()
    assert out.data.dtype == np.float32
    out.backward()
    assert a.grad.dtype == np.float32
