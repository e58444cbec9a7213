"""Tests for the reverse-mode autodiff core.

Forward results are checked against deliberately naive reference
implementations (triple-loop matmul, direct convolution sums) and
every backward rule is checked against central finite differences in
float64.
"""

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
    bmm,
    concat,
    conv2d,
    elementwise,
    grad_check,
    layer_norm,
    log_softmax,
    matmul,
    maxpool2d,
    narrow,
    softmax,
    take,
)

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
    np.testing.assert_allclose(elementwise("add", a, b).data, a.data + b.data)
    np.testing.assert_allclose(elementwise("sub", a, b).data, a.data - b.data)
    np.testing.assert_allclose(elementwise("mul", a, b).data, a.data * b.data)
    np.testing.assert_allclose(elementwise("relu", a).data, np.maximum(a.data, 0))
    np.testing.assert_allclose(elementwise("exp", a).data, np.exp(a.data))
    np.testing.assert_allclose(elementwise("scale", a, 2.5).data, a.data * 2.5)
    pos = t64(3, 4, lo=0.1, hi=3.0)
    np.testing.assert_allclose(elementwise("log", pos).data, np.log(pos.data))


def test_elementwise_rejects_shape_mismatch():
    a = t64(2, 3)
    b = t64(3, 2)
    with pytest.raises(ShapeError):
        elementwise("add", a, b)
    # scalar broadcast is the one allowed mismatch
    s = Tensor(np.float64(2.0))
    assert elementwise("mul", a, s).data.shape == (2, 3)


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


def test_unused_branch_gets_no_gradient():
    x = t64(3)
    y = t64(3)
    (x.sum()).backward()
    assert y.grad is None


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
    x = t64(3, 8)
    g = t64(8)
    b = t64(8)
    err = grad_check(
        lambda xx, gg, bb: (layer_norm(xx, gg, bb) ** 2).sum(),
        [x, g, b],
        eps=1e-5,
    )
    assert err < 1e-3


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
