"""Gradient and semantics checks for the autodiff core.

Analytic gradients are compared against the central finite-difference oracle
in oracles.py (step 1e-5, 64-bit throughout).
"""

import numpy as np
import pytest

from nidkit import tensor as T
from oracles import check_tensor_grad, exp, log, negate, power, softmax


@pytest.fixture(autouse=True)
def clean_tape():
    T.reset_tape()
    yield
    T.reset_tape()


# ---------------------------------------------------------------------------
# forced-by-definition values

def test_add_values():
    out = T.add(T.Tensor([1.0, 2.0]), T.Tensor([3.0, 4.0]))
    np.testing.assert_array_equal(out.values, [4.0, 6.0])


@pytest.mark.parametrize("name", ["add", "sub", "mul", "div"])
@pytest.mark.parametrize("side", [0, 1])
def test_float_operand_is_a_constant_off_the_tape(name, side):
    # the same bits as a float64 constant Tensor, forward and backward, with
    # only the Tensor operand on the tape
    op, c = getattr(T, name), 1.7
    x = np.random.default_rng(3).normal(size=(3, 4))
    results = []
    for const in (c, T.Tensor(np.asarray(c))):
        T.reset_tape()
        t = T.Tensor(x.copy(), requires_grad=True)
        operands = (t, const) if side == 0 else (const, t)
        out = op(*operands)
        assert T._state.tape[-1].inputs == tuple(o for o in operands if isinstance(o, T.Tensor))
        T.backward(T.tsum(out))
        results.append((out.values, t.grad))
    np.testing.assert_array_equal(results[0][0], results[1][0])
    np.testing.assert_array_equal(results[0][1], results[1][1])


def test_float_operand_errors():
    with pytest.raises(T.DomainError):
        T.div(T.Tensor([1.0]), 0.0)
    with pytest.raises(TypeError):
        T.mul(T.Tensor([1.0, 2.0]), np.array([1.0, 2.0]))


def test_relu_values():
    out = T.relu(T.Tensor([-1.0, 0.0, 2.0]))
    np.testing.assert_array_equal(out.values, [0.0, 0.0, 2.0])


def test_matmul_identity():
    m = np.arange(4.0).reshape(2, 2)
    out = T.matmul(T.Tensor(np.eye(2)), T.Tensor(m))
    np.testing.assert_array_equal(out.values, m)


def test_matmul_small():
    out = T.matmul(T.Tensor([[1.0, 2.0], [3.0, 4.0]]), T.Tensor([[1.0], [1.0]]))
    np.testing.assert_array_equal(out.values, [[3.0], [7.0]])


def test_mean_var_trivial():
    assert float(T.tmean(T.Tensor([2.0, 4.0, 6.0])).values) == 4.0
    assert float(T.tvar(T.Tensor([1.0, 1.0, 1.0])).values) == 0.0


def test_var_population_default():
    x = np.array([1.0, 2.0, 3.0, 6.0])
    assert float(T.tvar(T.Tensor(x)).values) == pytest.approx(np.var(x))


def test_sum_grad_is_ones():
    x = T.Tensor(np.random.default_rng(0).normal(size=(3, 4)), requires_grad=True)
    T.backward(T.tsum(x))
    np.testing.assert_array_equal(x.grad, np.ones((3, 4)))


def test_cholesky_identity_and_diagonal():
    np.testing.assert_allclose(T.cholesky(T.Tensor(np.eye(3))).values, np.eye(3))
    out = T.cholesky(T.Tensor([[4.0, 0.0], [0.0, 9.0]]))
    np.testing.assert_allclose(out.values, [[2.0, 0.0], [0.0, 3.0]])


def test_triangular_solve_trivial():
    b = np.array([[1.0], [2.0], [3.0]])
    np.testing.assert_allclose(T.triangular_solve(T.Tensor(np.eye(3)), T.Tensor(b)).values, b)
    out = T.triangular_solve(T.Tensor([[2.0, 0.0], [1.0, 1.0]]), T.Tensor([[2.0], [3.0]]))
    np.testing.assert_allclose(out.values, [[1.0], [2.0]])


def test_grad_of_sum_mul_equals_other_operand():
    rng = np.random.default_rng(1)
    a = T.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    bv = rng.normal(size=(5, 3))
    T.backward(T.tsum(T.mul(a, T.Tensor(bv))))
    np.testing.assert_allclose(a.grad, bv, rtol=1e-12)
    # and the finite-difference oracle agrees
    check_tensor_grad(lambda ts: T.tsum(T.mul(ts[0], ts[1])),
                      [a.values.copy(), bv], rtol=1e-6, label="sum(mul)")


def test_matmul_grad_fd():
    rng = np.random.default_rng(2)
    check_tensor_grad(lambda ts: T.tsum(T.mul(T.matmul(ts[0], ts[1]), ts[2])),
                      [rng.normal(size=(3, 4)), rng.normal(size=(4, 2)),
                       rng.normal(size=(3, 2))],
                      rtol=1e-6, label="matmul")


# ---------------------------------------------------------------------------
# finite-difference sweep: 20 random instances per primitive

def _weighted_sum(t, w):
    return T.tsum(T.mul(t, T.Tensor(w)))


ELEMENTWISE_CASES = {
    "add": lambda ts, w: _weighted_sum(T.add(ts[0], ts[1]), w),
    "sub": lambda ts, w: _weighted_sum(T.sub(ts[0], ts[1]), w),
    "mul": lambda ts, w: _weighted_sum(T.mul(ts[0], ts[1]), w),
    "div": lambda ts, w: _weighted_sum(T.div(ts[0], ts[1]), w),
    "negate": lambda ts, w: _weighted_sum(negate(ts[0]), w),
    "exp": lambda ts, w: _weighted_sum(exp(ts[0]), w),
    "gelu": lambda ts, w: _weighted_sum(T.gelu(ts[0]), w),
    "relu": lambda ts, w: _weighted_sum(T.relu(ts[0]), w),
    "sqrt": lambda ts, w: _weighted_sum(T.sqrt(ts[0]), w),
    "log": lambda ts, w: _weighted_sum(log(ts[0]), w),
    "pow": lambda ts, w: _weighted_sum(power(ts[0], 3.0), w),
    "softmax": lambda ts, w: _weighted_sum(softmax(ts[0], axis=-1), w),
    "sum_axis": lambda ts, w: _weighted_sum(T.tsum(ts[0], axis=1), w[:, 0]),
    "mean_axis": lambda ts, w: _weighted_sum(T.tmean(ts[0], axis=0), w[0, :]),
    "var_axis": lambda ts, w: _weighted_sum(T.tvar(ts[0], axis=0), w[0, :]),
    "reshape": lambda ts, w: _weighted_sum(T.reshape(ts[0], (-1,)), w.reshape(-1)),
    "transpose": lambda ts, w: _weighted_sum(T.transpose(ts[0]), w.T),
}


@pytest.mark.parametrize("name", sorted(ELEMENTWISE_CASES))
def test_primitive_grads_random_sweep(name):
    build = ELEMENTWISE_CASES[name]
    for trial in range(20):
        rng = np.random.default_rng(100 + trial)
        x = rng.normal(size=(4, 5))
        if name in ("sqrt", "log"):
            x = np.abs(x) + 0.5
        if name == "relu":
            x = x + 0.2 * np.sign(x)  # keep clear of the kink
        w = rng.normal(size=(4, 5))
        arrays = [x]
        if name in ("add", "sub", "mul", "div"):
            y = rng.normal(size=(4, 5))
            if name == "div":
                y = np.abs(y) + 0.5
            arrays.append(y)
        check_tensor_grad(lambda ts: build(ts, w), arrays, rtol=1e-4,
                          label=f"{name}#{trial}")


def test_broadcast_grads():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(3, 1))
    b = rng.normal(size=(1, 4))
    w = rng.normal(size=(3, 4))
    check_tensor_grad(lambda ts: _weighted_sum(T.add(ts[0], ts[1]), w), [a, b],
                      rtol=1e-6, label="broadcast add")
    check_tensor_grad(lambda ts: _weighted_sum(T.mul(ts[0], ts[1]), w), [a, b],
                      rtol=1e-6, label="broadcast mul")
    # scalar broadcast
    check_tensor_grad(lambda ts: _weighted_sum(T.mul(ts[0], ts[1]), w),
                      [rng.normal(size=()), rng.normal(size=(3, 4))],
                      rtol=1e-6, label="scalar broadcast")


def test_take_grads():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(6, 3))
    w = rng.normal(size=(2, 3))
    check_tensor_grad(lambda ts: _weighted_sum(ts[0][2:4], w), [x],
                      rtol=1e-6, label="slice")
    idx = np.array([0, 2, 2, 5])  # repeated index exercises scatter-add
    w2 = rng.normal(size=(4, 3))
    check_tensor_grad(lambda ts: _weighted_sum(ts[0][idx], w2), [x],
                      rtol=1e-6, label="gather")


def test_concat_grad_fd():
    rng = np.random.default_rng(40)
    a, b = rng.normal(size=(2, 3)), rng.normal(size=(4, 3))
    w = rng.normal(size=(6, 3))
    check_tensor_grad(lambda ts: _weighted_sum(T.concat(ts, axis=0), w), [a, b],
                      rtol=1e-6, label="concat0")
    a2, b2 = rng.normal(size=(2, 3, 2)), rng.normal(size=(2, 1, 2))
    w2 = rng.normal(size=(2, 4, 2))
    check_tensor_grad(lambda ts: _weighted_sum(T.concat(ts, axis=1), w2), [a2, b2],
                      rtol=1e-6, label="concat1")


def test_cholesky_grad_fd():
    rng = np.random.default_rng(9)
    for trial in range(5):
        b = rng.normal(size=(4, 4))
        a = b @ b.T + 4.0 * np.eye(4)
        w = rng.normal(size=(4, 4))
        check_tensor_grad(lambda ts: _weighted_sum(T.cholesky(ts[0]), w), [a],
                          rtol=1e-5, label=f"cholesky#{trial}")


def test_triangular_solve_grad_fd():
    rng = np.random.default_rng(10)
    for trial in range(5):
        l = np.tril(rng.normal(size=(4, 4))) + 3.0 * np.eye(4)
        b = rng.normal(size=(4, 2))
        w = rng.normal(size=(4, 2))
        check_tensor_grad(
            lambda ts: _weighted_sum(T.triangular_solve(ts[0], ts[1]), w),
            [l, b], rtol=1e-5, label=f"trisolve#{trial}")


def test_composite_chain_grad_fd():
    # multi-op chain touching matmul, relu, variance, sqrt, division
    rng = np.random.default_rng(11)
    x = rng.normal(size=(6, 4))
    w = rng.normal(size=(4, 3))

    def build(ts):
        h = T.relu(T.matmul(ts[0], ts[1]))
        v = T.tvar(h, axis=0)
        return T.tmean(T.tsum(T.div(h, T.sqrt(T.add(v, T.Tensor(np.full(3, 1e-2)))))))

    check_tensor_grad(build, [x, w], rtol=1e-4, label="composite")


# ---------------------------------------------------------------------------
# linear algebra against a float64 reference (scipy's LAPACK) at orders that
# straddle the 32-row blocks of the triangular inverse

LINALG_ORDERS = (1, 31, 32, 33, 257)


def _spd(rng, n):
    m = rng.normal(size=(n + 8, n))
    return m.T @ m / (n + 8) + 1e-2 * np.eye(n)


def _cholesky_vjp_reference(l, g):
    """The reverse rule of ``cholesky`` with two triangular solves."""
    from scipy.linalg import solve_triangular
    p = np.tril(l.T @ g)
    p[np.diag_indices_from(p)] *= 0.5
    tmp = solve_triangular(l, p.T, lower=True, trans="T")
    s = solve_triangular(l, tmp.T, lower=True, trans="T").T
    ga = np.tril(s + s.T)
    ga[np.diag_indices_from(ga)] = np.diag(s)
    return ga


@pytest.mark.parametrize("n", LINALG_ORDERS)
def test_cholesky_matches_float64_reference(n):
    from scipy.linalg import cholesky
    rng = np.random.default_rng(100 + n)
    a = _spd(rng, n)
    w = rng.normal(size=(n, n))
    t = T.Tensor(a, requires_grad=True)
    out = T.cholesky(t)
    ref = cholesky(a, lower=True)
    np.testing.assert_allclose(out.values, ref, rtol=1e-10, atol=1e-12)
    T.backward(_weighted_sum(out, w))
    expect = _cholesky_vjp_reference(ref, w)
    np.testing.assert_allclose(t.grad, expect, rtol=1e-8, atol=1e-10 * np.abs(expect).max())
    # the rule itself, along one random lower-triangular direction
    e, h = np.tril(rng.normal(size=(n, n))), 1e-6
    with T.no_grad():
        fd = (np.sum(w * T.cholesky(T.Tensor(a + h * e)).values)
              - np.sum(w * T.cholesky(T.Tensor(a - h * e)).values)) / (2 * h)
    assert abs(np.sum(t.grad * e) - fd) <= 1e-5 * max(1.0, abs(fd))


@pytest.mark.parametrize("n", LINALG_ORDERS)
def test_triangular_solve_matches_float64_reference(n):
    from scipy.linalg import solve_triangular
    rng = np.random.default_rng(200 + n)
    l = np.linalg.cholesky(_spd(rng, n))
    junk = l + 1e3 * np.triu(rng.normal(size=(n, n)), 1)   # must not be read
    b = rng.normal(size=(n, 32))
    w = rng.normal(size=(n, 32))
    tl, tb = T.Tensor(junk, requires_grad=True), T.Tensor(b, requires_grad=True)
    out = T.triangular_solve(tl, tb)
    x = solve_triangular(l, b, lower=True)
    np.testing.assert_allclose(out.values, x, rtol=1e-10, atol=1e-11 * np.abs(x).max())
    T.backward(_weighted_sum(out, w))
    gb = solve_triangular(l, w, lower=True, trans="T")
    gl = np.tril(-gb @ x.T)
    np.testing.assert_allclose(tb.grad, gb, rtol=1e-10, atol=1e-11 * np.abs(gb).max())
    np.testing.assert_allclose(tl.grad, gl, rtol=1e-9, atol=1e-10 * np.abs(gl).max())
    assert not np.triu(tl.grad, 1).any()


def test_whitening_inverts_each_factor_once(monkeypatch):
    calls, inverse = [], T._lower_inverse

    def counted(lv):
        calls.append(lv.shape)
        return inverse(lv)

    monkeypatch.setattr(T, "_lower_inverse", counted)
    rng = np.random.default_rng(15)
    a = T.Tensor(_spd(rng, 40), requires_grad=True)
    l = T.cholesky(a)
    T.backward(T.tsum(T.triangular_solve(l, T.Tensor(rng.normal(size=(40, 32))))))
    assert calls == [(40, 40)]   # the solve's inverse serves cholesky's backward
    T.reset_tape()
    assert not T._inverses


# ---------------------------------------------------------------------------
# structural invariants

def test_cholesky_reconstruction_up_to_64():
    rng = np.random.default_rng(12)
    for d in (2, 8, 31, 64):
        b = rng.normal(size=(d, d))
        a = b @ b.T + d * np.eye(d)
        l = T.cholesky(T.Tensor(a)).values
        np.testing.assert_allclose(l @ l.T, a, atol=1e-10 * d * np.abs(a).max())
        assert np.allclose(np.triu(l, 1), 0.0)


def test_independent_subgraphs_concatenate():
    rng = np.random.default_rng(13)
    xv, yv = rng.normal(size=4), rng.normal(size=4)

    x = T.Tensor(xv, requires_grad=True)
    y = T.Tensor(yv, requires_grad=True)
    T.backward(T.add(T.tsum(exp(x)), T.tsum(T.mul(y, y))))
    joint_gx, joint_gy = x.grad.copy(), y.grad.copy()

    T.reset_tape()
    x2 = T.Tensor(xv, requires_grad=True)
    T.backward(T.tsum(exp(x2)))
    T.reset_tape()
    y2 = T.Tensor(yv, requires_grad=True)
    T.backward(T.tsum(T.mul(y2, y2)))

    np.testing.assert_allclose(joint_gx, x2.grad, rtol=1e-12)
    np.testing.assert_allclose(joint_gy, y2.grad, rtol=1e-12)


def test_disconnected_leaf_gets_no_grad():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    z = T.Tensor([5.0, 6.0], requires_grad=True)  # never used
    T.backward(T.tsum(T.mul(x, x)))
    assert z.grad is None
    assert x.grad is not None


def test_repeated_backward_accumulates():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    loss = T.tsum(T.mul(x, x))
    T.backward(loss)
    first = x.grad.copy()
    T.backward(loss)
    np.testing.assert_allclose(x.grad, 2.0 * first)


def test_detach_blocks_gradient():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    y = T.mul(x, x)
    T.backward(T.tsum(T.mul(y.detach(), x)))
    # d/dx of sum(c * x) with c = x^2 held constant
    np.testing.assert_allclose(x.grad, x.values ** 2)


def test_no_grad_records_nothing():
    x = T.Tensor([1.0], requires_grad=True)
    before = T.tape_length()
    with T.no_grad():
        y = T.mul(x, x)
    assert T.tape_length() == before
    assert not y.requires_grad


# ---------------------------------------------------------------------------
# error contract

def test_shape_errors():
    with pytest.raises(T.ShapeError):
        T.add(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((4, 5))))
    with pytest.raises(T.ShapeError):
        T.matmul(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((2, 3))))
    with pytest.raises(T.ShapeError, match="matrices"):     # no batched operands
        T.matmul(T.Tensor(np.ones((2, 2, 3))), T.Tensor(np.ones((3, 2))))
    with pytest.raises(T.ShapeError):
        T.backward(T.mul(T.Tensor(np.ones(3), requires_grad=True), T.Tensor(np.ones(3))))


def test_domain_errors():
    with pytest.raises(T.DomainError):
        log(T.Tensor([-1.0]))
    with pytest.raises(T.DomainError):
        T.sqrt(T.Tensor([-0.5]))
    with pytest.raises(T.DomainError):
        T.div(T.Tensor([1.0]), T.Tensor([0.0]))


def test_decomposition_error_carries_pivot():
    a = np.eye(3)
    a[2, 2] = -1.0  # fails at the third pivot
    with pytest.raises(T.DecompositionError) as exc:
        T.cholesky(T.Tensor(a))
    assert exc.value.pivot == 2


def test_singularity_error():
    l = np.eye(3)
    l[1, 1] = 0.0
    with pytest.raises(T.SingularityError):
        T.triangular_solve(T.Tensor(l), T.Tensor(np.ones((3, 1))))


def test_upper_triangle_of_cholesky_input_is_ignored():
    # only the lower triangle is read, so upper entries carry zero gradient
    rng = np.random.default_rng(14)
    b = rng.normal(size=(3, 3))
    a = b @ b.T + 3.0 * np.eye(3)
    w = rng.normal(size=(3, 3))
    t = T.Tensor(a, requires_grad=True)
    T.backward(_weighted_sum(T.cholesky(t), w))
    assert np.allclose(np.triu(t.grad, 1), 0.0)


def test_cholesky_nan_in_lower_triangle_raises_at_first_bad_row():
    # LAPACK's potrf stops only at a pivot <= 0, and NaN compares false
    a = np.array([[4.0, 0.0, 0.0], [np.nan, 4.0, 0.0], [0.0, 0.0, 4.0]])
    with pytest.raises(T.DecompositionError) as exc:
        T.cholesky(T.Tensor(a))
    assert exc.value.pivot == 1


def test_relu_keeps_nan_and_passes_it_no_gradient():
    t = T.Tensor([np.nan, -1.0, 0.0, 2.0], requires_grad=True)
    out = T.relu(t)
    np.testing.assert_array_equal(out.values, [np.nan, 0.0, 0.0, 2.0])
    T.backward(T.tsum(T.mul(out, T.Tensor([1.0, 1.0, 1.0, 3.0]))))
    np.testing.assert_array_equal(t.grad, [0.0, 0.0, 0.0, 3.0])


@pytest.mark.parametrize("x_shape", [(5, 4), (2, 3, 4)], ids=["2d", "3d"])
def test_linear_grads_fd_and_bits_of_matmul_plus_bias(x_shape):
    rng = np.random.default_rng(33)
    x, w, bias = rng.normal(size=x_shape), rng.normal(size=(4, 3)), rng.normal(size=3)
    probe = rng.normal(size=x_shape[:-1] + (3,))
    check_tensor_grad(lambda ts: _weighted_sum(T.linear(ts[0], ts[1], ts[2]), probe),
                      [x, w, bias], rtol=1e-6, label="linear")
    check_tensor_grad(lambda ts: _weighted_sum(T.linear(ts[0], ts[1]), probe),
                      [x, w], rtol=1e-6, label="linear without bias")
    if len(x_shape) == 2:       # a 2-D input runs exactly the unfused arithmetic
        fused = T.linear(T.Tensor(x), T.Tensor(w), T.Tensor(bias)).values
        np.testing.assert_array_equal(fused, x @ w + bias)


def test_linear_shape_errors():
    with pytest.raises(T.ShapeError):
        T.linear(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((4, 5))))
    with pytest.raises(T.ShapeError):
        T.linear(T.Tensor(np.zeros((2, 4))), T.Tensor(np.zeros((4, 5))), T.Tensor(np.zeros(4)))


# ---------------------------------------------------------------------------
# channel-last 1xW convolution and max-pool


def _conv_im2col_reference(x, weight, bias, kw):
    """Gathered (b, wo, C * kw) windows, channel-major then tap, times the
    weight: the layout ``weight`` rows are stored in."""
    b, w, c = x.shape
    wo = w - kw + 1
    idx = np.arange(wo)[:, None] + np.arange(kw)[None, :]
    windows = x.transpose(0, 2, 1)[:, :, idx]               # (b, c, wo, kw)
    windows = windows.transpose(0, 2, 1, 3).reshape(b, wo, c * kw)
    return windows @ weight + bias


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("extra_width", [0, 3])
@pytest.mark.parametrize("c_in", [1, 2])
@pytest.mark.parametrize("kw", [1, 2, 3])
def test_conv1xw_values_and_grads(kw, c_in, extra_width, batch):
    rng = np.random.default_rng(40 + 7 * kw + c_in)
    w = kw + extra_width
    x = rng.normal(size=(batch, w, c_in))
    weight = rng.normal(size=(c_in * kw, 4))
    bias = rng.normal(size=4)
    out = T.conv1xw(T.Tensor(x), T.Tensor(weight), T.Tensor(bias), kw)
    np.testing.assert_allclose(out.values, _conv_im2col_reference(x, weight, bias, kw),
                               rtol=1e-12, atol=1e-12)
    probe = rng.normal(size=out.shape)
    check_tensor_grad(lambda ts: _weighted_sum(T.conv1xw(ts[0], ts[1], ts[2], kw), probe),
                      [x, weight, bias], rtol=1e-6, label=f"conv1xw kw={kw}")


def test_conv1xw_shape_errors():
    x = T.Tensor(np.zeros((2, 3, 2)))
    with pytest.raises(T.ShapeError):
        T.conv1xw(x, T.Tensor(np.zeros((4, 5))), T.Tensor(np.zeros(5)), 4)   # width 3 < 4
    with pytest.raises(T.ShapeError):
        T.conv1xw(x, T.Tensor(np.zeros((3, 5))), T.Tensor(np.zeros(5)), 2)  # 3 != 2 * 2


def test_maxpool1xk_values_and_grad_fd():
    rng = np.random.default_rng(50)
    # distinct values keep every window's winner put under the FD nudge
    x = rng.permutation(np.arange(42.0)).reshape(2, 7, 3)
    out = T.maxpool1xk(T.Tensor(x), 3)
    np.testing.assert_array_equal(out.values, x[:, :6].reshape(2, 2, 3, 3).max(axis=2))
    probe = rng.normal(size=out.shape)
    check_tensor_grad(lambda ts: _weighted_sum(T.maxpool1xk(ts[0], 3), probe), [x],
                      rtol=1e-6, label="maxpool1xk")


def test_maxpool1xk_remainder_gets_no_gradient():
    x = T.Tensor(np.arange(1.0, 12.0).reshape(1, 11, 1), requires_grad=True)
    T.backward(T.tsum(T.maxpool1xk(x, 4)))      # windows [0, 4) and [4, 8)
    np.testing.assert_array_equal(x.grad[0, :, 0], [0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0])


def test_maxpool1xk_tie_routes_to_first_maximum():
    x = np.array([[[1.0, 5.0], [3.0, 5.0], [3.0, 2.0], [3.0, 5.0]]])   # (1, 4, 2)
    t = T.Tensor(x, requires_grad=True)
    out = T.maxpool1xk(t, 4)
    np.testing.assert_array_equal(out.values, [[[3.0, 5.0]]])
    T.backward(T.tsum(T.mul(out, T.Tensor([[[2.0, 7.0]]]))))
    np.testing.assert_array_equal(t.grad[0], [[0, 7], [2, 0], [0, 0], [0, 0]])


def test_maxpool1xk_shape_errors():
    with pytest.raises(T.ShapeError):
        T.maxpool1xk(T.Tensor(np.zeros((1, 3, 2))), 4)
    with pytest.raises(T.ShapeError):
        T.maxpool1xk(T.Tensor(np.zeros((1, 3))), 1)


def test_diagonal_values_and_grad_fd():
    rng = np.random.default_rng(51)
    x = rng.normal(size=(4, 4))
    np.testing.assert_array_equal(T.diagonal(T.Tensor(x)).values, np.diag(x))
    w = rng.normal(size=4)
    check_tensor_grad(lambda ts: _weighted_sum(T.diagonal(ts[0]), w), [x],
                      rtol=1e-6, label="diagonal")
    with pytest.raises(T.ShapeError):
        T.diagonal(T.Tensor(np.zeros((2, 3))))


# ---------------------------------------------------------------------------
# fused normalisation and attention


def _normalize_case(axis, given, rng):
    """Input, given stats (or None) and the plain-numpy normalisation of
    one case: (6, 4) over axis 0, (3, 5, 4) over the last axis."""
    x = rng.normal(loc=1.5, scale=2.0, size=(6, 4) if axis == 0 else (3, 5, 4))
    if given:
        stat_shape = (4,) if axis == 0 else (3, 5, 1)
        stats = (rng.normal(size=stat_shape), 0.5 + rng.random(stat_shape))
        mean, var = stats
    else:
        stats = None
        mean, var = x.mean(axis=axis, keepdims=True), x.var(axis=axis, keepdims=True)
    return x, stats, (x - mean) / np.sqrt(var + 1e-5)


@pytest.mark.parametrize("given", [False, True], ids=["batch_stats", "given_stats"])
@pytest.mark.parametrize("affine", [False, True], ids=["plain", "affine"])
@pytest.mark.parametrize("axis", [0, -1])
def test_normalize_values_and_grads_fd(axis, affine, given):
    rng = np.random.default_rng(60 + 4 * (axis == 0) + 2 * affine + given)
    x, stats, ref = _normalize_case(axis, given, rng)
    gamma, beta = rng.normal(size=4), rng.normal(size=4)
    arrays = [x, gamma, beta] if affine else [x]
    if affine:
        ref = ref * gamma + beta
    out, used = T.normalize(*[T.Tensor(a) for a in arrays[:1]], axis, 1e-5,
                            *[T.Tensor(a) for a in arrays[1:]], stats=stats)
    np.testing.assert_allclose(out.values, ref, rtol=1e-12, atol=1e-12)
    if given:
        assert used is stats
    else:
        np.testing.assert_allclose(used[0], x.mean(axis=axis), rtol=1e-12)
        np.testing.assert_allclose(used[1], x.var(axis=axis), rtol=1e-12)
    probe = rng.normal(size=x.shape)
    check_tensor_grad(
        lambda ts: _weighted_sum(T.normalize(ts[0], axis, 1e-5, *ts[1:], stats=stats)[0], probe),
        arrays, rtol=1e-5, label=f"normalize axis={axis}")


def test_normalize_in_place_off_the_tape_is_bit_equal_and_spares_its_input():
    rng = np.random.default_rng(70)
    x = rng.normal(size=(7, 5))
    keep = x.copy()
    gamma = T.Tensor(rng.normal(size=5), requires_grad=True)
    beta = T.Tensor(rng.normal(size=5), requires_grad=True)
    for stats in (None, (rng.normal(size=5), 1.0 + rng.random(5))):
        taped = T.normalize(T.Tensor(x), 0, 1e-5, gamma, beta, stats=stats)[0]
        assert T.tape_length() == 1
        with T.no_grad():
            free = T.normalize(T.Tensor(x), 0, 1e-5, gamma, beta, stats=stats)[0]
        assert T.tape_length() == 1
        np.testing.assert_array_equal(free.values, taped.values)
        T.reset_tape()
    np.testing.assert_array_equal(x, keep)


def test_normalize_errors():
    with pytest.raises(T.ShapeError):
        T.normalize(T.Tensor(np.ones((2, 3))), 2, 1e-5)
    with pytest.raises(T.DomainError):
        T.normalize(T.Tensor(np.ones((0, 3))), 0, 1e-5)


def _attention_reference(q, k, v, heads, mask=None, keep=1.0):
    """Per-head softmax(q k^T / sqrt(hd)) v with plain numpy loops; ``mask``
    is key-major, (t, b, heads, t)."""
    b, t, d = q.shape
    hd = d // heads
    out = np.empty_like(q)
    for i in range(b):
        for h in range(heads):
            cols = slice(h * hd, (h + 1) * hd)
            s = q[i, :, cols] @ k[i, :, cols].T / np.sqrt(hd)
            p = np.exp(s - s.max(axis=-1, keepdims=True))
            p /= p.sum(axis=-1, keepdims=True)
            if mask is not None:
                p = p * mask[:, i, h].T / keep
            out[i, :, cols] = p @ v[i, :, cols]
    return out


@pytest.mark.parametrize("block_rows", [64, 2], ids=["one_block", "blocks_of_2"])
@pytest.mark.parametrize("masked", [False, True], ids=["no_mask", "mask"])
@pytest.mark.parametrize("heads", [1, 4])
def test_attention_values_and_grads_fd(heads, masked, block_rows, monkeypatch):
    monkeypatch.setattr(T, "_ATTENTION_ROWS", block_rows)
    rng = np.random.default_rng(80 + heads + 10 * masked)
    b, t, d = 5, 3, 8
    q, k, v = (rng.normal(size=(b, t, d)) for _ in range(3))
    mask = rng.random((t, b, heads, t)) < 0.7 if masked else None
    out = T.attention(T.Tensor(q), T.Tensor(k), T.Tensor(v), heads, mask=mask, keep=0.7)
    np.testing.assert_allclose(out.values, _attention_reference(q, k, v, heads, mask, 0.7),
                               rtol=1e-12, atol=1e-12)
    probe = rng.normal(size=(b, t, d))
    check_tensor_grad(
        lambda ts: _weighted_sum(T.attention(*ts, heads, mask=mask, keep=0.7), probe),
        [q, k, v], rtol=1e-5, label=f"attention heads={heads}")


def test_attention_off_the_tape_is_bit_equal_across_blocks(monkeypatch):
    rng = np.random.default_rng(90)
    q, k, v = (T.Tensor(rng.normal(size=(70, 6, 8)), requires_grad=True) for _ in range(3))
    taped = T.attention(q, k, v, 2)
    with T.no_grad():
        free = T.attention(q, k, v, 2)
    monkeypatch.setattr(T, "_ATTENTION_ROWS", 1000)
    with T.no_grad():
        whole = T.attention(q, k, v, 2)
    np.testing.assert_array_equal(free.values, taped.values)
    np.testing.assert_array_equal(whole.values, taped.values)
    assert T.tape_length() == 1


def test_attention_shape_errors():
    x = T.Tensor(np.zeros((2, 3, 8)))
    with pytest.raises(T.ShapeError):
        T.attention(x, x, T.Tensor(np.zeros((2, 4, 8))), 2)
    with pytest.raises(T.ShapeError):
        T.attention(x, x, x, 3)
    with pytest.raises(T.ShapeError):
        T.attention(x, x, x, 2, mask=np.ones((2, 2, 3, 4), dtype=bool))


def _grads_with_and_without_input(run, arrays):
    """Gradients of ``run``'s weighted-sum loss with every input requiring a
    gradient, then with ``arrays[0]`` not requiring one; and what the op's
    backward rule returned for ``arrays[0]`` each time."""
    grads, rule_out = [], []
    for first in (True, False):
        T.reset_tape()
        ts = [T.Tensor(a, requires_grad=(first or i > 0)) for i, a in enumerate(arrays)]
        out = run(ts)
        rule_out.append(T._state.tape[0].backward_fn(np.ones(out.shape))[0])
        T.backward(_weighted_sum(out, np.random.default_rng(3).normal(size=out.shape)))
        grads.append([t.grad for t in ts])
    return grads, rule_out


@pytest.mark.parametrize("op", ["linear", "conv1xw", "normalize", "attention",
                                "add", "sub", "mul", "div"])
def test_skipped_input_gradient_leaves_the_other_gradients_bit_equal(op):
    rng = np.random.default_rng(95)
    runs = {
        "linear": (lambda ts: T.linear(*ts),
                   [rng.normal(size=(6, 4)), rng.normal(size=(4, 3)), rng.normal(size=3)]),
        "conv1xw": (lambda ts: T.conv1xw(*ts, 2),
                    [rng.normal(size=(3, 5, 2)), rng.normal(size=(4, 3)), rng.normal(size=3)]),
        "normalize": (lambda ts: T.normalize(ts[0], 0, 1e-5, *ts[1:])[0],
                      [rng.normal(size=(6, 4)), rng.normal(size=4), rng.normal(size=4)]),
        "attention": (lambda ts: T.attention(*ts, 2),
                      [rng.normal(size=(2, 3, 4)) for _ in range(3)]),
        **{name: (lambda ts, op=getattr(T, name): op(*ts),
                  [rng.normal(size=(6, 4)), rng.normal(size=4)])
           for name in ("add", "sub", "mul", "div")},
    }
    run, arrays = runs[op]
    (full, skipped), rule_out = _grads_with_and_without_input(run, arrays)
    assert full[0] is not None and skipped[0] is None
    assert rule_out[0] is not None and rule_out[1] is None    # not computed at all
    for got, ref in zip(skipped[1:], full[1:]):
        np.testing.assert_array_equal(got, ref)


def test_gelu_in_place_off_the_tape_is_bit_equal():
    x = T.Tensor(np.random.default_rng(96).normal(size=(4, 7)), requires_grad=True)
    keep = x.values.copy()
    taped = T.gelu(x)
    with T.no_grad():
        free = T.gelu(x)
    np.testing.assert_array_equal(taped.values, keep * (0.5 * (1.0 + T._erf(keep * (1.0 / np.sqrt(2.0))))))
    np.testing.assert_array_equal(free.values, taped.values)
    np.testing.assert_array_equal(x.values, keep)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_erf_is_odd_and_signed_as_its_input_bit_for_bit(dtype):
    z = np.concatenate([np.linspace(-10.0, 10.0, 20_001), [0.0, 1e-30, np.inf]]).astype(dtype)
    z = np.concatenate([z, -z])
    bits = f"u{z.itemsize}"
    out = T._erf(z.copy())
    assert out.dtype == dtype
    np.testing.assert_array_equal(T._erf(-z).view(bits), (-out).view(bits))
    np.testing.assert_array_equal(np.signbit(out), np.signbit(z))
    assert (np.abs(out) <= 1.0).all()
    assert np.isnan(T._erf(np.array([np.nan, -np.nan], dtype=dtype))).all()


@pytest.mark.parametrize("dtype, bound", [(np.float64, 3e-7), (np.float32, 6e-7)])
def test_gelu_is_within_its_bound_of_the_float64_scipy_gelu(dtype, bound):
    from scipy.special import erf
    # float32-exact points, so both dtypes see the same inputs
    x = np.linspace(-10.0, 10.0, 400_001).astype(np.float32).astype(np.float64)
    ref = 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))
    out = T.gelu(T.Tensor(x.astype(dtype))).values
    assert out.dtype == dtype
    assert np.abs(out.astype(np.float64) - ref).max() <= bound
