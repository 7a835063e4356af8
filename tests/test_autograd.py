import contextlib
import copy
import dataclasses
import inspect
import pathlib
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from bidrn import autograd, bench, binary, config, gradcheck, layers, ops, tensor, train, verify
from bidrn.autograd import Parameter, Var, as_var, no_tape
from bidrn.errors import ConfigError, ContractError, DimensionError, TrainingError
from bidrn.layers import (BlockResidualMode, ModuleKind, ModuleSpec, module_out_shape,
                          NetworkConfig, build_network)

REPO = pathlib.Path(__file__).resolve().parent.parent


class TestVar:
    def test_non_scalar_backward_rejected(self):
        v = Var(np.ones(3), requires_grad=True)
        with pytest.raises(ContractError):
            v.backward()

    def test_leaf_gradient_accumulates(self):
        p = Parameter(np.array([2.0, -1.0]))
        loss = ops.l1_loss(p, np.zeros(2))
        loss.backward()
        np.testing.assert_allclose(p.grad, [0.5, -0.5])
        loss2 = ops.l1_loss(p, np.zeros(2))
        loss2.backward()
        np.testing.assert_allclose(p.grad, [1.0, -1.0])

    def test_zero_grad(self):
        p = Parameter(np.array([1.0]))
        ops.l1_loss(p, np.zeros(1)).backward()
        assert p.grad is not None
        p.zero_grad()
        assert p.grad is None

    def test_detach_blocks_gradient(self):
        p = Parameter(np.array([3.0]))
        loss = ops.l1_loss(p.detach(), np.zeros(1))
        loss.backward()
        assert p.grad is None

    def test_shared_node_fan_out(self):
        # y = x + x: gradient through both paths sums to 2
        p = Parameter(np.array([1.0]))
        loss = ops.l1_loss(ops.add(p, p), np.zeros(1))
        loss.backward()
        np.testing.assert_allclose(p.grad, [2.0])

    def test_as_var_passthrough(self):
        v = Var(np.zeros(2))
        assert as_var(v) is v
        assert isinstance(as_var(np.zeros(2)), Var)

    def test_no_tape_drops_parents_and_backward(self):
        p = Parameter(np.array([3.0]))
        with no_tape():
            y = ops.add(p, p)
            inner = Parameter(np.array([1.0]))
        assert y._parents == () and y._backward is None and not y.requires_grad
        assert inner.requires_grad  # an explicit requires_grad is kept
        assert ops.add(p, p)._parents == (p, p)

    def test_node_without_a_grad_parent_records_nothing(self):
        """As under no_tape, but decided per node: no backward can reach it."""
        y = ops.hardtanh(Var(np.array([-0.5, 0.5])))
        assert y._parents == () and y._backward is None and not y.requires_grad
        p = Parameter(np.array([1.0, 1.0]))
        z = ops.add(y, p)
        assert z._parents == (y, p) and z._backward is not None and z.requires_grad
        ops.l1_loss(z, np.zeros(2)).backward()
        np.testing.assert_array_equal(p.grad, [0.5, 0.5])

    def test_no_tape_restores_state_on_raise(self):
        with pytest.raises(DimensionError):
            with no_tape():
                with no_tape():
                    pass
                assert not autograd._RECORDING  # nesting restores the outer state
                ops.add(np.zeros(2), np.zeros(3))
        assert autograd._RECORDING

    @staticmethod
    def two_losses():
        """Two losses on one shared node h = p + p; each alone gives p the
        gradient [1, 1], their sum [2, 2]."""
        p = Parameter(np.array([1.0, 1.0]))
        h = ops.add(p, p)
        return p, ops.l1_loss(h, np.zeros(2)), ops.l1_loss(h, np.zeros(2))

    def test_second_loss_on_a_spent_graph_raises(self):
        # without the check, h keeps l1's gradient and l2 brings p.grad to [3, 3]
        p, l1, l2 = self.two_losses()
        l1.backward()
        np.testing.assert_array_equal(p.grad, [1.0, 1.0])
        with pytest.raises(ContractError, match="graph already consumed"):
            l2.backward()
        np.testing.assert_array_equal(p.grad, [1.0, 1.0])

    def test_repeated_backward_raises(self):
        p, l1, _ = self.two_losses()
        l1.backward()
        with pytest.raises(ContractError, match="graph already consumed"):
            l1.backward()
        np.testing.assert_array_equal(p.grad, [1.0, 1.0])

    def test_summed_losses_give_the_joint_gradient(self):
        p, l1, l2 = self.two_losses()
        ops.add(l1, l2).backward()
        np.testing.assert_array_equal(p.grad, [2.0, 2.0])


class TestSliceConcat:
    def test_slice_out_of_range_raises(self):
        x = Var(np.zeros((2, 4)))
        with pytest.raises(DimensionError):
            ops.slice(x, 1, 2, 5)
        with pytest.raises(DimensionError):
            ops.slice(x, 1, 2, 2)

    def test_concat_shape_mismatch_raises(self):
        with pytest.raises(DimensionError):
            ops.concat([np.zeros((1, 2, 3)), np.zeros((1, 2, 4))], axis=1)

    def test_axis_out_of_range_raises(self):
        x = Var(np.zeros((2, 3, 4)))
        for axis in (3, -4):
            with pytest.raises(DimensionError):
                ops.slice(x, axis, 0, 1)
            with pytest.raises(DimensionError):
                ops.concat([x, x], axis=axis)

    def test_negative_axis_counts_from_the_last(self):
        """A negative axis names the same axis as in numpy, in the forward
        and in the gradients each part gets back."""
        x = Parameter(np.arange(24.0).reshape(2, 3, 4))
        y = ops.slice(x, -1, 1, 3)
        np.testing.assert_array_equal(y.data, x.data[..., 1:3])
        ops.l1_loss(y, y.data - 1.0).backward()  # d/dy = 1/12 everywhere
        want = np.zeros((2, 3, 4), dtype=np.float32)
        want[..., 1:3] = 1 / 12
        np.testing.assert_array_equal(x.grad, want)
        a, b = Parameter(np.ones((2, 3))), Parameter(np.ones((2, 2)))
        joined = ops.concat([a, b], axis=-1)
        assert joined.data.shape == (2, 5)
        step = np.where(np.arange(10).reshape(2, 5) % 3, 1.0, -1.0)
        ops.l1_loss(joined, joined.data - step).backward()  # d/d joined = step / 10
        g = (step / 10).astype(np.float32)
        np.testing.assert_array_equal(a.grad, g[:, :3])
        np.testing.assert_array_equal(b.grad, g[:, 3:])

    def test_slice_is_a_view(self):
        x = Var(np.arange(24.0).reshape(2, 3, 4))
        y = ops.slice(x, 1, 1, 3)
        assert np.shares_memory(y.data, x.data)
        np.testing.assert_array_equal(y.data, x.data[:, 1:3])

    def test_slice_concat_round_trip(self):
        p = Parameter(np.arange(12.0).reshape(1, 3, 4))
        parts = [ops.slice(p, 2, 0, 1), ops.slice(p, 2, 1, 4)]
        joined = ops.concat(parts, axis=2)
        np.testing.assert_array_equal(joined.data, p.data)
        ops.l1_loss(joined, np.full(p.data.shape, 100.0)).backward()
        np.testing.assert_allclose(p.grad, np.full(p.data.shape, -1 / 12))


class TestGradcheckCoverage:
    def test_every_op_builds_a_node_under_gradcheck(self, gradcheck_sweep):
        """Each op="..." name that ops.py declares is built by a node while
        gradcheck runs its rules, so no backward rule goes unchecked."""
        declared = set(re.findall(r'op="(\w+)"', inspect.getsource(ops)))
        _, built = gradcheck_sweep
        assert declared and declared <= built, sorted(declared - built)

    def test_check_params_differentiates_float64_copies(self):
        """Layers build float32; check_params hands its loss builder every
        Parameter as float64, on the analytic pass and each numeric one, and
        the gradients it compares are float64 too."""
        rng = np.random.default_rng(0)
        x = Parameter(rng.standard_normal((1, 2, 3, 3)))
        conv = binary.BinaryConv2dParams.create(2, 2, 3, padding=1, rng=rng)
        bn = tensor.BatchNormParams.create(2)
        params = {"x": x, "w": conv.latent_weights, "scale": bn.scale, "shift": bn.shift}
        assert {p.data.dtype for p in params.values()} == {np.dtype(np.float32)}
        seen = []

        def loss():
            seen.append({p.data.dtype for p in params.values()})
            y = ops.batch_norm(ops.binary_conv2d(x, conv), bn)
            return ops.l1_loss(y, np.ones(y.data.shape))

        assert gradcheck.check_params(loss, params) <= gradcheck.REL_TOL
        assert len(seen) == 1 + 2 * sum(p.data.size for p in params.values())
        assert all(dtypes == {np.dtype(np.float64)} for dtypes in seen)
        assert all(p.grad.dtype == np.float64 for p in params.values())
        assert bn.running_mean.dtype == bn.running_var.dtype == np.float32


class TestL1Loss:
    def test_zero_for_equal(self):
        x = np.arange(6, dtype=np.float32)
        assert ops.l1_loss(x, x).data == 0.0

    def test_hand_sum(self):
        assert ops.l1_loss(np.array([1.0, 2.0]), np.array([0.0, 0.0])).data == 1.5

    def test_matches_enumeration(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal(40).astype(np.float32)
        b = rng.standard_normal(40).astype(np.float32)
        want = sum(abs(float(x) - float(y)) for x, y in zip(a, b)) / 40
        assert abs(float(ops.l1_loss(a, b).data) - want) < 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ops.l1_loss(np.zeros(3), np.zeros(4))


def one_by_one_linear():
    """A 1-bit linear layer with one input, one output and latent weight 1,
    so alpha * sign(w) is 1 and its output is sign(x)."""
    return binary.BinaryLinearParams(latent_weights=Parameter(np.array([[1.0]])))


class TestSteNodes:
    def test_sign_backward_interior(self):
        # d/dx at 0.5 through the straight-through surrogate is 1.0
        p = Parameter(np.array([[0.5]]))
        out = ops.binary_linear(p, one_by_one_linear())
        assert out.data[0, 0] == 1.0
        ops.l1_loss(out, np.full((1, 1), 5.0)).backward()
        # l1 slope is -1 here, alpha * sign(w) is 1, surrogate slope 2-2x = 1
        np.testing.assert_allclose(p.grad, [[-1.0]])

    def test_sign_backward_saturated(self):
        p = Parameter(np.array([[2.0]]))
        ops.l1_loss(ops.binary_linear(p, one_by_one_linear()), np.full((1, 1), 5.0)).backward()
        np.testing.assert_allclose(p.grad, [[0.0]])

    def test_hardtanh_clamps_gradient(self):
        p = Parameter(np.array([2.0, 0.3]))
        ops.l1_loss(ops.hardtanh(p), np.full(2, 5.0)).backward()
        np.testing.assert_allclose(p.grad, [0.0, -0.5])


class TestPReLU:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_slope_in_input_dtype(self, dtype):
        """Forward and backward use the fixed slope 0.25 in x's dtype: the
        gradient is the adjoint g * where(x > 0, 1, 0.25) computed in that
        dtype."""
        rng = np.random.default_rng(0)
        x = Parameter(rng.standard_normal((2, 3, 8, 16)))
        x.data = x.data.astype(dtype)
        x.data[0, 0, 0, :3] = [0.0, -0.0, 1e-30]
        g = rng.standard_normal(x.data.shape).astype(dtype)
        slope = dtype(0.25)
        y = ops.prelu(x)
        assert y.data.dtype == dtype
        np.testing.assert_array_equal(y.data, np.where(x.data > 0, x.data, slope * x.data))
        y._backward(g)
        want = g * np.where(x.data > 0, 1, slope)
        assert x.grad.dtype == want.dtype == dtype
        np.testing.assert_array_equal(x.grad, want)


def explicit_cols_grads(x, p, g):
    """binary_conv2d's gradients as one fused formula, with signs and the STE
    factor taken over the whole im2col matrix."""
    w_mat = tensor.weight_matrix(p.latent_weights.data)
    k = p.kernel
    _, acc, _ = binary.binary_conv2d_packed(x, p)
    cols = tensor.im2col(x, k, k, p.stride, p.padding)
    a_val = binary.sign_forward(cols)
    w_val = binary.sign_forward(w_mat)
    g_mat = g.transpose(0, 2, 3, 1).reshape(-1, p.out_channels)
    ds = g_mat * p.alpha[None, :]
    dw = (ds.T @ a_val) * binary.ste_grad(w_mat)
    dalpha = (g_mat * np.asarray(acc, dtype=g.dtype)).sum(axis=0)
    dw += dalpha[:, None] * np.sign(w_mat) / p.fan_in
    dcols = (ds @ w_val) * binary.ste_grad(cols)
    dx = tensor.col2im(dcols.T, x.shape, k, k, p.stride, p.padding)
    return dx, tensor.matrix_to_weight(dw, p.latent_weights.data.shape)


def gathered_cols_grads(x, p, g):
    """binary_conv2d's gradients in the op's own rounding order, from a float
    im2col of sign(x) padded with +1, the sign of 0."""
    w = p.latent_weights.data
    k = p.kernel
    cols = tensor.im2col(binary.sign_forward(x), k, k, p.stride, p.padding, pad_value=1.0)
    w_sign = binary.sign_forward(w)
    alpha = p.alpha[:, None, None, None]
    wq = w_sign * alpha
    g_t = g.transpose(1, 0, 2, 3).reshape(p.out_channels, -1)
    dwq = tensor.matrix_to_weight(g_t @ cols, w.shape)
    ds = tensor.col2im(tensor.weight_matrix(wq).T @ g_t, x.shape, k, k, p.stride, p.padding)
    dalpha = (dwq * w_sign).sum(axis=(1, 2, 3), keepdims=True)
    dw = dwq * alpha * binary.ste_grad(w) + dalpha * np.sign(w) / p.fan_in
    return ds * binary.ste_grad(x), dw


def explicit_deconv_grads(x, p, g):
    """binary_deconv2d's gradients as one fused formula over the weight matrix."""
    c_in, c_out, k, _ = p.latent_weights.data.shape
    w_mat = tensor.weight_matrix(p.latent_weights.data)  # (c_in, k*k*c_out)
    alpha_cols = np.tile(p.alpha, k * k)[None, :]
    x_mat = binary.sign_forward(x).transpose(0, 2, 3, 1).reshape(-1, c_in)
    g_cols = tensor.im2col(g, k, k, p.stride, p.padding)
    g_ws = x_mat.T @ g_cols
    dalpha = (g_ws * binary.sign_forward(w_mat)).reshape(c_in, k * k, c_out).sum(axis=(0, 1))
    dw = g_ws * alpha_cols * binary.ste_grad(w_mat) \
        + np.tile(dalpha, k * k)[None, :] * np.sign(w_mat) / p.fan_in
    dx_mat = g_cols @ (binary.sign_forward(w_mat) * alpha_cols).T
    n, _, h, wd = x.shape
    dx = dx_mat.reshape(n, h, wd, c_in).transpose(0, 3, 1, 2) * binary.ste_grad(x)
    return dx, tensor.matrix_to_weight(dw, p.latent_weights.data.shape)


def explicit_linear_grads(x, p, g):
    """binary_linear's gradients as one fused formula."""
    w = p.latent_weights.data
    xs, ws = binary.sign_forward(x), binary.sign_forward(w)
    ds = g * p.alpha[None, :]
    dalpha = (g * (xs @ ws.T)).sum(axis=0)
    dw = (ds.T @ xs) * binary.ste_grad(w) + dalpha[:, None] * np.sign(w) / p.fan_in
    return (ds @ ws) * binary.ste_grad(x), dw


def assert_close_to_scale(got, want):
    """Agreement within 1e-6 of the largest |value|: the composed layers
    round in another order than the fused formulas."""
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-6 * np.abs(want).max())


def l1_grad(y, target):
    """The gradient l1_loss hands to y."""
    return (np.sign(y.data - target) * (1.0 / y.data.size)).astype(np.float32)


class TestBinaryConvOps:
    @pytest.mark.parametrize("stride", [1, 2])
    def test_conv_grads_match_explicit_cols(self, stride):
        rng = np.random.default_rng(stride)
        x = (1.5 * rng.standard_normal((2, 3, 7, 7))).astype(np.float32)
        x[0, 0, 0, :4] = [0.0, 1.0, -1.0, 2.5]
        x[1, 2, 3, :3] = [-0.0, -3.0, 0.0]
        p = binary.BinaryConv2dParams.create(4, 3, 3, stride=stride, padding=1, rng=rng)
        p.latent_weights.data.flat[:3] = [0.0, 1.0, -1.0]
        target = rng.standard_normal((2, 4, *([7 if stride == 1 else 4] * 2)))
        xv = Var(x, requires_grad=True)
        y = ops.binary_conv2d(xv, p)
        ops.l1_loss(y, target).backward()
        dx, dw = explicit_cols_grads(x, p, l1_grad(y, target))
        assert_close_to_scale(xv.grad, dx)
        assert_close_to_scale(p.latent_weights.grad, dw)

    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("c_in", [3, 64, 128])
    def test_conv_grads_from_packed_rows(self, monkeypatch, c_in, stride, padding):
        """The backward reads the forward's packed sign rows, on the byte path
        (C_in 3) and the word path (64, 128): it gathers nothing with
        tensor.im2col, its gradients equal bit for bit those built from a
        float gather of the signs, and agree with the fused formula."""
        rng = np.random.default_rng(c_in + 10 * stride + padding)
        x = (1.5 * rng.standard_normal((2, c_in, 7, 7))).astype(np.float32)
        x[0, 0, 0, :4] = [0.0, 1.0, -1.0, 2.5]
        x[1, 2, 3, :3] = [-0.0, -3.0, 0.0]
        p = binary.BinaryConv2dParams.create(4, c_in, 3, stride=stride, padding=padding,
                                             rng=rng)
        p.latent_weights.data.flat[:3] = [0.0, 1.0, -1.0]
        xv = Var(x, requires_grad=True)
        y = ops.binary_conv2d(xv, p)
        target = rng.standard_normal(y.data.shape)
        loss = ops.l1_loss(y, target)
        gathers, real = [], tensor.im2col

        def counting(*args, **kwargs):
            gathers.append(args[0].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(tensor, "im2col", counting)
        loss.backward()
        monkeypatch.undo()
        assert gathers == []
        dx, dw = gathered_cols_grads(x, p, l1_grad(y, target))
        assert xv.grad.tobytes() == dx.tobytes()
        assert p.latent_weights.grad.tobytes() == dw.tobytes()
        dx, dw = explicit_cols_grads(x, p, l1_grad(y, target))
        assert_close_to_scale(xv.grad, dx)
        assert_close_to_scale(p.latent_weights.grad, dw)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1)])
    def test_deconv_grads_match_explicit_formula(self, stride, padding):
        rng = np.random.default_rng(30 + stride)
        x = (1.5 * rng.standard_normal((2, 3, 5, 5))).astype(np.float32)
        x[0, 0, 0, :4] = [0.0, 1.0, -1.0, 2.5]
        p = binary.BinaryConv2dParams.create(4, 3, 4, stride=stride, padding=padding,
                                             rng=rng, transposed=True)
        p.latent_weights.data.flat[:3] = [0.0, 1.0, -1.0]
        xv = Var(x, requires_grad=True)
        y = ops.binary_deconv2d(xv, p)
        target = rng.standard_normal(y.data.shape)
        ops.l1_loss(y, target).backward()
        dx, dw = explicit_deconv_grads(x, p, l1_grad(y, target))
        assert_close_to_scale(xv.grad, dx)
        assert_close_to_scale(p.latent_weights.grad, dw)

    def test_linear_grads_match_explicit_formula(self):
        rng = np.random.default_rng(40)
        x = (1.5 * rng.standard_normal((6, 9))).astype(np.float32)
        x[0, :4] = [0.0, 1.0, -1.0, 2.5]
        p = binary.BinaryLinearParams.create(5, 9, rng)
        p.latent_weights.data.flat[:3] = [0.0, 1.0, -1.0]
        xv = Var(x, requires_grad=True)
        y = ops.binary_linear(xv, p)
        target = rng.standard_normal(y.data.shape)
        ops.l1_loss(y, target).backward()
        dx, dw = explicit_linear_grads(x, p, l1_grad(y, target))
        assert_close_to_scale(xv.grad, dx)
        assert_close_to_scale(p.latent_weights.grad, dw)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_linear_is_alpha_times_exact_sign_sum(self, dtype):
        """Every output is alpha times the exact ±1 sum sign(x) @ sign(w).T,
        so an output whose sum is 0 is exactly 0 and a following sign reads +1."""
        rng = np.random.default_rng(41)
        x = rng.standard_normal((4096, 8)).astype(dtype)
        x[0, :3] = [0.0, -0.0, 1.0]
        p = binary.BinaryLinearParams.create(8, 8, rng)
        p.latent_weights.data = p.latent_weights.data.astype(dtype)
        p.latent_weights.data[0, :2] = [0.0, -0.0]
        sums = binary.sign_forward(x) @ binary.sign_forward(p.latent_weights.data).T
        y = ops.binary_linear(x, p)
        assert y.op == "binary_linear" and y.data.dtype == dtype
        zero = sums == 0
        assert zero.sum() > 1000
        assert np.all(y.data[zero] == 0)
        assert y.data.tobytes() == (sums * p.alpha[None, :]).tobytes()

    def test_benchmark_hooks(self, monkeypatch):
        """perfbench names the forward span by the returned node's op label
        and records every packed conv by replacing the module attribute
        binary.binary_conv2d_packed, whose (output, accumulator, rows) it reads."""
        calls = []
        real = binary.binary_conv2d_packed

        def recording(x, p):
            out = real(x, p)
            calls.append(out)
            return out

        monkeypatch.setattr(binary, "binary_conv2d_packed", recording)
        x = np.random.default_rng(0).standard_normal((2, 3, 6, 6)).astype(np.float32)
        p = binary.BinaryConv2dParams.create(4, 3, 3, stride=2, padding=1)
        y = ops.binary_conv2d(x, p)
        assert y.op == "binary_conv2d"
        assert len(calls) == 1
        out, acc, _ = calls[0]
        assert out.tobytes() == y.data.tobytes()
        assert acc.dtype.kind == "i" and acc.shape == (2 * 3 * 3, 4)

    def test_packed_backward_binarizes_as_the_forward_did(self):
        """A backward run under smooth_mode still differentiates the packed
        forward's sign(w), not F(w)."""
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 3, 6, 6)).astype(np.float32)
        p = binary.BinaryConv2dParams.create(4, 3, 3, padding=1, rng=rng)
        grads = []
        for backward_mode in (contextlib.nullcontext, ops.smooth_mode):
            p.latent_weights.zero_grad()
            xv = Var(x, requires_grad=True)
            loss = ops.l1_loss(ops.binary_conv2d(xv, p), np.zeros((2, 4, 6, 6)))
            with backward_mode():
                loss.backward()
            grads.append((xv.grad, p.latent_weights.grad))
        for got, want in zip(grads[1], grads[0]):
            assert got.tobytes() == want.tobytes()

    def test_eval_forward_signs_no_cols_sized_array(self, monkeypatch):
        sizes = []
        real = binary.sign_forward

        def counting(a):
            sizes.append(np.size(a))
            return real(a)

        monkeypatch.setattr(binary, "sign_forward", counting)
        x = np.random.default_rng(0).standard_normal((2, 3, 8, 8)).astype(np.float32)
        p = binary.BinaryConv2dParams.create(4, 3, 3, padding=1)
        ops.binary_conv2d(x, p)
        cols_size = 2 * 8 * 8 * 3 * 3 * 3
        assert all(size < cols_size for size in sizes), sizes

    def test_float_conv_forward_gathers_once(self, monkeypatch):
        calls = []
        real = tensor.im2col

        def counting(*args, **kwargs):
            calls.append(args[1:])
            return real(*args, **kwargs)

        monkeypatch.setattr(tensor, "im2col", counting)
        rng = np.random.default_rng(0)
        x = Var(rng.standard_normal((2, 3, 6, 6)).astype(np.float32), requires_grad=True)
        w = Parameter(rng.standard_normal((4, 3, 3, 3)).astype(np.float32))
        y = ops.conv2d(x, w, stride=2, padding=1)
        assert len(calls) == 1
        ops.l1_loss(y, np.zeros_like(y.data)).backward()
        assert len(calls) == 1  # the backward reads the forward's window matrix

    def test_train_step_gathers_only_in_the_forward(self, monkeypatch):
        """A full-bidrb train_toy step gathers 11 times, all outside the
        backward: five im2col calls, for the float shortcuts, and one
        tap-major row build for each of the six 1-bit convs, whose C_in is
        not a multiple of 64. The four 1x1 float shortcuts' backwards read
        their forwards' window matrices, where they once gathered again (17
        per step), and the two-branch fusion_up and down_sample gather once
        per module, not once per branch (13)."""
        gathers = {"forward": [], "backward": []}
        phase = ["forward"]
        real_im2col, real_rows = tensor.im2col, binary._packed_sign_rows
        real_backward = Var.backward

        def counting(real):
            def gather(*args, **kwargs):
                gathers[phase[0]].append(real.__name__)
                return real(*args, **kwargs)
            return gather

        def backward(var):
            phase[0] = "backward"
            try:
                return real_backward(var)
            finally:
                phase[0] = "forward"

        monkeypatch.setattr(tensor, "im2col", counting(real_im2col))
        monkeypatch.setattr(binary, "_packed_sign_rows", counting(real_rows))
        monkeypatch.setattr(Var, "backward", backward)
        steps = 3
        train.train_toy(config.preset_config("full-bidrb"), steps=steps, seed=7)
        assert Counter(gathers["forward"]) == {"im2col": 5 * steps,
                                               "_packed_sign_rows": 6 * steps}
        assert gathers["backward"] == []


def random_batch_norm(channels, rng):
    """BatchNorm state with non-trivial statistics and affine parameters."""
    p = tensor.BatchNormParams.create(channels)
    p.running_mean[:] = 0.3 * rng.standard_normal(channels)
    p.running_var[:] = rng.uniform(0.5, 2.0, channels)
    p.scale.data[:] = rng.uniform(0.5, 1.5, channels)
    p.shift.data[:] = 0.3 * rng.standard_normal(channels)
    return p


def unfolded_eval(x, p):
    """(x - mean) * inv_std * scale + shift with the running statistics."""
    inv_std = 1.0 / np.sqrt(p.running_var + p.eps)
    xhat = (x - p.running_mean[:, None, None]) * inv_std[:, None, None]
    return p.scale.data[:, None, None] * xhat + p.shift.data[:, None, None], xhat, inv_std


BN_SHAPES = [(8, 64, 8, 8), (2, 3, 5, 7), (4, 16, 1, 1)]


class TestBatchNorm:
    @pytest.mark.parametrize("shape", BN_SHAPES)
    def test_eval_affine_within_rounding_of_unfolded(self, shape):
        rng = np.random.default_rng(sum(shape))
        p = random_batch_norm(shape[1], rng)
        x = rng.standard_normal(shape).astype(np.float32)
        y = ops.batch_norm(x, p, training=False)
        want, _, _ = unfolded_eval(x, p)
        assert y.data.dtype == np.float32 and y.data.shape == shape
        np.testing.assert_allclose(y.data, want, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("shape", BN_SHAPES)
    def test_training_output_and_buffers_match_unfolded_bitwise(self, shape):
        rng = np.random.default_rng(sum(shape) + 1)
        p = random_batch_norm(shape[1], rng)
        x = (2 * rng.standard_normal(shape) + 0.5).astype(np.float32)
        m = p.momentum
        want_mean = (1 - m) * p.running_mean + m * x.mean(axis=(0, 2, 3))
        want_var = (1 - m) * p.running_var + m * x.var(axis=(0, 2, 3))
        y = ops.batch_norm(x, p, training=True)
        assert p.running_mean.tobytes() == want_mean.tobytes()
        assert p.running_var.tobytes() == want_var.tobytes()
        inv_std = 1.0 / np.sqrt(x.var(axis=(0, 2, 3)) + p.eps)
        xhat = (x - x.mean(axis=(0, 2, 3))[:, None, None]) * inv_std[:, None, None]
        want = p.scale.data[:, None, None] * xhat + p.shift.data[:, None, None]
        assert y.data.dtype == want.dtype and y.data.tobytes() == want.tobytes()

    def test_training_forward_ignores_running_buffers(self):
        """Two training forwards of one batch agree bit for bit, although the
        first one updated every running buffer that the second could read."""
        net = build_network(config.preset_config("full-bidrb"))
        x = np.random.default_rng(3).standard_normal((4, 3, 32, 32)).astype(np.float32)
        first = net.forward(x, training=True).data
        second = net.forward(x, training=True).data
        assert first.tobytes() == second.tobytes()

    @pytest.mark.parametrize("shape", BN_SHAPES)
    def test_eval_backward_matches_rules_bitwise(self, shape):
        rng = np.random.default_rng(sum(shape) + 2)
        p = random_batch_norm(shape[1], rng)
        x = Var(rng.standard_normal(shape).astype(np.float32), requires_grad=True)
        g = rng.standard_normal(shape).astype(np.float32)
        y = ops.batch_norm(x, p, training=False)
        y._backward(g)
        _, xhat, inv_std = unfolded_eval(x.data, p)
        assert p.scale.grad.tobytes() == (g * xhat).sum(axis=(0, 2, 3)).tobytes()
        assert p.shift.grad.tobytes() == g.sum(axis=(0, 2, 3)).tobytes()
        assert x.grad.tobytes() == (g * (p.scale.data * inv_std)[:, None, None]).tobytes()


class TestRankFourInputs:
    """The NCHW ops and the network raise DimensionError on an input of any
    other rank, also on one whose axis 1 matches the channel count, which
    would otherwise broadcast against the per-channel parameters."""

    SHAPES = [(2, 3), (2, 3, 4), (1, 3, 2, 4, 4)]

    @pytest.mark.parametrize("training", [False, True])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_batch_norm(self, shape, training):
        p = tensor.BatchNormParams.create(3)
        with pytest.raises(DimensionError, match="NCHW"):
            ops.batch_norm(np.ones(shape, np.float32), p, training)
        assert np.all(p.running_mean == 0) and np.all(p.running_var == 1)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_rprelu(self, shape):
        with pytest.raises(DimensionError, match="NCHW"):
            ops.rprelu(np.ones(shape, np.float32), layers.RPReLUParams.create(3))

    @pytest.mark.parametrize("shape", SHAPES[1:])
    def test_global_avg_pool(self, shape):
        with pytest.raises(DimensionError, match="rank-4"):
            ops.global_avg_pool(np.ones(shape, np.float32))

    @pytest.mark.parametrize("training", [False, True])
    @pytest.mark.parametrize("extra", [(), (1, 1)])
    def test_network_forward(self, extra, training):
        cfg = config.preset_config("full-bidrb")
        net = build_network(cfg)
        x = np.ones((*extra, *cfg.input_shape), np.float32)
        with pytest.raises(DimensionError, match="network input must be rank-4"):
            net.forward(x, training)
        assert autograd._RECORDING


class TestMatrixAndVolumeInputs:
    """linear and binary_linear take (N, F) rows and soft_argmax an
    (N, J, D, H, W) volume; any other shape raises DimensionError, where a
    rank-3 input once broadcast through the matmul into a rank-3 output."""

    SHAPES = [(6,), (2, 3, 6), (2, 5)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_linear(self, shape):
        with pytest.raises(DimensionError, match="linear over 6 features"):
            ops.linear(np.ones(shape, np.float32), np.ones((4, 6), np.float32),
                       np.ones(4, np.float32))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_binary_linear(self, shape):
        with pytest.raises(DimensionError, match="binary_linear over 6 features"):
            ops.binary_linear(np.ones(shape, np.float32), binary.BinaryLinearParams.create(4, 6))

    @pytest.mark.parametrize("shape", [(1, 2, 4, 4), (1, 2, 1, 4, 4, 1)])
    def test_soft_argmax(self, shape):
        with pytest.raises(DimensionError, match="rank-5"):
            ops.soft_argmax(np.ones(shape, np.float32))


class TestEvalForwardWork:
    """An eval forward packs each 1-bit conv's weights inside the packed
    kernel only: it never builds alpha * sign(w), and reads alpha once per
    packed call. The branches of a fan-out module share one call."""

    @pytest.mark.parametrize("cfg, calls", [
        (config.preset_config("full-bidrb"), 6),
        (config.load_config(REPO / "configs" / "bin1x1-ds4.json"), 9),
    ], ids=["full-bidrb", "bin1x1-ds4"])
    def test_weight_work_per_conv(self, monkeypatch, cfg, calls):
        net = build_network(cfg)
        counts = {"binarize_weights": 0, "alpha": 0, "packed": 0}
        real_binarize, real_packed = binary.binarize_weights, binary.binary_conv2d_packed
        real_alpha = binary.BinaryConv2dParams.alpha.fget

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(binary, "binarize_weights", counted("binarize_weights", real_binarize))
        monkeypatch.setattr(binary, "binary_conv2d_packed", counted("packed", real_packed))
        monkeypatch.setattr(binary.BinaryConv2dParams, "alpha",
                            property(counted("alpha", real_alpha)))
        x = np.random.default_rng(0).standard_normal((2, *cfg.input_shape)).astype(np.float32)
        net.forward(x, training=False)
        assert counts == {"binarize_weights": 0, "alpha": calls, "packed": calls}


class TestEvalForwardRecordsNoTape:
    """An eval forward whose input needs no gradient builds no tape; one whose
    input is a Parameter, as gradcheck differentiates it, records as before."""

    @pytest.mark.parametrize("cfg", [
        config.preset_config("full-bidrb"),
        config.load_config(REPO / "configs" / "bin1x1-ds4.json"),
    ], ids=["full-bidrb", "bin1x1-ds4"])
    def test_output_has_no_parents_and_equals_recorded(self, cfg):
        net = build_network(cfg)
        x = np.random.default_rng(3).standard_normal((2, *cfg.input_shape)).astype(np.float32)
        y = net.forward(x, training=False)
        assert y._parents == () and y._backward is None and not y.requires_grad
        xp = Parameter(x)
        recorded = net.forward(xp, training=False)
        assert recorded._parents and recorded.requires_grad
        assert y.data.dtype == recorded.data.dtype
        assert y.data.tobytes() == recorded.data.tobytes()
        ops.l1_loss(recorded, np.zeros_like(recorded.data)).backward()
        assert xp.grad is not None

    def test_forward_memory_peak(self):
        """One batch-8 forward of the infer-wide network peaks under 12 MB of
        traced allocations (4.9 MB measured); recording the tape keeps every
        intermediate alive until the forward returns, a 28.6 MB peak."""
        net = build_network(bench.wide_config(0))
        x = np.random.default_rng(0).standard_normal((8, 64, 16, 16)).astype(np.float32)
        net.forward(x, training=False)
        tracemalloc.start()
        try:
            net.forward(x, training=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6

    def test_failed_eval_forward_leaves_recording_on(self):
        cfg = config.preset_config("full-bidrb")
        net = build_network(cfg)
        c, h, w = cfg.input_shape
        with pytest.raises(DimensionError):
            net.forward(np.zeros((2, c + 1, h, w), np.float32), training=False)
        assert autograd._RECORDING
        x = np.random.default_rng(4).standard_normal((2, c, h, w)).astype(np.float32)
        pred = net.forward(x, training=True)
        ops.l1_loss(pred, np.zeros_like(pred.data)).backward()
        assert all(p.grad is not None for p in net.named_parameters().values())


class TestTrainingBackwardFreesTheTape:
    @staticmethod
    def full_bidrb_step_loss():
        """A callable that runs the forward of one ``train_toy`` step on the
        full-bidrb preset at seed 7 and batch 8 and returns its summed loss."""
        cfg = dataclasses.replace(config.preset_config("full-bidrb"),
                                  head_out=sum(train.SEGMENTS.values()))
        net = build_network(cfg)
        task = train.make_synthetic_task(7)
        x, target = task.sample(8)

        def loss():
            losses = train.segment_losses(net.forward(x, training=True), target)
            return ops.add(ops.add(losses["param"], losses["joint"]), losses["box"])
        return loss

    def test_training_backward_peak_stays_near_the_tape(self):
        """Inside backward() the traced peak stays within 1.25x of the bytes
        held when the forward returns (1.21x, and 1.10x of a tape that also
        kept each 1-bit conv's ±1 input and BatchNorm's x_hat); keeping every
        node's gradient and closure to the end made it 2.09x."""
        loss = self.full_bidrb_step_loss()
        loss().backward()  # first-call allocations stay out of the figures
        tracemalloc.start()
        try:
            total = loss()
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            total.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * held

    def test_training_backward_spends_every_node(self):
        """Every non-leaf node that the backward reaches, that is every one
        on a path of requires_grad nodes, ends with no gradient or closure."""
        loss = self.full_bidrb_step_loss()
        total = loss()
        nodes, stack, seen = [], [total], set()
        while stack:
            node = stack.pop()
            if id(node) in seen or not node._parents:
                continue
            seen.add(id(node))
            nodes.append(node)
            stack.extend(p for p in node._parents if p.requires_grad)
        assert len(nodes) > 50
        total.backward()
        assert all(n.grad is None and n._backward is None for n in nodes)

    def test_no_node_keeps_a_closure_the_backward_never_runs(self):
        """Every node of the step's graph, reached through all parents and
        not only those that require a gradient, ends with no closure: the
        first module's hardtanh and sign on the network input record none."""
        total = self.full_bidrb_step_loss()()
        nodes, stack, seen = [], [total], set()
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
        unreached = [n.op for n in nodes if n._backward is not None and not n.requires_grad]
        assert unreached == []
        total.backward()
        assert [n.op for n in nodes if n._backward is not None] == []

    # Bytes per op that the full-bidrb step's tape holds when its forward
    # returns, at seed 7 and batch 8: node outputs plus the arrays their
    # closures keep, each buffer once, at the size of the array that owns it.
    # The 1-bit conv keeps no float copy of its input and BatchNorm no x_hat;
    # with both it was 3.87 MB on 76 nodes, and is 3.04 MB on 71.
    TAPE_BYTES = {
        "add": 626_696, "avg_pool": 110_592, "batch_norm": 553_320,
        "binary_conv2d": 446_904, "concat": 210_192, "conv2d": 485_376, "gap": 192,
        "hardtanh": 282_624, "l1_loss": 460, "linear": 448, "rprelu": 319_608,
    }

    @staticmethod
    def tape_bytes(total):
        """(nodes, bytes per op, closure arrays per op) of the tape behind
        ``total``. A buffer counts once, for the first node in forward order
        whose output or closure holds it or a view of it; leaves count
        nothing."""
        def arrays(obj):
            if isinstance(obj, np.ndarray):
                yield obj
            elif isinstance(obj, binary.PackedBits):
                yield obj.words
            elif isinstance(obj, (tuple, list)):
                for item in obj:
                    yield from arrays(item)

        def kept(node):
            for cell in node._backward.__closure__ or ():
                with contextlib.suppress(ValueError):  # a name the op never bound
                    yield from arrays(cell.cell_contents)

        def owner(a):
            while isinstance(a.base, np.ndarray):
                a = a.base
            return a

        order, stack, seen = [], [(total, False)], set()  # parents before children
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
            elif id(node) not in seen and node._parents:
                seen.add(id(node))
                stack.append((node, True))
                stack.extend((p, False) for p in node._parents)
        per_op, closure, counted = Counter(), {}, set()
        for node in order:
            arrs = list(kept(node))
            closure.setdefault(node.op, []).extend(arrs)
            for buf in map(owner, [node.data, *arrs]):
                if id(buf) not in counted:
                    counted.add(id(buf))
                    per_op[node.op] += buf.nbytes
        return len(order), per_op, closure

    def test_tape_keeps_no_more_bytes_per_op(self):
        """No op's bytes on the step's tape rise above TAPE_BYTES, and no op
        appears that it lacks. No sign node is on the tape, since the 1-bit
        conv signs its input itself, and every array a BatchNorm keeps is one
        value per channel."""
        total = self.full_bidrb_step_loss()()
        nodes, per_op, closure = self.tape_bytes(total)
        assert nodes == 71
        assert {op: n for op, n in per_op.items() if n > self.TAPE_BYTES.get(op, 0)} == {}
        assert "sign" not in per_op
        assert all(a.ndim == 1 for a in closure["batch_norm"])


def modules_with_inputs(cfg):
    """(spec, module, per-sample input shape) of each block's module, in order."""
    net = build_network(cfg)
    shape, out = tuple(cfg.input_shape), []
    for (spec, _), block in zip(cfg.blocks, net.blocks):
        out.append((spec, block.modules[0], shape))
        shape = module_out_shape(spec, shape)
    return out


def branch_by_branch(mod, x, training):
    """A concatenating module's forward with one lcr_forward per branch."""
    assert mod.plan.combine == "concat" and mod.out_bn is not None
    out = ops.concat([layers.lcr_forward(x, layer, "hardtanh", training)
                      for layer in mod.branches])
    return ops.batch_norm(out, mod.out_bn, training)


def module_state(mod):
    """Every Parameter and buffer of a module, by name."""
    d = {}
    for j, lcr in enumerate(mod.branches):
        for name, component in lcr.layers(f"{j}."):
            d.update(component.state(name))
    d.update(mod.out_bn.state("out_bn"))
    return d


def float64_copy(mod):
    """A deep copy of a module whose Parameters are float64; its buffers stay
    float32, which a training forward writes but does not read."""
    ref = copy.deepcopy(mod)
    for v in module_state(ref).values():
        if isinstance(v, Parameter):
            v.data = v.data.astype(np.float64)
    return ref


def count_ops(monkeypatch, names):
    """Counts the calls of each function ``ops.<name>``, also where
    ops.PREACT holds it; returns the live count dict."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(ops, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(ops, name, counted)
        for key, fn in list(ops.PREACT.items()):
            if fn is real:
                monkeypatch.setitem(ops.PREACT, key, counted)
    return counts


# The largest error of a float32 gradient against the float64 reference, as a
# share of the module's largest |gradient|. The zeta and per-branch BatchNorm
# shift gradients vanish in exact arithmetic, and the per-branch scale
# gradients nearly so, because a training-mode BatchNorm follows each; so
# every gradient is compared on the module's scale, not its own. The worst
# error measured is 2e-7 of that scale.
FANOUT_GRAD_TOL = 1e-5


class TestFanoutPackedConv:
    """A module whose branches all read its input builds one preactivation
    and one binary_conv2d node, which runs one packed conv over its
    branches' weights joined along C_out by ops.concat, however wide they
    are. Its eval and training outputs equal the branch-by-branch forward bit
    for bit; its gradients, summed in another order, agree with a float64
    branch-by-branch backward within FANOUT_GRAD_TOL."""

    @pytest.mark.parametrize("cfg, fanouts", [
        (config.preset_config("full-bidrb"), [ModuleKind.FUSION_UP, ModuleKind.DOWN_SAMPLE]),
        (config.load_config(REPO / "configs" / "bin1x1-ds4.json"),
         [ModuleKind.FUSION_UP, ModuleKind.DOWN_SAMPLE]),
    ], ids=["full-bidrb", "bin1x1-ds4"])
    def test_fanout_module_equals_branch_by_branch(self, monkeypatch, cfg, fanouts):
        calls = []
        real = binary.binary_conv2d_packed

        def counting(x, p):
            calls.append(p.out_channels)
            return real(x, p)

        monkeypatch.setattr(binary, "binary_conv2d_packed", counting)
        modules = [(spec, mod, shape) for spec, mod, shape in modules_with_inputs(cfg)
                   if not mod.plan.split and len(mod.branches) > 1]
        assert [spec.kind for spec, _, _ in modules] == fanouts
        for i, (spec, mod, shape) in enumerate(modules):
            rng = np.random.default_rng(i)
            x = rng.standard_normal((4, *shape)).astype(np.float32)
            x.flat[:4] = [0.0, 1.0, -1.0, -0.0]
            ref, ref64 = copy.deepcopy(mod), float64_copy(mod)
            calls.clear()
            y = mod.forward(x, "hardtanh", False)
            assert calls == [spec.out_channels]  # one call over every branch
            want = branch_by_branch(ref, as_var(x), False)
            assert y.data.dtype == want.data.dtype and y.data.tobytes() == want.data.tobytes()

            target = rng.standard_normal(y.data.shape).astype(np.float32)
            runs = []
            for m, forward, dtype in (
                    (mod, lambda xv: mod.forward(xv, "hardtanh", True), np.float32),
                    (ref, lambda xv: branch_by_branch(ref, xv, True), np.float32),
                    (ref64, lambda xv: branch_by_branch(ref64, xv, True), np.float64)):
                xv = Parameter(x)
                xv.data = xv.data.astype(dtype)
                out = forward(xv)
                ops.l1_loss(out, target).backward()
                state = module_state(m)
                params = [v for v in state.values() if isinstance(v, Parameter)]
                buffers = [v for v in state.values() if not isinstance(v, Parameter)]
                runs.append((out.data, buffers, [xv.grad] + [v.grad for v in params]))
                assert all(g is not None for g in runs[-1][2])
            (out, buffers, grads), (ref_out, ref_buffers, _), (_, _, grads64) = runs
            assert out.tobytes() == ref_out.tobytes()
            assert [b.tobytes() for b in buffers] == [b.tobytes() for b in ref_buffers]
            scale = max(np.abs(g).max() for g in grads64)
            for got, want in zip(grads, grads64):
                assert got.dtype == np.float32 and got.shape == want.shape
                assert np.abs(got - want).max() <= FANOUT_GRAD_TOL * scale

    @pytest.mark.parametrize("cfg, hardtanh, conv", [
        (config.preset_config("full-bidrb"), 6, 6),
        (bench.wide_config(0), 6, 8),
    ], ids=["full-bidrb", "infer-wide"])
    def test_one_preactivation_and_sign_per_module(self, monkeypatch, cfg, hardtanh, conv):
        """One hardtanh per module, or per channel half of a fusion_down, and
        one binary_conv2d node per module half and per binarized 1x1
        shortcut, which signs its input itself; the branches of a fan-out
        read both."""
        counts = count_ops(monkeypatch, ["hardtanh", "binary_conv2d"])
        net = build_network(cfg)
        x = np.random.default_rng(1).standard_normal((2, *cfg.input_shape)).astype(np.float32)
        net.forward(x, training=False)
        assert counts == {"hardtanh": hardtanh, "binary_conv2d": conv}

    def test_infer_wide_one_call_per_module_and_match_oracle(self, monkeypatch):
        """At batch 8, fusion_up's two 64-channel branches (2048 rows, a 2 MiB
        XOR over both) and down_sample's stride-2 branches (512 rows) each run
        one call in one binary_conv2d node; the kernel, not the module, bounds
        its XOR buffer. Each call's output is alpha times the exact ±1 sum, so it
        equals the float64 oracle rounded to float32."""
        calls = []
        real = binary.binary_conv2d_packed

        def recording(x, p):
            out = real(x, p)
            calls.append((x, p, out[0]))
            return out

        monkeypatch.setattr(binary, "binary_conv2d_packed", recording)
        counts = count_ops(monkeypatch, ["binary_conv2d"])
        rng = np.random.default_rng(5)
        per_kind = {}
        for spec, mod, shape in modules_with_inputs(bench.wide_config(0)):
            x = rng.standard_normal((8, *shape)).astype(np.float32)
            calls.clear()
            counts["binary_conv2d"] = 0
            mod.forward(x, "hardtanh", False)
            per_kind[spec.kind] = ([p.out_channels for _, p, _ in calls],
                                   counts["binary_conv2d"])
            for xi, p, y in calls:
                want = verify.reference_pm1_conv(xi, p).astype(y.dtype)
                assert y.tobytes() == want.tobytes()
        assert per_kind[ModuleKind.FUSION_UP] == ([128], 1)
        assert per_kind[ModuleKind.DOWN_SAMPLE] == ([128], 1)

    def test_branch_list_needs_one_geometry(self):
        """The branches of one fan-out read one input through one conv, so
        they must share kernel, stride and padding: a stride mismatch is
        caught by lcr_fanout, a kernel mismatch by the weights' concat. An
        empty list has no geometry."""
        x = Var(np.random.default_rng(6).standard_normal((1, 3, 4, 4)).astype(np.float32))
        one_by_one = layers.LcrLayer.create(3)
        one_by_one.conv = binary.BinaryConv2dParams.create(3, 3, 1, padding=1)
        for branches in ([layers.LcrLayer.create(3, stride=s) for s in (1, 2)],
                         [layers.LcrLayer.create(3), one_by_one],
                         []):
            with pytest.raises(DimensionError):
                layers.lcr_fanout(x, branches)


class TestAdam:
    def test_no_grad_no_update(self):
        p = Parameter(np.array([1.0, 2.0]))
        opt = train.Adam({"p": p}, lr=0.1)
        before = p.data.copy()
        train.adam_step(opt)
        np.testing.assert_array_equal(p.data, before)

    def test_first_step_is_signed_lr(self):
        # with bias correction, step 1 moves each coordinate by lr*sign(g)
        p = Parameter(np.array([1.0, -1.0, 0.5]))
        p.grad = np.array([0.3, -2.0, 1e-3], dtype=np.float32)
        opt = train.Adam({"p": p}, lr=0.1)
        before = p.data.copy()
        train.adam_step(opt)
        np.testing.assert_allclose(p.data, before - 0.1 * np.sign(p.grad), atol=1e-4)

    def test_determinism(self):
        def run():
            p = Parameter(np.array([1.0, 2.0]))
            opt = train.Adam({"p": p}, lr=0.05)
            for _ in range(5):
                p.zero_grad()
                ops.l1_loss(p, np.zeros(2)).backward()
                train.adam_step(opt)
            return p.data.copy()

        np.testing.assert_array_equal(run(), run())

    def test_flat_update_equals_per_parameter_reference(self):
        """20 steps on full-bidrb's parameters, some with no gradient on some
        steps, leave every parameter and its m and v bit for bit where a
        per-parameter Adam leaves them; data arrays are updated in place."""
        cfg = config.preset_config("full-bidrb")
        params = build_network(cfg).named_parameters()
        names = list(params)
        rng = np.random.default_rng(16)
        grads = {t: {k: rng.standard_normal(params[k].data.shape).astype(np.float32)
                     for i, k in enumerate(names) if (i + t) % 7 and not (t == 5 and i < 20)}
                 for t in range(1, 21)}
        assert any(len(g) < len(names) for g in grads.values())
        want, want_m, want_v = reference_adam(
            {k: p.data for k, p in params.items()}, grads.get, 20)
        arrays = {k: p.data for k, p in params.items()}
        opt = train.Adam(params, lr=1e-2)
        for t in range(1, 21):
            for k, p in params.items():
                p.grad = grads[t].get(k)
            opt.step()
        for k, p in params.items():
            assert p.data is arrays[k]
            assert p.data.tobytes() == want[k].tobytes(), k
            assert opt.m[opt.slices[k]].tobytes() == want_m[k].tobytes(), k
            assert opt.v[opt.slices[k]].tobytes() == want_v[k].tobytes(), k

    @pytest.mark.parametrize("lr", [-1.0, float("nan"), float("inf")])
    def test_bad_lr_rejected_before_any_step(self, lr):
        p = Parameter(np.array([1.0, 2.0]))
        with pytest.raises(ConfigError):
            train.Adam({"p": p}, lr=lr)
        with pytest.raises(ConfigError):
            train.train_toy(toy_config(), steps=2, lr=lr, batch=2)

    def test_shape_mismatch_raises(self):
        from bidrn.errors import DimensionError
        p = Parameter(np.array([1.0, 2.0]))
        p.grad = np.zeros(3, dtype=np.float32)
        opt = train.Adam({"p": p})
        with pytest.raises(DimensionError):
            opt.step()


def reference_adam(params, grads, steps, lr=1e-2, b1=0.9, b2=0.999, eps=1e-8):
    """Adam one parameter at a time, in the textbook form: step t updates
    only the parameters that grads(t) gives a gradient."""
    m = {k: np.zeros_like(p) for k, p in params.items()}
    v = {k: np.zeros_like(p) for k, p in params.items()}
    data = {k: p.copy() for k, p in params.items()}
    for t in range(1, steps + 1):
        bc1, bc2 = 1 - b1 ** t, 1 - b2 ** t
        for k, g in grads(t).items():
            m[k] = b1 * m[k] + (1 - b1) * g
            v[k] = b2 * v[k] + (1 - b2) * g * g
            data[k] -= lr * (m[k] / bc1) / (np.sqrt(v[k] / bc2) + eps)
    return data, m, v


class TestSyntheticTask:
    def test_target_length(self):
        task = train.make_synthetic_task(0)
        assert task.target_len == sum(train.SEGMENTS.values())
        x, y = task.sample(4)
        assert x.shape == (4, 3, 32, 32)
        assert y.shape == (4, task.target_len)

    def test_teacher_deterministic(self):
        a = train.make_synthetic_task(5)
        b = train.make_synthetic_task(5)
        x = np.random.default_rng(0).standard_normal((2, 3, 32, 32)).astype(np.float32)
        np.testing.assert_array_equal(a.teacher(x), b.teacher(x))

    def test_sample_stream_deterministic(self):
        xa, ya = train.make_synthetic_task(5).sample(3)
        xb, yb = train.make_synthetic_task(5).sample(3)
        np.testing.assert_array_equal(xa, xb)
        np.testing.assert_array_equal(ya, yb)

    def test_targets_have_variance(self):
        _, y = train.make_synthetic_task(1).sample(32)
        assert y.std(axis=0).min() > 1e-3


class TestSegmentLosses:
    def test_partition_covers_output(self):
        rng = np.random.default_rng(2)
        total = sum(train.SEGMENTS.values())
        pred = as_var(rng.standard_normal((4, total)).astype(np.float32))
        target = rng.standard_normal((4, total)).astype(np.float32)
        losses = train.segment_losses(pred, target)
        assert set(losses) == set(train.SEGMENTS)
        start = 0
        for name, width in train.SEGMENTS.items():
            want = np.abs(pred.data[:, start:start + width]
                          - target[:, start:start + width]).mean()
            assert abs(losses[name].data - want) < 1e-6
            start += width

    def test_slice_gradient_routing(self):
        p = Parameter(np.zeros((1, sum(train.SEGMENTS.values()))))
        losses = train.segment_losses(p, np.ones_like(p.data))
        losses["box"].backward()
        # only the final two columns receive gradient
        assert np.all(p.grad[:, :-2] == 0)
        assert np.all(p.grad[:, -2:] != 0)


def toy_config():
    return NetworkConfig(
        input_shape=(3, 32, 32),
        blocks=[
            (ModuleSpec(ModuleKind.FUSION_UP, 3, 6),
             BlockResidualMode.FULL_PRECISION_1X1),
            (ModuleSpec(ModuleKind.DOWN_SCALE, 6, 6, 2),
             BlockResidualMode.NONE),
        ],
        seed=0)


class TestTrainToy:
    def test_zero_steps(self):
        trace, net = train.train_toy(toy_config(), steps=0)
        assert trace == []
        assert net.head.weight.data.shape[0] == sum(train.SEGMENTS.values())

    def test_zero_lr_freezes_parameters(self):
        cfg = toy_config()
        ref = build_network(cfg)
        before = {k: v.data.copy() for k, v in ref.named_parameters().items()}
        _, net = train.train_toy(toy_config(), steps=2, lr=0.0, batch=2)
        for name, p in net.named_parameters().items():
            np.testing.assert_array_equal(p.data, before[name])

    def test_trace_shape_and_sum(self):
        trace, _ = train.train_toy(toy_config(), steps=3, batch=2)
        assert len(trace) == 3
        for step, total, *parts in trace:
            assert abs(total - sum(parts)) < 1e-5

    def test_determinism(self):
        ta, _ = train.train_toy(toy_config(), steps=3, batch=2, seed=11)
        tb, _ = train.train_toy(toy_config(), steps=3, batch=2, seed=11)
        assert ta == tb

    def test_loss_decreases_short_run(self):
        trace, _ = train.train_toy(toy_config(), steps=25, batch=4, seed=7)
        first = np.mean([r[1] for r in trace[:5]])
        last = np.mean([r[1] for r in trace[-5:]])
        assert last < first

    def test_caller_config_left_unchanged(self):
        cfg = toy_config()
        cfg.head_out = 5
        _, net = train.train_toy(cfg, steps=1, batch=2)
        assert cfg.head_out == 5
        assert net.head.weight.data.shape[0] == sum(train.SEGMENTS.values())

    @pytest.mark.parametrize("shape", [(4, 16, 16), (3, 16, 16)])
    def test_input_shape_other_than_task_raises_config_error(self, shape):
        """The task samples 3x32x32 inputs; another channel count used to
        crash in the forward and another extent trained on the wrong size."""
        c = shape[0]
        cfg = NetworkConfig(input_shape=shape,
                            blocks=[(ModuleSpec(ModuleKind.BASE_LCR, c, c),
                                     BlockResidualMode.NONE)])
        with pytest.raises(ConfigError) as exc:
            train.train_toy(cfg, steps=1, batch=2)
        assert str(shape) in str(exc.value) and "(3, 32, 32)" in str(exc.value)

    def test_non_finite_loss_raises_training_error(self, monkeypatch):
        real = train.make_synthetic_task

        def poisoned(seed, segments=None):
            task = real(seed, segments)
            task.lin_b = np.full_like(task.lin_b, np.nan)
            return task

        monkeypatch.setattr(train, "make_synthetic_task", poisoned)
        with pytest.raises(TrainingError) as exc:
            train.train_toy(toy_config(), steps=2, batch=2)
        assert exc.value.step == 0

    def test_divergence_past_step_0_leaves_the_state_unchanged(self):
        """A NaN target in the third batch raises TrainingError at step 2,
        after rows 0 and 1, and before that step's backward and update: every
        weight, Adam's moments and its step count stay as step 1 left them."""
        task = train.make_synthetic_task(7)
        net = build_network(dataclasses.replace(toy_config(), head_out=task.target_len))
        opt = train.Adam(net.named_parameters(), lr=1e-2)
        rows = [train.step(net, opt, *task.sample(2)) for _ in range(2)]
        assert [row[0] for row in rows] == [0, 1]
        x, target = task.sample(2)
        target[:] = np.nan
        weights = {k: p.data.copy() for k, p in net.named_parameters().items()}
        m, v = opt.m.copy(), opt.v.copy()
        with pytest.raises(TrainingError) as exc:
            train.step(net, opt, x, target)
        assert exc.value.step == 2
        for k, p in net.named_parameters().items():
            assert p.data.tobytes() == weights[k].tobytes(), k
        assert opt.m.tobytes() == m.tobytes() and opt.v.tobytes() == v.tobytes()
        assert opt.step_count == 2


class TestTraceCsv:
    def test_header_and_rows(self):
        trace = [(0, 1.5, 0.5, 0.5, 0.5), (1, 1.2, 0.4, 0.4, 0.4)]
        csv = train.trace_to_csv(trace)
        lines = csv.strip().split("\n")
        assert lines[0] == "step,loss_total,loss_param,loss_joint,loss_box"
        assert lines[1].startswith("0,1.500000,")
        assert len(lines) == 3
