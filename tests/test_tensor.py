import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bidrn import ops, tensor
from bidrn.autograd import Parameter
from bidrn.errors import DimensionError


def quadruple_loop_conv(x, w, stride, padding):
    """Independent direct convolution: explicit loops, zero padding."""
    n, c, h, wd = x.shape
    c_out, c_in, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((n, c_out, oh, ow), dtype=np.float64)
    for b in range(n):
        for oc in range(c_out):
            for oy in range(oh):
                for ox in range(ow):
                    acc = 0.0
                    for ic in range(c_in):
                        for i in range(kh):
                            for j in range(kw):
                                acc += xp[b, ic, oy * stride + i, ox * stride + j] \
                                    * w[oc, ic, i, j]
                    out[b, oc, oy, ox] = acc
    return out


def strided_im2col(x, kh, kw, stride, padding, pad_value=0.0):
    """The gather as a channels-last window view of the padded input, rows
    (n, oh, ow) and columns (kh, kw, c), copied."""
    n, c, h, wd = x.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    pads = ((0, 0), (padding, padding), (padding, padding), (0, 0))
    xp = np.pad(x.transpose(0, 2, 3, 1), pads, constant_values=pad_value)
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
    windows = windows[:, ::stride, ::stride][:, :oh, :ow]  # (n, oh, ow, c, kh, kw)
    return np.ascontiguousarray(
        windows.transpose(0, 1, 2, 4, 5, 3).reshape(n * oh * ow, kh * kw * c))


class TestIm2col:
    @pytest.mark.parametrize("kernel", [(1, 1), (1, 3), (3, 1), (3, 3)])
    @pytest.mark.parametrize("dtype", ["float32", "float64", "int8", "bool"])
    def test_matches_strided_oracle(self, dtype, kernel):
        kh, kw = kernel
        rng = np.random.default_rng(kh * 10 + kw)
        for shape in [(2, 3, 7, 5), (1, 2, 3, 9)]:
            x = rng.standard_normal(shape)
            x = x >= 0 if dtype == "bool" else (4 * x).astype(dtype)
            pad_value = True if dtype == "bool" else 0.0
            for stride in (1, 2, 3):
                for padding in (0, 1, 2):
                    got = tensor.im2col(x, kh, kw, stride, padding, pad_value=pad_value)
                    want = strided_im2col(x, kh, kw, stride, padding, pad_value)
                    assert got.dtype == want.dtype == x.dtype
                    assert got.flags.c_contiguous
                    np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("kernel", [1, 3, 4])
    def test_col2im_is_adjoint(self, kernel):
        """<im2col(x), y> == <x, col2im(y.T)> in float64: col2im takes the
        window matrix transposed, tap-major, and returns C-contiguous NCHW."""
        rng = np.random.default_rng(kernel)
        for shape in [(2, 3, 7, 5), (1, 2, 5, 9)]:
            for stride in (1, 2, 3):
                for padding in (0, 1, 2):
                    x = rng.standard_normal(shape)
                    cols = tensor.im2col(x, kernel, kernel, stride, padding)
                    y = rng.standard_normal(cols.shape)
                    back = tensor.col2im(y.T, shape, kernel, kernel, stride, padding)
                    assert back.shape == shape and back.flags.c_contiguous
                    lhs, rhs = np.sum(cols * y), np.sum(x * back)
                    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_pointwise_gather_is_a_writeable_copy(self):
        """1x1, stride 1, padding 0 needs no copy of the window view; the
        result must still be a fresh, writeable, C-contiguous array."""
        x = np.random.default_rng(0).standard_normal((2, 3, 4, 5)).astype(np.float32)
        cols = tensor.im2col(x, 1, 1, 1, 0)
        assert cols.shape == (40, 3)
        assert cols.flags.c_contiguous and cols.flags.writeable
        assert not np.shares_memory(cols, x)
        np.testing.assert_array_equal(cols, x.transpose(0, 2, 3, 1).reshape(40, 3))


def scatter_transposed_conv(x, w, stride, padding):
    """The transposed convolution in the scatter form the phase GEMM replaced:
    the transposed (C_in, K*K*C_out) weight matrix times each input pixel's
    column of channels, added onto the output grid by col2im."""
    n, c_in, h, wd = x.shape
    _, c_out, kh, kw = w.shape
    out_hw = ((h - 1) * stride - 2 * padding + kh, (wd - 1) * stride - 2 * padding + kw)
    x_cols = x.transpose(1, 0, 2, 3).reshape(c_in, -1)
    return tensor.col2im(tensor.weight_matrix(w).T @ x_cols, (n, c_out, *out_hw),
                         kh, kw, stride, padding)



def one_copy_transposed_conv(x, w, stride, padding):
    """The phase GEMM of tensor.conv_transpose2d with its s*s output phases
    interleaved by one 6-D transposed copy, in place of one copy per phase."""
    n, c_in, h, wd = x.shape
    _, c_out, kh, kw = w.shape
    s = stride
    q = -(-max(kh, kw) // s)
    taps = np.zeros((c_in, c_out, q * s, q * s), dtype=w.dtype)
    taps[:, :, :kh, :kw] = w
    w_mat = taps.reshape(c_in, c_out, q, s, q, s)[:, :, ::-1, :, ::-1, :] \
        .transpose(2, 4, 0, 3, 5, 1).reshape(q * q * c_in, s * s * c_out)
    cols = tensor.im2col(x, q, q, 1, q - 1)
    u, v = h + q - 1, wd + q - 1
    y = np.empty((n, c_out, u * s, v * s), dtype=np.result_type(x, w))
    y.reshape(n, c_out, u, s, v, s)[...] = \
        (cols @ w_mat).reshape(n, u, v, s, s, c_out).transpose(0, 5, 1, 3, 2, 4)
    oh = (h - 1) * s - 2 * padding + kh
    ow = (wd - 1) * s - 2 * padding + kw
    return y[:, :, padding:padding + oh, padding:padding + ow]

class TestConvTranspose2d:
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("kernel", [1, 2, 3, 4, 5])
    def test_pm1_equals_scatter_bitwise(self, kernel, stride):
        """K < s leaves output phases without taps, K % s != 0 pads the
        kernel with zero taps; both sides are exact integer sums."""
        rng = np.random.default_rng(10 * kernel + stride)
        for padding in range(kernel):
            for n, h, wd in [(1, 5, 5), (3, 5, 7)]:  # h >= K: every padding fits
                for dtype in (np.float32, np.float64):
                    c_in, c_out = (int(v) for v in rng.integers(1, 6, size=2))
                    x = np.where(rng.standard_normal((n, c_in, h, wd)) >= 0, 1, -1).astype(dtype)
                    w = np.where(rng.standard_normal((c_in, c_out, kernel, kernel)) >= 0,
                                 1, -1).astype(dtype)
                    want = scatter_transposed_conv(x, w, stride, padding)
                    got = tensor.conv_transpose2d(x, w, stride, padding)
                    assert got.shape == want.shape and got.dtype == want.dtype
                    assert got.size
                    assert np.ascontiguousarray(got).tobytes() == \
                        np.ascontiguousarray(want).tobytes()

    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_float_matches_scatter(self, stride):
        rng = np.random.default_rng(stride)
        for kernel in (2, 3, 4):
            for padding in range(kernel):
                x = rng.standard_normal((2, 3, 4, 5)).astype(np.float32)
                w = rng.standard_normal((3, 4, kernel, kernel)).astype(np.float32)
                want = scatter_transposed_conv(x.astype(np.float64), w.astype(np.float64),
                                               stride, padding)
                got = tensor.conv_transpose2d(x, w, stride, padding)
                np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("kernel", [1, 2, 3, 4, 5])
    def test_phase_writes_equal_one_interleaving_copy(self, kernel, stride):
        """Writing each output phase on its own is a copy, so float and ±1
        outputs equal the one-copy interleave bit for bit."""
        rng = np.random.default_rng(100 + 10 * kernel + stride)
        for padding in range(kernel):
            for dtype in (np.float32, np.float64):
                x = rng.standard_normal((3, 4, 5, 7)).astype(dtype)
                w = rng.standard_normal((4, 5, kernel, kernel)).astype(dtype)
                for a, b in [(x, w), (np.where(x >= 0, 1, -1).astype(dtype),
                                      np.where(w >= 0, 1, -1).astype(dtype))]:
                    want = one_copy_transposed_conv(a, b, stride, padding)
                    got = tensor.conv_transpose2d(a, b, stride, padding)
                    assert got.shape == want.shape and got.dtype == want.dtype
                    assert np.ascontiguousarray(got).tobytes() == \
                        np.ascontiguousarray(want).tobytes()

    @pytest.mark.parametrize("stride,padding", [(0, 0), (2, -1), (2, 4)])
    def test_bad_geometry_is_typed(self, stride, padding):
        """K = 3, s = 2 on a 2 x 2 input gives 5 x 5 before the crop; padding 4
        crops more than that."""
        x = np.ones((1, 1, 2, 2))
        w = np.ones((1, 1, 3, 3))
        with pytest.raises(DimensionError, match="leaves no output"):
            tensor.conv_transpose2d(x, w, stride, padding)

    def test_channel_mismatch_is_typed(self):
        """Two input channels against weights for three once raised numpy's
        broadcast ValueError from inside the window gather."""
        x = np.ones((1, 2, 4, 4), dtype=np.float32)
        w = np.ones((3, 5, 4, 4), dtype=np.float32)
        with pytest.raises(DimensionError, match="input channels"):
            tensor.conv_transpose2d(x, w, 2, 1)

    @pytest.mark.parametrize("operand", ["input", "weights"])
    def test_rank_3_operand_is_typed(self, operand):
        """A rank-3 operand once raised ValueError while unpacking its shape."""
        x = np.ones((1, 2, 4, 4), dtype=np.float32)
        w = np.ones((2, 3, 4, 4), dtype=np.float32)
        if operand == "input":
            x = x[0]
        else:
            w = w[0]
        with pytest.raises(DimensionError, match=f"{operand} must be rank-4"):
            tensor.conv_transpose2d(x, w, 2, 1)


class TestConvOutExtent:
    @pytest.mark.parametrize("stride,padding,match", [
        (0, 0, "stride must be"), (-1, 1, "stride must be"),
        (1, -1, "padding must be"), (2, -2, "padding must be")])
    def test_bad_stride_or_padding_is_typed(self, stride, padding, match):
        with pytest.raises(DimensionError, match=match):
            tensor.conv_out_extent(8, 3, stride, padding)
        with pytest.raises(DimensionError, match=match):
            tensor.im2col(np.ones((1, 1, 8, 8)), 3, 3, stride, padding)


class TestConvTransposeExtent:
    @pytest.mark.parametrize("stride,padding,fault", [
        (0, 1, "stride must be"), (2, -1, "padding must be"), (2, 4, "leaves no output")])
    def test_each_fault_names_only_itself(self, stride, padding, fault):
        """K = 3 on extent 2: stride 2 with padding -1 would be 7 wide, so only
        the padding is at fault there, and padding 4 crops all 5 rows."""
        with pytest.raises(DimensionError) as err:
            tensor.conv_transpose_extent(2, 3, stride, padding)
        others = {"stride must be", "padding must be"} - {fault}
        assert fault in str(err.value)
        assert not any(other in str(err.value) for other in others), str(err.value)


class TestWeightMatrix:
    def test_round_trip(self):
        w = np.random.default_rng(1).standard_normal((4, 3, 2, 5)).astype(np.float32)
        m = tensor.weight_matrix(w)
        assert m.shape == (4, 2 * 5 * 3)
        back = tensor.matrix_to_weight(m, w.shape)
        assert back.flags.c_contiguous and back.dtype == w.dtype
        np.testing.assert_array_equal(back, w)
        np.testing.assert_array_equal(tensor.weight_matrix(back), m)


class TestConv2dReference:
    def test_constant_case(self):
        x = np.ones((1, 1, 2, 2), dtype=np.float32)
        w = np.ones((1, 1, 2, 2), dtype=np.float32)
        y = tensor.conv2d_reference(x, w)
        assert y.shape == (1, 1, 1, 1)
        assert y[0, 0, 0, 0] == 4.0

    def test_identity_kernel(self):
        x = np.random.default_rng(1).standard_normal((2, 3, 5, 5)).astype(np.float32)
        w = np.zeros((3, 3, 1, 1), dtype=np.float32)
        for i in range(3):
            w[i, i, 0, 0] = 1.0
        np.testing.assert_array_equal(tensor.conv2d_reference(x, w), x)

    def test_matches_quadruple_loop(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
        w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        y = tensor.conv2d_reference(x, w, stride=2, padding=1)
        oracle = quadruple_loop_conv(x.astype(np.float64), w.astype(np.float64), 2, 1)
        np.testing.assert_allclose(y, oracle, rtol=1e-5)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_shapes_vs_oracle(self, seed):
        # 20 seeds x 10 cases = 200 randomized shape/seed combinations
        rng = np.random.default_rng(seed)
        for _ in range(10):
            c_in = int(rng.integers(1, 4))
            c_out = int(rng.integers(1, 4))
            k = int(rng.choice([1, 2, 3]))
            stride = int(rng.choice([1, 2]))
            padding = int(rng.choice([0, 1]))
            h = int(rng.integers(k, 7))
            w = int(rng.integers(k, 7))
            x = rng.standard_normal((1, c_in, h, w)).astype(np.float32)
            wt = rng.standard_normal((c_out, c_in, k, k)).astype(np.float32)
            got = tensor.conv2d_reference(x, wt, stride, padding)
            want = quadruple_loop_conv(x.astype(np.float64),
                                       wt.astype(np.float64), stride, padding)
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)

    def test_shape_mismatch_names_shapes(self):
        x = np.ones((1, 2, 4, 4), dtype=np.float32)
        w = np.ones((1, 3, 3, 3), dtype=np.float32)
        with pytest.raises(DimensionError, match=r"\(1, 3, 3, 3\).*\(1, 2, 4, 4\)"):
            tensor.conv2d_reference(x, w)


def strided_mean_pool(x, window, stride):
    """Average pooling as numpy's mean over a strided window view."""
    n, c, h, w = x.shape
    oh = (h - window) // stride + 1
    ow = (w - window) // stride + 1
    s = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x, shape=(n, c, oh, ow, window, window),
        strides=(s[0], s[1], s[2] * stride, s[3] * stride, s[2], s[3]), writeable=False)
    return windows.mean(axis=(4, 5)).astype(x.dtype)


POOL_GEOMETRIES = [(w, s) for w in range(1, 5) for s in range(1, w + 1)]


class TestAvgPool:
    def test_mean_of_four(self):
        x = np.array([[1, 2], [3, 4]], dtype=np.float32).reshape(1, 1, 2, 2)
        assert tensor.avg_pool2d(x, 2)[0, 0, 0, 0] == 2.5

    def test_constant_preserved(self):
        x = np.full((2, 3, 6, 6), 1.75, dtype=np.float32)
        y = tensor.avg_pool2d(x, 2)
        assert y.shape == (2, 3, 3, 3)
        np.testing.assert_array_equal(y, np.full((2, 3, 3, 3), 1.75, dtype=np.float32))

    def test_matches_enumeration(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 2, 4, 4)).astype(np.float32)
        y = tensor.avg_pool2d(x, 2, 2)
        for c in range(2):
            for i in range(2):
                for j in range(2):
                    want = np.mean([x[0, c, 2 * i + a, 2 * j + b]
                                    for a in range(2) for b in range(2)])
                    assert abs(y[0, c, i, j] - want) < 1e-6

    def test_window_too_large(self):
        with pytest.raises(DimensionError):
            tensor.avg_pool2d(np.ones((1, 1, 2, 2), dtype=np.float32), 3)

    @pytest.mark.parametrize("stride", [0, -1])
    def test_bad_stride(self, stride):
        with pytest.raises(DimensionError, match="stride"):
            tensor.avg_pool2d(np.ones((1, 1, 4, 4), dtype=np.float32), 2, stride)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("window,stride", POOL_GEOMETRIES)
    def test_matches_strided_mean(self, window, stride, dtype):
        """Bit for bit with numpy's mean wherever the output is at least two
        columns wide, on values spread over many magnitudes."""
        rng = np.random.default_rng(10 * window + stride)
        shape = (2, 3, 11, 13)
        x = (rng.standard_normal(shape) * np.exp(3 * rng.standard_normal(shape))).astype(dtype)
        got = tensor.avg_pool2d(x, window, stride)
        want = strided_mean_pool(x, window, stride)
        assert got.dtype == want.dtype == dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("window,stride", POOL_GEOMETRIES)
    def test_one_column_output_within_rounding(self, window, stride, dtype):
        """For a one-column output numpy's mean adds the taps in another order,
        so the two agree to rounding only."""
        rng = np.random.default_rng(10 * window + stride)
        x = rng.standard_normal((2, 3, 9, window)).astype(dtype)
        got = tensor.avg_pool2d(x, window, stride)
        want = strided_mean_pool(x, window, stride)
        assert got.dtype == want.dtype == dtype and got.shape == want.shape
        eps = np.finfo(dtype).eps
        np.testing.assert_allclose(got, want, rtol=0, atol=4 * eps * np.abs(x).max())


class TestBatchNorm:
    def test_training_normalizes(self):
        rng = np.random.default_rng(5)
        x = (rng.standard_normal((4, 3, 8, 8)) * 3 + 1).astype(np.float32)
        p = tensor.BatchNormParams.create(3)
        y = ops.batch_norm(x, p, training=True).data
        mean = y.mean(axis=(0, 2, 3))
        var = y.var(axis=(0, 2, 3))
        assert np.all(np.abs(mean) < 1e-5)
        assert np.all(np.abs(var - 1) < 1e-3)

    def test_inference_identity_statistics(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
        p = tensor.BatchNormParams.create(3)
        y = ops.batch_norm(x, p, training=False).data
        np.testing.assert_allclose(y, x, atol=1e-4)

    def test_matches_two_pass_reference(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((3, 2, 5, 5)).astype(np.float32)
        p = tensor.BatchNormParams.create(2)
        p.scale.data[:] = [1.5, 0.5]
        p.shift.data[:] = [-0.2, 0.3]
        y = ops.batch_norm(x, p, training=True).data
        for c in range(2):
            vals = x[:, c].astype(np.float64)
            mu = vals.sum() / vals.size
            var = ((vals - mu) ** 2).sum() / vals.size
            want = p.scale.data[c] * (vals - mu) / np.sqrt(var + p.eps) + p.shift.data[c]
            np.testing.assert_allclose(y[:, c], want, atol=1e-5)

    def test_running_stats_update(self):
        rng = np.random.default_rng(8)
        x = (rng.standard_normal((4, 2, 4, 4)) + 2).astype(np.float32)
        p = tensor.BatchNormParams.create(2)
        ops.batch_norm(x, p, training=True)
        want_mean = 0.9 * 0 + 0.1 * x.mean(axis=(0, 2, 3))
        np.testing.assert_allclose(p.running_mean, want_mean, rtol=1e-5)

    def test_channel_mismatch(self):
        p = tensor.BatchNormParams.create(3)
        with pytest.raises(DimensionError):
            ops.batch_norm(np.ones((1, 2, 2, 2), dtype=np.float32), p)


class TestHardtanh:
    def test_branches(self):
        x = np.array([1.5, -0.3, -2.0], dtype=np.float32)
        np.testing.assert_array_equal(ops.hardtanh(x).data,
                                      np.array([1.0, -0.3, -1.0], dtype=np.float32))

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_idempotent(self, seed):
        x = np.random.default_rng(seed).standard_normal(50).astype(np.float32) * 3
        once = ops.hardtanh(x).data
        np.testing.assert_array_equal(ops.hardtanh(once).data, once)
