import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bidrn import binary, ops, tensor
from bidrn.autograd import Parameter
from bidrn.errors import DimensionError
from bidrn.verify import direct_pm1_conv, direct_pm1_deconv, reference_pm1_conv


def make_conv_params(w, stride=1, padding=0, transposed=False):
    return binary.BinaryConv2dParams(
        latent_weights=Parameter(np.asarray(w, dtype=np.float32)),
        stride=stride, padding=padding, transposed=transposed)


class TestSign:
    def test_zero_maps_to_plus_one(self):
        assert binary.sign_forward(np.array([0.0]))[0] == 1.0

    def test_examples(self):
        x = np.array([-1.5, 0.2, 3.0], dtype=np.float32)
        np.testing.assert_array_equal(binary.sign_forward(x),
                                      np.array([-1, 1, 1], dtype=np.float32))

    def test_idempotent(self):
        x = np.random.default_rng(0).standard_normal(100).astype(np.float32)
        once = binary.sign_forward(x)
        np.testing.assert_array_equal(binary.sign_forward(once), once)


def surrogate_fd(x, step=1e-4):
    return (binary.smooth_sign(np.array([x + step]))[0]
            - binary.smooth_sign(np.array([x - step]))[0]) / (2 * step)


class TestSteGrad:
    def test_interior_point(self):
        # frozen from central finite differences of the surrogate at 0.5
        assert abs(binary.ste_grad(np.array([0.5]))[0] - 1.0) < 1e-6
        assert abs(surrogate_fd(0.5) - 1.0) < 1e-6

    def test_saturated(self):
        assert binary.ste_grad(np.array([2.0]))[0] == 0.0
        assert binary.ste_grad(np.array([-1.0]))[0] == 0.0
        assert binary.ste_grad(np.array([1.0]))[0] == 0.0

    def test_at_zero(self):
        # both one-sided branches agree: value 2.0
        assert binary.ste_grad(np.array([0.0]))[0] == 2.0
        # curvature flips sign at 0, so central fd carries an O(step) error
        assert abs(surrogate_fd(0.0) - 2.0) < 2e-4

    def test_matches_surrogate_fd_interior(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-1, 1, 1000)
        pts = pts[(np.abs(pts) > 1e-3) & (np.abs(np.abs(pts) - 1) > 1e-3)]
        for x in pts:
            assert abs(binary.ste_grad(np.array([x]))[0] - surrogate_fd(x)) < 1e-4


def old_sign_forward(x):
    x = np.asarray(x)
    return np.where(x >= 0, 1.0, -1.0).astype(x.dtype if x.dtype.kind == "f" else np.float32)


def old_ste_grad(x):
    x = np.asarray(x)
    g = np.where(x >= 0, 2.0 - 2.0 * x, 2.0 + 2.0 * x)
    g = np.where(np.abs(x) >= 1.0, 0.0, g)
    return g.astype(x.dtype if x.dtype.kind == "f" else np.float32)


EDGE_VALUES = [1.0, -1.0, 0.0, -0.0, np.inf, -np.inf, np.nan,
               0.5, -0.5, 0.999, -1.0001, 3.0, 1e-30, -1e-30]


@pytest.mark.parametrize("func,formula", [(binary.sign_forward, old_sign_forward),
                                          (binary.ste_grad, old_ste_grad)],
                         ids=["sign_forward", "ste_grad"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int32, np.int64])
def test_elementwise_matches_where_formula(func, formula, dtype):
    """Both functions equal their two-branch np.where formulas bit for bit,
    dtype and shape included, on edge values, 0-d and strided inputs."""
    if np.dtype(dtype).kind == "f":
        x = np.array(EDGE_VALUES, dtype=dtype)
    else:
        x = np.array([0, 1, -1, 5, -7], dtype=dtype)
    for case in (x, x[0], x[::2].reshape(-1, 1)):
        with np.errstate(invalid="ignore"):
            want = formula(case)
        got = func(case)
        assert type(got) is type(want)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestBinarizeWeights:
    def test_hand_case(self):
        w = np.array([0.5, -1.5, 1.0, -1.0], dtype=np.float32).reshape(1, 1, 2, 2)
        p = make_conv_params(w)
        wq = binary.binarize_weights(p)
        assert p.alpha[0] == 1.0
        np.testing.assert_array_equal(
            wq.ravel(), np.array([1, -1, 1, -1], dtype=np.float32))

    def test_zero_channel(self):
        p = make_conv_params(np.zeros((1, 1, 2, 2), dtype=np.float32))
        wq = binary.binarize_weights(p)
        assert p.alpha[0] == 0.0
        np.testing.assert_array_equal(wq, np.zeros((1, 1, 2, 2), dtype=np.float32))

    def test_constant_channel(self):
        p = make_conv_params(np.full((1, 1, 2, 2), 2.0, dtype=np.float32))
        wq = binary.binarize_weights(p)
        assert p.alpha[0] == 2.0
        np.testing.assert_array_equal(wq, np.full((1, 1, 2, 2), 2.0, dtype=np.float32))

    def test_l1_preservation(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        p = make_conv_params(w)
        wq = binary.binarize_weights(p)
        np.testing.assert_allclose(np.abs(wq).sum(axis=(1, 2, 3)),
                                   np.abs(w).sum(axis=(1, 2, 3)), rtol=1e-5)


class TestPacking:
    def test_single_row(self):
        p = binary.pack_signs(np.array([[1.0, -1.0, 1.0]]))
        assert p.valid_len == 3
        assert p.words[0, 0] == 0b101

    def test_all_ones_word(self):
        p = binary.pack_signs(np.ones((1, 64)))
        assert p.words[0, 0] == np.uint64(0xFFFFFFFFFFFFFFFF)

    @given(st.integers(1, 200), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, length, seed):
        x = np.random.default_rng(seed).standard_normal((2, length)).astype(np.float32)
        packed = binary.pack_signs(x)
        np.testing.assert_array_equal(binary.unpack_signs(packed),
                                      binary.sign_forward(x))

    @pytest.mark.parametrize("length", [1, 7, 8, 9, 63, 64, 65, 575, 576, 577])
    def test_unpack_equals_sign_rows(self, length):
        x = np.random.default_rng(length).standard_normal((5, length)).astype(np.float32)
        x[0, :3] = [0.0, -0.0, np.nan][:length]
        got = binary.unpack_signs(binary.pack_signs(x))
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, binary.sign_forward(x))

    @pytest.mark.parametrize("length", [1, 64, 65])
    def test_zero_rows_round_trip(self, length):
        """No rows pack to no words and unpack to a (0, length) float32 array;
        a reshape of zero rows cannot infer the byte width, so unpack names it."""
        packed = binary.pack_signs(np.ones((0, length), np.float32))
        assert packed.words.shape == (0, -(-length // binary.WORD_BITS))
        got = binary.unpack_signs(packed)
        assert got.shape == (0, length) and got.dtype == np.float32

    @pytest.mark.parametrize("c_in, stride, padding", [(64, 1, 1), (128, 2, 0), (3, 2, 1)])
    def test_unpack_reproduces_conv_rows(self, c_in, stride, padding):
        """The rows binary_conv2d_packed returns unpack to the +1-padded
        im2col of sign(x), on the word path and on the byte path."""
        x = np.random.default_rng(c_in).standard_normal((2, c_in, 5, 6)).astype(np.float32)
        p = binary.BinaryConv2dParams.create(3, c_in, 3, stride=stride, padding=padding)
        rows = binary.binary_conv2d_packed(x, p)[2]
        want = tensor.im2col(binary.sign_forward(x), 3, 3, stride, padding, pad_value=1.0)
        np.testing.assert_array_equal(binary.unpack_signs(rows), want)

    def test_tail_bits_zero(self):
        p = binary.pack_signs(np.ones((1, 70)))
        assert p.words_per_row == 2
        assert p.words[0, 1] == np.uint64(0b111111)  # bits 64..69 only

    def test_footprint(self):
        p = binary.pack_signs(np.ones((3, 130)))
        assert p.footprint_bytes == 3 * 3 * 8

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bool_bits_equal_signed_input(self, dtype):
        x = np.random.default_rng(1).standard_normal((3, 70)).astype(dtype)
        x[0, :6] = [0.0, -0.0, np.nan, np.inf, -np.inf, -np.nan]
        x[2, 60:66] = [-0.0, np.nan, -np.inf, 0.0, np.inf, -1.0]
        np.testing.assert_array_equal(binary.pack_signs(x >= 0).words,
                                      binary.pack_signs(x).words)


def xnor_dot(a, w):
    """The ±1 dot product of two single packed rows, as a 1x1 matmul."""
    out = binary.xnor_popcount_matmul(a, w)
    assert out.shape == (1, 1)
    return int(out[0, 0])


class TestXnorDot:
    def test_hand_case(self):
        a = binary.pack_signs(np.array([[1.0, -1.0, 1.0]]))
        w = binary.pack_signs(np.array([[1.0, 1.0, -1.0]]))
        assert xnor_dot(a, w) == -1

    @pytest.mark.parametrize("length", [1, 63, 64, 65, 128, 200])
    def test_identical_and_negated(self, length):
        rng = np.random.default_rng(length)
        row = rng.standard_normal((1, length)).astype(np.float32)
        a = binary.pack_signs(row)
        assert xnor_dot(a, a) == length
        neg = binary.pack_signs(-binary.sign_forward(row))
        assert xnor_dot(a, neg) == -length

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            length = int(rng.integers(1, 150))
            a = rng.standard_normal((1, length)).astype(np.float32)
            b = rng.standard_normal((1, length)).astype(np.float32)
            dot = xnor_dot(binary.pack_signs(a), binary.pack_signs(b))
            brute = int(binary.sign_forward(a)[0] @ binary.sign_forward(b)[0])
            assert dot == brute

    def test_length_mismatch(self):
        a = binary.pack_signs(np.ones((1, 3)))
        b = binary.pack_signs(np.ones((1, 4)))
        with pytest.raises(DimensionError):
            xnor_dot(a, b)


def matmul_xor_bytes(monkeypatch, a, w):
    """xnor_popcount_matmul(a, w) and the byte size of every XOR it runs."""
    xor_bytes = []
    real_xor = np.bitwise_xor

    def recording_xor(*args, out):
        xor_bytes.append(out.nbytes)
        return real_xor(*args, out=out)

    with monkeypatch.context() as m:
        m.setattr(np, "bitwise_xor", recording_xor)
        return binary.xnor_popcount_matmul(a, w), xor_bytes


class TestXnorMatmul:
    @pytest.mark.parametrize("shape", [(1, 1), (7, 6), (300, 128)])
    @pytest.mark.parametrize("length", [1, 63, 64, 65, 576, 1157])
    def test_matches_brute_force(self, length, shape):
        rows, out_rows = shape
        rng = np.random.default_rng(length)
        a = rng.standard_normal((rows, length)).astype(np.float32)
        w = rng.standard_normal((out_rows, length)).astype(np.float32)
        want = binary.sign_forward(a).astype(np.float64) @ binary.sign_forward(w).T
        pa, pw = binary.pack_signs(a), binary.pack_signs(w)
        got = binary.xnor_popcount_matmul(pa, pw)
        assert got.dtype == np.int32 and got.shape == shape
        np.testing.assert_array_equal(got, want)
        # Whatever sits in the tail bits of either operand must not count.
        tail = ~binary._tail_mask(length)
        pa.words[:, -1] |= tail
        np.testing.assert_array_equal(binary.xnor_popcount_matmul(pa, pw), want)
        pa, pw = binary.pack_signs(a), binary.pack_signs(w)
        pw.words[:, -1] |= tail
        np.testing.assert_array_equal(binary.xnor_popcount_matmul(pa, pw), want)

    @pytest.mark.parametrize("length", [2 ** 16 - 1, 2 ** 16, 2 ** 16 + 1])
    def test_counter_width_boundary(self, length):
        """Around the uint16 counter's limit, including rows that disagree on
        every element, so the count reaches the full length."""
        rng = np.random.default_rng(length)
        w = rng.standard_normal((2, length)).astype(np.float32)
        a = rng.standard_normal((3, length)).astype(np.float32)
        a[0], a[1] = w[0], -w[0]
        want = binary.sign_forward(a).astype(np.float64) @ binary.sign_forward(w).T
        assert want[0, 0] == length and want[1, 0] == -length
        got = binary.xnor_popcount_matmul(binary.pack_signs(a), binary.pack_signs(w))
        assert got.dtype == np.int32 and got.shape == (3, 2)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("words", [1, 9, 36])
    @pytest.mark.parametrize("rows", [49, 196, 255, 256, 784, 2048, 2729, 2730, 8192])
    def test_row_buffer_band_matches_brute_force(self, rows, words):
        """Row counts below, at both edges of, inside and above the band in
        which the XOR runs with a row-sized ufunc buffer, including counts
        that are not multiples of 16. 33 output rows put every count of the
        band over the XOR-size floor."""
        length = words * binary.WORD_BITS - 5
        rng = np.random.default_rng(rows * 100 + words)
        a_bits = rng.random((rows, length)) < 0.5
        w_bits = rng.random((33, length)) < 0.5
        w_pm1 = np.where(w_bits, 1.0, -1.0).astype(np.float32).T
        want = np.concatenate([np.where(a_bits[i:i + 1024], 1.0, -1.0).astype(np.float32)
                               @ w_pm1 for i in range(0, rows, 1024)])
        got = binary.xnor_popcount_matmul(binary.pack_signs(a_bits), binary.pack_signs(w_bits))
        assert got.dtype == np.int32 and got.shape == (rows, 33)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("rows", [49, 300, 2730, 8192])
    @pytest.mark.parametrize("caller", [None, 4096])
    def test_keeps_caller_bufsize(self, rows, caller):
        rng = np.random.default_rng(rows)
        a = binary.pack_signs(rng.standard_normal((rows, 130)))
        w = binary.pack_signs(rng.standard_normal((32, 130)))
        with np.errstate():  # puts the outer buffer size back when the block ends
            if caller is not None:
                np.setbufsize(caller)
            before = np.getbufsize()
            binary.xnor_popcount_matmul(a, w)
            assert np.getbufsize() == before

    @pytest.mark.parametrize("rows, out_rows, xor_bufsize", [
        (300, 32, 304),    # in the band: rounded up to a multiple of 16
        (256, 32, 256),    # lowest row count, 8192 words
        (2730, 4, 2736),   # highest row count
        (255, 64, None),   # too few rows
        (2731, 32, None),  # numpy already loops in place
        (300, 27, None),   # 8100 words, under the XOR-size floor
    ])
    def test_xor_bufsize_and_restore_when_xor_raises(self, monkeypatch, rows, out_rows,
                                                     xor_bufsize):
        """The buffer size the XOR sees, and the caller's size after the XOR
        raises."""
        rng = np.random.default_rng(3)
        a = binary.pack_signs(rng.standard_normal((rows, 130)))
        w = binary.pack_signs(rng.standard_normal((out_rows, 130)))
        seen = []

        def failing_xor(*args, **kwargs):
            seen.append(np.getbufsize())
            raise FloatingPointError("xor failed")

        monkeypatch.setattr(np, "bitwise_xor", failing_xor)
        before = np.getbufsize()
        with pytest.raises(FloatingPointError):
            binary.xnor_popcount_matmul(a, w)
        assert seen == [xor_bufsize or before]
        assert np.getbufsize() == before

    @pytest.mark.parametrize("shape", [(5, 3), (300, 7)])
    @pytest.mark.parametrize("length", [128, 192, 193, 256, 320])
    def test_uint8_groups_at_full_disagreement(self, length, shape):
        """Rows 2 to 5 words long that agree or disagree on every element, so a
        group of three words counts 192 disagreements and a longer group
        would overflow its uint8 sum."""
        rows, out_rows = shape
        rng = np.random.default_rng(length + rows)
        w = rng.standard_normal((out_rows, length)).astype(np.float32)
        a = rng.standard_normal((rows, length)).astype(np.float32)
        a[0], a[1] = w[0], -w[0]
        want = binary.sign_forward(a).astype(np.float64) @ binary.sign_forward(w).T
        assert want[0, 0] == length and want[1, 0] == -length
        got = binary.xnor_popcount_matmul(binary.pack_signs(a), binary.pack_signs(w))
        assert got.dtype == np.int32 and got.shape == shape
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("length", [64, 70, 576])
    @pytest.mark.parametrize("step", ["chunk-1", "chunk", "chunk+1", "2chunk+1"])
    @pytest.mark.parametrize("rows", [1, 128, 2048, 3000])
    def test_weight_row_chunks_match_brute_force(self, monkeypatch, rows, step, length):
        """Weight-row counts on both sides of one and two whole chunks, where a
        chunk is as many rows as keep the XOR buffer within 1 MiB (2**17
        words). Every XOR stays within that bound, and the result equals
        sign(a) @ sign(w).T from the unpacked bits, summed in blocks of rows."""
        chunk = binary._XOR_BUFFER_BYTES // 8 // rows
        out_rows = {"chunk-1": chunk - 1, "chunk": chunk, "chunk+1": chunk + 1,
                    "2chunk+1": 2 * chunk + 1}[step]
        rng = np.random.default_rng(rows + out_rows + length)
        wpr = -(-length // binary.WORD_BITS)
        a = binary.PackedBits(rng.integers(0, 2 ** 64, (rows, wpr), dtype=np.uint64), length)
        w = binary.PackedBits(rng.integers(0, 2 ** 64, (out_rows, wpr), dtype=np.uint64),
                              length)
        got, xor_bytes = matmul_xor_bytes(monkeypatch, a, w)
        assert got.dtype == np.int32 and got.shape == (rows, out_rows)
        assert len(xor_bytes) == wpr * -(-out_rows // chunk)
        assert max(xor_bytes) <= binary._XOR_BUFFER_BYTES

        def signs(p, lo, hi):
            bits = np.unpackbits(p.words[lo:hi].view(np.uint8), axis=1, bitorder="little")
            return bits[:, :length].astype(np.float32) * 2 - 1

        a_pm1 = signs(a, 0, rows)
        for lo in range(0, out_rows, 4096):
            want = a_pm1 @ signs(w, lo, lo + 4096).T
            np.testing.assert_array_equal(got[:, lo:lo + 4096], want)

    def test_weight_row_wider_than_the_xor_budget_runs_alone(self, monkeypatch):
        """A row count whose single weight row needs more than 1 MiB of XOR
        buffer runs one weight row per chunk."""
        rows = binary._XOR_BUFFER_BYTES // 8 + 3
        rng = np.random.default_rng(9)
        a = binary.PackedBits(rng.integers(0, 2 ** 64, (rows, 1), dtype=np.uint64), 64)
        w = binary.PackedBits(rng.integers(0, 2 ** 64, (3, 1), dtype=np.uint64), 64)
        got, xor_bytes = matmul_xor_bytes(monkeypatch, a, w)
        assert xor_bytes == [rows * 8] * 3
        disagree = np.bitwise_count(a.words ^ w.words.T).astype(np.int32)
        np.testing.assert_array_equal(got, 64 - 2 * disagree)

    def test_no_rows_by_out_rows_by_words_intermediate(self):
        rows, c_out, length = 2048, 128, 9 * binary.WORD_BITS
        rng = np.random.default_rng(0)
        a = binary.pack_signs(rng.standard_normal((rows, length)) >= 0)
        w = binary.pack_signs(rng.standard_normal((c_out, length)) >= 0)
        cube_bytes = rows * c_out * a.words_per_row * 8
        tracemalloc.start()
        try:
            binary.xnor_popcount_matmul(a, w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < cube_bytes / 2, (peak, cube_bytes)

    def test_zero_length_rows_are_the_empty_sum(self):
        """Rows of length 0 hold no words, so every ±1 dot product is the
        empty sum, 0, whatever the memory the kernel's buffers reuse held."""
        for _ in range(3):
            np.full((5, 300), 255, dtype=np.uint8)  # freed, it leaves 0xff cells behind
            got = binary.xnor_popcount_matmul(binary.pack_signs(np.ones((300, 0))),
                                              binary.pack_signs(np.ones((5, 0))))
            assert got.dtype == np.int32 and got.shape == (300, 5)
            np.testing.assert_array_equal(got, 0)

    @pytest.mark.parametrize("length", [1, 63, 64, 65, 130, 576, 700])
    def test_word_major_operands_read_as_their_c_ordered_copies(self, length):
        """PackedBits whose words are the transposed view of a word-major
        array, as the word path's conv rows are, give the kernel and
        unpack_signs what their C-ordered copies give; the random words set
        the tail bits past the length too."""
        rng = np.random.default_rng(length)
        wpr = -(-length // binary.WORD_BITS)
        c_ordered = [binary.PackedBits(rng.integers(0, 2 ** 64, (rows, wpr), dtype=np.uint64),
                                       length) for rows in (300, 7)]
        word_major = [binary.PackedBits(np.ascontiguousarray(p.words.T).T, length)
                      for p in c_ordered]
        assert all(p.words.T.flags.c_contiguous for p in word_major)
        want = binary.xnor_popcount_matmul(*c_ordered)
        for a, w in [(word_major[0], c_ordered[1]), (c_ordered[0], word_major[1]),
                     word_major]:
            np.testing.assert_array_equal(binary.xnor_popcount_matmul(a, w), want)
        for c, m in zip(c_ordered, word_major):
            np.testing.assert_array_equal(binary.unpack_signs(m), binary.unpack_signs(c))

    def test_length_mismatch(self):
        a = binary.pack_signs(np.ones((2, 3)))
        b = binary.pack_signs(np.ones((2, 4)))
        with pytest.raises(DimensionError):
            binary.xnor_popcount_matmul(a, b)


class TestBinaryConv2d:
    def test_scalar_weight(self):
        x = np.full((1, 1, 2, 2), 0.7, dtype=np.float32)
        p = make_conv_params(np.full((1, 1, 1, 1), 0.5, dtype=np.float32))
        y = binary.binary_conv2d_packed(x, p)[0]
        np.testing.assert_allclose(y, np.full((1, 1, 2, 2), 0.5, dtype=np.float32))

    def test_all_positive_weights_sum_signs(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((1, 1, 5, 5)).astype(np.float32)
        w = rng.uniform(0.1, 1.0, size=(1, 1, 3, 3)).astype(np.float32)
        p = make_conv_params(w)
        y = binary.binary_conv2d_packed(x, p)[0]
        signs = binary.sign_forward(x)
        for oy in range(3):
            for ox in range(3):
                want = p.alpha[0] * signs[0, 0, oy:oy + 3, ox:ox + 3].sum()
                assert abs(y[0, 0, oy, ox] - want) < 1e-5

    def test_padding_contributes_plus_one(self):
        # all-(-1) input with +1-favoring weights: interior disagrees fully,
        # corners pick up +1 padding cells
        x = -np.ones((1, 1, 3, 3), dtype=np.float32)
        p = make_conv_params(np.ones((1, 1, 3, 3), dtype=np.float32), padding=1)
        _, acc, _ = binary.binary_conv2d_packed(x, p)
        acc_img = acc.reshape(3, 3)
        assert acc_img[1, 1] == -9
        assert acc_img[0, 0] == 5 - 4  # 5 padding (+1) cells, 4 real (-1) cells

    def test_random_configs_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            c_in = int(rng.integers(1, 9))
            c_out = int(rng.integers(1, 9))
            k = int(rng.choice([1, 3]))
            stride = int(rng.choice([1, 2]))
            padding = int(rng.choice([0, 1])) if k == 3 else 0
            h = int(rng.integers(4, 9))
            w = int(rng.integers(4, 9))
            x = rng.standard_normal((1, c_in, h, w)).astype(np.float32)
            p = binary.BinaryConv2dParams.create(c_out, c_in, k, stride=stride,
                                                 padding=padding, rng=rng)
            y, acc, _ = binary.binary_conv2d_packed(x, p)
            _, _, oh, ow = y.shape
            acc_img = acc.reshape(1, oh, ow, c_out).transpose(0, 3, 1, 2)
            np.testing.assert_array_equal(
                acc_img, direct_pm1_conv(x, p.latent_weights.data, stride, padding))
            np.testing.assert_allclose(y, reference_pm1_conv(x, p),
                                       rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("k, stride, padding", [(1, 1, 0), (1, 2, 1), (3, 1, 1),
                                                    (3, 2, 0), (3, 2, 1)])
    @pytest.mark.parametrize("c_in", [64, 128, 192])
    def test_word_path_matches_direct_and_byte_rows(self, monkeypatch, c_in, k, stride,
                                                    padding):
        """At C_in a multiple of 64 the rows are copied word-major from
        per-pixel sign words, with no tensor.im2col call, and held as the
        transposed view the kernel reads in place; the accumulator equals the
        direct ±1 convolution (+1 padding), and the packed rows equal those
        packed from the gathered sign bytes, on inputs holding ±0, NaN and
        ±inf."""
        rng = np.random.default_rng(c_in + 10 * k + stride + padding)
        x = rng.standard_normal((2, c_in, 5, 6)).astype(np.float32)
        x.reshape(-1)[rng.choice(x.size, 48, replace=False)] = np.repeat(
            np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf], dtype=np.float32), 8)
        p = binary.BinaryConv2dParams.create(5, c_in, k, stride=stride, padding=padding,
                                             rng=rng)
        gathered, operands = [], []
        im2col, kernel = tensor.im2col, binary.xnor_popcount_matmul

        def recording_im2col(cells, *args, **kwargs):
            gathered.append(cells.dtype)
            return im2col(cells, *args, **kwargs)

        def recording_kernel(a, w):
            operands.append(a)
            return kernel(a, w)

        monkeypatch.setattr(tensor, "im2col", recording_im2col)
        monkeypatch.setattr(binary, "xnor_popcount_matmul", recording_kernel)
        y, acc, a_packed = binary.binary_conv2d_packed(x, p)
        assert gathered == []
        _, _, oh, ow = y.shape
        acc_img = acc.reshape(2, oh, ow, 5).transpose(0, 3, 1, 2)
        np.testing.assert_array_equal(
            acc_img, direct_pm1_conv(x, p.latent_weights.data, stride, padding))
        rows = binary.pack_signs(im2col(x >= 0, k, k, stride, padding, pad_value=True))
        (a,) = operands
        assert a_packed is a
        assert a.words.T.flags.c_contiguous
        assert (a.valid_len, a.rows, a.words_per_row) == \
            (rows.valid_len, rows.rows, rows.words_per_row)
        np.testing.assert_array_equal(a.words, rows.words)
        assert y.flags.c_contiguous and y.dtype == np.float32
        np.testing.assert_array_equal(y, acc_img.astype(np.float32) * p.alpha[:, None, None])

    def test_byte_path_below_a_word_of_channels(self, monkeypatch):
        """C_in that is not a multiple of 64 builds its rows tap-major, with
        no tensor.im2col call."""
        gathered, built, im2col, rows = [], [], tensor.im2col, binary._packed_sign_rows

        def recording_im2col(cells, *args, **kwargs):
            gathered.append(cells.dtype)
            return im2col(cells, *args, **kwargs)

        def recording_rows(x, *args):
            built.append(x.shape[1])
            return rows(x, *args)

        monkeypatch.setattr(tensor, "im2col", recording_im2col)
        monkeypatch.setattr(binary, "_packed_sign_rows", recording_rows)
        for c_in in (3, 63, 65, 96):
            p = binary.BinaryConv2dParams.create(2, c_in, 3, padding=1)
            binary.binary_conv2d_packed(np.ones((1, c_in, 4, 4), dtype=np.float32), p)
        assert built == [3, 63, 65, 96]
        assert gathered == []

    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [1, 3, 4])
    @pytest.mark.parametrize("c_in", [1, 3, 6, 8, 63, 65, 96, 130])
    def test_tap_major_rows_equal_packed_sign_bytes(self, c_in, k, stride, padding):
        """The byte path's rows and valid_len equal pack_signs of the gathered
        sign bytes bit for bit, on inputs holding ±0, NaN and ±inf."""
        rng = np.random.default_rng(1000 * c_in + 10 * k + 2 * stride + padding)
        x = rng.standard_normal((2, c_in, 7, 6)).astype(np.float32)
        x.reshape(-1)[rng.choice(x.size, 12, replace=False)] = np.repeat(
            np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf], dtype=np.float32), 2)
        got = binary._packed_sign_rows(x, k, k, stride, padding)
        want = binary.pack_signs(tensor.im2col(x >= 0, k, k, stride, padding,
                                               pad_value=True))
        assert got.valid_len == want.valid_len == k * k * c_in
        assert got.words.shape == want.words.shape and got.words.dtype == want.words.dtype
        np.testing.assert_array_equal(got.words, want.words)

    @pytest.mark.parametrize("c_in", [3, 64])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_output_is_scaled_accumulator_in_nchw(self, dtype, c_in):
        """The output is alpha times the accumulator in the weights' dtype,
        cast then scaled, C-contiguous in NCHW order, on either gather path."""
        rng = np.random.default_rng(8)
        x = rng.standard_normal((3, c_in, 4, 5)).astype(dtype)
        p = binary.BinaryConv2dParams.create(7, c_in, 3, padding=1, rng=rng)
        p.latent_weights.data = p.latent_weights.data.astype(dtype)
        y, acc, _ = binary.binary_conv2d_packed(x, p)
        assert y.flags.c_contiguous and y.dtype == dtype and y.shape == (3, 7, 4, 5)
        want = acc.astype(dtype).reshape(3, 4, 5, 7).transpose(0, 3, 1, 2) \
            * p.alpha[:, None, None]
        assert y.tobytes() == np.ascontiguousarray(want).tobytes()

    def test_channel_mismatch(self):
        p = binary.BinaryConv2dParams.create(2, 3, 3)
        with pytest.raises(DimensionError):
            binary.binary_conv2d_packed(np.ones((1, 2, 4, 4), dtype=np.float32), p)

    @pytest.mark.parametrize("stride,padding", [(1, -1), (0, 1)])
    def test_bad_stride_or_padding_is_typed(self, stride, padding):
        """Once a raw numpy ValueError and a ZeroDivisionError."""
        p = binary.BinaryConv2dParams.create(2, 2, 3, stride=stride, padding=padding)
        match = "padding must be" if padding < 0 else "stride must be"
        with pytest.raises(DimensionError, match=match):
            binary.binary_conv2d_packed(np.ones((1, 2, 8, 8), dtype=np.float32), p)

    def test_alpha_refresh_and_freeze(self):
        """alpha is derived from the latent weights on every read."""
        p = binary.BinaryConv2dParams.create(2, 2, 3, rng=np.random.default_rng(6))
        x = np.ones((1, 2, 4, 4), dtype=np.float32)
        before, y = p.alpha.copy(), binary.binary_conv2d_packed(x, p)[0]
        p.latent_weights.data *= 2
        np.testing.assert_allclose(p.alpha, before * 2, rtol=1e-6)
        np.testing.assert_allclose(binary.binary_conv2d_packed(x, p)[0], y * 2, rtol=1e-6)


def float_transposed_conv(x, w, stride, padding):
    """Reference transposed convolution via explicit scatter loops."""
    n, c_in, h, wd = x.shape
    _, c_out, kh, kw = w.shape
    oh = (h - 1) * stride - 2 * padding + kh
    ow = (wd - 1) * stride - 2 * padding + kw
    out = np.zeros((n, c_out, oh + 2 * padding, ow + 2 * padding), dtype=np.float64)
    for b in range(n):
        for ic in range(c_in):
            for y in range(h):
                for xx in range(wd):
                    out[b, :, y * stride:y * stride + kh, xx * stride:xx * stride + kw] \
                        += x[b, ic, y, xx] * w[ic]
    if padding:
        out = out[:, :, padding:-padding, padding:-padding]
    return out


class TestBinaryDeconv2d:
    """The forward of ops.binary_deconv2d, the one transposed 1-bit conv."""

    def test_hand_case(self):
        x = np.ones((1, 1, 1, 1), dtype=np.float32)
        p = make_conv_params(np.full((1, 1, 2, 2), 0.5, dtype=np.float32),
                             stride=2, transposed=True)
        y = ops.binary_deconv2d(x, p).data
        assert y.shape == (1, 1, 2, 2)
        np.testing.assert_allclose(y, np.full((1, 1, 2, 2), 0.5, dtype=np.float32))

    def test_zero_alpha(self):
        p = make_conv_params(np.zeros((2, 3, 2, 2), dtype=np.float32),
                             stride=2, transposed=True)
        y = ops.binary_deconv2d(np.ones((1, 2, 3, 3), dtype=np.float32), p).data
        np.testing.assert_array_equal(y, np.zeros_like(y))

    def test_matches_float_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(15):
            c_in = int(rng.integers(1, 4))
            c_out = int(rng.integers(1, 4))
            k = int(rng.choice([2, 3, 4]))
            stride = int(rng.choice([1, 2]))
            padding = int(rng.choice([0, 1])) if k > 2 else 0
            h = int(rng.integers(2, 5))
            x = rng.standard_normal((1, c_in, h, h)).astype(np.float32)
            p = binary.BinaryConv2dParams.create(c_out, c_in, k, stride=stride,
                                                 padding=padding, rng=rng,
                                                 transposed=True)
            y = ops.binary_deconv2d(x, p).data
            want = float_transposed_conv(binary.sign_forward(x).astype(np.float64),
                                         binary.binarize_weights(p).astype(np.float64),
                                         stride, padding)
            np.testing.assert_allclose(y, want, rtol=1e-5, atol=1e-6)

    def test_output_extent(self):
        p = binary.BinaryConv2dParams.create(3, 2, 4, stride=2, padding=1,
                                             transposed=True)
        y = ops.binary_deconv2d(np.ones((1, 2, 5, 5), dtype=np.float32), p).data
        assert y.shape == (1, 3, 10, 10)  # (5-1)*2 - 2 + 4

    def test_direct_oracle_matches_scatter_loops(self):
        rng = np.random.default_rng(8)
        for k, stride, padding in [(1, 3, 0), (3, 2, 1), (4, 2, 1), (5, 3, 4)]:
            x = rng.standard_normal((2, 3, 5, 4))
            w = rng.standard_normal((3, 2, k, k))
            want = float_transposed_conv(binary.sign_forward(x), binary.sign_forward(w),
                                         stride, padding)
            got = direct_pm1_deconv(x, w, stride, padding)
            assert got.dtype == np.int32
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("kernel", [1, 3, 4, 5])
    def test_alpha_times_integer_oracle_bitwise(self, kernel, stride):
        """The output is the exact ±1 sum scaled by alpha once per channel."""
        rng = np.random.default_rng(kernel * 10 + stride)
        for padding in range(kernel):
            for shape in [(1, 3, 5, 5), (3, 2, 5, 6)]:  # H >= K: every padding fits
                x = rng.standard_normal(shape).astype(np.float32)
                x[0, 0, 0, 0] = 0.0
                p = binary.BinaryConv2dParams.create(4, shape[1], kernel, stride=stride,
                                                     padding=padding, rng=rng, transposed=True)
                p.latent_weights.data.flat[0] = 0.0
                y = ops.binary_deconv2d(x, p).data
                acc = direct_pm1_deconv(x, p.latent_weights.data, stride, padding)
                want = acc.astype(np.float32) * p.alpha[:, None, None]
                assert y.dtype == np.float32 and y.flags.c_contiguous
                assert y.tobytes() == want.tobytes()

    @pytest.mark.parametrize("stride,padding", [(2, -1), (0, 1), (-1, 0)])
    def test_bad_stride_or_padding_is_typed(self, stride, padding):
        """Padding -1 once promised an 11 x 11 output and returned 1 x 1."""
        p = binary.BinaryConv2dParams.create(3, 2, 3, stride=stride, padding=padding,
                                             transposed=True)
        x = np.ones((1, 2, 4, 4), dtype=np.float32)
        match = "padding must be" if padding < 0 else "stride must be"
        with pytest.raises(DimensionError, match=match):
            ops.binary_deconv2d(x, p)


class TestFootprint:
    def test_ratio_at_2048(self):
        rows = 7
        for length in (2048, 3000, 4096):
            packed = binary.pack_signs(np.ones((rows, length)))
            dense_bytes = rows * length * 4
            assert dense_bytes / packed.footprint_bytes >= 30
