"""1-bit kernels: sign quantization, bit packing, XNOR-popcount convolution,
and the transposed convolution on ±1 operands.

Sign convention throughout: sign(0) = +1, and a packed bit of 1 encodes +1.
Zero padding therefore contributes +1 cells on the 1-bit path, which differs
from float padding semantics; every oracle comparison has to pad with +1.

The packed convolution gathers its rows in one of two ways. When the input
channels are a multiple of 64, each pixel's channel signs are packed into
words first and the windows of that word map are gathered, padded with
all-ones words (as daBNN packs channels before it gathers; Zhang et al.,
2019); otherwise the sign bytes are gathered and then packed. Both give the
same rows bit for bit.

The transposed convolution is not packed. It runs as one float GEMM over
the output phases (:func:`tensor.conv_transpose2d`) on sign(x) and sign(w),
whose sums are exact integers, and then scales by alpha, the same contract
as the packed path: an integer accumulator, then one scale per channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autograd import Parameter
from .errors import DimensionError
from .tensor import check_nchw, conv_out_extent, conv_transpose2d, im2col, weight_matrix

WORD_BITS = 64


def sign_forward(x: np.ndarray) -> np.ndarray:
    """Elementwise binarization: +1 for x >= 0, -1 for x < 0."""
    x = np.asarray(x)
    s = np.asarray(x >= 0).astype(x.dtype if x.dtype.kind == "f" else np.float32)
    s *= 2
    s -= 1
    return s


def smooth_sign(x: np.ndarray) -> np.ndarray:
    """The piecewise-quadratic surrogate F whose derivative is ste_grad.

    Used only while gradient-checking: substituting F for sign makes the
    straight-through backward the exact gradient of the (smoothed) forward,
    so central finite differences become a valid oracle for the wiring.
    """
    x = np.asarray(x)
    y = np.where(x >= 0, -x * x + 2.0 * x, x * x + 2.0 * x)
    y = np.where(x >= 1.0, 1.0, y)
    y = np.where(x < -1.0, -1.0, y)
    return y.astype(x.dtype if x.dtype.kind == "f" else np.float64)


_SMOOTH_MODE = False


class smooth_mode:
    """Context manager switching 1-bit ops to the surrogate-F forward."""

    def __enter__(self):
        global _SMOOTH_MODE
        self._prev = _SMOOTH_MODE
        _SMOOTH_MODE = True
        return self

    def __exit__(self, *exc):
        global _SMOOTH_MODE
        _SMOOTH_MODE = self._prev
        return False


def smooth_mode_active() -> bool:
    return _SMOOTH_MODE


def binarize_value(x: np.ndarray) -> np.ndarray:
    return smooth_sign(x) if _SMOOTH_MODE else sign_forward(x)


def ste_grad(x: np.ndarray) -> np.ndarray:
    """Derivative of the piecewise-quadratic surrogate for sign.

    0 for |x| >= 1, otherwise 2 - 2|x| (the ApproxSign gradient of Bi-Real Net),
    computed as max(2 - 2|x|, 0); NaN stays NaN.
    """
    x = np.asarray(x)
    if x.dtype.kind != "f":
        x = x.astype(np.float32)
    g = np.asarray(np.abs(x))  # a 0-d input stays an array
    g *= -2.0
    g += 2.0
    return np.maximum(g, 0, out=g)


_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def _tail_mask(valid_len: int) -> np.uint64:
    """Mask selecting the meaningful bits of the final word of a row."""
    rem = valid_len % WORD_BITS
    if rem == 0:
        return _ALL_ONES
    return np.uint64((1 << rem) - 1)


@dataclass
class PackedBits:
    """Sign rows packed into 64-bit words, bit i of word j = element j*64+i."""

    words: np.ndarray  # (rows, words_per_row) uint64
    valid_len: int
    rows = property(lambda self: self.words.shape[0])
    words_per_row = property(lambda self: self.words.shape[1])
    footprint_bytes = property(lambda self: self.words.nbytes)


def pack_signs(x: np.ndarray) -> PackedBits:
    """Pack rows into PackedBits with ``valid_len`` equal to the row length;
    the bits of the last word past it are zero.

    A bool array is taken as the bits themselves (True encodes +1); any other
    dtype is signed first, so bit = x >= 0.
    """
    x = np.atleast_2d(np.asarray(x))
    rows, valid_len = x.shape
    bits = x if x.dtype == np.bool_ else x >= 0
    wpr = -(-valid_len // WORD_BITS)
    if valid_len % WORD_BITS:
        padded = np.zeros((rows, wpr * WORD_BITS), dtype=np.bool_)
        padded[:, :valid_len] = bits
        bits = padded
    # Rows are whole words now, so one packbits over the flat array packs them all.
    words = np.packbits(bits.reshape(-1), bitorder="little").view("<u8")
    return PackedBits(words=words.reshape(rows, wpr), valid_len=valid_len)


# Row b holds the eight ±1 signs of byte b, least significant bit first.
_SIGN_TABLE = np.where(np.arange(256)[:, None] >> np.arange(8) & 1, 1.0, -1.0).astype(
    np.float32)


def unpack_signs(p: PackedBits) -> np.ndarray:
    """Inverse of pack_signs: ±1 float32 rows, (p.rows, p.valid_len).

    Each byte a row uses (the first ceil(valid_len / 8)) is looked up in a
    256 x 8 sign table. When valid_len is not a multiple of 8 the result is a
    view whose rows are strided over the last byte's whole 8 cells.
    """
    used = -(-p.valid_len // 8)
    bytes_ = p.words.view(np.uint8).reshape(p.rows, -1)[:, :used]
    return np.take(_SIGN_TABLE, bytes_, axis=0).reshape(p.rows, used * 8)[:, :p.valid_len]


# The kernel's broadcast XOR runs with a row-sized ufunc buffer when a.rows is
# in this band and the XOR writes at least this many words; both bounds come
# from a per-shape timing table of numpy 2.4 (see xnor_popcount_matmul).
_ROW_BUFFER_BAND = range(256, 2731)
_ROW_BUFFER_MIN_WORDS = 8192
# Words whose popcounts the kernel sums in uint8 before it widens: 3 * 64 <= 255.
_GROUP_WORDS = 3


def xnor_popcount_matmul(a: PackedBits, w: PackedBits) -> np.ndarray:
    """All-pairs ±1 dot products, (a.rows, w.rows) int32.

    Computed as length - 2*popcount(XOR), one word at a time: word j of
    every row pair is XORed into one (w.rows, a.rows) buffer, so the broadcast
    runs along the long a.rows axis. The tail mask runs on the last word only
    when the length is not a whole number of words. Popcounts are summed in
    uint8 over groups of ``_GROUP_WORDS`` words (3 * 64 = 192 <= 255), and each
    group is added once into the disagreement counter, which is uint16 while
    the length fits in it (< 2**16) and int32 beyond; rows of at most
    ``_GROUP_WORDS`` words keep the uint8 count. The result,
    length - 2 * count, is the transposed view of the C-contiguous
    (w.rows, a.rows) int32 array.

    When a.rows is at most a third of numpy's ufunc buffer (8192 elements by
    default), numpy 2.4 runs that broadcast XOR through its buffered iterator:
    it copies chunks spanning several rows through the buffer instead of
    looping over each row in place, which makes the XOR up to 3-4x slower.
    For a.rows in ``_ROW_BUFFER_BAND`` and an XOR of at least
    ``_ROW_BUFFER_MIN_WORDS`` words (w.rows * a.rows), the buffer is set to
    a.rows rounded up to a multiple of 16 (numpy accepts no other size) for
    that one call, which keeps it on the in-place loop, and the caller's size
    is restored in a ``finally``. Above 2730 rows numpy already loops in
    place; below 256 rows, or below 8192 words, the XOR gains less than the
    ~4 us that the set and restore cost. The setting covers only the XOR: the
    uint8 -> uint16 ``disagree += group`` is a casting add that numpy always
    buffers, and a small buffer slows it down.
    """
    if a.valid_len != w.valid_len:
        raise DimensionError(
            f"packed operands disagree on length: {a.valid_len} vs {w.valid_len}"
        )
    a_cols = np.ascontiguousarray(a.words.T)
    w_cols = w.words.T
    shape = (w.rows, a.rows)
    x = np.empty(shape, dtype=np.uint64)
    count = np.empty(shape, dtype=np.uint8)
    group = np.empty(shape, dtype=np.uint8)
    if a.words_per_row <= _GROUP_WORDS:
        disagree = group
    else:
        disagree = np.zeros(shape, dtype=np.uint16 if a.valid_len < 2 ** 16 else np.int32)
    last = a.words_per_row - 1
    bufsize = None
    if a.rows in _ROW_BUFFER_BAND and a.rows * w.rows >= _ROW_BUFFER_MIN_WORDS:
        bufsize = -(-a.rows // 16) * 16
    for j in range(a.words_per_row):
        if bufsize is None:
            np.bitwise_xor(w_cols[j][:, None], a_cols[j][None, :], out=x)
        else:
            caller = np.setbufsize(bufsize)
            try:
                np.bitwise_xor(w_cols[j][:, None], a_cols[j][None, :], out=x)
            finally:
                np.setbufsize(caller)
        if j == last and a.valid_len % WORD_BITS:
            x &= _tail_mask(a.valid_len)
        if j % _GROUP_WORDS == 0:
            np.bitwise_count(x, out=group)
        else:
            np.bitwise_count(x, out=count)
            group += count
        if disagree is not group and (j % _GROUP_WORDS == _GROUP_WORDS - 1 or j == last):
            disagree += group
    acc = np.multiply(disagree, -2, dtype=np.int32)
    acc += a.valid_len
    return acc.T


class _LatentWeights:
    """Per-output-channel scale of a 1-bit layer, derived from its latent weights.

    alpha is the mean |w| over each output channel's fan-in (XNOR-Net), so it
    always matches the current latent weights.
    """

    @property
    def fan_in(self) -> int:
        shape = self.latent_weights.data.shape
        return math.prod(shape[a] for a in self.fan_axes)

    @property
    def alpha(self) -> np.ndarray:
        w = self.latent_weights.data
        return (np.abs(w).sum(axis=self.fan_axes) / self.fan_in).astype(w.dtype)

    def state(self, name: str) -> dict:
        return {f"{name}.latent": self.latent_weights}


@dataclass
class BinaryConv2dParams(_LatentWeights):
    """Latent full-precision weights of a 1-bit convolution.

    ``latent_weights`` is (C_out, C_in, K, K) for convolution. For the
    transposed path the same record stores (C_in, C_out, K, K); alpha is
    always indexed by output channel.
    """

    latent_weights: Parameter
    stride: int = 1
    padding: int = 0
    transposed: bool = False

    @classmethod
    def create(cls, c_out: int, c_in: int, kernel: int, stride: int = 1,
               padding: int = 0, rng: np.random.Generator | None = None,
               transposed: bool = False, dtype=np.float32) -> "BinaryConv2dParams":
        rng = rng or np.random.default_rng(0)
        fan_in = c_in * kernel * kernel
        bound = np.sqrt(6.0 / fan_in)
        shape = (c_in, c_out, kernel, kernel) if transposed else (c_out, c_in, kernel, kernel)
        w = rng.uniform(-bound, bound, size=shape)
        return cls(latent_weights=Parameter(w, dtype=dtype), stride=stride,
                   padding=padding, transposed=transposed)

    @property
    def fan_axes(self) -> tuple:
        """The latent-weight axes that alpha averages over."""
        return (0, 2, 3) if self.transposed else (1, 2, 3)

    @property
    def out_channels(self) -> int:
        return self.latent_weights.data.shape[1 if self.transposed else 0]

    @property
    def kernel(self) -> int:
        return self.latent_weights.data.shape[2]


@dataclass
class BinaryLinearParams(_LatentWeights):
    """Latent weights (out, in) with per-output-row scale, for 1-bit FC layers."""

    latent_weights: Parameter
    fan_axes = (1,)

    @classmethod
    def create(cls, out_features: int, in_features: int,
               rng: np.random.Generator | None = None, dtype=np.float32) -> "BinaryLinearParams":
        rng = rng or np.random.default_rng(0)
        bound = np.sqrt(6.0 / in_features)
        w = rng.uniform(-bound, bound, size=(out_features, in_features))
        return cls(latent_weights=Parameter(w, dtype=dtype))


def binarize_weights(p) -> np.ndarray:
    """Scaled 1-bit weights alpha * sign(w) in the latent layout, alpha per
    output channel; smooth mode puts F(w) in place of sign(w)."""
    w = p.latent_weights.data
    return binarize_value(w) * np.expand_dims(p.alpha, p.fan_axes)


def binary_conv2d_packed(x: np.ndarray, p: BinaryConv2dParams):
    """Packed-path forward. Returns (output, int accumulator, packed rows).

    When C_in is a multiple of 64, each pixel's channel signs are packed once
    into C_in/64 words, and :func:`im2col` gathers the (kh, kw) windows of
    that word map, padding with all-ones words (the bits of +1). The rows are
    bit for bit those that packing the gathered sign bytes gives, as every
    other C_in does: one byte per cell, then :func:`pack_signs`. Those rows,
    the signs of x's (kh, kw, c) windows with +1 padding at one bit per cell,
    are returned as PackedBits, so a backward can read them back with
    :func:`unpack_signs` instead of gathering the windows again. ``p`` may
    be a transient record whose latent weights stack several convs' weights
    along C_out, as ``ops.binary_conv2d`` builds for the branches of a
    fan-out: the rows are gathered once for all of them, and each output
    channel is what its own conv gives, since ±1 sums are exact and alpha is
    a per-channel reduction.

    The accumulator is the pre-scale ±1 convolution result, (N*OH*OW, C_out)
    as :func:`xnor_popcount_matmul` returns it: a transposed view of a
    channel-major buffer. The output is alpha * accumulator in a C-contiguous
    NCHW array: one casting copy writes the accumulator through the array's
    channel-major view, and alpha scales it in place. It is C-contiguous
    because numpy's reductions downstream sum in an order that follows the
    memory layout.
    """
    x = check_nchw(x)
    w = p.latent_weights.data
    if p.transposed:
        raise DimensionError("binary_conv2d requires non-transposed params")
    c_out, c_in, kh, kw = w.shape
    n, c, h, wd = x.shape
    if c != c_in:
        raise DimensionError(
            f"weight input channels {w.shape} do not match input {x.shape}"
        )
    oh = conv_out_extent(h, kh, p.stride, p.padding)
    ow = conv_out_extent(wd, kw, p.stride, p.padding)
    w_packed = pack_signs(weight_matrix(w))
    if c % WORD_BITS == 0:
        pixels = pack_signs((x >= 0).transpose(0, 2, 3, 1).reshape(-1, c)).words
        word_map = pixels.reshape(n, h, wd, -1).transpose(0, 3, 1, 2)
        rows = im2col(word_map, kh, kw, p.stride, p.padding, pad_value=_ALL_ONES)
        a_packed = PackedBits(words=rows, valid_len=w_packed.valid_len)
    else:
        a_packed = pack_signs(im2col(x >= 0, kh, kw, p.stride, p.padding, pad_value=True))
    acc = xnor_popcount_matmul(a_packed, w_packed)  # (N*OH*OW, C_out)
    y = np.empty((n, c_out, oh, ow), dtype=w.dtype)
    y.transpose(1, 0, 2, 3)[...] = acc.T.reshape(c_out, n, oh, ow)
    y *= p.alpha[:, None, None]
    return y, acc, a_packed


def deconv_geometry(x: np.ndarray, p: BinaryConv2dParams) -> tuple[int, int]:
    """Checks a transposed conv's operands; returns (out height, out width).

    Output spatial extent is (H-1)*p.stride - 2*p.padding + K.
    """
    x = check_nchw(x)
    w = p.latent_weights.data
    if not p.transposed:
        raise DimensionError("binary_deconv2d requires transposed params")
    if p.stride < 1:
        raise DimensionError(f"stride must be >= 1, got {p.stride}")
    if p.padding < 0:
        raise DimensionError(f"padding must be >= 0, got {p.padding}")
    c_in, c_out, kh, kw = w.shape
    n, c, h, wd = x.shape
    if c != c_in:
        raise DimensionError(
            f"weight input channels {w.shape} do not match input {x.shape}"
        )
    oh = (h - 1) * p.stride - 2 * p.padding + kh
    ow = (wd - 1) * p.stride - 2 * p.padding + kw
    if oh < 1 or ow < 1:
        raise DimensionError(
            f"deconv output extent {oh}x{ow} invalid for input {h}x{wd}"
        )
    return oh, ow


def binary_deconv2d(x: np.ndarray, p: BinaryConv2dParams) -> np.ndarray:
    """Transposed 1-bit convolution: alpha * conv_transpose2d(sign(x), sign(w)).

    :func:`tensor.conv_transpose2d` runs it as one GEMM over the output
    phases. Every sum of ±1 products is an exact integer, so no summation
    order changes it, and alpha scales each output channel once afterwards,
    as in :func:`binary_conv2d_packed`. A cell whose sum is 0 is therefore
    exactly 0, which a following sign reads as +1. The result is
    C-contiguous and in the latent weights' dtype; when x has that dtype too,
    ``ops.binary_deconv2d``'s forward equals this bit for bit.
    """
    deconv_geometry(x, p)
    w = p.latent_weights.data
    acc = conv_transpose2d(sign_forward(x), binarize_value(w), p.stride, p.padding)
    return (acc * np.expand_dims(p.alpha, p.fan_axes)).astype(w.dtype, copy=False)
