"""1-bit kernels: sign quantization, bit packing and XNOR-popcount convolution.

Sign convention throughout: sign(0) = +1, and a packed bit of 1 encodes +1.
Zero padding therefore contributes +1 cells on the 1-bit path, which differs
from float padding semantics; every oracle comparison has to pad with +1.

The packed convolution builds its rows in one of two ways, and packs bits
ahead of the popcount in both, as daBNN does (Zhang et al., 2019). Both
write into a +1-padded, channel-major grid and copy its windows out
tap-major in one copy that runs along rows of OW cells; neither calls
``tensor.im2col``. When the input channels are a multiple of 64, the grid
holds each pixel's channel signs packed into words, padded with all-ones
words, and the copy is the rows' word-major array, which the PackedBits
holds transposed. Otherwise the grid holds the sign bits as 0/1 cells, and
one product with the bit weights 1, 2, ..., 128 turns each 8 cells of a
window column into their byte. Both give the rows that :func:`pack_signs`
makes of ``tensor.im2col(x >= 0, ..., pad_value=True)``, bit for bit.

Every kernel here stays ±1 under ``ops.smooth_mode``, which switches only the ops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autograd import Parameter
from .errors import DimensionError
from .tensor import check_nchw, conv_out_extent, weight_matrix

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
    """Sign rows packed into 64-bit words, bit i of word j = element j*64+i.

    ``words`` is (rows, words_per_row) uint64 in any memory order. pack_signs
    makes it C-contiguous; the conv rows of the word path are the transposed
    view of a word-major (words_per_row, rows) array, the order in which
    :func:`xnor_popcount_matmul` reads them. Every reader gives the same
    result on either order.
    """

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
    256 x 8 sign table. Words held word-major are first copied into rows, an
    eighth of a byte per cell, since bytes can only be viewed along a
    contiguous axis. When valid_len is not a multiple of 8 the result is a
    view whose rows are strided over the last byte's whole 8 cells.
    """
    used = -(-p.valid_len // 8)
    bytes_ = np.ascontiguousarray(p.words).view(np.uint8).reshape(
        p.rows, p.words_per_row * 8)[:, :used]
    return np.take(_SIGN_TABLE, bytes_, axis=0).reshape(p.rows, used * 8)[:, :p.valid_len]


# The kernel XORs one word of every (weight row, window row) pair into one
# uint64 buffer, and runs the weight rows in chunks that keep that buffer
# within this many bytes: one XOR over 2 MiB measured slower than two over 1 MiB.
_XOR_BUFFER_BYTES = 1 << 20
# The kernel's broadcast XOR runs with a row-sized ufunc buffer when a.rows is
# in this band and a chunk's XOR writes at least this many words; both bounds
# come from a per-shape timing table of numpy 2.4 (see xnor_popcount_matmul).
_ROW_BUFFER_BAND = range(256, 2731)
_ROW_BUFFER_MIN_WORDS = 8192
# Words whose popcounts the kernel sums in uint8 before it widens: 3 * 64 <= 255.
_GROUP_WORDS = 3


def xnor_popcount_matmul(a: PackedBits, w: PackedBits) -> np.ndarray:
    """All-pairs ±1 dot products, (a.rows, w.rows) int32; rows of length 0
    give 0, the empty sum.

    Computed as length - 2*popcount(XOR), one word at a time: word j of every
    row pair is XORed into one (chunk, a.rows) buffer, so the broadcast runs
    along the long a.rows axis. It reads a's rows word-major, through a
    C-contiguous copy of ``a.words.T``, which is no copy when ``a`` is held
    word-major, as the conv rows of the word path are. The weight rows run in
    chunks of as many rows as keep that buffer within ``_XOR_BUFFER_BYTES``
    (1 MiB), and at least one; every chunk reuses the same buffers and writes its
    rows of the result. The tail mask runs on the last word only when the
    length is not a whole number of words. Popcounts are summed in uint8 over
    groups of ``_GROUP_WORDS`` words (3 * 64 = 192 <= 255), and each group is
    added once into the disagreement counter, which is uint16 while the length
    fits in it (< 2**16) and int32 beyond; rows of at most ``_GROUP_WORDS``
    words keep the uint8 count, and rows of one word allocate no buffer for a
    second popcount. The sums are exact integers, so the chunking changes no
    value. The result, length - 2 * count, is the transposed view of the
    C-contiguous (w.rows, a.rows) int32 array.

    When a.rows is at most a third of numpy's ufunc buffer (8192 elements by
    default), numpy 2.4 runs that broadcast XOR through its buffered iterator:
    it copies chunks spanning several rows through the buffer instead of
    looping over each row in place, which makes the XOR up to 3-4x slower.
    For a.rows in ``_ROW_BUFFER_BAND`` and a chunk's XOR of at least
    ``_ROW_BUFFER_MIN_WORDS`` words (chunk rows * a.rows), the buffer is set
    to a.rows rounded up to a multiple of 16 (numpy accepts no other size)
    for that one call, which keeps it on the in-place loop, and the caller's
    size is restored in a ``finally``. Above 2730 rows numpy already loops in
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
    rows, out_rows = a.rows, w.rows
    chunk = max(1, min(out_rows, _XOR_BUFFER_BYTES // 8 // max(rows, 1)))
    shape = (chunk, rows)
    x_buf = np.empty(shape, dtype=np.uint64)
    count_buf = np.empty(shape, dtype=np.uint8) if a.words_per_row > 1 else None
    group_buf = np.zeros(shape, dtype=np.uint8)  # rows with no word count 0
    wide = a.words_per_row > _GROUP_WORDS
    if wide:
        disagree_buf = np.empty(shape, dtype=np.uint16 if a.valid_len < 2 ** 16 else np.int32)
    out = np.empty((out_rows, rows), dtype=np.int32)
    last = a.words_per_row - 1
    for lo in range(0, out_rows, chunk):
        hi = min(lo + chunk, out_rows)
        x, group = x_buf[:hi - lo], group_buf[:hi - lo]
        count = None if count_buf is None else count_buf[:hi - lo]
        disagree = group
        if wide:
            disagree = disagree_buf[:hi - lo]
            disagree[...] = 0
        bufsize = None
        if rows in _ROW_BUFFER_BAND and rows * (hi - lo) >= _ROW_BUFFER_MIN_WORDS:
            bufsize = -(-rows // 16) * 16
        for j in range(a.words_per_row):
            if bufsize is None:
                np.bitwise_xor(w_cols[j][lo:hi, None], a_cols[j][None, :], out=x)
            else:
                caller = np.setbufsize(bufsize)
                try:
                    np.bitwise_xor(w_cols[j][lo:hi, None], a_cols[j][None, :], out=x)
                finally:
                    np.setbufsize(caller)
            if j == last and a.valid_len % WORD_BITS:
                x &= _tail_mask(a.valid_len)
            if j % _GROUP_WORDS == 0:
                np.bitwise_count(x, out=group)
            else:
                np.bitwise_count(x, out=count)
                group += count
            if wide and (j % _GROUP_WORDS == _GROUP_WORDS - 1 or j == last):
                disagree += group
        acc = out[lo:hi]
        np.multiply(disagree, -2, out=acc, dtype=np.int32)
        acc += a.valid_len
    return out.T


def fan_in_uniform(shape: tuple, fan_in: int,
                   rng: np.random.Generator | None = None) -> Parameter:
    """He-uniform weights drawn from uniform(±sqrt(6 / fan_in)) (He et al.,
    2015), from ``rng`` or else a generator seeded 0. Every drawn weight
    comes from here: the 1-bit conv and linear latents, the full-precision
    1x1 shortcut and both heads' final linears."""
    rng = rng or np.random.default_rng(0)
    bound = np.sqrt(6.0 / fan_in)
    return Parameter(rng.uniform(-bound, bound, size=shape))


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
               transposed: bool = False) -> "BinaryConv2dParams":
        shape = (c_in, c_out, kernel, kernel) if transposed else (c_out, c_in, kernel, kernel)
        return cls(latent_weights=fan_in_uniform(shape, c_in * kernel * kernel, rng),
                   stride=stride, padding=padding, transposed=transposed)

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
               rng: np.random.Generator | None = None) -> "BinaryLinearParams":
        return cls(latent_weights=fan_in_uniform((out_features, in_features), in_features, rng))


def binarize_weights(p) -> np.ndarray:
    """Scaled 1-bit weights alpha * sign(w) in the latent layout, alpha per
    output channel."""
    w = p.latent_weights.data
    return sign_forward(w) * np.expand_dims(p.alpha, p.fan_axes)


# Weights of a byte's eight bits, least significant first.
_BYTE_BITS = 2.0 ** np.arange(8, dtype=np.float32)


def _padded_grid(c: int, n: int, h: int, w: int, padding: int, dtype, pad_value):
    """A channel-major (C, N, H+2p, W+2p) grid whose border cells hold
    ``pad_value``, and its (C, N, H, W) interior, left for the caller to fill.
    It is the layout :func:`tensor.col2im` scatters into."""
    p = padding
    shape = (c, n, h + 2 * p, w + 2 * p)
    grid = np.full(shape, pad_value, dtype) if p else np.empty(shape, dtype)
    return grid, grid[:, :, p:h + p, p:w + p]


def _copy_windows(grid: np.ndarray, kh: int, kw: int, stride: int, oh: int, ow: int,
                  out: np.ndarray) -> None:
    """Copies the (kh, kw, C, N, OH, OW) window view of a padded channel-major
    grid into ``out``, a C-contiguous (kh*kw*C, N*OH*OW) array: rows ordered
    (kh, kw, c), columns (n, oh, ow), the transposed layout of
    ``tensor.im2col``'s rows. The copy runs along rows of OW cells, where a
    channels-last gather runs along kw*C."""
    c, n = grid.shape[:2]
    gs = grid.strides  # a view built by np.ndarray costs ~1 us, as_strided ~6 us
    windows = np.ndarray((kh, kw, c, n, oh, ow), grid.dtype, grid, 0,
                         (gs[2], gs[3], gs[0], gs[1], gs[2] * stride, gs[3] * stride))
    out.reshape(windows.shape)[...] = windows


def _packed_sign_rows(x: np.ndarray, kh: int, kw: int, stride: int,
                      padding: int) -> PackedBits:
    """The sign rows of x's (kh, kw, c) windows with +1 padding, bit for bit
    ``pack_signs(tensor.im2col(x >= 0, kh, kw, stride, padding, pad_value=True))``,
    for any C.

    The bits x >= 0 are written as 0/1 float32 cells into a +1-padded,
    channel-major (C, N, H+2p, W+2p) grid, and :func:`_copy_windows` fills a
    (K, N*OH*OW) cell matrix, K = kh*kw*C, whose rows are topped up with
    zeros to whole bytes. Each column's cells 8b..8b+7 then become its byte b
    in one product with the bit weights 1, 2, ..., 128: every sum is an
    integer of at most 255, so float32 holds it exactly. The bytes are
    written into the rows' zero-padded 64-bit words.
    """
    n, c, h, w = x.shape
    oh = conv_out_extent(h, kh, stride, padding)
    ow = conv_out_extent(w, kw, stride, padding)
    grid, interior = _padded_grid(c, n, h, w, padding, np.float32, 1.0)
    np.greater_equal(x.transpose(1, 0, 2, 3), 0, out=interior)
    k, m = kh * kw * c, n * oh * ow
    used = -(-k // 8)
    cells = np.empty((used * 8, m), dtype=np.float32)
    _copy_windows(grid, kh, kw, stride, oh, ow, cells[:k])
    cells[k:] = 0
    words = np.zeros((m, -(-k // WORD_BITS) * 8), dtype=np.uint8)
    words[:, :used] = (_BYTE_BITS @ cells.reshape(used, 8, m)).T
    return PackedBits(words=words.view("<u8"), valid_len=k)


def _packed_word_rows(x: np.ndarray, kh: int, kw: int, stride: int,
                      padding: int) -> PackedBits:
    """The same rows as :func:`_packed_sign_rows` when C is a multiple of 64,
    built from whole words and held word-major.

    Each pixel's C channel signs are packed once into C/64 words, which are
    written into an all-ones-padded (the bits of +1), channel-major
    (C/64, N, H+2p, W+2p) grid. :func:`_copy_windows` fills a word-major
    (kh*kw*C/64, N*OH*OW) array from it, and the PackedBits holds that
    array's transposed view, so ``words[r, j]`` is still word j of row r and
    the kernel's word-major copy of the rows copies nothing.
    """
    n, c, h, w = x.shape
    oh = conv_out_extent(h, kh, stride, padding)
    ow = conv_out_extent(w, kw, stride, padding)
    pixels = pack_signs((x >= 0).transpose(0, 2, 3, 1).reshape(-1, c)).words
    grid, interior = _padded_grid(c // WORD_BITS, n, h, w, padding, np.uint64, _ALL_ONES)
    interior[...] = pixels.T.reshape(interior.shape)
    rows = np.empty((kh * kw * c // WORD_BITS, n * oh * ow), dtype=np.uint64)
    _copy_windows(grid, kh, kw, stride, oh, ow, rows)
    return PackedBits(words=rows.T, valid_len=kh * kw * c)


def binary_conv2d_packed(x: np.ndarray, p: BinaryConv2dParams):
    """Packed-path forward. Returns (output, int accumulator, packed rows).

    When C_in is a multiple of 64, each pixel's channel signs are packed once
    into C_in/64 words, and the (kh, kw) windows of that word map, padded
    with all-ones words (the bits of +1), are copied word-major
    (:func:`_packed_word_rows`); the rows are their transposed view, which
    the kernel reads with no copy. Every other C_in packs its rows from 0/1
    cells copied tap-major (:func:`_packed_sign_rows`). Both give, bit for
    bit, the rows that :func:`pack_signs` makes of the gathered sign bytes,
    and neither calls ``tensor.im2col``. Those rows, the
    signs of x's (kh, kw, c) windows with +1 padding at one bit per cell,
    are returned as PackedBits, so a backward can read them back with
    :func:`unpack_signs` instead of gathering the windows again. ``p`` may
    be a transient record whose latent weights stack several convs' weights
    along C_out, as ``layers.lcr_fanout`` builds for the branches of a
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
    rows = _packed_word_rows if c % WORD_BITS == 0 else _packed_sign_rows
    a_packed = rows(x, kh, kw, p.stride, p.padding)
    acc = xnor_popcount_matmul(a_packed, w_packed)  # (N*OH*OW, C_out)
    y = np.empty((n, c_out, oh, ow), dtype=w.dtype)
    y.transpose(1, 0, 2, 3)[...] = acc.T.reshape(c_out, n, oh, ow)
    y *= p.alpha[:, None, None]
    return y, acc, a_packed

