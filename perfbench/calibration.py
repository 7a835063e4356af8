"""A fixed numpy kernel that measures how fast the machine is right now.

On a shared machine the speed of the host drifts by 20% or more over tens
of seconds, and every timing drifts with it. The benchmark runs this kernel
after every closed-loop iteration and scales each timing by
``REFERENCE_MS / (local median of the kernel's time)``. Timings are then
reported in reference milliseconds: the time the operation would take on a
machine where this kernel takes ``REFERENCE_MS``. The kernel does not call
the package, but it shares the process with it (heap, allocator, caches).
README.md gives a measurement of how little a heavier program moves it.

Its parts mirror the mix of work in the package: plain interpreter work
(dict updates, small objects), many small numpy calls, sign and clip on a
few hundred KB, a float32 GEMM, and XNOR-popcount over 1 MB of uint64 words.
With the interpreter part, the kernel's time tracked the training steps'
drift with a slope of 1.03-1.04 (1.13-1.14 without it).
"""

from __future__ import annotations

import gc
import time

import numpy as np

REFERENCE_MS = 1.0
WINDOW = 21  # calibration samples in the local median around an iteration


class _Cell:
    __slots__ = ("x",)

    def __init__(self, x):
        self.x = x


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = rng.standard_normal((8, 6, 34, 34)).astype(np.float32)
        self.rows = rng.standard_normal((2048, 64)).astype(np.float32)
        self.weights = rng.standard_normal((64, 64)).astype(np.float32)
        self.words = rng.integers(0, 2**63, size=(128, 1024), dtype=np.uint64)
        self.mask = rng.integers(0, 2**63, size=(1, 1024), dtype=np.uint64)
        self.samples: list[float] = []

    def sample(self) -> float:
        """Runs the kernel once and records its time in ms. The garbage
        collector is off meanwhile, so the kernel never starts a collection
        that would walk the program's heap."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            counts = {}
            for i in range(900):
                counts[i % 17] = counts.get(i % 17, 0) + len(str(i))
            [_Cell(i).x for i in range(600)]
            for _ in range(30):
                self.small[:, :, 1:33, 1:33] * 0.5
            np.clip(self.small, -1.0, 1.0).mean(axis=(2, 3))
            signs = np.where(self.rows >= 0, 1.0, -1.0).astype(np.float32)
            signs @ self.weights
            np.bitwise_count(~(self.words ^ self.mask)).sum(axis=1)
            ms = (time.perf_counter() - t0) * 1e3
        finally:
            if enabled:
                gc.enable()
        self.samples.append(ms)
        return ms

    def factors(self) -> np.ndarray:
        """Per-sample scale: ``REFERENCE_MS`` over the median of the
        ``WINDOW`` samples centred on it."""
        s = np.asarray(self.samples)
        half = WINDOW // 2
        padded = np.pad(s, half, mode="edge")
        local = np.median(np.lib.stride_tricks.sliding_window_view(padded, WINDOW), axis=1)
        return REFERENCE_MS / local
