"""Machine-speed calibration for the timed loop.

The benchmark runs on a shared host whose speed drifts by up to +-40 %
over stretches of tens of seconds, as long as a whole run.  Raw latencies
of the same operations therefore differ from run to run by far more than
a program change should be allowed to.

A fixed reference kernel, which touches nothing of the program under test,
runs between operations, outside the timed region, for ``SHARE`` of the
timed busy time.  Each operation's latency is scaled by
``NOMINAL_S / local``, where ``local`` is the median time of the kernel
samples taken within ``WINDOW_S`` of the operation, and at least of the
``NEAREST`` samples around it.  The result is the latency the operation
would have had at the speed at which the kernel takes ``NOMINAL_S``, about
its median time on the baseline machine.  The raw latencies are kept next
to the scaled ones.

On five runs each of exact-oracles and exact-tables, scaling cut the quartile
spread of throughput and latency quantiles from 0.12-0.25 to 0.03-0.08.
"""

from __future__ import annotations

import argparse
import gc
import time
from fractions import Fraction

import numpy as np

SHARE = 0.05
WINDOW_S = 0.25
NEAREST = 8
WARMUP = 40
NOMINAL_S = 0.0025

_V = np.array([0.5, -0.25, 0.75, 0.125])
_FLIP = np.array([-1.0, 1.0, -1.0, 1.0])


def _fraction_rref(n: int = 5) -> list[list[Fraction]]:
    m = [[Fraction((i * 7 + j * 3) % 11 - 5, (i + 2 * j) % 5 + 1) for j in range(n + 2)]
         for i in range(n)]
    r = 0
    for c in range(n + 2):
        p = next((i for i in range(r, n) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(n):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == n:
            break
    return m


def _vectors() -> float:
    v, acc = _V.copy(), 0.0
    for _ in range(180):
        v = v[[1, 0, 3, 2]] * _FLIP
        acc += float(np.dot(v, _V))
    return acc


def _parse_and_format() -> str:
    ap = argparse.ArgumentParser()
    sub = ap.add_subparsers(dest="command")
    for k in range(6):
        cmd = sub.add_parser(f"c{k}")
        cmd.add_argument("--a", type=int)
        cmd.add_argument("--b")
    args = ap.parse_args(["c3", "--a", "4", "--b", "x"])
    return args.b + ",".join(f"{i}/{i + 1}" for i in range(60))


def kernel():
    """The reference work, in the three kinds the workloads run: exact
    Fraction elimination, small NumPy vector operations, and argument
    parsing with text formatting."""
    return _fraction_rref(), _vectors(), _parse_and_format()


def time_kernel() -> float:
    """One kernel run's duration, with garbage collection off, so that the
    heap of the process it runs in does not change it."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def scale_now(samples: int = NEAREST) -> float:
    """``NOMINAL_S`` over the median of ``samples`` kernel runs made now."""
    return NOMINAL_S / float(np.median([time_kernel() for _ in range(samples)]))


class SpeedTrack:
    """Kernel samples (wall time, duration) taken between timed operations."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self.spent = 0.0
        for _ in range(WARMUP):
            kernel()
        for _ in range(WARMUP // 2):
            self.sample()

    def sample(self) -> None:
        self.at.append(time.perf_counter())
        self.took.append(time_kernel())
        self.spent += self.took[-1]

    def top_up(self, busy: float) -> None:
        """Sample until the kernel has run for ``SHARE`` of ``busy``."""
        while self.spent < SHARE * busy:
            self.sample()

    def recent_scale(self) -> float:
        """``NOMINAL_S`` over the median of the last ``NEAREST`` samples."""
        return NOMINAL_S / float(np.median(self.took[-NEAREST:]))

    def scale(self, starts: list[float], latencies: list[float]) -> np.ndarray:
        """``NOMINAL_S / local`` for each operation (see the module docstring)."""
        at, took = np.asarray(self.at), np.asarray(self.took)
        start = np.asarray(starts)
        end = start + np.asarray(latencies)
        lo = np.minimum(np.searchsorted(at, start - WINDOW_S),
                        np.searchsorted(at, start) - NEAREST // 2).clip(0)
        hi = np.maximum(np.searchsorted(at, end + WINDOW_S),
                        np.searchsorted(at, end) + NEAREST // 2).clip(max=len(at))
        return np.array([NOMINAL_S / np.median(took[a:b]) for a, b in zip(lo, hi)])
