"""Runner normalisation: a fixed CPU workload timed next to the benchmark.

The host's speed drifts by 10-25 % over tens of seconds on a shared
machine, which swamps the differences a benchmark must resolve.  A
fixed calibration round -- a Python loop, small-array numpy calls, a
16k-point FFT, a small GEMM and a direct convolution, the kinds of work
one exchange does -- slows down with the host.

Every workload cuts its timed window into segments of about
:data:`SEGMENT_S` and runs a burst of :data:`BURST` rounds before the
first segment and after each one, so the operations inside a segment
run back to back, undisturbed.  A time measured in a segment is scaled
by ``REFERENCE_S / median(rounds of the bursts either side of it)`` to
report it at the reference host speed.  This code is the benchmark's
own, so a change to the program cannot move it.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

__all__ = ["BURST", "Calibration", "REFERENCE_S", "SEGMENT_S"]

REFERENCE_S = 5.4e-4
"""Geometric mean of one round's kernel times on the reference host (a
2-CPU x86-64 container, numpy 2.4).  Reported times are scaled to it."""

SEGMENT_S = 1.0
"""Timed seconds between two calibration bursts."""

BURST = 15
"""Calibration rounds in one burst (about 0.1 s on the reference host)."""

_rng = np.random.default_rng(0)
_SIGNAL = _rng.standard_normal(16384) + 1j * _rng.standard_normal(16384)
_MATRIX = _rng.standard_normal((96, 96))
_SMALL = _rng.standard_normal(64)
# 4 MiB each, past the per-core L2; drawn as one float array and viewed
# as complex so building it needs no temporaries.
_LARGE = _rng.standard_normal(1 << 19).view(np.complex128)
_LARGE_OUT = np.empty_like(_LARGE)


def _python_loop() -> None:
    s = 0
    for k in range(5000):
        s += k * k


def _small_numpy() -> None:
    for _ in range(200):
        (_SMALL * _SMALL + _SMALL).sum()


def _fft() -> None:
    for _ in range(3):
        np.fft.ifft(np.fft.fft(_SIGNAL))


def _gemm() -> None:
    for _ in range(3):
        _MATRIX @ _MATRIX


def _convolve() -> None:
    np.convolve(_SIGNAL[:8000], _SIGNAL[:48])


def _memory() -> None:
    np.multiply(_LARGE, 1.0001, out=_LARGE_OUT)
    _LARGE_OUT.sum()


_COMPUTE = (_python_loop, _small_numpy, _fft, _gemm, _convolve)


def _log_time(kernel) -> float:
    t0 = time.perf_counter()
    kernel()
    return math.log(time.perf_counter() - t0)


def calibration_round() -> float:
    """Weighted geometric mean of the kernels' wall times, in seconds.

    The core-cache-resident compute kernels and the 8 MiB shared-cache
    pass weigh half each: co-tenants slow the host's cores and its
    shared cache and memory bandwidth independently, and the sweep-cell
    workload moves arrays far larger than a core's caches.
    """
    compute = statistics.fmean(_log_time(k) for k in _COMPUTE)
    return math.exp(0.5 * compute + 0.5 * _log_time(_memory))


class Calibration:
    """Calibration rounds collected over one run."""

    def __init__(self) -> None:
        self.rounds: list[float] = []

    def burst(self) -> int:
        """Run one burst; return the rounds run so far, the position that
        names the segment starting next."""
        for _ in range(BURST):
            self.rounds.append(calibration_round())
        return len(self.rounds)

    @property
    def factor(self) -> float:
        """Multiply a time measured during the run by this to get
        reference-host time."""
        return REFERENCE_S / statistics.median(self.rounds)

    def factor_at(self, pos: int) -> float:
        """The factor for a time measured in the segment that started at
        position ``pos``: from the bursts before and after it."""
        near = self.rounds[max(0, pos - BURST):pos + BURST]
        return REFERENCE_S / statistics.median(near or self.rounds)
