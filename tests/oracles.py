"""Reference forms of the reader's fast kernels, kept as test oracles.

Each function here is the straightforward form a production kernel
replaces: the stepwise LFSR, ``np.correlate``/``np.convolve`` C loops,
the appended-ridge SVD channel fit and the per-offset SVD timing sweep.
None of them runs in the package.  The equivalence tests compare the
production kernels against them, and ``benchmarks/bench_hotpaths.py``
times them as the "direct" arm of each fast/direct speedup ratio.
"""

from __future__ import annotations

import numpy as np

from repro.constants import SAMPLES_PER_US
from repro.reader.cancellation import LS_RIDGE, convolution_matrix
from repro.reader.channel_est import (
    ChannelEstimate,
    DEFAULT_N_TAPS,
    _valid_preamble_rows,
)
from repro.reader.sync import (
    SYNC_STEP_SAMPLES,
    SyncResult,
    select_offset,
    timing_penalty,
)
from repro.tag.tag import PREAMBLE_CHIP_US, tag_preamble_phases

__all__ = [
    "correlate_valid_direct",
    "digital_cancel_direct",
    "estimate_combined_channel_direct",
    "find_tag_timing_direct",
    "lstsq_channel_fit",
    "normalized_cross_correlation_direct",
    "scrambler_sequence_direct",
]


def scrambler_sequence_direct(n: int, seed: int = 0x7F) -> np.ndarray:
    """Stepwise 7-bit LFSR (one Python iteration per output bit)."""
    state = seed
    out = np.empty(n, dtype=np.uint8)
    for i in range(n):
        bit = ((state >> 6) ^ (state >> 3)) & 1
        state = ((state << 1) | bit) & 0x7F
        out[i] = bit
    return out


def correlate_valid_direct(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Valid-mode sliding correlation through numpy's C loop."""
    return np.correlate(np.asarray(x, dtype=np.complex128),
                        np.asarray(t, dtype=np.complex128), mode="valid")


def normalized_cross_correlation_direct(x: np.ndarray,
                                        t: np.ndarray) -> np.ndarray:
    """1-D detection metric with the correlation by ``np.correlate``."""
    x = np.asarray(x, dtype=np.complex128)
    t = np.asarray(t, dtype=np.complex128)
    corr = np.abs(np.correlate(x, t, mode="valid"))
    e_t = np.sqrt(np.sum(np.abs(t) ** 2))
    c = np.concatenate([[0.0], np.cumsum(np.abs(x) ** 2)])
    e_x = np.sqrt(c[t.size:] - c[: x.size - t.size + 1])
    return corr / (e_t * np.maximum(e_x, 1e-30))


def lstsq_channel_fit(x: np.ndarray, y: np.ndarray, n_taps: int,
                      rows: np.ndarray | None = None,
                      ridge: float = LS_RIDGE,
                      rcond: float = 1e-9) -> np.ndarray:
    """Ridge-regularised LS FIR fit by SVD (``np.linalg.lstsq``).

    The ridge enters as ``n_taps`` appended rows ``lam * I`` with
    ``lam^2`` the ridge times the mean column energy -- the minimiser
    :func:`repro.reader.cancellation.ls_channel_estimate` reaches
    through its normal equations.
    """
    x = np.asarray(x, dtype=np.complex128)
    y = np.asarray(y, dtype=np.complex128)
    a = convolution_matrix(x, n_taps, rows)
    b = y if rows is None else y[np.asarray(rows, dtype=np.intp)]
    if ridge > 0:
        col_energy = float(np.mean(np.sum(np.abs(a) ** 2, axis=0)))
        lam = np.sqrt(ridge * max(col_energy, 1e-300))
        a = np.vstack([a, lam * np.eye(n_taps, dtype=np.complex128)])
        b = np.concatenate([b, np.zeros(n_taps, dtype=np.complex128)])
    h, *_ = np.linalg.lstsq(a, b, rcond=rcond)
    return h


def digital_cancel_direct(x: np.ndarray, residual: np.ndarray,
                          silent_rows: np.ndarray, n_taps: int = 24
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Silent-period SVD fit, then subtract ``np.convolve(x, h)``."""
    h = lstsq_channel_fit(x, residual, n_taps, rows=silent_rows)
    recon = np.convolve(np.asarray(x, dtype=np.complex128), h)
    residual = np.asarray(residual, dtype=np.complex128)
    return residual - recon[: residual.size], h


def estimate_combined_channel_direct(
    x: np.ndarray,
    y_clean: np.ndarray,
    preamble_start: int,
    preamble_us: float,
    *,
    n_taps: int = DEFAULT_N_TAPS,
    preamble_seed: int = 0x35,
) -> ChannelEstimate:
    """Preamble channel estimate by SVD with a whole-packet rebuild."""
    x = np.asarray(x, dtype=np.complex128)
    y_clean = np.asarray(y_clean, dtype=np.complex128)
    preamble = tag_preamble_phases(preamble_us, seed=preamble_seed)
    n_chips = int(round(preamble_us / PREAMBLE_CHIP_US))
    rows = _valid_preamble_rows(preamble_start, n_chips, n_taps)
    rows = rows[rows < y_clean.size]
    if rows.size < 4 * n_taps:
        raise ValueError("preamble too short for channel estimation")
    chip_phase = np.ones(y_clean.size, dtype=np.complex128)
    pre = slice(preamble_start,
                min(preamble_start + preamble.size, y_clean.size))
    chip_phase[pre] = preamble[: pre.stop - pre.start]
    y_derot = y_clean * np.conj(chip_phase)
    h = lstsq_channel_fit(x, y_derot, n_taps, rows=rows)
    recon = np.convolve(x, h)[: y_clean.size]
    resid = y_derot[rows] - recon[rows]
    return ChannelEstimate(h_fb=h,
                           residual_power=float(np.mean(np.abs(resid) ** 2)),
                           n_rows=int(rows.size))


def find_tag_timing_direct(
    x: np.ndarray,
    y_clean: np.ndarray,
    nominal_preamble_start: int,
    preamble_us: float,
    *,
    search_us: float = 2.0,
    step_samples: int = SYNC_STEP_SAMPLES,
    n_taps: int = 8,
    preamble_seed: int = 0x35,
) -> SyncResult:
    """Fine timing with a full SVD channel fit at every candidate."""
    search = int(search_us * SAMPLES_PER_US)
    estimates: dict[int, ChannelEstimate] = {}

    def metric(offsets: list[int]) -> list[float | None]:
        out: list[float | None] = []
        for off in offsets:
            start = nominal_preamble_start + off
            try:
                est = None if start < 0 else \
                    estimate_combined_channel_direct(
                        x, y_clean, start, preamble_us, n_taps=n_taps,
                        preamble_seed=preamble_seed)
            except ValueError:
                est = None
            if est is None or est.gain <= 0:
                out.append(None)
                continue
            estimates[off] = est
            out.append(est.residual_power / est.gain * timing_penalty(off))
        return out

    best = select_offset(metric, search, step_samples, n_taps)
    if best is None:
        raise ValueError("no feasible timing offset found")
    m, off = best
    return SyncResult(preamble_start=nominal_preamble_start + off,
                      offset_samples=off, estimate=estimates[off], metric=m)
