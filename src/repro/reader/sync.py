"""Fine timing recovery for the tag's backscatter (paper Sec. 4.1).

The reader controls the protocol timeline, so it knows *nominally* when
the tag's silent period, preamble and data start.  The tag's wake-up
detector, however, fires with a small uncertainty (up to a microsecond of
comparator/decision latency).  The reader therefore searches a window of
candidate offsets and picks the one whose LS channel fit to the known
preamble leaves the smallest residual -- equivalent to correlating with
the PN preamble, but reusing the estimator we already have.

Every candidate is scored through
:class:`~repro.reader.fastpath.PreambleSolver` -- correlation tables
computed once, then one batched normal-equation solve per sweep -- and
:func:`estimate_combined_channel` runs exactly once, at the winning
offset, so the returned :class:`ChannelEstimate` is the estimator's own.
:func:`select_offset` is the coarse/refine/boundary walk over the
candidate metrics; the batched decoder replays it on its precomputed
metric tables (:func:`replay_offset_selection`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..constants import SAMPLES_PER_US
from ..telemetry import get_collector
from .channel_est import (
    ChannelEstimate,
    estimate_combined_channel,
    preamble_condition_number,
)
from .fastpath import PreambleSolver

__all__ = ["SYNC_STEP_SAMPLES", "SyncResult", "find_tag_timing",
           "replay_offset_selection", "search_window", "select_offset",
           "timing_penalty"]

SYNC_STEP_SAMPLES = 4
"""Stride of the coarse offset sweep, in samples."""


def timing_penalty(off):
    """Prior factor on the metric of candidate offset ``off``.

    A gentle pull toward the nominal timing: for wideband excitations
    the residual contrast is orders of magnitude, so this never changes
    the answer; for narrowband excitations (BLE/Zigbee) whose
    autocorrelation makes the metric nearly flat, it pins the flat
    region to the protocol timeline.  Accepts an int or an int array.
    """
    return 1.0 + 0.005 * abs(off)


def search_window(search: int, step: int, n_taps: int) -> tuple[int, int]:
    """Offset bounds containing every candidate :func:`select_offset`
    can visit for a ``+-search`` sweep at stride ``step``."""
    return -search - step, search + n_taps + 2 * step


def select_offset(metric: Callable[[list[int]], Sequence[float | None]],
                  search: int, step: int, n_taps: int
                  ) -> tuple[float, int] | None:
    """The coarse/refine/boundary walk over candidate offsets.

    ``metric(offsets)`` returns the penalised metric per offset, or
    ``None`` for an infeasible one; it is called once per phase.
    Returns ``(metric, offset)`` of the winner, or ``None`` when no
    coarse candidate is feasible.
    """
    # Coarse sweep at step resolution; strict-less keeps the earliest
    # of tied candidates.
    best: tuple[float, int] | None = None
    coarse = list(range(-search, search + 1, step))
    for off, m in zip(coarse, metric(coarse)):
        if m is not None and (best is None or m < best[0]):
            best = (m, off)
    if best is None:
        return None

    # Refine around the coarse winner at single-sample resolution.
    coarse_off = best[1]
    refine = [off for off in range(coarse_off - step + 1, coarse_off + step)
              if off != coarse_off]
    for off, m in zip(refine, metric(refine)):
        if m is not None and m < best[0]:
            best = (m, off)

    # The LS fit is invariant to starting up to n_taps-1 samples early
    # (the shift is absorbed as leading delay taps), so the metric is
    # flat on the early side and cliffs on the late side.  Walk forward
    # to the latest offset that still fits -- the true chip boundary.
    # The late-side cliff is orders of magnitude, so this factor cannot
    # overshoot the boundary for wideband excitations; the timing prior
    # bounds the walk for narrowband ones.
    tol = 1.5 * best[0] + 1e-30
    walk = list(range(best[1] + 1, best[1] + 1 + n_taps + step))
    for off, m in zip(walk, metric(walk)):
        if m is None or m > tol:
            break
        best = (m, off)
    return best


@dataclass(frozen=True)
class SyncResult:
    """Outcome of the fine timing search."""

    preamble_start: int
    offset_samples: int
    estimate: ChannelEstimate
    metric: float


def find_tag_timing(
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
    """Search +-``search_us`` around the nominal preamble start.

    The metric is the normalised LS residual: sharper (smaller) when the
    assumed chip boundaries line up with the tag's actual switching
    instants.  A final pass refines to single-sample resolution.
    """
    search = int(search_us * SAMPLES_PER_US)
    if step_samples < 1:
        raise ValueError("step must be >= 1")
    tm = get_collector()
    n_evaluated = 0

    # The solver only builds its correlation tables over the samples
    # the search window can touch.
    lo, hi = search_window(search, step_samples, n_taps)
    solver = PreambleSolver(x, y_clean, preamble_us,
                            n_taps=n_taps, preamble_seed=preamble_seed,
                            start_window=(nominal_preamble_start + lo,
                                          nominal_preamble_start + hi))

    def metric(offsets: list[int]) -> list[float | None]:
        nonlocal n_evaluated
        n_evaluated += len(offsets)
        feasible, residual_power, gain = solver.evaluate(
            nominal_preamble_start + np.asarray(offsets))
        return [
            float(residual_power[i] / gain[i] * timing_penalty(off))
            if feasible[i] else None
            for i, off in enumerate(offsets)
        ]

    with tm.span("sync") as sp:
        best = select_offset(metric, search, step_samples, n_taps)
        if best is None:
            sp.probe("candidates", n_evaluated)
            raise ValueError("no feasible timing offset found")
        off = best[1]
        est = estimate_combined_channel(
            x, y_clean, nominal_preamble_start + off, preamble_us,
            n_taps=n_taps, preamble_seed=preamble_seed,
        )
        m = est.residual_power / max(est.gain, 1e-300) * timing_penalty(off)
        sp.probe("offset_samples", off)
        sp.probe("metric", m)
        sp.probe("candidates", n_evaluated)
        sp.probe("search_samples", 2 * search + 1)

    # Report the winning estimate's quality as its own stage: in the
    # pipeline story channel estimation is a distinct step even though
    # the search above computes it as a by-product.
    with tm.span("channel_est") as sp:
        sp.probe("gain_db", 10.0 * np.log10(max(est.gain, 1e-30)))
        sp.probe("residual_power", est.residual_power)
        sp.probe("snr_estimate_db", est.snr_estimate_db())
        sp.probe("n_rows", est.n_rows)
        sp.probe("n_taps", int(est.h_fb.size))
        if tm.enabled:
            # An extra SVD -- only worth it when someone is listening.
            sp.probe("condition_number", preamble_condition_number(
                x, nominal_preamble_start + off, preamble_us,
                n_taps=n_taps,
            ))

    return SyncResult(
        preamble_start=nominal_preamble_start + off,
        offset_samples=off,
        estimate=est,
        metric=m,
    )


def replay_offset_selection(feasible: np.ndarray, metric: np.ndarray,
                            grid0: int, search: int, step: int,
                            n_taps: int) -> tuple[float, int] | None:
    """:func:`select_offset` on a precomputed metric table.

    ``metric[off - grid0]`` holds the (penalised) metric for candidate
    offset ``off`` and ``feasible`` masks valid entries -- the shape a
    batched decoder produces with one
    :class:`~repro.reader.fastpath.BatchPreambleSolver` sweep over the
    whole candidate grid, so each element picks the offset
    :func:`find_tag_timing` would.
    """
    def lookup(offsets: list[int]) -> list[float | None]:
        return [float(metric[off - grid0]) if feasible[off - grid0]
                else None for off in offsets]

    return select_offset(lookup, search, step, n_taps)
