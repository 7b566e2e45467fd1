"""Batched normal-equation solver for the fine-timing search.

Scoring each candidate offset of :func:`repro.reader.sync.find_tag_timing`
with a full least-squares fit (:func:`estimate_combined_channel`) would
mean dozens of independent solves per frame, each of which also
reconstructs the excitation over the *whole* packet just to score a few
hundred preamble rows.

This module removes the redundancy.  For a candidate preamble start
``s`` the LS problem is ``min_h ||y_s - A_s h||`` where the rows of
``A_s`` are length-``n_taps`` windows of the (fixed) excitation ``x``
and ``y_s`` is the received signal derotated by the known preamble
chips placed at ``s``.  Two observations make the sweep cheap:

* The Gram matrix ``A_s^H A_s`` is Toeplitz up to chip-boundary terms:
  entry ``(k, l)`` is a partial sum of the lag-``(k-l)`` sample
  autocorrelation of ``x`` over the row windows.  Precomputing one
  cumulative lag-autocorrelation table per lag (``n_taps`` cumsums over
  the packet, done **once**) turns every per-offset Gram -- boundary
  terms included, so the result is *exact* -- into a handful of table
  lookups.
* The right-hand side ``A_s^H y_s`` is a chip-weighted partial sum of
  the lag-``k`` cross-correlation between ``x`` and ``y``; one more set
  of ``n_taps`` cumulative tables serves every offset.

All candidate offsets are then solved in a single batched Hermitian
solve of ``n_taps x n_taps`` ridge-regularised normal equations, and
the LS residual falls out algebraically (``||y||^2 - Re(b^H h) -
lam^2 ||h||^2``) without ever reconstructing the packet.  The metric
agrees with the per-offset fit to float64 rounding, and
``tests/test_fastpath.py`` asserts that the per-offset SVD sweep kept in
``tests/oracles.py`` picks the identical offset on the tier-1 scenarios.
"""

from __future__ import annotations

import numpy as np

from ..constants import SAMPLES_PER_US
from ..tag.tag import PREAMBLE_CHIP_US
from ..utils.bits import barker_like_sequence
from .cancellation import LS_RIDGE

__all__ = ["PreambleSolver", "BatchPreambleSolver"]


class _ExcitationTables:
    """The excitation-side set-up both preamble solvers share.

    Holds the preamble chips, the per-chip row bounds relative to a
    candidate start, the sample span the declared ``start_window`` can
    touch, and the cumulative lag-autocorrelation tables of the
    excitation over that span.  None of it depends on the received
    signal, which is what lets :class:`BatchPreambleSolver` share one
    build across a batch.
    """

    def __init__(self, x: np.ndarray, preamble_us: float, *,
                 n_taps: int, preamble_seed: int,
                 start_window: tuple[int, int] | None):
        n = x.size
        self.n = n
        self.n_taps = n_taps
        sps_chip = int(PREAMBLE_CHIP_US * SAMPLES_PER_US)
        n_chips = int(round(preamble_us / PREAMBLE_CHIP_US))
        self.chips = barker_like_sequence(
            n_chips, seed=preamble_seed).astype(np.complex128)
        # Row windows relative to the preamble start: each chip keeps
        # samples [guard, sps_chip) past its own start, with
        # guard = n_taps skipping the channel transient at phase flips
        # (same rule as _valid_preamble_rows).
        guard = n_taps
        c = np.arange(n_chips)
        self._base_lo = guard + sps_chip * c
        self._base_hi = sps_chip * (c + 1)

        # The tables only need to cover the sample span the candidate
        # starts can touch; a search window of a few microseconds keeps
        # that to a fraction of the packet.
        if start_window is None:
            start_window = (0, n)
        self._start_lo, self._start_hi = start_window
        i0 = max(0, self._start_lo + guard - (n_taps - 1))
        i1 = min(n, self._start_hi + n_chips * sps_chip)
        if i1 < i0:
            i0 = i1
        self._i0, self._i1 = i0, i1
        x = x[i0:i1]
        n = i1 - i0

        self._xc = np.conj(x)
        # P[d, i] = sum_{m < i} conj(x[m]) x[m+d]: cumulative lag-d
        # autocorrelation of the excitation (Gram-matrix ingredients).
        # The zero-padded tails make out-of-range cumsum entries clamp
        # to the final partial sum automatically.
        prods = np.zeros((n_taps, n), dtype=np.complex128)
        for d in range(n_taps):
            prods[d, : n - d] = self._xc[: n - d] * x[d:]
        self._p = np.zeros((n_taps, n + 1), dtype=np.complex128)
        np.cumsum(prods, axis=1, out=self._p[:, 1:])
        # Tap-shifted gather indices are shared by every batch: entry
        # [k] of a (T, S, C) index block is clip(bound - k, 0, n).
        self._tap_shift = np.arange(n_taps)[:, None, None]

    def _bounds(self, starts: np.ndarray):
        """Per-candidate per-chip row bounds in table coordinates.

        Returns ``(starts, lo, hi, n_rows, feasible)``; a candidate is
        geometrically feasible when it starts inside the packet and
        keeps at least ``4 * n_taps`` in-chip rows after clipping at
        the packet end.
        """
        starts = np.atleast_1d(np.asarray(starts, dtype=np.intp))
        if starts.size and (starts.min() < self._start_lo
                            or starts.max() > self._start_hi):
            raise ValueError("candidate start outside the solver's "
                             "declared start_window")
        i0, i1 = self._i0, self._i1
        lo = np.clip(starts[:, None] + self._base_lo[None, :], i0, i1)
        hi = np.clip(starts[:, None] + self._base_hi[None, :], i0, i1)
        hi = np.maximum(hi, lo)
        n_rows = (hi - lo).sum(axis=1)
        feasible = (starts >= 0) & (n_rows >= 4 * self.n_taps)
        return starts, lo - i0, hi - i0, n_rows, feasible

    def _ridged_gram(self, lo: np.ndarray, hi: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Per-candidate Gram matrices (ridge folded in) from the tables.

        ``lo``/``hi`` are the per-candidate per-chip row bounds in table
        coordinates.  Returns ``(g, lam2)`` with ``g`` of shape
        ``(n_cand, t, t)``.  For ``d = k - l >= 0``:
        ``G[s, k, l] = sum_c P_d[hi - k] - P_d[lo - k]``; one
        fancy-indexed gather covers every ``(d, k)`` pair at once.
        """
        p = self._p
        t = p.shape[0]
        n = self._i1 - self._i0
        n_cand = lo.shape[0]
        shift = self._tap_shift
        idx_hi = np.clip(hi[None, :, :] - shift, 0, n)       # (T, S, C)
        idx_lo = np.clip(lo[None, :, :] - shift, 0, n)
        d_axis = np.arange(t)[:, None, None, None]
        val = (p[d_axis, idx_hi[None, ...]]
               - p[d_axis, idx_lo[None, ...]]).sum(axis=3)   # (D, T, S)
        g = np.empty((n_cand, t, t), dtype=np.complex128)
        kk, ll = np.tril_indices(t)
        lower = val[kk - ll, kk, :]                           # (n_pairs, S)
        g[:, kk, ll] = lower.T
        strict = kk != ll
        g[:, ll[strict], kk[strict]] = np.conj(lower[strict]).T

        # Ridge identical to ls_channel_estimate: lam^2 is ridge times
        # the mean column energy (the mean Gram diagonal).
        diag = np.einsum("skk->sk", g).real
        lam2 = LS_RIDGE * np.maximum(diag.mean(axis=1), 1e-300)
        g[:, np.arange(t), np.arange(t)] += lam2[:, None]
        return g, lam2


class PreambleSolver(_ExcitationTables):
    """Precomputed correlation tables for one (x, y) pair.

    Build once per frame, then call :meth:`evaluate` with batches of
    candidate preamble starts.  Mirrors the feasibility rules of
    :func:`estimate_combined_channel` exactly: a candidate is infeasible
    when it starts before the packet or keeps fewer than ``4 * n_taps``
    in-chip rows after clipping at the packet end.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, preamble_us: float,
                 *, n_taps: int, preamble_seed: int = 0x35,
                 start_window: tuple[int, int] | None = None):
        x = np.asarray(x, dtype=np.complex128)
        y = np.asarray(y, dtype=np.complex128)
        if x.size != y.size:
            raise ValueError("x and y must be the same length")
        super().__init__(x, preamble_us, n_taps=n_taps,
                         preamble_seed=preamble_seed,
                         start_window=start_window)
        xc = self._xc
        y = y[self._i0:self._i1]
        n = y.size
        # S[k, i] = sum_{r < i} conj(x[r-k]) y[r]: cumulative lag-k
        # cross-correlation (right-hand-side ingredients).  Terms with
        # r < k vanish because the convolution matrix zero-pads there.
        prods = np.zeros((n_taps, n), dtype=np.complex128)
        for k in range(n_taps):
            prods[k, k:] = xc[: n - k] * y[k:]
        self._s = np.zeros((n_taps, n + 1), dtype=np.complex128)
        np.cumsum(prods, axis=1, out=self._s[:, 1:])
        # E[i] = sum_{r < i} |y[r]|^2 for the residual identity.
        self._e = np.concatenate([[0.0], np.cumsum(np.abs(y) ** 2)])

    def evaluate(self, starts: np.ndarray) -> tuple[
            np.ndarray, np.ndarray, np.ndarray]:
        """Solve the preamble LS fit at every candidate start.

        Returns ``(feasible, residual_power, gain)`` arrays aligned with
        ``starts``; infeasible entries hold NaN metrics.
        """
        starts, lo, hi, n_rows, feasible = self._bounds(starts)
        t = self.n_taps
        n_cand = starts.size

        # Right-hand sides: b[s, k] = sum_c conj(p_c) (S_k[hi] - S_k[lo]).
        seg = self._s[:, hi] - self._s[:, lo]          # (T, S, C)
        b = np.einsum("c,ksc->sk", np.conj(self.chips), seg)

        g, lam2 = self._ridged_gram(lo, hi)

        # Batched Hermitian solve; infeasible candidates get an identity
        # system so one LAPACK call serves the whole batch.
        g[~feasible] = np.eye(t, dtype=np.complex128)
        b_solve = np.where(feasible[:, None], b, 0.0)
        try:
            h = np.linalg.solve(g, b_solve[..., None])[..., 0]
        except np.linalg.LinAlgError:
            return (np.zeros(n_cand, dtype=bool),
                    np.full(n_cand, np.nan), np.full(n_cand, np.nan))

        gain = np.sum(np.abs(h) ** 2, axis=1)
        ysq = (self._e[hi] - self._e[lo]).sum(axis=1)
        # ||y - A h||^2 on the data rows: with (G + lam^2 I) h = b this
        # collapses to ysq - Re(b^H h) - lam^2 ||h||^2.
        resid = ysq - np.einsum("sk,sk->s", np.conj(b), h).real \
            - lam2 * gain
        resid = np.maximum(resid, 0.0)
        with np.errstate(invalid="ignore", divide="ignore"):
            residual_power = np.where(n_rows > 0, resid / n_rows, np.nan)
        feasible = feasible & (gain > 0)
        residual_power = np.where(feasible, residual_power, np.nan)
        gain = np.where(feasible, gain, np.nan)
        return feasible, residual_power, gain


class BatchPreambleSolver(_ExcitationTables):
    """Correlation tables for one excitation against a *batch* of rx.

    The fine-timing sweep of a multi-tag round decodes many exchanges
    that share the same excitation ``x`` (the AP transmits once, every
    responder's signal is scored against it).  Everything in the LS
    system that depends only on ``x`` -- the lag-autocorrelation tables,
    every candidate's Gram matrix and its LU factorisation -- is
    computed once here and shared across the batch; only the
    right-hand-side cross-correlation tables and the received-energy
    cumsums are per-element.  One stacked multi-RHS solve then scores
    every (candidate, element) pair.

    Feasibility rules, ridge and residual algebra mirror
    :class:`PreambleSolver` exactly, and the multi-RHS LAPACK solve
    performs the same per-column triangular substitutions as the
    one-element solve, so each element's metrics agree with its own
    :class:`PreambleSolver` to float64 rounding.
    """

    def __init__(self, x: np.ndarray, y_batch: np.ndarray,
                 preamble_us: float, *, n_taps: int,
                 preamble_seed: int = 0x35,
                 start_window: tuple[int, int] | None = None):
        x = np.asarray(x, dtype=np.complex128)
        y = np.asarray(y_batch, dtype=np.complex128)
        if y.ndim != 2 or y.shape[1] != x.size:
            raise ValueError("y_batch must be (n_batch, len(x))")
        super().__init__(x, preamble_us, n_taps=n_taps,
                         preamble_seed=preamble_seed,
                         start_window=start_window)
        self.n_batch = y.shape[0]
        xc = self._xc
        y = y[:, self._i0:self._i1]
        n = y.shape[1]
        # Per-element cross-correlation tables S[k, b, i] and energy
        # cumsums E[b, i]; the only O(batch) part of the build.
        self._s = np.zeros((n_taps, self.n_batch, n + 1),
                           dtype=np.complex128)
        for k in range(n_taps):
            self._s[k, :, k + 1:] = xc[None, : n - k] * y[:, k:]
        np.cumsum(self._s, axis=2, out=self._s)
        self._e = np.zeros((self.n_batch, n + 1))
        np.cumsum(np.abs(y) ** 2, axis=1, out=self._e[:, 1:])

    def evaluate(self, starts: np.ndarray) -> tuple[
            np.ndarray, np.ndarray, np.ndarray]:
        """Score every candidate start for every batch element.

        Returns ``(feasible, residual_power, gain)`` arrays of shape
        ``(n_batch, n_starts)``; infeasible entries hold NaN metrics.
        """
        starts, lo, hi, n_rows, geom_feasible = self._bounds(starts)
        t = self.n_taps
        nb = self.n_batch
        n_cand = starts.size

        # Right-hand sides per element, accumulated chip by chip to
        # bound the temporary at (T, nb, n_starts).
        b = np.zeros((nb, n_cand, t), dtype=np.complex128)
        for ci in range(self.chips.size):
            seg = self._s[:, :, hi[:, ci]] - self._s[:, :, lo[:, ci]]
            b += np.conj(self.chips[ci]) * seg.transpose(1, 2, 0)

        g, lam2 = self._ridged_gram(lo, hi)

        g[~geom_feasible] = np.eye(t, dtype=np.complex128)
        b_solve = np.where(geom_feasible[None, :, None], b, 0.0)
        # One stacked solve: candidate s's LU factorisation serves all
        # nb right-hand-side columns.
        try:
            h = np.linalg.solve(
                g, b_solve.transpose(1, 2, 0)).transpose(2, 0, 1)
        except np.linalg.LinAlgError:
            shape = (nb, n_cand)
            return (np.zeros(shape, dtype=bool),
                    np.full(shape, np.nan), np.full(shape, np.nan))

        gain = np.sum(np.abs(h) ** 2, axis=2)                # (nb, S)
        ysq = (self._e[:, hi] - self._e[:, lo]).sum(axis=2)  # (nb, S)
        resid = ysq - np.einsum("bsk,bsk->bs", np.conj(b), h).real \
            - lam2[None, :] * gain
        resid = np.maximum(resid, 0.0)
        with np.errstate(invalid="ignore", divide="ignore"):
            residual_power = np.where(n_rows[None, :] > 0,
                                      resid / n_rows[None, :], np.nan)
        feasible = geom_feasible[None, :] & (gain > 0)
        residual_power = np.where(feasible, residual_power, np.nan)
        gain = np.where(feasible, gain, np.nan)
        return feasible, residual_power, gain
