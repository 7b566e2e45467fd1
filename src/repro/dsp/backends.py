"""Kernel providers for the DSP hot chain, chosen once at import.

Two kernel slots cover the numerical primitives where the provider
matters:

``"fft"``
    A module-like namespace providing ``fft(x, n=None, axis=-1)`` and
    ``ifft(x, axis=-1)``.  Used by the overlap-save convolution in
    :mod:`repro.dsp.fastpath` (and hence every FFT-path correlation).
``"ar1"``
    ``ar1(w, rho, prev) -> y`` -- the first-order recursion
    ``y[i] = w[i] + rho * y[i-1]`` seeded with ``y[-1] = prev``.  This is
    the coherence/drift impairment process in
    :mod:`repro.channel.hardware`.  Stacked innovations ``(..., n)``
    recurse along the last axis with ``prev`` broadcasting over the
    batch axes (how the batched session synthesizer applies one drift
    process per element in a single call).

The rule: both slots use SciPy (``scipy.fft``, ``scipy.signal.lfilter``)
when it imports, else numpy (``np.fft``, a Python-loop recursion).  The
providers agree to float64 rounding for ``fft`` and bit for bit for
``ar1``, so result tables do not depend on which one the platform has.
"""

from __future__ import annotations

from typing import Any

import numpy as np

__all__ = [
    "KERNELS",
    "active_backends",
    "backend_summary",
    "get_kernel",
]

KERNELS = ("fft", "ar1")


def _ar1_numpy(w: np.ndarray, rho: float, prev) -> np.ndarray:
    """Reference AR(1) recursion ``y[i] = w[i] + rho * y[i-1]``.

    Performs the same two floating-point operations per sample, in the
    same order, as SciPy's direct-form-II-transposed ``lfilter`` with
    ``b=[1], a=[1, -rho], zi=[rho*prev]`` -- the outputs are
    bit-identical, just slower (a Python loop).  Stacked innovations
    ``(..., n)`` recurse along the last axis with one initial state per
    row (``prev`` broadcasting over the batch axes), each row
    bit-identical to its own scalar call.
    """
    w = np.asarray(w)
    out = np.empty_like(w)
    rho = float(rho)
    if w.ndim <= 1:
        acc = w.dtype.type(prev)
        for i in range(w.shape[0]):
            acc = w[i] + rho * acc
            out[i] = acc
        return out
    acc = np.broadcast_to(
        np.asarray(prev, dtype=w.dtype), w.shape[:-1]).copy()
    for i in range(w.shape[-1]):
        acc = w[..., i] + rho * acc
        out[..., i] = acc
    return out


def _ar1_scipy(w: np.ndarray, rho: float, prev) -> np.ndarray:
    from scipy.signal import lfilter

    w = np.asarray(w)
    rho = float(rho)
    zi = np.broadcast_to(
        np.asarray(rho * np.asarray(prev), dtype=np.result_type(w, prev)),
        w.shape[:-1],
    )[..., np.newaxis].copy()
    y, _ = lfilter([1.0], [1.0, -rho], w, zi=zi)
    return y


try:
    import scipy.fft as _scipy_fft
    import scipy.signal  # noqa: F401 - availability probe
except ImportError:
    _PROVIDER = "numpy"
    _IMPLS: dict[str, Any] = {"fft": np.fft, "ar1": _ar1_numpy}
else:
    _PROVIDER = "scipy"
    _IMPLS = {"fft": _scipy_fft, "ar1": _ar1_scipy}


def get_kernel(kernel: str) -> Any:
    """The implementation serving ``kernel``."""
    try:
        return _IMPLS[kernel]
    except KeyError:
        raise KeyError(
            f"unknown kernel {kernel!r}; valid: {list(KERNELS)}") from None


def active_backends() -> dict[str, str]:
    """``{kernel: provider}`` for every kernel slot."""
    return {kernel: _PROVIDER for kernel in KERNELS}


def backend_summary() -> str:
    """One-line ``fft=scipy ar1=scipy`` style summary."""
    return " ".join(f"{k}={v}" for k, v in active_backends().items())
