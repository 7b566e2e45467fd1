"""Tests for the kernel providers in :mod:`repro.dsp.backends`.

The platform picks the provider once at import: SciPy when it imports,
else numpy.  These tests pin that rule (including the fallback when
SciPy is missing) and the equivalence contract between the providers
that lets ``coherence_impairment`` and the FFT convolutions run on
either without changing a single result table.
"""

import builtins
import importlib

import numpy as np
import pytest

from repro.dsp import backends
from repro.dsp.backends import active_backends, backend_summary, get_kernel

try:
    from scipy import fft as scipy_fft
    from scipy.signal import lfilter
    HAVE_SCIPY = True
except ImportError:
    HAVE_SCIPY = False


def _w(shape):
    rng = np.random.default_rng(99)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestResolution:
    def test_numpy_reference_always_available(self):
        w = _w(32)
        assert np.array_equal(backends._ar1_numpy(w, 0.5, 0.0),
                              get_kernel("ar1")(w, 0.5, 0.0))
        assert np.allclose(np.fft.fft(w), get_kernel("fft").fft(w),
                           rtol=1e-12)

    def test_active_backends_covers_every_kernel(self):
        active = active_backends()
        assert set(active) == {"fft", "ar1"}
        expect = "scipy" if HAVE_SCIPY else "numpy"
        assert all(name == expect for name in active.values())

    def test_summary_format(self):
        summary = backend_summary()
        for kernel in ("fft", "ar1"):
            assert f"{kernel}=" in summary

    def test_unknown_kernel_rejected(self):
        with pytest.raises(KeyError):
            get_kernel("warp-drive")


class TestNumpyFallback:
    """Re-import the module with every ``scipy`` import failing."""

    @pytest.fixture
    def numpy_only(self, monkeypatch):
        real_import = builtins.__import__

        def no_scipy(name, *args, **kwargs):
            if name == "scipy" or name.startswith("scipy."):
                raise ImportError(f"No module named {name!r}")
            return real_import(name, *args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", no_scipy)
        try:
            yield importlib.reload(backends)
        finally:
            monkeypatch.undo()
            importlib.reload(backends)

    def test_numpy_selected_for_every_slot(self, numpy_only):
        active = numpy_only.active_backends()
        assert all(v == "numpy" for v in active.values())
        assert numpy_only.get_kernel("fft") is np.fft
        assert numpy_only.get_kernel("ar1") is numpy_only._ar1_numpy

    @pytest.mark.skipif(not HAVE_SCIPY, reason="needs scipy to compare")
    def test_fallback_kernels_match_scipy(self, numpy_only):
        w = _w((3, 400))
        prev = _w(3)
        rho = 0.97
        got = numpy_only.get_kernel("ar1")(w, rho, prev)
        zi = (rho * prev)[:, np.newaxis]
        ref, _ = lfilter([1.0], [1.0, -rho], w, zi=zi)
        assert np.array_equal(got, ref)

        fft_mod = numpy_only.get_kernel("fft")
        np.testing.assert_allclose(fft_mod.fft(w, 512, axis=-1),
                                   scipy_fft.fft(w, 512, axis=-1),
                                   rtol=1e-10)
        np.testing.assert_allclose(fft_mod.ifft(w, axis=-1),
                                   scipy_fft.ifft(w, axis=-1), rtol=1e-10)


class TestAr1Providers:
    """Bit-identity across providers: the platform must be free to pick."""

    def test_scalar_bit_identity(self):
        if not HAVE_SCIPY:
            pytest.skip("scipy not installed")
        w = _w(500)
        ref = backends._ar1_numpy(w, 0.97, 0.3 - 0.1j)
        assert np.array_equal(backends._ar1_scipy(w, 0.97, 0.3 - 0.1j),
                              ref)

    def test_batched_rows_match_scalar_calls(self):
        w = _w((6, 300))
        prev = _w(6)
        for provider in ([backends._ar1_numpy, backends._ar1_scipy]
                         if HAVE_SCIPY else [backends._ar1_numpy]):
            batched = provider(w, 0.9, prev)
            rows = np.stack([provider(w[i], 0.9, prev[i])
                             for i in range(6)])
            assert np.array_equal(batched, rows), provider.__name__

    def test_recursion_matches_definition(self):
        w = _w(64)
        out = get_kernel("ar1")(w, 0.8, 1.0 + 0j)
        acc, expect = 1.0 + 0j, []
        for wi in w:
            acc = wi + 0.8 * acc
            expect.append(acc)
        np.testing.assert_allclose(out, expect, rtol=1e-12)


class TestCoherenceThroughRegistry:
    def test_impairment_identical_across_backends(self, monkeypatch):
        from repro.channel.hardware import coherence_impairment

        def run():
            return coherence_impairment(
                2048, 5e-3, 400.0, np.random.default_rng(7))

        got = run()  # the platform's provider (scipy when installed)
        monkeypatch.setitem(backends._IMPLS, "ar1", backends._ar1_numpy)
        assert np.array_equal(run(), got)
