"""Oscilloscope front-end model.

The paper measures the SAKURA-G's 1-ohm shunt with a PicoScope 6424E at
1 GS/s while the core runs at 1.5 MHz, i.e. hundreds of scope samples
per clock cycle which are effectively averaged per-cycle by the analog
bandwidth.  We therefore model the acquisition chain at one sample per
clock cycle: gain, band limiting (moving average), additive Gaussian
amplifier/quantisation noise and an optional ADC.

Without a filter, both noise sources run in the native backend where
it builds, gain and noise in one pass with numpy's bits:
:meth:`Oscilloscope.capture_keyed` over the keyed stream (stream v2),
:meth:`Oscilloscope.capture` over the caller's own generator, which it
leaves in numpy's state (see :mod:`repro.power.noise`).  The numpy
steps stay the reference twin and run wherever a kernel is absent or
declines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ParameterError
from repro.power import noise as noise_stream
from repro.utils.rng import new_rng


@dataclass
class Oscilloscope:
    """Acquisition-chain parameters.

    Parameters
    ----------
    noise_std:
        Standard deviation of the additive Gaussian noise, in the same
        unit as the leakage model output (Hamming weights).  This is the
        main knob controlling attack difficulty.
    gain:
        Linear gain applied before quantisation.
    bandwidth_window:
        Length of the moving-average filter modelling the analog
        bandwidth; 1 disables filtering.
    adc_bits:
        When set, quantise to this many bits over the observed range
        (the PicoScope's 8..12-bit vertical resolution).
    """

    noise_std: float = 1.0
    gain: float = 1.0
    bandwidth_window: int = 1
    adc_bits: Optional[int] = None

    def __post_init__(self) -> None:
        if self.noise_std < 0:
            raise ParameterError("noise_std must be non-negative")
        if self.bandwidth_window < 1:
            raise ParameterError("bandwidth_window must be >= 1")
        if self.adc_bits is not None and not (4 <= self.adc_bits <= 16):
            raise ParameterError("adc_bits must be in [4, 16]")

    def _front_end(
        self, samples: np.ndarray, out: Optional[np.ndarray]
    ) -> np.ndarray:
        """Gain + band limiting, writing into ``out`` when provided.

        ``out=`` is the in-place path: the buffer (which may be
        ``samples`` itself) is reused through the whole chain, so one
        capture costs zero intermediate allocations instead of the two
        full-trace copies of the historical out-of-place expressions.
        """
        if out is None:
            out = np.asarray(samples, dtype=np.float64) * self.gain
        else:
            if out is not samples:
                np.multiply(samples, self.gain, out=out)
            else:
                out *= self.gain
        if self.bandwidth_window > 1:
            kernel = np.ones(self.bandwidth_window) / self.bandwidth_window
            out[:] = np.convolve(out, kernel, mode="same")
        return out

    def _quantize(self, out: np.ndarray) -> None:
        """Optional ADC, in place over the observed range."""
        if self.adc_bits is not None and out.size:
            lo, hi = float(out.min()), float(out.max())
            span = max(hi - lo, 1e-9)
            levels = (1 << self.adc_bits) - 1
            out[:] = np.round((out - lo) / span * levels) / levels * span + lo

    def capture(self, samples: np.ndarray, rng=None, out=None) -> np.ndarray:
        """Apply the acquisition chain to noiseless leakage samples.

        Noise comes from ``rng``'s sequential stream (the historical
        v1 contract, kept for serial profiling, the ``capture_reference``
        path and single ad-hoc captures).  ``out=`` runs the chain in
        place.  Without a filter the native sequential-stream kernel
        draws the normals from ``rng`` itself and applies the gain in
        the same pass, with the same bits and the same generator state
        afterwards as the numpy steps (:func:`repro.power.noise.
        sequential_noise`).
        """
        rng = new_rng(rng)
        measured = None
        if self.bandwidth_window == 1 and self.noise_std > 0:
            measured = noise_stream.sequential_noise(
                samples, out, rng, self.gain, self.noise_std
            )
        if measured is None:
            measured = self._front_end(samples, out)
            if self.noise_std > 0:
                measured += rng.normal(0.0, self.noise_std, measured.shape)
        self._quantize(measured)
        return measured

    def capture_keyed(
        self, samples: np.ndarray, entropy: int, seed: int, out=None
    ) -> np.ndarray:
        """The noise-stream-v2 acquisition chain for one trace.

        Identical to :meth:`capture` except the Gaussian noise is the
        counter-based ``(entropy, seed)``-keyed stream of
        :mod:`repro.power.noise`, so the result is a pure function of
        its arguments — the per-trace path of the batch contract.
        Without a filter the native noise kernel applies the gain in
        the same pass, with the same bits as the numpy steps.
        """
        measured = None
        if self.bandwidth_window == 1 and self.noise_std > 0:
            measured = noise_stream.scaled_noise(
                samples, out, entropy, seed, self.gain, self.noise_std
            )
        if measured is None:
            measured = self._front_end(samples, out)
            noise_stream.add_noise(measured, entropy, seed, self.noise_std)
        self._quantize(measured)
        return measured
