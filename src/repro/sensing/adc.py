"""ADC quantization model.

Enterprise platforms standardized on 8-bit ADCs for physical sensors
(Section I), so a reading with a 1 degC LSB carries up to +-0.5 degC of
quantization error - enough to make threshold controllers chatter.

:class:`AdcQuantizer` is a mid-tread uniform quantizer with saturation at
the code range limits, configurable bit width, LSB size, and input offset.
"""

from __future__ import annotations

import math

import numpy as np

from repro.config import SensingConfig
from repro.errors import SensorError
from repro.units import check_nonnegative


class AdcQuantizer:
    """Mid-tread uniform quantizer emulating an n-bit ADC.

    Parameters
    ----------
    step:
        LSB size in the measured unit (degC for temperature sensors).
        A step of ``0`` disables quantization (ideal pass-through).
    bits:
        ADC resolution; codes span ``[0, 2**bits - 1]``.
    minimum:
        Input value mapped to code 0.
    """

    def __init__(self, step: float = 1.0, bits: int = 8, minimum: float = 0.0) -> None:
        check_nonnegative(step, "step")
        if bits < 1 or bits > 32:
            raise SensorError(f"bits must be in [1, 32], got {bits}")
        if not math.isfinite(minimum):
            raise SensorError(f"minimum must be finite, got {minimum!r}")
        self._step = float(step)
        self._bits = bits
        self._minimum = float(minimum)
        self._max_code = 2**bits - 1

    @property
    def step(self) -> float:
        """LSB size (0 means pass-through)."""
        return self._step

    @property
    def bits(self) -> int:
        """ADC resolution in bits."""
        return self._bits

    @property
    def minimum(self) -> float:
        """Input value of code 0."""
        return self._minimum

    @property
    def maximum(self) -> float:
        """Input value of the full-scale code."""
        return self._minimum + self._step * self._max_code

    def code(self, value: float) -> int:
        """Digital code for an analog input (with saturation)."""
        if not math.isfinite(value):
            raise SensorError(f"ADC input must be finite, got {value!r}")
        if self._step == 0.0:
            raise SensorError("code() is undefined for a pass-through quantizer")
        raw = round((value - self._minimum) / self._step)
        return int(min(max(raw, 0), self._max_code))

    def quantize(self, value: float) -> float:
        """Quantized analog value (code mapped back to the input unit)."""
        if self._step == 0.0:
            if not math.isfinite(value):
                raise SensorError(f"ADC input must be finite, got {value!r}")
            return value
        return self._minimum + self.code(value) * self._step

    def quantize_array(self, values: np.ndarray) -> np.ndarray:
        """:meth:`quantize` element-wise, as a new array.

        ``rint`` rounds half to even like :func:`round`, and clipping the
        float code equals saturating the integer one, so every element is
        bit-identical to the scalar :meth:`quantize` of that value.
        Non-finite inputs are passed through, not rejected.
        """
        if self._step == 0.0:
            return values.copy()
        code = np.clip(
            np.rint((values - self._minimum) / self._step),
            0.0,
            float(self._max_code),
        )
        # rint(-0.5) is -0.0, which clip keeps; the scalar int code has
        # no sign, so fold -0.0 to +0.0 (x + 0.0 == x otherwise).
        code += 0.0
        code *= self._step
        code += self._minimum
        return code

    @classmethod
    def from_config(cls, config: SensingConfig) -> "AdcQuantizer":
        """Build from a :class:`~repro.config.SensingConfig`."""
        return cls(
            step=config.quantization_step_c,
            bits=config.adc_bits,
            minimum=config.adc_min_c,
        )
