"""Sensing substrate: the non-ideal temperature measurement pipeline.

Section I of the paper identifies two non-idealities that destabilize fan
controllers:

1. **Time lag** (~10 s) between the physical transducer and the control
   firmware, caused by the bandwidth-limited I2C bus to the BMC.
2. **Quantization** from standardized 8-bit ADCs (1 degC per LSB).

This package models the full path: physical temperature -> additive noise
-> ADC quantization -> I2C transport delay -> periodic sampling by the
firmware.  :class:`~repro.sensing.sensor.TemperatureSensor` composes the
stages; each stage is also available separately.
"""

from repro.sensing.adc import AdcQuantizer
from repro.sensing.delay import DelayLine
from repro.sensing.i2c import I2CBus, I2CTransaction
from repro.sensing.noise import GaussianNoise, NoNoise, NoiseModel, UniformNoise
from repro.sensing.power_sensor import PowerReading, PowerSensor
from repro.sensing.sensor import SensorReading, TemperatureSensor

__all__ = [
    "AdcQuantizer",
    "DelayLine",
    "GaussianNoise",
    "I2CBus",
    "I2CTransaction",
    "NoNoise",
    "NoiseModel",
    "PowerReading",
    "PowerSensor",
    "SensorReading",
    "TemperatureSensor",
    "UniformNoise",
]
