"""Thermal substrate: RC models of die, heat sink, and full server.

The paper models the server with the standard thermal/electrical duality
(Section III-B): the heat sink is a single RC node whose resistance depends
nonlinearly on fan speed (Table I), and the CPU die is a much faster node
riding on top of it.  This package provides:

* :class:`~repro.thermal.rc_node.RCNode` - exact-exponential single-node
  integrator (Eqn 2).
* :class:`~repro.thermal.heatsink.HeatSink` - Rhs(V) law and derived Chs.
* :class:`~repro.thermal.die.CpuDie` - fast junction node.
* :class:`~repro.thermal.server.ServerThermalModel` - the plant used by
  every experiment.
* :class:`~repro.thermal.batch.BatchThermalPlant` - B such plants as
  ``(B,)`` arrays, bit-identical to the scalar ones (batch backends and
  the lockstep tuner).
* Ambient profiles in :mod:`repro.thermal.ambient`.
"""

from repro.thermal.ambient import (
    AmbientProfile,
    ConstantAmbient,
    CoupledInlet,
    DiurnalAmbient,
    StepAmbient,
)
from repro.thermal.batch import BatchThermalPlant
from repro.thermal.die import CpuDie
from repro.thermal.heatsink import HeatSink
from repro.thermal.rc_node import RCNode
from repro.thermal.server import ServerState, ServerThermalModel
from repro.thermal.steady_state import SteadyStateServerModel

__all__ = [
    "AmbientProfile",
    "BatchThermalPlant",
    "ConstantAmbient",
    "CoupledInlet",
    "CpuDie",
    "DiurnalAmbient",
    "HeatSink",
    "RCNode",
    "ServerState",
    "ServerThermalModel",
    "SteadyStateServerModel",
    "StepAmbient",
]
