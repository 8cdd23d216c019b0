"""Configuration dataclasses holding every model parameter of the paper.

The defaults reproduce Table I of Kim et al. (DATE 2014) plus the
experimental setup of Section VI-A.  All experiments in
:mod:`repro.experiments` start from :func:`default_server_config` and vary
only what the corresponding figure/table varies.

Parameters the paper does not state are marked in comments, each with
the rationale for the chosen value.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Any, Mapping

from repro.errors import ConfigError
from repro.units import (
    check_duration,
    check_fan_speed,
    check_nonnegative,
    check_positive,
    check_temperature,
)


@dataclass(frozen=True)
class CpuPowerConfig:
    """Eqn (1) parameters: ``P = p_static + p_dynamic * u``.

    Table I gives ``Pmax = 160 W`` and ``Pidle = 96 W``; hence the dynamic
    range is 64 W.
    """

    p_max_w: float = 160.0
    p_idle_w: float = 96.0

    def __post_init__(self) -> None:
        check_nonnegative(self.p_idle_w, "p_idle_w")
        check_positive(self.p_max_w, "p_max_w")
        if self.p_max_w < self.p_idle_w:
            raise ConfigError(
                f"p_max_w ({self.p_max_w}) must be >= p_idle_w ({self.p_idle_w})"
            )

    @property
    def p_static_w(self) -> float:
        """Static (idle) power, the ``P_static`` of Eqn (1)."""
        return self.p_idle_w

    @property
    def p_dynamic_w(self) -> float:
        """Maximum dynamic power, the ``P_dyn`` of Eqn (1)."""
        return self.p_max_w - self.p_idle_w


@dataclass(frozen=True)
class FanConfig:
    """Fan subsystem parameters (Table I).

    ``power_per_socket_w`` is the fan power at maximum speed; instantaneous
    power follows the cubic law ``P = power_per_socket_w * (s / max)**3``.
    """

    power_per_socket_w: float = 29.4
    max_speed_rpm: float = 8500.0
    #: Not in Table I; commercial fans cannot stop while the server runs.
    min_speed_rpm: float = 1000.0
    sample_interval_s: float = 1.0

    def __post_init__(self) -> None:
        check_positive(self.power_per_socket_w, "power_per_socket_w")
        check_positive(self.max_speed_rpm, "max_speed_rpm")
        check_fan_speed(self.min_speed_rpm, "min_speed_rpm")
        check_duration(self.sample_interval_s, "sample_interval_s")
        if self.min_speed_rpm >= self.max_speed_rpm:
            raise ConfigError(
                f"min_speed_rpm ({self.min_speed_rpm}) must be below "
                f"max_speed_rpm ({self.max_speed_rpm})"
            )


@dataclass(frozen=True)
class HeatSinkConfig:
    """Heat sink thermal parameters (Table I).

    The resistance law is ``Rhs(V) = r_base + r_coeff / V**r_exp`` K/W with
    V the fan speed in rpm.  The capacitance is derived from the stated time
    constant at maximum airflow: ``Chs = tau_at_max_airflow_s / Rhs(V_max)``.
    """

    r_base_k_per_w: float = 0.141
    r_coeff: float = 132.51
    r_exponent: float = 0.923
    tau_at_max_airflow_s: float = 60.0

    def __post_init__(self) -> None:
        check_nonnegative(self.r_base_k_per_w, "r_base_k_per_w")
        check_positive(self.r_coeff, "r_coeff")
        check_positive(self.r_exponent, "r_exponent")
        check_duration(self.tau_at_max_airflow_s, "tau_at_max_airflow_s")


@dataclass(frozen=True)
class DieConfig:
    """CPU die thermal parameters.

    Table I gives the die time constant (0.1 s).  The junction-to-heatsink
    resistance is not stated in the paper; 0.15 K/W places the operating
    points of Figs 3-5 in their plotted ranges.
    """

    time_constant_s: float = 0.1
    r_die_k_per_w: float = 0.15

    def __post_init__(self) -> None:
        check_duration(self.time_constant_s, "time_constant_s")
        check_positive(self.r_die_k_per_w, "r_die_k_per_w")


@dataclass(frozen=True)
class SensingConfig:
    """Non-ideal temperature measurement parameters (Section I / III-A).

    * ``lag_s`` - transport delay of the I2C/BMC path (paper: ~10 s).
    * ``quantization_step_c`` - ADC LSB size (paper: 1 degC, 8-bit ADC).
    * ``noise_std_c`` - optional Gaussian sensor noise before quantization.
    """

    lag_s: float = 10.0
    quantization_step_c: float = 1.0
    adc_bits: int = 8
    adc_min_c: float = 0.0
    noise_std_c: float = 0.0
    sample_interval_s: float = 1.0

    def __post_init__(self) -> None:
        check_nonnegative(self.lag_s, "lag_s")
        check_nonnegative(self.quantization_step_c, "quantization_step_c")
        check_nonnegative(self.noise_std_c, "noise_std_c")
        check_duration(self.sample_interval_s, "sample_interval_s")
        if self.adc_bits < 1 or self.adc_bits > 32:
            raise ConfigError(f"adc_bits must be in [1, 32], got {self.adc_bits}")

    @property
    def adc_max_c(self) -> float:
        """Full-scale ADC input for the configured bit width and LSB."""
        return self.adc_min_c + self.quantization_step_c * (2**self.adc_bits - 1)


@dataclass(frozen=True)
class ControlConfig:
    """Controller timing and thresholds (Section III-A / VI-A).

    * CPU cap decisions every ``cpu_interval_s`` (1 s), fan decisions every
      ``fan_interval_s`` (30 s).
    * The capper's deadzone is ``[t_low_c, t_high_c]``; the fan controller
      tracks ``t_ref_fan_c``.
    * ``t_critical_c`` is the safe-operating limit (< 80 degC, Section III-A).
    """

    cpu_interval_s: float = 1.0
    fan_interval_s: float = 30.0
    t_ref_fan_c: float = 75.0
    #: Capper deadzone lower bound; kept 1 degC above t_ref_fan_c so the
    #: cap reliably recovers once the fan loop has re-converged (with
    #: t_low == t_ref the recovery would sit on a knife's edge of noise).
    t_low_c: float = 76.0
    t_high_c: float = 80.0
    t_critical_c: float = 80.0
    #: Cap adjustment per CPU control period.  2% per second both cuts and
    #: recovers smoothly.
    cap_step: float = 0.02
    cap_min: float = 0.1

    def __post_init__(self) -> None:
        check_duration(self.cpu_interval_s, "cpu_interval_s")
        check_duration(self.fan_interval_s, "fan_interval_s")
        check_temperature(self.t_ref_fan_c, "t_ref_fan_c")
        check_temperature(self.t_low_c, "t_low_c")
        check_temperature(self.t_high_c, "t_high_c")
        check_temperature(self.t_critical_c, "t_critical_c")
        if self.t_low_c > self.t_high_c:
            raise ConfigError(
                f"t_low_c ({self.t_low_c}) must not exceed t_high_c ({self.t_high_c})"
            )
        if not 0.0 < self.cap_step <= 1.0:
            raise ConfigError(f"cap_step must be in (0, 1], got {self.cap_step}")
        if not 0.0 <= self.cap_min <= 1.0:
            raise ConfigError(f"cap_min must be in [0, 1], got {self.cap_min}")


@dataclass(frozen=True)
class FleetConfig:
    """Rack-level coupling parameters for fleet simulations.

    The paper evaluates a single server; at rack scale each server's
    inlet is the room ambient plus recirculated exhaust from upstream
    servers (cf. thermal-aware data-center control, Van Damme et al.).

    * ``n_servers`` - servers in the rack, ordered along the airflow path.
    * ``recirc_fraction`` - fraction of the immediate upstream neighbour's
      exhaust rise reaching a server's inlet; attenuates geometrically
      with distance along the chain.  0 decouples the rack entirely.
    * ``exhaust_conductance_w_per_k`` - airflow heat conductance
      ``G = P_exhaust / dT`` at maximum fan speed; the exhaust rise is
      ``P_total / G(V)`` with ``G`` scaling linearly with fan speed.
    * ``min_conductance_fraction`` - floor on ``G(V)/G(V_max)`` so the
      exhaust rise stays bounded as fans spin down.
    * ``room_c`` - room (cold-aisle) ambient supplied to every inlet.
    """

    n_servers: int = 4
    recirc_fraction: float = 0.25
    exhaust_conductance_w_per_k: float = 50.0
    min_conductance_fraction: float = 0.15
    #: Matches ServerConfig.ambient_c so a decoupled rack reproduces the
    #: default single-server setup exactly.
    room_c: float = 28.0

    def __post_init__(self) -> None:
        if self.n_servers < 1:
            raise ConfigError(f"n_servers must be >= 1, got {self.n_servers}")
        if not 0.0 <= self.recirc_fraction < 1.0:
            raise ConfigError(
                f"recirc_fraction must be in [0, 1), got {self.recirc_fraction}"
            )
        check_positive(
            self.exhaust_conductance_w_per_k, "exhaust_conductance_w_per_k"
        )
        if not 0.0 < self.min_conductance_fraction <= 1.0:
            raise ConfigError(
                "min_conductance_fraction must be in (0, 1], got "
                f"{self.min_conductance_fraction}"
            )
        check_temperature(self.room_c, "room_c")


#: Containment schemes a room aisle can use.  Factors scale how much
#: exhaust leaks between racks and how strongly return air heats the
#: CRAC supply; see :class:`repro.room.topology.RoomTopology`.
CONTAINMENT_SCHEMES = ("none", "cold_aisle", "hot_aisle")


@dataclass(frozen=True)
class CRACConfig:
    """Computer-room air conditioner (supply-air) parameters.

    The CRAC closes the room loop: exhaust heat that reaches the return
    plenum raises the supply air above its setpoint, and every rack the
    unit feeds breathes that supply.  The feedback is linear in the
    per-server exhaust rises, so the room expresses it as a rank-one
    term of the sparse coupling operator (see
    :class:`repro.room.crac.CRACUnit`).

    * ``supply_setpoint_c`` - supply (cold-aisle) temperature the unit
      targets; defaults to the single-server ambient so an uncoupled
      room reproduces standalone racks exactly.
    * ``capacity_w`` - rated heat-removal capacity (metrics only; the
      supply model stays linear).
    * ``return_sensitivity_k_per_k`` - supply-temperature rise per
      kelvin of mean return-air rise above the setpoint.  0 severs the
      feedback loop.
    * ``cop`` - coefficient of performance; CRAC energy is the heat it
      removes divided by this.
    * ``failure_supply_rise_c`` - supply-temperature rise applied when
      the unit is marked failed in a scenario.
    * ``supply_time_constant_s`` - first-order thermal time constant of
      the supply loop (coil + plenum mass).  0 (the default) keeps the
      static model: supply responds instantly to return-air rises and
      failures, exactly the pre-dynamics behaviour.  Positive values
      turn CRAC failures and brownouts into RC step responses (see
      :class:`repro.room.coupling.SparseCoupling`'s dynamic supply
      filter).
    """

    supply_setpoint_c: float = 28.0
    capacity_w: float = 50_000.0
    return_sensitivity_k_per_k: float = 0.3
    cop: float = 3.5
    failure_supply_rise_c: float = 8.0
    supply_time_constant_s: float = 0.0

    def __post_init__(self) -> None:
        check_temperature(self.supply_setpoint_c, "supply_setpoint_c")
        check_positive(self.capacity_w, "capacity_w")
        check_nonnegative(
            self.return_sensitivity_k_per_k, "return_sensitivity_k_per_k"
        )
        check_positive(self.cop, "cop")
        check_nonnegative(self.failure_supply_rise_c, "failure_supply_rise_c")
        check_nonnegative(self.supply_time_constant_s, "supply_time_constant_s")


@dataclass(frozen=True)
class RoomConfig:
    """Room-level layout and coupling parameters for multi-rack runs.

    A room is ``n_rows`` rows of ``racks_per_row`` racks; racks in a row
    share a cold aisle, so adjacent racks exchange a little exhaust
    sideways (``inter_rack_fraction``) on top of the front-to-back chain
    inside each rack (``recirc_fraction``).  The containment scheme
    scales both the sideways leak and the CRAC return mixing; the
    per-scheme factors live in :class:`repro.room.topology.RoomTopology`.

    * ``inlet_limit_c`` - allowable rack-inlet temperature used for the
      supply-margin metric (ASHRAE A2 allowable, 35 degC).
    """

    n_rows: int = 1
    racks_per_row: int = 4
    servers_per_rack: int = 4
    containment: str = "none"
    recirc_fraction: float = 0.25
    inter_rack_fraction: float = 0.08
    crac: CRACConfig = field(default_factory=CRACConfig)
    exhaust_conductance_w_per_k: float = 50.0
    min_conductance_fraction: float = 0.15
    inlet_limit_c: float = 35.0

    def __post_init__(self) -> None:
        if self.n_rows < 1:
            raise ConfigError(f"n_rows must be >= 1, got {self.n_rows}")
        if self.racks_per_row < 1:
            raise ConfigError(
                f"racks_per_row must be >= 1, got {self.racks_per_row}"
            )
        if self.servers_per_rack < 1:
            raise ConfigError(
                f"servers_per_rack must be >= 1, got {self.servers_per_rack}"
            )
        if self.containment not in CONTAINMENT_SCHEMES:
            raise ConfigError(
                f"containment must be one of {CONTAINMENT_SCHEMES}, got "
                f"{self.containment!r}"
            )
        if not 0.0 <= self.recirc_fraction < 1.0:
            raise ConfigError(
                f"recirc_fraction must be in [0, 1), got {self.recirc_fraction}"
            )
        if not 0.0 <= self.inter_rack_fraction < 1.0:
            raise ConfigError(
                "inter_rack_fraction must be in [0, 1), got "
                f"{self.inter_rack_fraction}"
            )
        check_positive(
            self.exhaust_conductance_w_per_k, "exhaust_conductance_w_per_k"
        )
        if not 0.0 < self.min_conductance_fraction <= 1.0:
            raise ConfigError(
                "min_conductance_fraction must be in (0, 1], got "
                f"{self.min_conductance_fraction}"
            )
        check_temperature(self.inlet_limit_c, "inlet_limit_c")

    @property
    def n_racks(self) -> int:
        """Total racks in the room."""
        return self.n_rows * self.racks_per_row

    @property
    def n_servers(self) -> int:
        """Total servers in the room."""
        return self.n_racks * self.servers_per_rack

    def fleet_config(
        self, room_c: float | None = None, recirc_fraction: float | None = None
    ) -> FleetConfig:
        """The per-rack :class:`FleetConfig` this room implies."""
        return FleetConfig(
            n_servers=self.servers_per_rack,
            recirc_fraction=(
                self.recirc_fraction
                if recirc_fraction is None
                else recirc_fraction
            ),
            exhaust_conductance_w_per_k=self.exhaust_conductance_w_per_k,
            min_conductance_fraction=self.min_conductance_fraction,
            room_c=self.crac.supply_setpoint_c if room_c is None else room_c,
        )


@dataclass(frozen=True)
class ServerConfig:
    """Complete description of the simulated enterprise server.

    Composes the per-subsystem configs and adds environment parameters.
    ``n_sockets`` scales power linearly (Section III-A assumes perfectly
    balanced load, so every socket behaves identically and all fans spin at
    the same speed).
    """

    cpu: CpuPowerConfig = field(default_factory=CpuPowerConfig)
    fan: FanConfig = field(default_factory=FanConfig)
    heatsink: HeatSinkConfig = field(default_factory=HeatSinkConfig)
    die: DieConfig = field(default_factory=DieConfig)
    sensing: SensingConfig = field(default_factory=SensingConfig)
    control: ControlConfig = field(default_factory=ControlConfig)
    #: Not in Table I; 28 degC puts the fan operating range for the paper's
    #: workloads across the 2000-6000 rpm region span of Fig. 3.
    ambient_c: float = 28.0
    n_sockets: int = 1

    def __post_init__(self) -> None:
        check_temperature(self.ambient_c, "ambient_c")
        if self.n_sockets < 1:
            raise ConfigError(f"n_sockets must be >= 1, got {self.n_sockets}")

    def to_dict(self) -> dict[str, Any]:
        """Serialize to a plain nested dict (JSON-friendly)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ServerConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Unknown keys raise :class:`ConfigError` so that typos in experiment
        configs fail loudly instead of silently using defaults.
        """
        known = {
            "cpu": CpuPowerConfig,
            "fan": FanConfig,
            "heatsink": HeatSinkConfig,
            "die": DieConfig,
            "sensing": SensingConfig,
            "control": ControlConfig,
        }
        kwargs: dict[str, Any] = {}
        for key, value in data.items():
            if key in known:
                if not isinstance(value, Mapping):
                    raise ConfigError(f"config section {key!r} must be a mapping")
                kwargs[key] = known[key](**value)
            elif key in ("ambient_c", "n_sockets"):
                kwargs[key] = value
            else:
                raise ConfigError(f"unknown ServerConfig key: {key!r}")
        return cls(**kwargs)

    def with_sensing(self, **changes: Any) -> "ServerConfig":
        """Return a copy with sensing parameters replaced."""
        return replace(self, sensing=replace(self.sensing, **changes))

    def with_control(self, **changes: Any) -> "ServerConfig":
        """Return a copy with control parameters replaced."""
        return replace(self, control=replace(self.control, **changes))


def default_server_config() -> ServerConfig:
    """The Table I server used throughout the paper's evaluation."""
    return ServerConfig()


def ideal_sensing_config() -> SensingConfig:
    """A hypothetical ideal sensor: no lag, no quantization, no noise.

    Used by experiments to contrast against the non-ideal pipeline.
    """
    return SensingConfig(lag_s=0.0, quantization_step_c=0.0, noise_std_c=0.0)
