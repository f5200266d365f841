"""Experiment configuration: one nested, JSON-round-trippable structure whose
defaults reproduce the reference deployment (64-antenna transmitter at the
origin, 100-element surface at (190, 10) m, users near (200, 0) m, 64
subcarriers with an 8-sample cyclic prefix, 20 dBm transmit power, -80 dBm
noise, path-loss exponents 2 / 2.2 / 3.5, coverage 90-140 degrees,
oversampling 10).

Positions feed the large-scale fading factors only; path angles are drawn
uniformly, so array orientation never enters. Every run is a pure function
of (config, seed): each option of a run, the estimation overhead and the
asserted ripple bound included, is a key here, so ``config_hash`` names it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import types
import typing
from dataclasses import dataclass, field

import numpy as np

from .analysis import CoverageStats, LinkBudget, dbm_to_watts, default_flat_power, rate_scale
from .channel import ArrayGeometry, ChannelConfig, path_loss_linear
from .pattern import AngularGrid, TargetPattern, WeightConfig, check_flat_top_resolved

# Trial counts per named preset; keys in a config file override them.
PRESETS = {"paper": {"users": 1280, "realizations": 500},
           "ci": {"users": 128, "realizations": 100}}


def _check(prefix: str, names: str, build):
    """Run ``build`` and name the fields ``names`` (space-separated, under
    ``prefix``) in any ValueError or overflow it raises."""
    try:
        build()
    except (ValueError, ArithmeticError) as exc:
        fields = ", ".join(f"{prefix}.{name}" for name in names.split())
        raise ValueError(f"{fields}: {exc}") from None


def _at_least(spec, prefix: str, low: int, names: str) -> None:
    for name in names.split():
        if getattr(spec, name) < low:
            raise ValueError(f"{prefix}.{name}: must be at least {low}, "
                             f"got {getattr(spec, name)}")


def _nonempty(spec, prefix: str, names: str) -> None:
    for name in names.split():
        if len(getattr(spec, name)) == 0:
            raise ValueError(f"{prefix}.{name}: must list at least one value")


def _positive(spec, prefix: str, names: str) -> None:
    for name in names.split():
        if not getattr(spec, name) > 0:
            raise ValueError(f"{prefix}.{name}: must be positive, got {getattr(spec, name)}")


def feed_channel(num_paths: int, k_factor_db: float | None,
                 delay_spread_taps: int) -> ChannelConfig:
    """Feeding-link recipe; with no explicit K-factor the line-of-sight path
    is made exactly as strong as each diffuse path."""
    if k_factor_db is None:
        k_factor_db = -10.0 * math.log10(num_paths - 1) if num_paths > 1 else math.inf
    return ChannelConfig(num_paths=num_paths, k_factor_db=k_factor_db,
                         delay_spread_taps=delay_spread_taps)


@dataclass(frozen=True)
class OptimizerSpec:
    """The solver keywords of ``synthesis.synthesize``, with its defaults: the
    multi-start count, per-solver iteration caps and tolerances. The Armijo
    constants are ``manifold.ArmijoParams``' defaults alone."""

    num_starts: int = 3
    inner_max_iters: int = 500
    inner_grad_tol: float = 1e-6
    inner_cost_tol: float = 1e-8
    outer_max_iters: int = 50
    outer_tol: float = 1e-4

    def __post_init__(self) -> None:
        _at_least(self, "scenario.optimizer", 0, "inner_max_iters outer_max_iters")
        _at_least(self, "scenario.optimizer", 1, "num_starts")


@dataclass(frozen=True)
class OfdmaEvalSpec:
    """Closed-form versus Monte Carlo OFDMA rate comparison (ideal flat top,
    dominant line-of-sight feed, 200-element surface covering 90-120 deg).

    The closed form replaces the direct-channel power by its mean, which
    needs mild concentration to hold; six diffuse direct paths keep that
    approximation inside its stated accuracy band."""

    ris_elements: int = 200
    coverage_deg: tuple[float, float] = (90.0, 120.0)
    nlos_paths: int = 3
    direct_paths: int = 6
    k_sweep_db: tuple[float, ...] = (-10.0, 0.0, 10.0, 20.0)
    p_sweep_dbm: tuple[float, ...] = (10.0, 20.0, 30.0)
    realizations: int = 1000

    def __post_init__(self) -> None:
        path = "scenario.ofdma"
        _check(path, "ris_elements", lambda: ArrayGeometry(self.ris_elements))
        _nonempty(self, path, "k_sweep_db p_sweep_dbm")
        for k_db in self.k_sweep_db:
            _check(path, "coverage_deg k_sweep_db", lambda: self.coverage_stats(k_db))
        # the diffuse user paths carry the residual of any finite K-factor
        _check(path, "nlos_paths", lambda: ChannelConfig(self.nlos_paths + 1, 0.0))
        _check(path, "direct_paths", lambda: ChannelConfig(self.direct_paths))
        _at_least(self, path, 1, "realizations")

    def coverage_stats(self, k_db: float) -> CoverageStats:
        """Closed-form inputs at Rice factor ``k_db`` with the default flat top."""
        lo, hi = (math.radians(d) for d in self.coverage_deg)
        return CoverageStats(10.0 ** (k_db / 10.0), hi - lo,
                             default_flat_power(self.ris_elements, hi - lo))


@dataclass(frozen=True)
class BeamShiftSpec:
    """Single-path design used to check the shifted-coverage prediction."""

    ris_elements: int = 64
    coverage_deg: tuple[float, float] = (100.0, 140.0)
    incident_from_deg: float = 60.0
    incident_to_deg: float = 70.0

    def __post_init__(self) -> None:
        _check("scenario.beamshift", "ris_elements", lambda: ArrayGeometry(self.ris_elements))
        _check("scenario.beamshift", "coverage_deg", self.target)
        for name in ("incident_from_deg", "incident_to_deg"):
            # the shift prediction needs incident angles inside (0, 180) degrees
            if not 0.0 < getattr(self, name) < 180.0:
                raise ValueError(f"scenario.beamshift.{name}: incident angle must lie in "
                                 f"(0, 180) degrees, got {getattr(self, name)}")

    def target(self) -> TargetPattern:
        lo, hi = (math.radians(d) for d in self.coverage_deg)
        return TargetPattern.for_coverage(
            lo, hi, flat_power=default_flat_power(self.ris_elements, hi - lo))


@dataclass(frozen=True)
class ScalingProbeSpec:
    """Grid of (element count, beamwidth) synthesis cells for the power
    scaling trends."""

    element_counts: tuple[int, ...] = (32, 64)
    beamwidths_deg: tuple[float, ...] = (40.0, 20.0)
    center_deg: float = 115.0
    num_seeds: int = 3
    paths: int = 3
    streams: int = 2
    bs_antennas: int = 16

    def __post_init__(self) -> None:
        path = "scenario.scaling"
        _nonempty(self, path, "element_counts beamwidths_deg")
        for m in self.element_counts:
            _check(path, "element_counts", lambda: ArrayGeometry(m))
            for bw in self.beamwidths_deg:
                _check(path, "beamwidths_deg",
                       lambda: default_flat_power(m, math.radians(bw)))
                _check(path, "center_deg beamwidths_deg", lambda: self.cell_target(m, bw))
        _check(path, "bs_antennas", lambda: ArrayGeometry(self.bs_antennas))
        _check(path, "paths", lambda: feed_channel(self.paths, None, 0))
        _at_least(self, path, 1, "num_seeds streams")

    def cell_target(self, num_elements: int, beamwidth_deg: float) -> TargetPattern:
        """Flat-top target of one cell: ``beamwidth_deg`` around ``center_deg``
        at the ``default_flat_power`` of ``num_elements``."""
        width, center = math.radians(beamwidth_deg), math.radians(self.center_deg)
        return TargetPattern.for_coverage(center - width / 2.0, center + width / 2.0,
                                          flat_power=default_flat_power(num_elements, width))


# Largest finite-difference step of the gradient audit: a longer step no
# longer resolves a derivative at unit-modulus phases.
_FD_STEP_MAX = 1e-2

# Smallest size of each random gradcheck instance, in draw order.
_GRADCHECK_MIN_SIZES = (("ris_elements", 4), ("bs_antennas", 2), ("streams", 1),
                        ("paths", 1))


@dataclass(frozen=True)
class GradCheckSpec:
    """Small random instances for the finite-difference gradient audit; the
    size fields are the largest sizes an instance draws."""

    instances: int = 20
    ris_elements: int = 8
    bs_antennas: int = 4
    streams: int = 2
    paths: int = 2
    oversampling: int = 8
    fd_step: float = 1e-6
    threshold: float = 1e-4

    def __post_init__(self) -> None:
        path = "scenario.gradcheck"
        _at_least(self, path, 1, "instances")
        for name, low in _GRADCHECK_MIN_SIZES:
            _at_least(self, path, low, name)
        _check(path, "oversampling",
               lambda: AngularGrid(self.oversampling, self.ris_elements))
        _positive(self, path, "fd_step threshold")
        if not self.fd_step <= _FD_STEP_MAX:
            raise ValueError(f"{path}.fd_step: must be at most {_FD_STEP_MAX:g}, "
                             f"got {self.fd_step}")

    def draw_sizes(self, rng: np.random.Generator) -> tuple[int, ...]:
        """Surface, transmit-array, stream and path counts of one instance,
        each uniform between its minimum and the configured maximum."""
        return tuple(int(rng.integers(low, getattr(self, name) + 1))
                     for name, low in _GRADCHECK_MIN_SIZES)


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int = 2024
    bs_antennas: int = 64
    ris_elements: int = 100
    ue_antennas: int = 4
    streams: int = 4
    subcarriers: int = 64
    cp_length: int = 8
    tx_power_dbm: float = 20.0
    noise_power_dbm: float = -80.0
    bs_position: tuple[float, float] = (0.0, 0.0)
    ris_position: tuple[float, float] = (190.0, 10.0)
    user_position: tuple[float, float] = (200.0, 0.0)
    bs_ris_exponent: float = 2.0
    ris_user_exponent: float = 2.2
    direct_exponent: float = 3.5
    coverage_deg: tuple[float, float] = (90.0, 140.0)
    oversampling: int = 10
    rolloff: float = 0.1
    flat_power: float | None = None
    sidelobe_ratio: float = 0.01
    flat_weight: float = 10.0
    sidelobe_weight: float = 1.0
    rolloff_weight: float = 0.5
    bs_ris_paths: int = 5
    bs_ris_k_factor_db: float | None = None
    ris_user_paths: int = 5
    ris_user_k_factor_db: float = 10.0
    direct_paths: int = 4
    users: int = 128
    realizations: int = 100
    batch_channels: int = 0
    overhead_fraction: float = 0.0
    assert_ripple_db: float | None = None
    optimizer: OptimizerSpec = field(default_factory=OptimizerSpec)
    ofdma: OfdmaEvalSpec = field(default_factory=OfdmaEvalSpec)
    beamshift: BeamShiftSpec = field(default_factory=BeamShiftSpec)
    scaling: ScalingProbeSpec = field(default_factory=ScalingProbeSpec)
    gradcheck: GradCheckSpec = field(default_factory=GradCheckSpec)

    # -- derived quantities ------------------------------------------------

    def coverage_rad(self) -> tuple[float, float]:
        lo, hi = self.coverage_deg
        return math.radians(lo), math.radians(hi)

    def flat_power_value(self) -> float:
        """Configured flat-top gain, defaulting to the power-scaling
        heuristic: elements * pi / beamwidth."""
        if self.flat_power is not None:
            return self.flat_power
        lo, hi = self.coverage_rad()
        return default_flat_power(self.ris_elements, hi - lo)

    def target(self) -> TargetPattern:
        lo, hi = self.coverage_rad()
        flat = self.flat_power_value()
        return TargetPattern.for_coverage(lo, hi, flat_power=flat,
                                          sidelobe_power=flat * self.sidelobe_ratio,
                                          rolloff=self.rolloff)

    def weight_config(self) -> WeightConfig:
        return WeightConfig(self.flat_weight, self.sidelobe_weight, self.rolloff_weight)

    def synthesis_kwargs(self) -> dict:
        """Keyword arguments of ``synthesis.synthesize`` shared by every design."""
        return dict(oversampling=self.oversampling, weight_config=self.weight_config(),
                    **dataclasses.asdict(self.optimizer))

    def rate_scale(self) -> float:
        """Factor on every reported rate: cyclic-prefix efficiency times the
        share ``1 - overhead_fraction`` left after estimation overhead."""
        return rate_scale(self.subcarriers, self.cp_length, self.overhead_fraction)

    def budget(self) -> LinkBudget:
        def dist(a, b) -> float:
            return max(1.0, math.hypot(a[0] - b[0], a[1] - b[1]))

        return LinkBudget(
            tx_power_w=dbm_to_watts(self.tx_power_dbm),
            noise_power_w=dbm_to_watts(self.noise_power_dbm),
            bs_ris_gain=path_loss_linear(dist(self.bs_position, self.ris_position),
                                         self.bs_ris_exponent),
            ris_user_gain=path_loss_linear(dist(self.ris_position, self.user_position),
                                           self.ris_user_exponent),
            direct_gain=path_loss_linear(dist(self.bs_position, self.user_position),
                                         self.direct_exponent),
        )

    def bs_ris_channel(self) -> ChannelConfig:
        return feed_channel(self.bs_ris_paths, self.bs_ris_k_factor_db, self.cp_length)

    def ris_user_channel(self) -> ChannelConfig:
        return ChannelConfig(num_paths=self.ris_user_paths,
                             k_factor_db=self.ris_user_k_factor_db,
                             delay_spread_taps=self.cp_length)

    def direct_channel(self) -> ChannelConfig:
        return ChannelConfig(num_paths=self.direct_paths, k_factor_db=None,
                             delay_spread_taps=self.cp_length)

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Build every derived object once, naming the offending fields in
        any error; runs on construction, so no runner sees an invalid config."""
        for name in ("bs_antennas", "ris_elements", "ue_antennas"):
            _check("scenario", name, lambda: ArrayGeometry(getattr(self, name)))
        _at_least(self, "scenario", 0, "seed")
        _at_least(self, "scenario", 1, "streams")
        _at_least(self, "scenario", 0, "users realizations batch_channels")
        if not 0 <= self.cp_length < self.subcarriers:
            raise ValueError(f"scenario.cp_length: must satisfy 0 <= cp_length < "
                             f"subcarriers ({self.subcarriers}), got {self.cp_length}")
        _check("scenario", "overhead_fraction", self.rate_scale)
        if self.assert_ripple_db is not None and not 0.0 <= self.assert_ripple_db < math.inf:
            raise ValueError(f"scenario.assert_ripple_db: must be finite and nonnegative, "
                             f"got {self.assert_ripple_db}")
        _check("scenario", "oversampling",
               lambda: AngularGrid(self.oversampling, self.ris_elements))
        _check("scenario", "coverage_deg rolloff flat_power sidelobe_ratio", self.target)
        # every synthesis of a run samples its flat top on the scenario's grid
        def resolved(names: str, target: TargetPattern, m: int) -> None:
            _check("scenario", names, lambda: check_flat_top_resolved(
                target, AngularGrid(self.oversampling, m)))

        resolved("coverage_deg rolloff oversampling", self.target(), self.ris_elements)
        resolved("beamshift.coverage_deg beamshift.ris_elements oversampling",
                 self.beamshift.target(), self.beamshift.ris_elements)
        for m in self.scaling.element_counts:
            for bw in self.scaling.beamwidths_deg:
                resolved("scaling.beamwidths_deg scaling.element_counts oversampling",
                         self.scaling.cell_target(m, bw), m)
        _check("scenario", "flat_weight sidelobe_weight rolloff_weight", self.weight_config)
        _check("scenario", "bs_ris_paths bs_ris_k_factor_db", self.bs_ris_channel)
        _check("scenario", "ris_user_paths ris_user_k_factor_db", self.ris_user_channel)
        _check("scenario", "direct_paths", self.direct_channel)
        _check("scenario", "tx_power_dbm noise_power_dbm bs_position ris_position "
               "user_position bs_ris_exponent ris_user_exponent direct_exponent", self.budget)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def canonical_json(self) -> str:
        # tuples serialize as JSON lists
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        return _build_dataclass(cls, data, "scenario")

    @classmethod
    def load(cls, path=None, preset: str = "ci") -> "ScenarioConfig":
        """The scenario of the JSON file at ``path`` (built-in defaults when
        ``None``) with the trial counts of ``preset`` ("paper": 1280 users x
        500 realizations, "ci": the scaled-down ones) for keys the file
        leaves unset."""
        if preset not in PRESETS:
            raise ValueError(f"unknown preset: {preset!r} (expected one of {', '.join(PRESETS)})")
        data = {}
        if path is not None:
            with open(path) as fh:
                try:
                    data = json.load(fh)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON "
                                     f"({exc.msg})") from None
        if isinstance(data, dict):
            data = {**PRESETS[preset], **data}
        return cls.from_dict(data)


def _build_dataclass(cls, data, path: str):
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a mapping, got {type(data).__name__}")
    field_map = {f.name: f for f in dataclasses.fields(cls)}
    for key in data:
        if key not in field_map:
            raise ValueError(f"{path}.{key}: unknown key")
    hints = typing.get_type_hints(cls)
    # every config class names its own fields in its construction errors
    return cls(**{name: _coerce(value, hints[name], f"{path}.{name}")
                  for name, value in data.items()})


def _coerce(value, hint, path: str):
    origin = typing.get_origin(hint)
    if origin is types.UnionType:
        args = [a for a in typing.get_args(hint) if a is not type(None)]
        if value is None:
            return None
        return _coerce(value, args[0], path)
    if dataclasses.is_dataclass(hint):
        return _build_dataclass(hint, value, path)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{path}: expected a list")
        args = typing.get_args(hint)
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(_coerce(v, args[0], f"{path}[{i}]") for i, v in enumerate(value))
        if len(value) != len(args):
            raise ValueError(f"{path}: expected {len(args)} entries, got {len(value)}")
        return tuple(_coerce(v, a, f"{path}[{i}]") for i, (v, a) in enumerate(zip(value, args)))
    if hint is int:
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or isinstance(value, float) and not value.is_integer()):
            raise ValueError(f"{path}: expected an integer, got {value!r}")
        return int(value)
    if hint is float:
        # JSON's NaN loads as a float; no field has a meaning for it
        if isinstance(value, bool) or not isinstance(value, (int, float)) or value != value:
            raise ValueError(f"{path}: expected a number, got {value!r}")
        try:  # a JSON integer past the float range
            return float(value)
        except OverflowError:
            raise ValueError(f"{path}: number out of the float range") from None
    raise ValueError(f"{path}: unsupported config field type {hint!r}")
