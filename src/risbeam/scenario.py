"""Experiment configuration: one nested, JSON-round-trippable structure whose
defaults reproduce the reference deployment (64-antenna transmitter at the
origin, 100-element surface at (190, 10) m, users near (200, 0) m, 64
subcarriers with an 8-sample cyclic prefix, 20 dBm transmit power, -80 dBm
noise, path-loss exponents 2 / 2.2 / 3.5, coverage 90-140 degrees,
oversampling 10).

Positions feed the large-scale fading factors only; path angles are drawn
uniformly, so array orientation never enters. Every run is a pure function
of (config, seed).
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

from .analysis import LinkBudget, dbm_to_watts
from .channel import ChannelConfig, path_loss_linear
from .manifold import ArmijoParams
from .pattern import TargetPattern, WeightConfig


@dataclass(frozen=True)
class OptimizerSpec:
    """Line-search constants, per-solver iteration caps and tolerances, and
    the multi-start count for the alternating synthesis."""

    initial_step: float = 1.0
    contraction: float = 0.5
    sufficient_decrease: float = 1e-4
    max_halvings: int = 50
    inner_max_iters: int = 500
    inner_grad_tol: float = 1e-6
    inner_cost_tol: float = 1e-8
    outer_max_iters: int = 50
    outer_tol: float = 1e-4
    num_starts: int = 3

    def armijo(self) -> ArmijoParams:
        return ArmijoParams(self.initial_step, self.contraction,
                            self.sufficient_decrease, self.max_halvings)

    def synthesis_kwargs(self) -> dict:
        return dict(armijo=self.armijo(), num_starts=self.num_starts,
                    inner_max_iters=self.inner_max_iters,
                    inner_grad_tol=self.inner_grad_tol,
                    inner_cost_tol=self.inner_cost_tol,
                    outer_max_iters=self.outer_max_iters,
                    outer_tol=self.outer_tol)


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


@dataclass(frozen=True)
class BeamShiftSpec:
    """Single-path design used to check the shifted-coverage prediction."""

    ris_elements: int = 64
    coverage_deg: tuple[float, float] = (100.0, 140.0)
    incident_from_deg: float = 60.0
    incident_to_deg: float = 70.0


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


@dataclass(frozen=True)
class GradCheckSpec:
    """Small random instances for the finite-difference gradient audit."""

    instances: int = 20
    ris_elements: int = 8
    bs_antennas: int = 4
    streams: int = 2
    paths: int = 2
    oversampling: int = 8
    fd_step: float = 1e-6
    threshold: float = 1e-4


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
    optimizer: OptimizerSpec = field(default_factory=OptimizerSpec)
    ofdma: OfdmaEvalSpec = field(default_factory=OfdmaEvalSpec)
    beamshift: BeamShiftSpec = field(default_factory=BeamShiftSpec)
    scaling: ScalingProbeSpec = field(default_factory=ScalingProbeSpec)
    gradcheck: GradCheckSpec = field(default_factory=GradCheckSpec)

    # -- derived quantities ------------------------------------------------

    def coverage_rad(self) -> tuple[float, float]:
        lo, hi = self.coverage_deg
        return math.radians(lo), math.radians(hi)

    def beamwidth_rad(self) -> float:
        lo, hi = self.coverage_rad()
        return hi - lo

    def flat_power_value(self) -> float:
        """Configured flat-top gain, defaulting to the power-scaling
        heuristic: elements * pi / beamwidth."""
        if self.flat_power is not None:
            return self.flat_power
        return self.ris_elements * math.pi / self.beamwidth_rad()

    def target(self) -> TargetPattern:
        lo, hi = self.coverage_rad()
        flat = self.flat_power_value()
        return TargetPattern.for_coverage(lo, hi, flat_power=flat,
                                          sidelobe_power=flat * self.sidelobe_ratio,
                                          rolloff=self.rolloff)

    def weight_config(self) -> WeightConfig:
        return WeightConfig(self.flat_weight, self.sidelobe_weight, self.rolloff_weight)

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
        """Feeding-link recipe; with no explicit K-factor the line-of-sight
        path is made exactly as strong as each diffuse path."""
        kdb = self.bs_ris_k_factor_db
        if kdb is None and self.bs_ris_paths > 1:
            kdb = -10.0 * math.log10(self.bs_ris_paths - 1)
        elif kdb is None:
            kdb = math.inf
        return ChannelConfig(num_paths=self.bs_ris_paths, k_factor_db=kdb,
                             delay_spread_taps=self.cp_length)

    def ris_user_channel(self) -> ChannelConfig:
        return ChannelConfig(num_paths=self.ris_user_paths,
                             k_factor_db=self.ris_user_k_factor_db,
                             delay_spread_taps=self.cp_length)

    def direct_channel(self) -> ChannelConfig:
        return ChannelConfig(num_paths=self.direct_paths, k_factor_db=None,
                             delay_spread_taps=self.cp_length)

    def validate(self) -> None:
        """Reject field values and combinations that the per-field coercion
        cannot see, naming the fields in the message; cheap enough to run at
        load, before any synthesis."""
        for name in ("users", "realizations", "batch_channels"):
            if getattr(self, name) < 0:
                raise ValueError(f"scenario.{name}: must be nonnegative, "
                                 f"got {getattr(self, name)}")
        if not 0 <= self.cp_length < self.subcarriers:
            raise ValueError(f"scenario.cp_length: must satisfy 0 <= cp_length < "
                             f"subcarriers ({self.subcarriers}), got {self.cp_length}")
        for fields, build in (("coverage_deg, rolloff, flat_power, sidelobe_ratio", self.target),
                              ("flat_weight, sidelobe_weight, rolloff_weight", self.weight_config)):
            try:
                build()
            except ValueError as exc:
                raise ValueError(f"{fields}: {exc}") from None

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def canonical_json(self) -> str:
        def default(o):
            if isinstance(o, tuple):
                return list(o)
            raise TypeError(f"not serializable: {o!r}")

        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"),
                          default=default)

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        return _build_dataclass(cls, data, "scenario")

    @classmethod
    def from_file(cls, path) -> "ScenarioConfig":
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON "
                                 f"({exc.msg})") from None
        return cls.from_dict(data)

    @classmethod
    def preset(cls, name: str, **overrides) -> "ScenarioConfig":
        """Named presets: "paper" runs the full-size trial counts
        (1280 users x 500 realizations), "ci" the scaled-down ones."""
        if name == "paper":
            base = dict(users=1280, realizations=500)
        elif name == "ci":
            base = dict(users=128, realizations=100)
        else:
            raise ValueError(f"unknown preset: {name!r} (expected 'paper' or 'ci')")
        base.update(overrides)
        return cls(**base)


def _build_dataclass(cls, data, path: str):
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a mapping, got {type(data).__name__}")
    field_map = {f.name: f for f in dataclasses.fields(cls)}
    for key in data:
        if key not in field_map:
            raise ValueError(f"{path}.{key}: unknown key")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for name, value in data.items():
        kwargs[name] = _coerce(value, hints[name], f"{path}.{name}")
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _coerce(value, hint, path: str):
    origin = typing.get_origin(hint)
    if origin in (typing.Union, types.UnionType):
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
        if isinstance(value, bool) or not isinstance(value, (int, float)) or int(value) != value:
            raise ValueError(f"{path}: expected an integer, got {value!r}")
        return int(value)
    if hint is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{path}: expected a number, got {value!r}")
        return float(value)
    if hint is str:
        if not isinstance(value, str):
            raise ValueError(f"{path}: expected a string, got {value!r}")
        return value
    if hint is bool:
        if not isinstance(value, bool):
            raise ValueError(f"{path}: expected a boolean, got {value!r}")
        return value
    raise ValueError(f"{path}: unsupported config field type {hint!r}")


def scenario_rng_children(config: ScenarioConfig, count: int) -> list[np.random.SeedSequence]:
    """Deterministic per-purpose seed streams derived from the scenario seed.

    Child 0 feeds the design channel draw, child 1 the synthesis starts,
    child 2 the evaluation trials, further children any per-command extras.
    """
    return np.random.SeedSequence(config.seed).spawn(count)
