"""Declarative run configuration: INI-style files with [system] [bath1] [bath2] [process] [sweep].

Physical defaults follow the worked two-site example: system hopping g = 1 sets
the units, baths are Lorentzians with kappa = 2, peaks at +2 and -1, hard
cutoff 6, equal chemical potentials mu = -2, and hot/cold inverse temperatures
0.1 / 1.  Everything is overridable per key.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
from dataclasses import dataclass
from typing import Optional

from .errors import ConfigError
from .spectral import FLAT, LORENTZIAN, TABULATED, SpectralFunction, read_spectral_table

@dataclass(frozen=True)
class BathConfig:
    kind: str = LORENTZIAN
    kappa: float = 2.0
    lam: float = 0.05
    omega0: float = 2.0
    cutoff: float = 6.0
    beta: float = 0.1
    mu: float = -2.0
    table: Optional[str] = None  # CSV path for the tabulated kind

    def spectral_function(self) -> SpectralFunction:
        if self.kind == LORENTZIAN:
            return SpectralFunction.lorentzian(self.kappa, self.lam, self.omega0, self.cutoff)
        if self.kind == FLAT:
            return SpectralFunction.flat(self.kappa, self.cutoff)
        if self.kind == TABULATED:
            if not self.table:
                raise ConfigError("tabulated bath needs a 'table' CSV path")
            try:
                return read_spectral_table(self.table)
            except (OSError, ValueError) as exc:
                raise ConfigError(f"cannot read spectral table {self.table}: {exc}") from exc
        raise ConfigError(f"unknown bath kind {self.kind!r}")


@dataclass(frozen=True)
class ProcessConfig:
    tau: float = 1.0
    l_0: int = 5
    tau_r_factor: float = 10.0


@dataclass(frozen=True)
class SweepConfig:
    axis: str = "tau"
    minimum: float = 0.1
    maximum: float = 20.0
    points: int = 20
    spacing: str = "log"


@dataclass(frozen=True)
class RunConfig:
    g: float = 1.0
    bath1: BathConfig = BathConfig()
    bath2: BathConfig = BathConfig(omega0=-1.0, beta=1.0)
    process: ProcessConfig = ProcessConfig()
    sweep: Optional[SweepConfig] = None

    def replace(self, **kwargs) -> "RunConfig":
        return dataclasses.replace(self, **kwargs)

    @property
    def lorentzian_baths(self) -> bool:
        """Both baths are Lorentzian, so the run has a bath width lambda."""
        return self.bath1.kind == self.bath2.kind == LORENTZIAN


def fixed_config(beta1: float, beta2: float, mu: float, lam: float,
                 tau: float) -> RunConfig:
    """The worked example family: the default baths at the given temperatures, mu and width."""
    baths = RunConfig()
    return RunConfig(bath1=dataclasses.replace(baths.bath1, lam=lam, beta=beta1, mu=mu),
                     bath2=dataclasses.replace(baths.bath2, lam=lam, beta=beta2, mu=mu),
                     process=ProcessConfig(tau=tau))


def heat_engine_preset(lam: float = 0.05, tau: float = 1.0) -> RunConfig:
    """Hot bath 1 at beta = 0.1, cold bath 2 at beta = 1, mu = -2."""
    return fixed_config(0.1, 1.0, -2.0, lam, tau)


def refrigerator_preset(lam: float = 0.05, tau: float = 1.0) -> RunConfig:
    """Bath 1 at beta = 0.7, bath 2 at beta = 1, mu = -2."""
    return fixed_config(0.7, 1.0, -2.0, lam, tau)


_BATH_FIELDS = {
    "kind": str, "kappa": float, "lambda": float, "omega0": float,
    "cutoff": float, "beta": float, "mu": float, "table": str,
}
_PROCESS_FIELDS = {"tau": float, "l0": int, "tau_r_factor": float}
_SWEEP_FIELDS = {"axis": str, "min": float, "max": float, "points": int, "spacing": str}
_SYSTEM_FIELDS = {"g": float}
# INI keys whose dataclass field has another name
_FIELD_NAMES = {"lambda": "lam", "l0": "l_0", "min": "minimum", "max": "maximum"}

SWEEP_AXES = ("tau", "lambda", "mu", "beta1")
POSITIVE_AXES = ("tau", "lambda", "beta1")
# every point's row is held until the sweep ends; beyond this a typo asks for
# hours of work, and at 10**12 for a grid that cannot be allocated
MAX_SWEEP_POINTS = 10_000


def _section(parser: configparser.ConfigParser, name: str, fields: dict) -> dict:
    out = {}
    if not parser.has_section(name):
        return out
    for key, raw in parser.items(name):
        if key not in fields:
            raise ConfigError(f"unknown key '{key}' in section [{name}]")
        try:
            value = fields[key](raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {name}.{key}: {raw!r}") from exc
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{name}.{key} must be finite, got {raw!r}")
        out[_FIELD_NAMES.get(key, key)] = value
    return out


def parse_config(path) -> RunConfig:
    """Read a config file; raises ConfigError on unknown keys or bad values.

    Every float value must be finite: nan and inf are rejected by key.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    for section in parser.sections():
        if section not in ("system", "bath1", "bath2", "process", "sweep"):
            raise ConfigError(f"unknown section [{section}]")

    system = _section(parser, "system", _SYSTEM_FIELDS)
    defaults = RunConfig()
    # per-bath defaults follow the worked example (peak +2 hot, peak -1 cold)
    bath1 = dataclasses.replace(defaults.bath1, **_section(parser, "bath1", _BATH_FIELDS))
    bath2 = dataclasses.replace(defaults.bath2, **_section(parser, "bath2", _BATH_FIELDS))

    process = dataclasses.replace(defaults.process,
                                  **_section(parser, "process", _PROCESS_FIELDS))
    validate_process(process)

    sweep = None
    if parser.has_section("sweep"):
        sweep = dataclasses.replace(SweepConfig(), **_section(parser, "sweep", _SWEEP_FIELDS))
        _validate_sweep(sweep)

    cfg = RunConfig(g=system.get("g", defaults.g), bath1=bath1, bath2=bath2,
                    process=process, sweep=sweep)
    _validate_run(cfg)
    return cfg


def validate_process(process: ProcessConfig) -> None:
    if process.tau <= 0:
        raise ConfigError("process.tau must be positive")
    if process.l_0 < 0:
        raise ConfigError("process.l0 must be >= 0")
    if process.tau_r_factor <= 0:
        raise ConfigError("process.tau_r_factor must be positive")


def _validate_sweep(sweep: SweepConfig) -> None:
    if sweep.axis not in SWEEP_AXES:
        raise ConfigError(f"sweep.axis must be one of {SWEEP_AXES}")
    if not sweep.minimum < sweep.maximum:
        raise ConfigError("sweep.min must be < sweep.max")
    if not 2 <= sweep.points <= MAX_SWEEP_POINTS:
        raise ConfigError(f"sweep.points must be between 2 and {MAX_SWEEP_POINTS}")
    if sweep.spacing not in ("linear", "log"):
        raise ConfigError("sweep.spacing must be 'linear' or 'log'")
    if sweep.spacing == "log" and sweep.minimum <= 0:
        raise ConfigError("log spacing needs a positive sweep.min")
    if sweep.axis in POSITIVE_AXES and sweep.minimum <= 0:
        raise ConfigError(f"sweep.min must be positive on the {sweep.axis} axis")
    if not math.isfinite(sweep.maximum - sweep.minimum):
        raise ConfigError("sweep.max - sweep.min must be finite")


def _validate_run(cfg: RunConfig) -> None:
    for name, bath in (("bath1", cfg.bath1), ("bath2", cfg.bath2)):
        if bath.beta <= 0:
            raise ConfigError(f"{name}.beta must be positive")
        try:
            bath.spectral_function()
        except ValueError as exc:
            raise ConfigError(f"{name}: {exc}") from exc
