"""Parameter sweeps over tau / lambda / mu / beta1: one steady-state solve per grid point."""

from __future__ import annotations

import dataclasses
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import RunConfig, SweepConfig
from .errors import ConfigError, PrebError
from .pipeline import run_ness
from .thermo import NessReport


@dataclass(frozen=True)
class SweepRow:
    value: float
    report: Optional[NessReport]
    error: Optional[str]


def sweep_values(sweep: SweepConfig) -> np.ndarray:
    if sweep.spacing == "log":
        return np.geomspace(sweep.minimum, sweep.maximum, sweep.points)
    return np.linspace(sweep.minimum, sweep.maximum, sweep.points)


def apply_axis(cfg: RunConfig, axis: str, value: float) -> RunConfig:
    """A copy of the configuration with one swept parameter replaced.

    The lambda and mu axes move both baths together, matching the worked
    example family; beta1 moves only the hot bath.  Only a Lorentzian bath has
    a width, so the lambda axis needs both baths Lorentzian.
    """
    if axis == "tau":
        return cfg.replace(process=dataclasses.replace(cfg.process, tau=float(value)))
    if axis == "lambda":
        if not cfg.lorentzian_baths:
            raise ConfigError(f"sweep.axis = lambda needs two Lorentzian baths, got "
                              f"{cfg.bath1.kind} and {cfg.bath2.kind}")
        return cfg.replace(bath1=dataclasses.replace(cfg.bath1, lam=float(value)),
                           bath2=dataclasses.replace(cfg.bath2, lam=float(value)))
    if axis == "mu":
        return cfg.replace(bath1=dataclasses.replace(cfg.bath1, mu=float(value)),
                           bath2=dataclasses.replace(cfg.bath2, mu=float(value)))
    if axis == "beta1":
        return cfg.replace(bath1=dataclasses.replace(cfg.bath1, beta=float(value)))
    raise ConfigError(f"unknown sweep axis {axis!r}")


def _run_point(cfg: RunConfig) -> tuple[Optional[NessReport], Optional[str]]:
    try:
        return run_ness(cfg), None
    except PrebError as exc:
        return None, f"{type(exc).__name__}: {exc}"


def run_sweep(cfg: RunConfig, jobs: int = 1) -> list[SweepRow]:
    """One steady-state solve per grid point; failures land in the error column.

    Points are independent, so they may be dispatched to a worker pool of at
    most ``min(jobs, cpu count, points)`` processes; results keep the grid order
    either way.
    """
    if cfg.sweep is None:
        raise ConfigError("configuration has no [sweep] section")
    values = sweep_values(cfg.sweep)
    configs = [apply_axis(cfg, cfg.sweep.axis, v) for v in values]
    workers = min(jobs, os.cpu_count() or 1, len(configs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_point, configs))
    else:
        outcomes = [_run_point(c) for c in configs]
    return [SweepRow(value=float(v), report=rep, error=err)
            for v, (rep, err) in zip(values, outcomes)]
