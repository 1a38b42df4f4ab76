"""Parameter sweeps over tau / lambda / mu / beta1 with deterministic CSV output."""

from __future__ import annotations

import csv
import dataclasses
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import RunConfig, SweepConfig
from .errors import ConfigError, PrebError
from .pipeline import run_ness
from .thermo import REPORT_COLUMNS, NessReport

SWEEP_COLUMNS = REPORT_COLUMNS + ["error"]


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
    example family; beta1 moves only the hot bath.
    """
    if axis == "tau":
        return cfg.replace(process=dataclasses.replace(cfg.process, tau=float(value)))
    if axis == "lambda":
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


_AXIS_COLUMN = {"tau": 0, "lambda": 1, "mu": 2, "beta1": 3}


def sweep_to_csv(fh, rows: list[SweepRow], axis: str = "tau") -> None:
    writer = csv.writer(fh)
    writer.writerow(SWEEP_COLUMNS)
    for row in rows:
        if row.report is not None:
            writer.writerow(row.report.csv_row() + [""])
        else:
            cells = [""] * len(REPORT_COLUMNS)
            cells[_AXIS_COLUMN[axis]] = f"{row.value:.12g}"
            writer.writerow(cells + [row.error])


def report_to_csv(fh, report: NessReport) -> None:
    writer = csv.writer(fh)
    writer.writerow(REPORT_COLUMNS)
    writer.writerow(report.csv_row())
