"""Bath spectral functions, thermal occupations, and a principal-value Hilbert transform.

A spectral function J(w) >= 0 with hard support cutoffs fully determines the
influence of a bath on the system; together with the Fermi function of the
bath's initial thermal state it fixes the reduced dynamics.  Closed-form
antiderivatives of J and w*J are exposed because the chain-mapping routines
need exact cell integrals.  Fermi factors, of particles or of holes, are
computed in numpy alone, so that importing the package loads no scipy module.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

LORENTZIAN = "lorentzian"
FLAT = "flat"
TABULATED = "tabulated"

DEFAULT_GRID_POINTS = 8192
GRID_MARGIN = 0.05  # the grid reaches this fraction of max|support| past each end


@dataclass(frozen=True, eq=False)
class SpectralTable:
    """Sampled (omega, J) pairs on a uniform grid.

    Tables with the same samples are equal and hash alike, so a table read
    again from its file keys the same cache entries as the first read.  The
    arrays are read-only copies; the hash is computed once, from their bytes.
    """

    omega: np.ndarray
    values: np.ndarray
    _hash: int = field(init=False, repr=False)

    def __post_init__(self):
        omega = np.asarray(self.omega, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if omega.ndim != 1 or omega.shape != values.shape or omega.size < 2:
            raise ValueError("table needs matching 1-d omega and J arrays with >= 2 samples")
        if not (np.all(np.isfinite(omega)) and np.all(np.isfinite(values))):
            raise ValueError("table samples must be finite")
        dw = np.diff(omega)
        if np.any(dw <= 0):
            raise ValueError("table grid must be strictly increasing")
        if np.max(np.abs(dw - dw[0])) > 1e-9 * dw[0]:
            raise ValueError("table grid must be uniform")
        if np.any(values < -1e-14):
            raise ValueError("spectral function must be non-negative")
        for name, array in (("omega", omega.copy()), ("values", np.maximum(values, 0.0))):
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        object.__setattr__(self, "_hash", hash((self.omega.tobytes(), self.values.tobytes())))
        if not np.isfinite([cum[-1] for cum in _table_cumulatives(self)]).all():
            raise ValueError("the integral of J or of omega J over the table overflows")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpectralTable):
            return NotImplemented
        return (self._hash == other._hash and np.array_equal(self.omega, other.omega)
                and np.array_equal(self.values, other.values))


@dataclass(frozen=True)
class BathThermalSpec:
    """Inverse temperature and chemical potential of a bath's initial state."""

    beta: float
    mu: float

    def __post_init__(self):
        if not (self.beta > 0):
            raise ValueError("beta must be positive")
        if not math.isfinite(self.mu):
            raise ValueError("mu must be finite")


@dataclass(frozen=True)
class SpectralFunction:
    """Bath coupling density J(w) with hard support cutoffs.

    Kinds: a Lorentzian peak ``kappa*lam / ((w - omega0)^2 + lam^2)`` restricted
    to ``[-cutoff, cutoff]``, a flat plateau (height stored in ``kappa``) on the
    same support, or a tabulated curve.  J is exactly zero outside the support.
    """

    kind: str
    cutoff: float
    kappa: float = 0.0
    lam: float = 0.0
    omega0: float = 0.0
    table: Optional[SpectralTable] = None

    def __post_init__(self):
        if self.kind not in (LORENTZIAN, FLAT, TABULATED):
            raise ValueError(f"unknown spectral function kind {self.kind!r}")
        if self.kind == LORENTZIAN and (self.kappa <= 0 or self.lam <= 0):
            raise ValueError("lorentzian needs kappa > 0 and lam > 0")
        if self.kind == FLAT and self.kappa <= 0:
            raise ValueError("flat plateau height must be positive")
        if self.kind == TABULATED and self.table is None:
            raise ValueError("tabulated kind needs a table")
        if self.kind != TABULATED and not (self.cutoff > 0):
            raise ValueError("cutoff must be positive")

    # -- constructors ------------------------------------------------------

    @classmethod
    def lorentzian(cls, kappa: float, lam: float, omega0: float, cutoff: float) -> "SpectralFunction":
        return cls(kind=LORENTZIAN, cutoff=cutoff, kappa=kappa, lam=lam, omega0=omega0)

    @classmethod
    def flat(cls, height: float, cutoff: float) -> "SpectralFunction":
        return cls(kind=FLAT, cutoff=cutoff, kappa=height)

    @classmethod
    def tabulated(cls, omega, values) -> "SpectralFunction":
        table = SpectralTable(np.asarray(omega), np.asarray(values))
        cutoff = float(max(abs(table.omega[0]), abs(table.omega[-1])))
        return cls(kind=TABULATED, cutoff=cutoff, table=table)

    # -- evaluation --------------------------------------------------------

    @property
    def support(self) -> tuple[float, float]:
        if self.kind == TABULATED:
            return float(self.table.omega[0]), float(self.table.omega[-1])
        return -self.cutoff, self.cutoff

    def __call__(self, omega):
        """Evaluate J(w); exactly zero outside the support."""
        w = np.asarray(omega, dtype=float)
        lo, hi = self.support
        inside = (w >= lo) & (w <= hi)
        if self.kind == LORENTZIAN:
            vals = self.kappa * self.lam / ((w - self.omega0) ** 2 + self.lam ** 2)
        elif self.kind == FLAT:
            vals = np.full_like(w, self.kappa)
        else:
            vals = np.interp(w, self.table.omega, self.table.values)
        out = np.where(inside, vals, 0.0)
        return float(out) if np.isscalar(omega) or out.ndim == 0 else out

    # -- exact integrals ---------------------------------------------------

    def integral(self, a, b):
        """Integral of J over [a, b], clipped to the support.  Vectorized in a, b."""
        return self._definite(a, b, moment=False)

    def first_moment(self, a, b):
        """Integral of w * J(w) over [a, b], clipped to the support."""
        return self._definite(a, b, moment=True)

    def _definite(self, a, b, moment: bool):
        lo, hi = self.support
        a = np.clip(np.asarray(a, dtype=float), lo, hi)
        b = np.clip(np.asarray(b, dtype=float), lo, hi)
        if self.kind == LORENTZIAN:
            anti = self._lorentzian_cum_moment if moment else self._lorentzian_cum
            out = anti(b) - anti(a)
        elif self.kind == FLAT:
            out = self.kappa * (b ** 2 - a ** 2) / 2 if moment else self.kappa * (b - a)
        else:
            cj, cm = _table_cumulatives(self.table)
            ev = functools.partial(_table_cumulative_eval, self.table, cj, cm, moment=moment)
            out = ev(b) - ev(a)
        return out if np.ndim(out) else float(out)

    def _lorentzian_cum(self, w):
        return self.kappa * np.arctan((w - self.omega0) / self.lam)

    def _lorentzian_cum_moment(self, w):
        x = w - self.omega0
        return (self.kappa * self.lam / 2) * np.log(x * x + self.lam ** 2) \
            + self.omega0 * self.kappa * np.arctan(x / self.lam)


@functools.lru_cache(maxsize=32)
def _table_cumulatives(table: SpectralTable):
    """Node-wise cumulative integrals of J and w*J for a piecewise-linear table."""
    x, y = table.omega, table.values
    h = np.diff(x)
    with np.errstate(over="ignore", invalid="ignore"):  # SpectralTable rejects an overflow
        cell_j = 0.5 * h * (y[:-1] + y[1:])
        # exact first moment of a linear segment
        slope = np.diff(y) / h
        y0 = y[:-1] - slope * x[:-1]
        cell_m = y0 * (x[1:] ** 2 - x[:-1] ** 2) / 2 + slope * (x[1:] ** 3 - x[:-1] ** 3) / 3
        cum_j = np.concatenate([[0.0], np.cumsum(cell_j)])
        cum_m = np.concatenate([[0.0], np.cumsum(cell_m)])
    return cum_j, cum_m


def _table_cumulative_eval(table: SpectralTable, cum_j, cum_m, w, moment: bool):
    x, y = table.omega, table.values
    w = np.asarray(w, dtype=float)
    idx = np.clip(np.searchsorted(x, w, side="right") - 1, 0, x.size - 2)
    x0 = x[idx]
    slope = (y[idx + 1] - y[idx]) / (x[idx + 1] - x0)
    yw = y[idx] + slope * (w - x0)
    if moment:
        a0 = y[idx] - slope * x0
        part = a0 * (w ** 2 - x0 ** 2) / 2 + slope * (w ** 3 - x0 ** 3) / 3
        return cum_m[idx] + part
    part = 0.5 * (w - x0) * (y[idx] + yw)
    return cum_j[idx] + part


# -- occupations -----------------------------------------------------------


def fermi_occupation(spec: BathThermalSpec, omega, *, hole: bool = False):
    """Fermi function 1 / (exp(beta (w - mu)) + 1); overflow-safe for any argument.

    With ``hole``, its complement 1 - f = 1 / (exp(-beta (w - mu)) + 1), the
    occupation of holes, computed without cancellation.  An exponent that
    overflows to inf gives the limit 0, and without a warning.
    """
    with np.errstate(over="ignore"):
        x = spec.beta * (np.asarray(omega, dtype=float) - spec.mu)
        f = 1.0 / (1.0 + np.exp(-x if hole else x))
    return float(f) if np.ndim(f) == 0 else f


# -- grids and the Hilbert transform ----------------------------------------


def frequency_grid(sf: SpectralFunction, points: int = DEFAULT_GRID_POINTS) -> np.ndarray:
    """Uniform grid covering the support of ``sf`` with the relative margin ``GRID_MARGIN``."""
    lo, hi = sf.support
    pad = GRID_MARGIN * max(abs(lo), abs(hi))
    return np.linspace(lo - pad, hi + pad, points)


@functools.lru_cache(maxsize=8)
def _hat_kernel_spectrum(n: int, size: int) -> np.ndarray:
    # principal-value transform of the unit hat function, sampled at integer lags
    # -(n - 1) .. n - 1, as its real FFT of length ``size``
    m = np.arange(-(n - 1), n, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (1 + m) * np.log(np.abs(1 + m))
        t2 = (1 - m) * np.log(np.abs(1 - m))
        t3 = 2 * m * np.log(np.abs(m))
    out = np.nan_to_num(t1, nan=0.0) - np.nan_to_num(t2, nan=0.0) - np.nan_to_num(t3, nan=0.0)
    return np.fft.rfft(out, size)


def hilbert_transform(omega: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Principal-value Hilbert transform (1/pi) PV int J(w') / (w - w') dw' on a uniform grid.

    The integral is done exactly on the piecewise-linear interpolant of the
    samples: each hat basis function has a closed-form transform, so the whole
    operation reduces to a discrete convolution that is independent of the grid
    spacing.  The log singularity cancels exactly at every interior node.
    """
    omega = np.asarray(omega, dtype=float)
    values = np.asarray(values, dtype=float)
    if omega.ndim != 1 or omega.shape != values.shape or omega.size < 3:
        raise ValueError("need matching 1-d arrays with at least 3 samples")
    dw = np.diff(omega)
    if np.any(dw <= 0) or np.max(np.abs(dw - dw[0])) > 1e-9 * abs(dw[0]):
        raise ValueError("hilbert_transform requires a uniform grid")
    n = values.size
    # circular convolution of length >= 2n - 1: the wrap-around misses the n outputs kept
    size = 1 << (2 * n - 2).bit_length()
    conv = np.fft.irfft(np.fft.rfft(values, size) * _hat_kernel_spectrum(n, size), size)
    return conv[n - 1:2 * n - 1] / np.pi


# -- CSV ---------------------------------------------------------------------


def read_spectral_table(path) -> SpectralFunction:
    """Read an ``omega,J`` file back as a tabulated spectral function."""
    omega, values = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header] != ["omega", "J"]:
            raise ValueError(f"expected header 'omega,J', got {header!r}")
        for row in reader:
            if not row:
                continue
            if len(row) < 2:
                raise ValueError(f"line {reader.line_num}: expected 'omega,J', got {row!r}")
            omega.append(float(row[0]))
            values.append(float(row[1]))
    return SpectralFunction.tabulated(np.array(omega), np.array(values))
