"""Continuous-time steady-state reference via two-terminal Landauer integrals.

An independent route to the large-cycle-time limit: build the retarded lead
self-energies from the spectral functions, form the transmission through the
system, and integrate against the Fermi-window difference.

Normalization: the chain-mapping route carries total squared coupling
(1/2pi) int J, so the consistent retarded self-energy is

    Sigma(w) = (J^H(w) - i J(w)) / 2,

giving a level broadening Gamma(w) = -2 Im Sigma = J(w).  This is pinned by a
test requiring that an initially filled level coupled to a wide flat band
decay as exp(-J t), and by the agreement of the refreshed-bath steady state
with this module at large cycle times.
"""

from __future__ import annotations

import csv
import logging
import warnings
from dataclasses import dataclass

import numpy as np

from .builder import SystemSpec
from .spectral import (BathThermalSpec, SpectralFunction, fermi_occupation,
                       frequency_grid, hilbert_transform)

log = logging.getLogger(__name__)

QUAD_ABS_TOL = 1e-9
WINDOW_MARGIN = 0.05
LEAD_GRID_POINTS = 16384


class LeadSelfEnergy:
    """Retarded self-energy of one lead, with the Hilbert transform precomputed."""

    def __init__(self, sf: SpectralFunction, points: int = LEAD_GRID_POINTS,
                 margin: float = WINDOW_MARGIN):
        self.sf = sf
        self.grid = frequency_grid(sf, points=points, margin=margin)
        self.j_grid = sf(self.grid)
        self.jh_grid = hilbert_transform(self.grid, self.j_grid)

    def __call__(self, omega):
        """Sigma(w); the imaginary part is -J(w)/2 <= 0 everywhere."""
        j = self.sf(omega)
        jh = np.interp(omega, self.grid, self.jh_grid)
        return 0.5 * (jh - 1j * j)


def _resolvent(system: SystemSpec, sigmas: tuple[LeadSelfEnergy, LeadSelfEnergy],
               w: np.ndarray) -> np.ndarray:
    """Dressed system resolvent G^r(w) at each frequency of ``w``."""
    i1, i2 = system.coupling_sites
    a = w[:, None, None] * np.eye(system.n_sites) - system.h_s[None, :, :].astype(complex)
    a[:, i1, i1] -= sigmas[0](w)
    a[:, i2, i2] -= sigmas[1](w)
    try:
        return np.linalg.inv(a)
    except np.linalg.LinAlgError:
        warnings.warn("singular resolvent on the real axis; nudging into the lower half plane")
        a[:, i1, i1] -= 1e-12j
        a[:, i2, i2] -= 1e-12j
        return np.linalg.inv(a)


@dataclass(frozen=True)
class NegfReport:
    """Steady currents of the always-coupled process (bath 1 -> system positive)."""

    current: float
    energy_current: float
    qdot: tuple[float, float]
    p_chem: float
    sigma: float
    occupations: np.ndarray


def _panel_quad(f, a: float, b: float, abs_tol: float, max_halvings: int = 18):
    """Composite-Simpson integral of a vector integrand over one panel.

    The step is halved until the Simpson error estimate drops below the
    tolerance; deterministic and vectorized over the integrand components.
    """
    m = 8
    prev = None
    while True:
        x = np.linspace(a, b, m + 1)
        y = f(x)
        h = (b - a) / m
        s = h / 3 * (y[..., 0] + y[..., -1] + 4 * y[..., 1:-1:2].sum(axis=-1)
                     + 2 * y[..., 2:-2:2].sum(axis=-1))
        if prev is not None and float(np.max(np.abs(s - prev))) / 15 < abs_tol:
            return s
        if m >= 8 * 2 ** max_halvings:
            log.warning("panel [%g, %g] hit the refinement cap", a, b)
            return s
        prev = s
        m *= 2


def _integrate(f, breakpoints: np.ndarray, abs_tol: float) -> np.ndarray:
    panels = [(a, b) for a, b in zip(breakpoints[:-1], breakpoints[1:]) if b > a]
    if not panels:
        return f(np.array([0.0]))[..., 0] * 0.0
    tol = abs_tol / len(panels)
    return sum(_panel_quad(f, a, b, tol) for a, b in panels)


def _breakpoints(leads, specs, lo: float, hi: float) -> np.ndarray:
    pts = [lo, hi]
    for sf in leads:
        if sf.kind == "lorentzian":
            for k in (0.0, 1.0, 3.0, 10.0, 30.0, 100.0):
                pts.extend([sf.omega0 - k * sf.lam, sf.omega0 + k * sf.lam])
        pts.extend(sf.support)
    for spec in specs:
        pts.append(spec.mu)
    pts = np.array(sorted(p for p in pts if lo <= p <= hi))
    return np.unique(pts)


def landauer_currents(system: SystemSpec, leads: tuple[SpectralFunction, SpectralFunction],
                      specs: tuple[BathThermalSpec, BathThermalSpec], *,
                      abs_tol: float = QUAD_ABS_TOL) -> NegfReport:
    """Particle and energy currents plus steady occupations of the autonomous process.

    T(w) = Gamma_1 Gamma_2 |G^r_{i1 i2}|^2 with G^r the dressed system resolvent;
    currents are (1/2pi) integrals of T and w T against f_1 - f_2 over the
    overlap of the lead supports.
    """
    i1, i2 = system.coupling_sites
    sigmas = (LeadSelfEnergy(leads[0]), LeadSelfEnergy(leads[1]))
    lo1, hi1 = leads[0].support
    lo2, hi2 = leads[1].support
    lo_t, hi_t = max(lo1, lo2), min(hi1, hi2)

    def current_integrand(w: np.ndarray) -> np.ndarray:
        g = _resolvent(system, sigmas, w)
        t = leads[0](w) * leads[1](w) * np.abs(g[:, i1, i2]) ** 2
        df = fermi_occupation(specs[0], w) - fermi_occupation(specs[1], w)
        base = t * df / (2 * np.pi)
        return np.stack([base, w * base])

    if hi_t <= lo_t:
        particle = energy = 0.0
    else:
        bp = _breakpoints(leads, specs, lo_t, hi_t)
        particle, energy = _integrate(current_integrand, bp, abs_tol)

    lo_u, hi_u = min(lo1, lo2), max(hi1, hi2)

    def occupation_integrand(w: np.ndarray) -> np.ndarray:
        g = _resolvent(system, sigmas, w)
        fill1 = leads[0](w) * fermi_occupation(specs[0], w)
        fill2 = leads[1](w) * fermi_occupation(specs[1], w)
        occ = (np.abs(g[:, :, i1]) ** 2 * fill1[:, None]
               + np.abs(g[:, :, i2]) ** 2 * fill2[:, None]) / (2 * np.pi)
        return occ.T

    occupations = _integrate(occupation_integrand, _breakpoints(leads, specs, lo_u, hi_u),
                             abs_tol)

    mu1, mu2 = specs[0].mu, specs[1].mu
    qdot1 = -(energy - mu1 * particle)
    qdot2 = energy - mu2 * particle
    sigma = specs[0].beta * qdot1 + specs[1].beta * qdot2
    return NegfReport(current=float(particle), energy_current=float(energy),
                      qdot=(float(qdot1), float(qdot2)),
                      p_chem=(mu1 - mu2) * float(particle), sigma=float(sigma),
                      occupations=np.atleast_1d(occupations))


def transmission_table(system: SystemSpec, leads: tuple[SpectralFunction, SpectralFunction],
                       points: int = 2001) -> tuple[np.ndarray, np.ndarray]:
    """T(w) sampled over the overlap of the lead supports."""
    i1, i2 = system.coupling_sites
    sigmas = (LeadSelfEnergy(leads[0]), LeadSelfEnergy(leads[1]))
    lo = max(leads[0].support[0], leads[1].support[0])
    hi = min(leads[0].support[1], leads[1].support[1])
    w = np.linspace(lo, hi, points)
    g = _resolvent(system, sigmas, w)
    t = leads[0](w) * leads[1](w) * np.abs(g[:, i1, i2]) ** 2
    return w, t


# -- CSV ---------------------------------------------------------------------


def negf_to_csv(fh, report: NegfReport) -> None:
    """Header ``I,J,Q1,Q2,P_chem,sigma,n1,n2,...`` and the report's one row."""
    writer = csv.writer(fh)
    writer.writerow(["I", "J", "Q1", "Q2", "P_chem", "sigma"]
                    + [f"n{i + 1}" for i in range(report.occupations.size)])
    writer.writerow([f"{v:.12g}" for v in (report.current, report.energy_current,
                                           *report.qdot, report.p_chem, report.sigma,
                                           *report.occupations)])


def transmission_to_csv(fh, omega: np.ndarray, t: np.ndarray) -> None:
    """Rows ``omega,T``, as returned by ``transmission_table``."""
    writer = csv.writer(fh)
    writer.writerow(["omega", "T"])
    writer.writerows([f"{wi:.12g}", f"{ti:.12g}"] for wi, ti in zip(omega, t))
