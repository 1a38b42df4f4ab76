"""Continuous-time steady-state reference via two-terminal Landauer integrals.

An independent route to the large-cycle-time limit: build the retarded lead
self-energies from the spectral functions, form the transmission through the
system, and integrate against the Fermi-window difference.  The system has
two sites, so its resolvent is the closed-form 2 x 2 inverse.  The integrals
use adaptive Gauss-Kronrod panels that are cut at the kinks of Sigma and
around every peak, so each panel's integrand is smooth.

Normalization: the chain-mapping route carries total squared coupling
(1/2pi) int J, so the consistent retarded self-energy is

    Sigma(w) = (J^H(w) - i J(w)) / 2,

giving a level broadening Gamma(w) = -2 Im Sigma = J(w).  This is pinned by a
test requiring that an initially filled level coupled to a wide flat band
decay as exp(-J t), and by the agreement of the refreshed-bath steady state
with this module at large cycle times.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass

import numpy as np

from .builder import SystemSpec
from .spectral import (LORENTZIAN, TABULATED, BathThermalSpec, SpectralFunction,
                       fermi_occupation, frequency_grid, hilbert_transform)

log = logging.getLogger(__name__)

QUAD_ABS_TOL = 1e-9
LEAD_GRID_POINTS = 16384
MAX_ROUNDS = 50          # bisection rounds of one integral before the refinement cap
MAX_INTERVALS = 2 ** 14  # open intervals of one round before the refinement cap
TRANSMISSION_POINTS = 2001
# panel edges around a peak of half-width h: center +- k h for each k
PEAK_LADDER = np.array([0.0, 1.0, 3.0, 10.0, 30.0, 100.0])

# Gauss-Kronrod 7/15 on [-1, 1] (Piessens et al., QUADPACK, 1983): the Kronrod
# nodes from the outermost one in, their weights, and the Gauss weights of
# every other node (the 7-point Gauss-Legendre rule)
_XK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
       0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
       0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
       0.207784955007898467600689403773245, 0.0)
_WK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
       0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
       0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
       0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
       0.0, 0.381830050505118944950369775488975, 0.0, 0.417959183673469387755102040816327)
_NODES = np.concatenate([-np.array(_XK), _XK[-2::-1]])
_KRONROD = np.concatenate([_WK, _WK[-2::-1]])
_GAUSS_GAP = _KRONROD - np.concatenate([_WG, _WG[-2::-1]])


class LeadSelfEnergy:
    """Retarded self-energy of one lead, with the Hilbert transform precomputed.

    ``kinks`` are the frequencies where Sigma is not smooth: the nodes of the
    grid that Re Sigma is interpolated on, and the nodes of a tabulated J.
    """

    def __init__(self, sf: SpectralFunction):
        self.sf = sf
        self.grid = frequency_grid(sf, points=LEAD_GRID_POINTS)
        self.j_grid = sf(self.grid)
        self.jh_grid = hilbert_transform(self.grid, self.j_grid)
        self.kinks = (np.union1d(self.grid, sf.table.omega) if sf.kind == TABULATED
                      else self.grid)

    def __call__(self, omega):
        """Sigma(w); the imaginary part is -J(w)/2 <= 0 everywhere."""
        j = self.sf(omega)
        jh = np.interp(omega, self.grid, self.jh_grid)
        return 0.5 * (jh - 1j * j)


def _dressed(system: SystemSpec, sigma1, sigma2, w: np.ndarray):
    """Diagonal of A = w - h_S - Sigma at each frequency of ``w``, and det A.

    The self-energies sit on the coupling sites; the closed form needs two sites.
    """
    if system.n_sites != 2:
        raise ValueError(f"the NEGF reference needs a two-site system, got {system.n_sites} sites")
    h = system.h_s
    i1, i2 = system.coupling_sites
    diag = [w - h[0, 0], w - h[1, 1]]
    diag[i1] = diag[i1] - sigma1
    diag[i2] = diag[i2] - sigma2
    return diag, diag[0] * diag[1] - h[0, 1] * h[1, 0]


def _abs2(z: np.ndarray) -> np.ndarray:
    return z.real ** 2 + z.imag ** 2


def _resolvent_abs2(system: SystemSpec, sigma1: np.ndarray, sigma2: np.ndarray,
                    w: np.ndarray) -> np.ndarray:
    """|G^r_ij(w)|^2 of the dressed system resolvent G^r = adj A / det A at each frequency."""
    diag, det = _dressed(system, sigma1, sigma2, w)
    singular = det == 0
    if singular.any():
        warnings.warn("singular resolvent on the real axis; nudging into the lower half plane")
        diag, det = _dressed(system, sigma1 - 1e-12j * singular, sigma2 - 1e-12j * singular, w)
    inv = 1 / _abs2(det)
    h = system.h_s
    return np.stack([_abs2(diag[1]) * inv, h[0, 1] ** 2 * inv,
                     h[1, 0] ** 2 * inv, _abs2(diag[0]) * inv], axis=-1).reshape(-1, 2, 2)


def _transmission(system: SystemSpec, sigma1: np.ndarray, sigma2: np.ndarray,
                  g2: np.ndarray) -> np.ndarray:
    """T(w) = Gamma_1 Gamma_2 |G^r_{i1 i2}|^2, with Gamma = -2 Im Sigma = J and g2 = |G^r|^2."""
    i1, i2 = system.coupling_sites
    return 4 * sigma1.imag * sigma2.imag * g2[:, i1, i2]


@dataclass(frozen=True)
class NegfReport:
    """Steady currents of the always-coupled process (bath 1 -> system positive)."""

    current: float
    energy_current: float
    qdot: tuple[float, float]
    p_chem: float
    sigma: float
    occupations: np.ndarray


def _panel_quad(f, breakpoints: np.ndarray, kinks: np.ndarray) -> np.ndarray:
    """Adaptive Gauss-Kronrod 7/15 integral of ``f`` from the first breakpoint to the last.

    ``f`` maps a 1-d frequency array to a (components, points) array.  Every
    round evaluates it once, at the nodes of all open intervals; an interval is
    done when |K15 - G7| of every component is within its width's share of
    ``QUAD_ABS_TOL``.  An open interval is cut at the kink nearest its
    midpoint when one lies inside it, else at its midpoint, so the rule ends
    up integrating pieces on which ``f`` is smooth.
    """
    a, b = breakpoints[:-1], breakpoints[1:]
    share = QUAD_ABS_TOL / (breakpoints[-1] - breakpoints[0])
    total = 0.0
    for rounds in range(MAX_ROUNDS + 1):
        mid, half = (a + b) / 2, (b - a) / 2
        y = f((mid[:, None] + half[:, None] * _NODES).ravel())
        y = y.reshape(len(y), a.size, _NODES.size)
        error = np.max(np.abs(y @ _GAUSS_GAP), axis=0) * half
        done = error <= share * (b - a)
        if rounds == MAX_ROUNDS or 2 * np.count_nonzero(~done) > MAX_INTERVALS:
            if not done.all():
                log.warning("%d intervals in [%g, %g] hit the refinement cap",
                            np.count_nonzero(~done), breakpoints[0], breakpoints[-1])
            done[:] = True
        total = total + (y[:, done] @ _KRONROD) @ half[done]
        if done.all():
            return total
        a, b, mid = a[~done], b[~done], mid[~done]
        j = np.clip(np.searchsorted(kinks, mid), 1, kinks.size - 1)
        left, right = kinks[j - 1], kinks[j]
        near = np.where(mid - left <= right - mid, left, right)
        cut = np.where((a < near) & (near < b), near, mid)
        a, b = np.concatenate([a, cut]), np.concatenate([cut, b])


def _peak_edges(centers, half_widths) -> np.ndarray:
    """``PEAK_LADDER`` on both sides of each peak."""
    steps = np.concatenate([-PEAK_LADDER, PEAK_LADDER])
    return (np.asarray(centers)[:, None] + np.outer(half_widths, steps)).ravel()


def _resonances(system: SystemSpec, sigmas: tuple[LeadSelfEnergy, LeadSelfEnergy],
                w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Resonances of the dressed system and their half-widths.

    A resonance is a sign change of det(w - h_S - Re Sigma(w)) between two
    nodes of ``w``, placed by linear interpolation; its half-width is
    -Im(Sigma_1 + Sigma_2) there.
    """
    _, det = _dressed(system, sigmas[0](w).real, sigmas[1](w).real, w)
    k = np.flatnonzero((det[:-1] > 0) != (det[1:] > 0))
    roots = w[k] - det[k] * (w[k + 1] - w[k]) / (det[k + 1] - det[k])
    return roots, -(sigmas[0](roots) + sigmas[1](roots)).imag


def _breakpoints(system: SystemSpec, leads, specs, sigmas, kinks: np.ndarray) -> np.ndarray:
    """Panel edges over the union of the lead supports.

    They are the support edges, the chemical potentials and a ladder around
    every peak: those of Lorentzian leads and the resonances of the dressed
    system.
    """
    lorentzians = [sf for sf in leads if sf.kind == LORENTZIAN]
    roots, widths = _resonances(system, sigmas, kinks)
    edges = [edge for sf in leads for edge in sf.support]
    pts = np.concatenate([
        _peak_edges([sf.omega0 for sf in lorentzians], [sf.lam for sf in lorentzians]),
        _peak_edges(roots, widths), edges, [spec.mu for spec in specs]])
    return np.unique(pts[(min(edges) <= pts) & (pts <= max(edges))])


def landauer_currents(system: SystemSpec, leads: tuple[SpectralFunction, SpectralFunction],
                      specs: tuple[BathThermalSpec, BathThermalSpec]) -> NegfReport:
    """Particle and energy currents plus steady occupations of the autonomous process.

    The currents are (1/2pi) integrals of the transmission T and w T against
    f_1 - f_2; T vanishes outside the overlap of the lead supports.  One
    quadrature over the union of the supports gives currents and occupations.
    """
    i1, i2 = system.coupling_sites
    sigmas = (LeadSelfEnergy(leads[0]), LeadSelfEnergy(leads[1]))
    kinks = np.union1d(sigmas[0].kinks, sigmas[1].kinks)

    def integrand(w: np.ndarray) -> np.ndarray:
        s1, s2 = sigmas[0](w), sigmas[1](w)
        g2 = _resolvent_abs2(system, s1, s2, w)
        f1, f2 = fermi_occupation(specs[0], w), fermi_occupation(specs[1], w)
        base = _transmission(system, s1, s2, g2) * (f1 - f2)
        occ = g2[:, :, i1].T * (-2 * s1.imag * f1) + g2[:, :, i2].T * (-2 * s2.imag * f2)
        return np.vstack([base, w * base, occ]) / (2 * np.pi)

    particle, energy, *occupations = _panel_quad(
        integrand, _breakpoints(system, leads, specs, sigmas, kinks), kinks)

    mu1, mu2 = specs[0].mu, specs[1].mu
    qdot1 = -(energy - mu1 * particle)
    qdot2 = energy - mu2 * particle
    sigma = specs[0].beta * qdot1 + specs[1].beta * qdot2
    return NegfReport(current=float(particle), energy_current=float(energy),
                      qdot=(float(qdot1), float(qdot2)),
                      p_chem=(mu1 - mu2) * float(particle), sigma=float(sigma),
                      occupations=np.array(occupations))


def transmission_table(system: SystemSpec, leads: tuple[SpectralFunction, SpectralFunction]
                       ) -> tuple[np.ndarray, np.ndarray]:
    """T(w) sampled over the overlap of the lead supports."""
    sigmas = (LeadSelfEnergy(leads[0]), LeadSelfEnergy(leads[1]))
    lo = max(leads[0].support[0], leads[1].support[0])
    hi = min(leads[0].support[1], leads[1].support[1])
    w = np.linspace(lo, hi, TRANSMISSION_POINTS)
    s1, s2 = sigmas[0](w), sigmas[1](w)
    return w, _transmission(system, s1, s2, _resolvent_abs2(system, s1, s2, w))
