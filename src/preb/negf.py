"""Continuous-time steady-state reference via two-terminal Landauer integrals.

An independent route to the large-cycle-time limit: build the retarded lead
self-energies from the spectral functions, form the transmission through the
system, and integrate against the Fermi-window difference.  The system is a
dimer with lead l on site l, so its resolvent is the closed-form 2 x 2 inverse.
The integrals use adaptive Gauss-Kronrod panels that are cut at the kinks of
Sigma and around every peak, so each panel's integrand is smooth.

The integrand is one real-arithmetic kernel, ``_landauer_rows``.  It takes
Re Sigma_l and J_l = -2 Im Sigma_l of both leads at an array of frequencies.
With x_l = w - Re Sigma_l and y_l = J_l / 2, the determinant of
A = w - h_S - Sigma is (x1 x2 - y1 y2 - g^2) + i (x1 y2 + x2 y1), and every
|G^r_ij|^2 is a real ratio over its squared modulus.  The kernel writes
T (f1 - f2), w T (f1 - f2) and both occupation densities into one (4, N)
array.  The resonance scan and ``transmission_table`` use the same
determinant, so the module has one resolvent formula.  Re Sigma is linear
between the nodes of a uniform grid, so each frequency's cell comes from
arithmetic, not a search.  A quadrature that stops at its refinement cap logs
a warning and reports the count as ``NegfReport.capped_intervals``.

Normalization: the chain-mapping route carries total squared coupling
(1/2pi) int J, so the consistent retarded self-energy is

    Sigma(w) = (J^H(w) - i J(w)) / 2,

giving a level broadening Gamma(w) = -2 Im Sigma = J(w).  This is pinned by a
test requiring that an initially filled level coupled to a wide flat band
decay as exp(-J t), and by the agreement of the refreshed-bath steady state
with this module at large cycle times.
"""

from __future__ import annotations

import functools
import logging
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError
from .spectral import (LORENTZIAN, TABULATED, BathThermalSpec, SpectralFunction,
                       fermi_occupations, frequency_grid, hilbert_transform)

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

    @functools.cached_property
    def _re_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Re Sigma at the grid nodes and its slope on each grid cell."""
        re = 0.5 * self.jh_grid
        return re, np.diff(re) / np.diff(self.grid)

    def cells(self, omega) -> tuple[np.ndarray, np.ndarray]:
        """Grid cell k of each frequency, clamped to the grid, and its offset w - grid[k].

        The grid is uniform, so k comes from one scaled difference rather than
        a search.
        """
        lo, hi = self.grid[0], self.grid[-1]
        w = np.clip(omega, lo, hi)
        k = np.minimum(((w - lo) * ((self.grid.size - 1) / (hi - lo))).astype(np.intp),
                       self.grid.size - 2)
        return k, w - self.grid[k]

    def real(self, omega, cells=None):
        """Re Sigma(w) = J^H(w) / 2: linear between grid nodes, constant past the grid's ends.

        ``cells`` may pass ``cells(omega)`` of a lead on the same grid.
        """
        k, offset = self.cells(omega) if cells is None else cells
        re, slope = self._re_table
        out = slope[k]
        out *= offset
        out += re[k]
        return out

    def __call__(self, omega):
        """Sigma(w); the imaginary part is -J(w)/2 <= 0 everywhere."""
        return self.real(omega) - 0.5j * self.sf(omega)


def _determinant(g: float, x1, y1, x2, y2) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of det(w - h_S - Sigma) = (x1 + i y1)(x2 + i y2) - g^2.

    x_l = w - Re Sigma_l and y_l = J_l / 2 = -Im Sigma_l.
    """
    det_re = x1 * x2
    det_re -= y1 * y2
    det_re -= g * g
    det_im = x1 * y2
    det_im += y1 * x2
    return det_re, det_im


def _resolvent_abs2(g: float, w: np.ndarray, re, j):
    """|G^r_11|^2, |G^r_12|^2 and |G^r_22|^2 of the dressed dimer at each frequency of ``w``.

    ``re`` and ``j`` hold Re Sigma_l and J_l = -2 Im Sigma_l of both leads.
    G^r = adj A / det A with A = w - h_S - Sigma, so |G^r_11|^2 = |A_22|^2 / |det A|^2,
    |G^r_12|^2 = g^2 / |det A|^2 and |G^r_22|^2 = |A_11|^2 / |det A|^2.  A frequency
    where det A is exactly 0 is moved 1e-12 into the lower half plane, with a warning.
    """
    x1, x2 = w - re[0], w - re[1]
    y1, y2 = 0.5 * j[0], 0.5 * j[1]
    det_re, det_im = _determinant(g, x1, y1, x2, y2)
    if not det_re.all():
        singular = (det_re == 0) & (det_im == 0)
        if singular.any():
            warnings.warn("singular resolvent on the real axis; nudging into the lower half plane")
            y1, y2 = y1 + 1e-12 * singular, y2 + 1e-12 * singular
            det_re, det_im = _determinant(g, x1, y1, x2, y2)
    # in place from here on: 1 / |det A|^2, then |A_22|^2, |A_11|^2 and g^2 over it
    inv = np.multiply(det_re, det_re, out=det_re)
    inv += np.multiply(det_im, det_im, out=det_im)
    np.divide(1, inv, out=inv)
    g11, g22 = x2, x1
    for x, y in ((x2, y2), (x1, y1)):
        x *= x
        x += np.multiply(y, y, out=y)
        x *= inv
    inv *= g * g
    return g11, inv, g22


def _landauer_rows(g: float, specs: tuple[BathThermalSpec, BathThermalSpec],
                   w: np.ndarray, re, j) -> np.ndarray:
    """(T (f1 - f2), w T (f1 - f2), n_1, n_2) / 2pi at each frequency of ``w``, as one (4, N) array.

    ``re`` and ``j`` hold Re Sigma_l and J_l of both leads.  T = J_1 J_2 |G^r_12|^2
    and n_k = sum_l |G^r_kl|^2 J_l f_l, in real arithmetic with each Fermi factor
    taken once.
    """
    g11, g12, g22 = _resolvent_abs2(g, w, re, j)
    f1, f2 = fermi_occupations(specs, (w, w))
    out = np.empty((4, w.size))
    window, energy, n1, n2 = out
    np.multiply(j[0], j[1], out=window)
    window *= g12
    window *= f1 - f2
    np.multiply(w, window, out=energy)
    f1 *= j[0]
    f2 *= j[1]
    np.multiply(g11, f1, out=n1)
    n1 += g12 * f2
    np.multiply(g12, f1, out=n2)
    n2 += g22 * f2
    out /= 2 * np.pi
    return out


@dataclass(frozen=True)
class NegfReport:
    """Steady currents of the always-coupled process (bath 1 -> system positive)."""

    current: float
    energy_current: float
    qdot: tuple[float, float]
    p_chem: float
    sigma: float
    occupations: np.ndarray
    capped_intervals: int  # intervals the quadrature accepted at its refinement cap


def _panel_quad(f, breakpoints: np.ndarray, kinks: np.ndarray) -> tuple[np.ndarray, int]:
    """Adaptive Gauss-Kronrod 7/15 integral of ``f`` from the first breakpoint to the last.

    ``f`` maps a 1-d frequency array to a (components, points) array.  Every
    round evaluates it once, at the nodes of all open intervals; an interval is
    done when |K15 - G7| of every component is within its width's share of
    ``QUAD_ABS_TOL``.  An open interval is cut at the kink nearest its
    midpoint when one lies inside it, else at its midpoint, so the rule ends
    up integrating pieces on which ``f`` is smooth.  Returns the integral and
    the number of intervals accepted at the refinement cap, short of the rule.
    """
    a, b = breakpoints[:-1], breakpoints[1:]
    share = QUAD_ABS_TOL / (breakpoints[-1] - breakpoints[0])
    total, capped = 0.0, 0
    for rounds in range(MAX_ROUNDS + 1):
        mid, half = (a + b) / 2, (b - a) / 2
        y = f((mid[:, None] + half[:, None] * _NODES).ravel())
        y = y.reshape(len(y), a.size, _NODES.size)
        error = np.max(np.abs(y @ _GAUSS_GAP), axis=0) * half
        if not np.isfinite(error).all():
            raise NumericsError(f"the integrand overflows in [{breakpoints[0]:g}, "
                                f"{breakpoints[-1]:g}]; the inputs are too large")
        done = error <= share * (b - a)
        if rounds == MAX_ROUNDS or 2 * np.count_nonzero(~done) > MAX_INTERVALS:
            capped = np.count_nonzero(~done)
            if capped:
                log.warning("%d intervals in [%g, %g] hit the refinement cap",
                            capped, breakpoints[0], breakpoints[-1])
            done[:] = True
        total = total + (y[:, done] @ _KRONROD) @ half[done]
        if done.all():
            return total, capped
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


def _resonances(g: float, sigmas: tuple[LeadSelfEnergy, LeadSelfEnergy],
                w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Resonances of the dressed system and their half-widths.

    A resonance is a sign change of det(w - h_S - Re Sigma(w)) between two
    nodes of ``w``, placed by linear interpolation; its half-width is
    -Im(Sigma_1 + Sigma_2) = (J_1 + J_2) / 2 there.
    """
    det, _ = _determinant(g, w - sigmas[0].real(w), 0.0, w - sigmas[1].real(w), 0.0)
    k = np.flatnonzero((det[:-1] > 0) != (det[1:] > 0))
    roots = w[k] - det[k] * (w[k + 1] - w[k]) / (det[k + 1] - det[k])
    return roots, (sigmas[0].sf(roots) + sigmas[1].sf(roots)) / 2


def _breakpoints(g: float, leads, specs, sigmas, kinks: np.ndarray) -> np.ndarray:
    """Panel edges over the union of the lead supports.

    They are the support edges, the chemical potentials and a ladder around
    every peak: those of Lorentzian leads and the resonances of the dressed
    system.
    """
    lorentzians = [sf for sf in leads if sf.kind == LORENTZIAN]
    roots, widths = _resonances(g, sigmas, kinks)
    edges = [edge for sf in leads for edge in sf.support]
    pts = np.concatenate([
        _peak_edges([sf.omega0 for sf in lorentzians], [sf.lam for sf in lorentzians]),
        _peak_edges(roots, widths), edges, [spec.mu for spec in specs]])
    return np.unique(pts[(min(edges) <= pts) & (pts <= max(edges))])


def _integrand(g: float, specs: tuple[BathThermalSpec, BathThermalSpec],
               sigmas: tuple[LeadSelfEnergy, LeadSelfEnergy]):
    """The integrand of ``landauer_currents``: a frequency array to its ``_landauer_rows``.

    Leads on one grid share the cell lookup of Re Sigma.
    """
    one_grid = np.array_equal(sigmas[0].grid, sigmas[1].grid)

    def integrand(w: np.ndarray) -> np.ndarray:
        cells = sigmas[0].cells(w)
        re = (sigmas[0].real(w, cells), sigmas[1].real(w, cells if one_grid else None))
        return _landauer_rows(g, specs, w, re, (sigmas[0].sf(w), sigmas[1].sf(w)))

    return integrand


def landauer_currents(g: float, leads: tuple[SpectralFunction, SpectralFunction],
                      specs: tuple[BathThermalSpec, BathThermalSpec]) -> NegfReport:
    """Particle and energy currents plus steady occupations of the autonomous process.

    The currents are (1/2pi) integrals of the transmission T and w T against
    f_1 - f_2; T vanishes outside the overlap of the lead supports.  One
    quadrature over the union of the supports gives currents and occupations.
    An input so large that a value overflows raises ``NumericsError``.
    """
    sigmas = (LeadSelfEnergy(leads[0]), LeadSelfEnergy(leads[1]))
    kinks = (sigmas[0].kinks if np.array_equal(sigmas[0].kinks, sigmas[1].kinks)
             else np.union1d(sigmas[0].kinks, sigmas[1].kinks))


    with np.errstate(all="ignore"):  # an overflow is raised below, not printed
        (particle, energy, *occupations), capped = _panel_quad(
            _integrand(g, specs, sigmas), _breakpoints(g, leads, specs, sigmas, kinks), kinks)
        mu1, mu2 = specs[0].mu, specs[1].mu
        qdot1 = -(energy - mu1 * particle)
        qdot2 = energy - mu2 * particle
        sigma = specs[0].beta * qdot1 + specs[1].beta * qdot2
    report = NegfReport(current=float(particle), energy_current=float(energy),
                        qdot=(float(qdot1), float(qdot2)),
                        p_chem=(mu1 - mu2) * float(particle), sigma=float(sigma),
                        occupations=np.array(occupations), capped_intervals=int(capped))
    if not np.isfinite([*report.qdot, report.p_chem, report.sigma]).all():
        raise NumericsError(f"the NEGF report overflows: Qdot = {report.qdot}, "
                            f"P_chem = {report.p_chem:g}, sigma = {report.sigma:g}")
    return report


def transmission_table(g: float, leads: tuple[SpectralFunction, SpectralFunction]
                       ) -> tuple[np.ndarray, np.ndarray]:
    """T(w) sampled over the overlap of the lead supports; an overflow raises ``NumericsError``."""
    sigmas = (LeadSelfEnergy(leads[0]), LeadSelfEnergy(leads[1]))
    lo = max(leads[0].support[0], leads[1].support[0])
    hi = min(leads[0].support[1], leads[1].support[1])
    w = np.linspace(lo, hi, TRANSMISSION_POINTS)
    j = [sf(w) for sf in leads]
    with np.errstate(all="ignore"):  # an overflow is raised below, not printed
        t = j[0] * j[1] * _resolvent_abs2(g, w, [s.real(w) for s in sigmas], j)[1]
    if not np.isfinite(t).all():
        raise NumericsError(f"the transmission overflows at g = {g:g}; the inputs are too large")
    return w, t
