"""Map a bath spectral function onto nearest-neighbour tight-binding chain coefficients.

Two routes are provided.  ``chain_map_recursion`` iterates the moment
recursion directly on a frequency grid:

    g_p^2     = (1/2pi) int J_p(w) dw
    eps_{p+1} = (1/(2pi g_p^2)) int w J_p(w) dw
    J_{p+1}   = 4 g_p^2 J_p / (J_p^H^2 + J_p^2)

with J^H the principal-value Hilbert transform.  The recursion is exact but
ill-conditioned at depth, so it serves as the cross-check oracle and
``chain_map_tridiag`` is the production path: it discretizes the bath into
modes with exact cell weights and tridiagonalizes by a Lanczos recurrence
(Chin, Rivas, Huelga & Plenio, J. Math. Phys. 51, 092109 (2010)).  For the
diagonal mode matrix the plain three-term recurrence is the discrete Stieltjes
procedure in vector form (Gautschi, Orthogonal Polynomials, OUP 2004, 2.2),
O(N) per step, and with many modes per site its basis stays orthogonal to
near roundoff.  A basis whose overlaps stay below sqrt(eps) already gives the
coefficients of a fully reorthogonalized run to working precision (Simon,
Math. Comp. 42, 115 (1984)).  So the plain pass is certified afterwards by
one Gram product of its basis; only from the first row that fails does the
recurrence resume with block classical Gram-Schmidt applied twice (CGS2), as
BLAS matrix-vector products against the whole basis, which keeps it
orthogonal to working precision (Giraud, Langou & Rozloznik, Comput. Math.
Appl. 50, 1069 (2005)).  Both routes produce identical coefficients in the
continuum limit.

Normalization note: the total squared coupling of the discretized bath equals
(1/2pi) int J, i.e. the first hopping g_0 is the physical system-chain
coupling of the recursion above.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NumericsError
from .spectral import (DEFAULT_GRID_MARGIN, DEFAULT_GRID_POINTS, LORENTZIAN,
                       SpectralFunction, SpectralTable, frequency_grid,
                       hilbert_transform)

log = logging.getLogger(__name__)

TAIL_TOLERANCE = 0.05
MIN_MODES_PER_SITE = 50


def _tail_stats(eps: np.ndarray, hop: np.ndarray) -> tuple[float, float, float]:
    k = max(3, len(hop) // 5)
    k = min(k, len(hop))
    eps_asym = float(np.mean(eps[-k:]))
    hop_asym = float(np.mean(hop[-k:]))
    scale = max(abs(hop_asym), abs(eps_asym), 1e-300)
    dev = max(np.max(np.abs(eps[-k:] - eps_asym)), np.max(np.abs(hop[-k:] - hop_asym)))
    return eps_asym, hop_asym, float(dev / scale)


@dataclass(frozen=True)
class ChainCoefficients:
    """On-site energies and hoppings of a mapped chain.

    ``eps[p-1]`` is the energy of chain site p (p = 1..depth); ``hop[0]`` is the
    system-chain coupling g_0 and ``hop[p]`` connects sites p and p+1.  The
    asymptotic pair (eps_asym, hop_asym) is the tail average; ``residual`` holds
    the spectral function left over at the truncation depth when the producing
    route provides one.
    """

    eps: np.ndarray
    hop: np.ndarray
    eps_asym: Optional[float] = None
    hop_asym: Optional[float] = None
    tail_deviation: Optional[float] = None
    residual: Optional[SpectralTable] = None

    def __post_init__(self):
        eps = np.asarray(self.eps, dtype=float)
        hop = np.asarray(self.hop, dtype=float)
        if eps.ndim != 1 or hop.ndim != 1 or eps.size != hop.size or eps.size == 0:
            raise ValueError("eps and hop must be 1-d arrays of equal nonzero length")
        if not (np.all(np.isfinite(eps)) and np.all(np.isfinite(hop))):
            raise ValueError("chain coefficients must be finite")
        if np.any(hop <= 0):
            p = int(np.argmax(hop <= 0))
            raise ValueError(f"non-positive hopping at p={p}: the chain decouples")
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "hop", hop)
        if self.eps_asym is None:
            ea, ha, dev = _tail_stats(eps, hop)
            object.__setattr__(self, "eps_asym", ea)
            object.__setattr__(self, "hop_asym", ha)
            object.__setattr__(self, "tail_deviation", dev)

    @property
    def depth(self) -> int:
        return self.eps.size

    def tail_converged(self, tol: float = TAIL_TOLERANCE) -> bool:
        return self.tail_deviation < tol

    def padded(self, length: int) -> tuple[np.ndarray, np.ndarray]:
        """(eps, hop) arrays of the requested length, padded with the asymptotics."""
        if length <= self.depth:
            return self.eps[:length].copy(), self.hop[:length].copy()
        pad = length - self.depth
        eps = np.concatenate([self.eps, np.full(pad, self.eps_asym)])
        hop = np.concatenate([self.hop, np.full(pad, self.hop_asym)])
        return eps, hop

    # -- CSV -----------------------------------------------------------------

    def to_csv(self, fh) -> None:
        """Rows ``p,eps,hop``: the hop cell of row p holds g_p, the eps cell eps_p."""
        writer = csv.writer(fh)
        writer.writerow(["p", "eps", "hop"])
        writer.writerow([0, "", f"{self.hop[0]:.17g}"])
        for p in range(1, self.depth):
            writer.writerow([p, f"{self.eps[p - 1]:.17g}", f"{self.hop[p]:.17g}"])
        writer.writerow([self.depth, f"{self.eps[-1]:.17g}", ""])


# -- moment recursion ---------------------------------------------------------


def chain_map_recursion(sf: SpectralFunction, depth: int, *,
                        points: int = DEFAULT_GRID_POINTS,
                        margin: float = DEFAULT_GRID_MARGIN,
                        g2_floor: float = 1e-12) -> ChainCoefficients:
    """Iterate the moment recursion on a uniform frequency grid.

    Numerically reliable only for shallow depths (roughly p <= 10); beyond
    that use ``chain_map_tridiag``.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    grid = frequency_grid(sf, points=points, margin=margin)
    J = sf(grid)
    eps = np.empty(depth)
    hop = np.empty(depth)
    for p in range(depth):
        g2 = np.trapezoid(J, grid) / (2 * np.pi)
        if not np.isfinite(g2) or g2 <= g2_floor:
            raise NumericsError(f"chain decouples / recursion unstable at depth {p}")
        hop[p] = np.sqrt(g2)
        eps[p] = np.trapezoid(grid * J, grid) / (2 * np.pi * g2)
        jh = hilbert_transform(grid, J)
        den = jh * jh + J * J
        J_next = np.zeros_like(J)
        np.divide(4 * g2 * J, den, out=J_next, where=den > 1e-300)
        J = J_next
    cc = ChainCoefficients(eps=eps, hop=hop, residual=SpectralTable(grid, J))
    if not cc.tail_converged():
        log.info("chain tail not settled at depth %d (deviation %.3g)", depth, cc.tail_deviation)
    return cc


# -- discretization + Lanczos --------------------------------------------------


def discretize_modes(sf: SpectralFunction, n_modes: int) -> tuple[np.ndarray, np.ndarray]:
    """Discretize the bath into modes (frequencies, squared couplings).

    The support is partitioned by the union of a uniform mesh and a mesh with
    equal integrated weight per cell, so narrow peaks and flat background are
    both resolved.  Cell weights are exact integrals of J/(2pi) and each node
    sits at its cell's centroid, making the first two moments of every cell
    exact.  The squared couplings sum to (1/2pi) int J.
    """
    if n_modes < 2:
        raise ValueError("n_modes must be >= 2")
    lo, hi = sf.support
    n_uni = n_modes // 2
    n_cdf = n_modes - n_uni
    edges_uniform = np.linspace(lo, hi, n_uni + 1)
    total = sf.integral(lo, hi)
    if total <= 0:
        raise NumericsError("spectral function carries no weight on its support")
    targets = np.linspace(0.0, total, n_cdf + 1)[1:-1]
    edges_cdf = _invert_cumulative(sf, lo, hi, targets)
    edges = np.unique(np.concatenate([edges_uniform, edges_cdf]))
    weights = sf.integral(edges[:-1], edges[1:]) / (2 * np.pi)
    moments = sf.first_moment(edges[:-1], edges[1:]) / (2 * np.pi)
    keep = weights > 0
    weights, moments = weights[keep], moments[keep]
    freqs = moments / weights
    # centroids can escape their cell only through roundoff
    freqs = np.clip(freqs, edges[:-1][keep], edges[1:][keep])
    return freqs, weights


def _invert_cumulative(sf: SpectralFunction, lo: float, hi: float,
                       targets: np.ndarray) -> np.ndarray:
    if sf.kind == LORENTZIAN:
        base = sf.kappa * np.arctan((lo - sf.omega0) / sf.lam)
        w = sf.omega0 + sf.lam * np.tan((base + targets) / sf.kappa)
        return np.clip(w, lo, hi)
    # flat and tabulated: invert a densely sampled cumulative
    grid = np.linspace(lo, hi, 16385)
    cum = sf.integral(lo, grid)
    cum[0] = 0.0
    return np.interp(targets, cum, grid)


def star_to_chain(freqs: np.ndarray, couplings_sq: np.ndarray, depth: int, *,
                  ortho_tol: float = 1e-8) -> tuple[np.ndarray, np.ndarray]:
    """Tridiagonalize a star bath (mode frequencies, squared couplings) into a chain.

    Three-term Lanczos recurrence on the diagonal mode matrix, started from the
    normalized coupling vector, with the Krylov basis kept as the rows of one
    ``(min(depth, N), N)`` array.  The plain recurrence runs first, at O(N)
    per step, and is then certified by one Gram product ``Q @ Q.T``: every
    off-diagonal ``|q_i . q_j|`` of the returned basis must be at most
    ``ortho_tol``.  If row k is the first to leak, the coefficients before it
    are kept and the recurrence resumes at depth k - 1 with block classical
    Gram-Schmidt applied twice (CGS2), ``r -= (Q @ r) @ Q``, at every step;
    a leak that survives the resume raises ``NumericsError``.  Returns
    (eps, hop) with hop[0] the system-chain coupling; the arrays are shorter
    than ``depth`` if the Krylov space is exhausted first.
    """
    freqs = np.asarray(freqs, dtype=float)
    couplings_sq = np.asarray(couplings_sq, dtype=float)
    if freqs.ndim != 1 or freqs.shape != couplings_sq.shape or freqs.size == 0:
        raise ValueError("freqs and couplings_sq must be matching 1-d arrays")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if np.any(couplings_sq < 0):
        raise ValueError("squared couplings must be non-negative")
    g0 = np.sqrt(couplings_sq.sum())
    if g0 <= 0:
        raise NumericsError("bath carries no coupling weight")
    scale = max(1.0, float(np.max(np.abs(freqs))))
    steps = min(depth, freqs.size)
    basis = np.empty((steps, freqs.size))
    basis[0] = np.sqrt(couplings_sq) / g0
    eps, hop = np.empty(steps), np.empty(steps)
    hop[0] = g0
    n = _lanczos(freqs, basis, eps, hop, 0, scale, reorthogonalize=False)
    k, leak = _first_leak(basis[:n], ortho_tol)
    if k is not None:
        log.info("plain Lanczos lost orthogonality at depth %d (leak %.3g): "
                 "resuming with CGS2", k, leak)
        n = _lanczos(freqs, basis, eps, hop, k - 1, scale, reorthogonalize=True)
        k, _ = _first_leak(basis[:n], ortho_tol)
        if k is not None:
            raise NumericsError(f"loss of orthogonality at depth {k}")
    return eps[:n], hop[:n]


def _lanczos(freqs: np.ndarray, basis: np.ndarray, eps: np.ndarray, hop: np.ndarray,
             start: int, scale: float, *, reorthogonalize: bool) -> int:
    """Run the recurrence from step ``start``, filling basis rows ``start + 1`` on.

    Rows up to ``start`` and the coefficients they produced must already be in
    place.  Returns the number of rows filled: fewer than ``basis`` holds when
    the Krylov space is exhausted.
    """
    steps = basis.shape[0]
    for p in range(start, steps):
        w = basis[p]
        fw = freqs * w
        alpha = float(np.dot(fw, w))
        eps[p] = alpha
        if p == steps - 1:
            break
        r = fw - alpha * w
        if p:
            r -= hop[p] * basis[p - 1]
        if reorthogonalize:
            q = basis[:p + 1]
            for _ in range(2):
                r -= (q @ r) @ q
        beta = float(np.linalg.norm(r))
        if beta <= 1e-13 * scale:
            return p + 1  # Krylov space exhausted: the chain terminates here
        hop[p + 1] = beta
        basis[p + 1] = r / beta
    return steps


def _first_leak(basis: np.ndarray, ortho_tol: float) -> tuple[Optional[int], float]:
    """First row of ``basis`` whose overlap with an earlier row exceeds ``ortho_tol``.

    Returns (row, its largest overlap), or (None, 0.0) if the rows are
    orthogonal to within ``ortho_tol``.
    """
    overlaps = np.abs(np.tril(basis @ basis.T, -1)).max(axis=1)
    bad = np.flatnonzero(overlaps > ortho_tol)
    if bad.size == 0:
        return None, 0.0
    return int(bad[0]), float(overlaps[bad[0]])


def chain_map_tridiag(sf: SpectralFunction, depth: int, *,
                      n_modes: Optional[int] = None) -> ChainCoefficients:
    """Chain coefficients via discretization and Lanczos tridiagonalization.

    Mathematically identical to the moment recursion in the continuum limit,
    and stable at any depth; this is the production route.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if n_modes is None:
        n_modes = max(MIN_MODES_PER_SITE * depth, 2000)
    elif n_modes < MIN_MODES_PER_SITE * depth:
        raise ValueError(f"n_modes must be at least {MIN_MODES_PER_SITE} * depth")
    freqs, weights = discretize_modes(sf, n_modes)
    eps, hop = star_to_chain(freqs, weights, depth)
    cc = ChainCoefficients(eps=eps, hop=hop)
    if not cc.tail_converged():
        log.info("chain tail not settled at depth %d (deviation %.3g)", depth, cc.tail_deviation)
    return cc
