"""Map a bath spectral function onto nearest-neighbour tight-binding chain coefficients.

The chain is the orthogonal-polynomial chain of Chin, Rivas, Huelga & Plenio
(J. Math. Phys. 51, 092109 (2010)): its on-site energies and hoppings are the
recurrence coefficients of the monic polynomials orthogonal under the measure
J(w) dw / 2pi, and its first hopping g_0 = sqrt((1/2pi) int J) is the
system-chain coupling.

``chain_map_tridiag`` is the production route.  For a flat or Lorentzian J
it maps the support onto [-1, 1], takes the Chebyshev moments
m_k = (1/2pi) int T_k J there, and runs the modified Chebyshev algorithm on
them (Sack & Donovan, Numer. Math. 18, 465 (1972); Gautschi, SIAM J. Sci.
Stat. Comput. 3, 289 (1982)): O(depth^2) operations, with no discretization
of the bath and no Krylov basis.  The level-k coefficients use only the
moments below 2k + 2, so a map cut to n sites is the depth-n map.  The
moments are

- flat: exact, m_k = (kappa D / 2pi) int T_k;
- Lorentzian: m_k = (kappa / 2pi) Im q_k with q_k = int T_k(x) / (x - z) dx and
  z = (omega0 + i lam) / D.  The forward recurrence
  q_{k+1} = 2 z q_k - q_{k-1} + 2 int T_k amplifies roundoff by about
  rho^k, rho = |z + sqrt(z^2 - 1)|, so it runs only while
  rho^(2 depth) 2^-52 stays below ``FORWARD_TOLERANCE``; wider peaks take
  Clenshaw-Curtis quadrature of J, whose weights and moments are two FFTs.

A tabulated J is piecewise linear, and Chebyshev moments over a span where
it vanishes or nearly vanishes amplify roundoff by up to 2^depth.  So a
table is mapped by the discretized Stieltjes method (Gautschi, Orthogonal
Polynomials, OUP 2004, 2.2): each cell that carries weight gets
Gauss-Legendre nodes, which integrate its linear J times a polynomial
exactly up to their degree, and ``star_to_chain`` runs the Lanczos
recurrence on those nodes as a star.  Simon's estimate of the basis' loss
of orthogonality switches it to full reorthogonalization where needed.  The
node count doubles until two runs agree to ``MAP_TOLERANCE`` of the largest
hopping, so a deeper or finer map costs more nodes, not an option; a map
whose next run would pass ``KRYLOV_LIMIT`` raises ``NumericsError``.

Two oracles stay for the tests and criterion C09: ``chain_map_recursion``
iterates the moment recursion on a frequency grid,

    g_p^2     = (1/2pi) int J_p(w) dw
    eps_{p+1} = (1/(2pi g_p^2)) int w J_p(w) dw
    J_{p+1}   = 4 g_p^2 J_p / (J_p^H^2 + J_p^2)

with J^H the principal-value Hilbert transform, exact but ill-conditioned at
depth; and ``discretize_modes`` discretizes any bath into a star of exact
cell weights at the cells' centroids, for ``star_to_chain``.  All three
routes give the same chain in the continuum limit.
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import NumericsError
from .spectral import (FLAT, LORENTZIAN, TABULATED, SpectralFunction, SpectralTable,
                       frequency_grid, hilbert_transform)

log = logging.getLogger(__name__)

TAIL_TOLERANCE = 0.05
RECURSION_G2_FLOOR = 1e-12  # the moment recursion stops at this squared hopping
FORWARD_TOLERANCE = 1e-13   # bound on rho^(2 depth) 2^-52 for the forward q_k recurrence
QUADRATURE_DIGITS = 45.0    # Clenshaw-Curtis nodes past 2 depth: this many e-folds of rho
MAP_TOLERANCE = 1e-8        # a table's node density holds where two runs agree to this
KRYLOV_LIMIT = 1 << 30      # bytes of Lanczos basis a table's map may take
ORTHOGONALITY_ESTIMATE = 2.0 ** -26  # sqrt(epsilon): Lanczos reorthogonalizes from here


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
    asymptotic pair (eps_asym, hop_asym) is the tail average, computed from the
    arrays, so ``dataclasses.replace`` recomputes it too; the pipeline sizes
    chains from ``hop_asym``.  ``residual`` holds the spectral function left
    over at the truncation depth when the producing route provides one.  The
    coefficient arrays are read-only copies, so a cached chain cannot be
    edited under the set-ups that share it.
    """

    eps: np.ndarray
    hop: np.ndarray
    residual: Optional[SpectralTable] = None
    eps_asym: float = field(init=False)
    hop_asym: float = field(init=False)
    tail_deviation: float = field(init=False)

    def __post_init__(self):
        eps = np.array(self.eps, dtype=float)
        hop = np.array(self.hop, dtype=float)
        if eps.ndim != 1 or hop.ndim != 1 or eps.size != hop.size or eps.size == 0:
            raise ValueError("eps and hop must be 1-d arrays of equal nonzero length")
        if not (np.all(np.isfinite(eps)) and np.all(np.isfinite(hop))):
            raise ValueError("chain coefficients must be finite")
        if np.any(hop <= 0):
            p = int(np.argmax(hop <= 0))
            raise ValueError(f"non-positive hopping at p={p}: the chain decouples")
        for name, array in (("eps", eps), ("hop", hop)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        for name, value in zip(("eps_asym", "hop_asym", "tail_deviation"),
                               _tail_stats(eps, hop)):
            object.__setattr__(self, name, value)

    @property
    def depth(self) -> int:
        return self.eps.size

    def tail_converged(self) -> bool:
        return self.tail_deviation < TAIL_TOLERANCE

    def cut(self, length: int) -> tuple[np.ndarray, np.ndarray]:
        """(eps, hop) of the chain's first ``length`` sites, as read-only views."""
        if not 1 <= length <= self.depth:
            raise ValueError(f"chain length must be in [1, {self.depth}], got {length}")
        return self.eps[:length], self.hop[:length]


# -- the production map: Chebyshev moments, or Gauss nodes for a table ---------


def chain_map_tridiag(sf: SpectralFunction, depth: int) -> ChainCoefficients:
    """The bath's first ``depth`` chain sites (see the module docstring).

    A flat or Lorentzian J: the moments m_k for k < 2 depth, then the
    modified Chebyshev algorithm, then eps = c + h alpha and hop =
    (sqrt(m_0), h sqrt(beta_1), ...) with [c - h, c + h] the support.  A
    table: ``star_to_chain`` on Gauss-Legendre nodes of the cells that carry
    weight, at the node density where two runs agree.  A chain that comes
    out short, non-finite or non-positive raises ``NumericsError``, as does
    a table whose runs still part at ``KRYLOV_LIMIT``.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if sf.kind == TABULATED:
        eps, hop = _table_chain(sf.table, depth)
    else:
        alpha, beta = _modified_chebyshev(_chebyshev_moments(sf, 2 * depth), depth)
        lo, hi = sf.support
        center, half = (lo + hi) / 2, (hi - lo) / 2
        eps, hop = center + half * alpha, np.sqrt(beta)
        hop[1:] *= half
    if not (np.all(np.isfinite(eps)) and np.all(np.isfinite(hop)) and np.all(hop > 0)):
        raise NumericsError(f"chain map of depth {depth} is not finite and positive")
    return ChainCoefficients(eps=eps, hop=hop)


def _chebyshev_moments(sf: SpectralFunction, count: int) -> np.ndarray:
    """m_k = (1/2pi) int T_k J for k < count, of a flat or Lorentzian J.

    T_k is taken on the support mapped onto [-1, 1], and m_0 is the weight
    (1/2pi) int J in closed form.
    """
    if sf.kind == FLAT:
        return sf.kappa * sf.cutoff / (2 * np.pi) * _integrals_of_t(count)
    return _lorentzian_moments(sf, count)


def _table_chain(table: SpectralTable, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """The chain of a piecewise-linear J: Lanczos on ``_table_star`` at rising node density.

    The density doubles until two runs agree to ``MAP_TOLERANCE`` of the
    largest hopping, and the denser run is kept; a rule that is exact on
    every cell is kept at once.  A run whose basis would pass
    ``KRYLOV_LIMIT`` raises ``NumericsError`` instead: runs on a J that
    falls to the subnormal range stop agreeing at some depth, however dense.
    """
    density, before = 1, None
    while True:
        freqs, couplings_sq, exact = _table_star(table, depth, density)
        if freqs.size * min(depth, freqs.size) * 8 > KRYLOV_LIMIT:
            raise NumericsError(f"table chain of depth {depth} has not settled within "
                                f"{KRYLOV_LIMIT >> 20} MiB of Lanczos basis "
                                f"({freqs.size} nodes next)")
        eps, hop = star_to_chain(freqs, couplings_sq, depth)
        if eps.size < depth:
            raise NumericsError(f"table chain decouples at depth {eps.size}")
        if exact or (before is not None and max(np.max(np.abs(eps - before[0])),
                                                np.max(np.abs(hop - before[1])))
                     <= MAP_TOLERANCE * np.max(hop)):
            return eps, hop
        density, before = 2 * density, (eps, hop)


def _table_star(table: SpectralTable, depth: int,
                density: int) -> tuple[np.ndarray, np.ndarray, bool]:
    """Gauss-Legendre nodes of the cells that carry weight, as a star: (freqs, couplings_sq, exact).

    A cell [a, b] with k nodes x_i and weights w_i gives the couplings^2
    (b - a)/2 w_i J(x_i) / 2pi.  It gets k = density (1 + ceil(depth mu))
    nodes.  Its share mu is the larger of 1 / (number of such cells) and
    its share of the arcsine measure on their span, where the zeros of the
    chain's polynomials gather; so the shares sum to at least 1, and the
    star has at least ``depth`` nodes.  k stops at depth + 1, where the
    rule integrates J p^2 exactly for every polynomial p the first
    ``depth`` levels see.  ``exact`` says every cell is there.
    """
    cells = np.flatnonzero((table.values[:-1] > 0) | (table.values[1:] > 0))
    if not cells.size:
        raise NumericsError("spectral function carries no weight on its support")
    lo, hi = table.omega[cells], table.omega[cells + 1]
    center, half = (lo[0] + hi[-1]) / 2, (hi[-1] - lo[0]) / 2
    angle = np.arccos(np.clip((np.stack([lo, hi]) - center) / half, -1.0, 1.0))
    share = np.maximum((angle[0] - angle[1]) / np.pi, 1.0 / cells.size)
    nodes = np.minimum(density * (1 + np.ceil(depth * share)), depth + 1).astype(int)
    freqs, couplings_sq = [], []
    for k in np.unique(nodes):
        at = cells[nodes == k]
        x, w = np.polynomial.legendre.leggauss(k)
        t = (1 + x) / 2
        left, right = table.omega[at, None], table.omega[at + 1, None]
        freqs.append((left + (right - left) * t).ravel())
        j = table.values[at, None] * (1 - t) + table.values[at + 1, None] * t
        couplings_sq.append(((right - left) / (4 * np.pi) * w * j).ravel())
    return np.concatenate(freqs), np.concatenate(couplings_sq), bool(np.all(nodes == depth + 1))


def _lanczos_chain(diag: np.ndarray, start: np.ndarray,
                   depth: int) -> tuple[np.ndarray, np.ndarray]:
    """The first ``depth`` chain levels that ``start`` sees in the diagonal matrix ``diag``: a star.

    The Lanczos recurrence starts from start / |start| and keeps the
    Krylov basis as the rows of one ``(min(depth, N), N)`` array, at O(N) a
    step.  Simon's recurrence (Math. Comp. 42, 115 (1984)) estimates the
    basis' loss of orthogonality at O(depth) a step; once the estimate passes
    sqrt(epsilon), every new vector is orthogonalized against all earlier
    ones, twice (CGS2; Giraud, Langou & Rozloznik, Comput. Math. Appl. 50,
    1069 (2005)).  Returns (eps, hop) with hop[0] = |start|; the arrays stop
    short of ``depth`` where a residual falls to 1e-13 max(1, max |diag|):
    the Krylov space is exhausted there.
    """
    size = diag.size
    steps = min(depth, size)
    basis = np.empty((steps, size))
    g0 = math.sqrt(float(start @ start))
    np.divide(start, g0, out=basis[0])
    alpha, beta = np.empty(steps), np.empty(steps)  # beta[j] links vectors j - 1 and j
    beta[0] = g0
    scale = float(np.max(np.abs(diag)))
    tiny = np.finfo(float).eps * scale
    stop = 1e-13 * max(1.0, scale)
    omega, omega_before = np.ones(1), np.zeros(0)  # estimated overlaps of vector j, j - 1
    reorthogonalize = False
    r = np.empty(size)
    for j in range(steps):
        q = basis[j]
        np.multiply(diag, q, out=r)
        alpha[j] = r @ q
        if j == steps - 1:
            break
        r -= alpha[j] * q
        if j:
            r -= beta[j] * basis[j - 1]
        if reorthogonalize:
            _orthogonalize(r, basis[:j + 1])
        b = math.sqrt(float(r @ r))
        if b > stop and not reorthogonalize:
            w = np.empty(j + 2)
            x = (beta[1:j + 1] * omega[1:] + (alpha[:j] - alpha[j]) * omega[:-1]
                 - beta[j] * omega_before)
            x[1:] += beta[1:j] * omega[:-2]
            w[:j] = (x + np.copysign(tiny, x)) / b
            w[j], w[j + 1] = tiny / b, 1.0
            omega, omega_before = w, omega
            if np.max(np.abs(w[:-1])) > ORTHOGONALITY_ESTIMATE:
                reorthogonalize = True
                _orthogonalize(r, basis[:j + 1])
                b = math.sqrt(float(r @ r))
        if not b > stop:
            return alpha[:j + 1], beta[:j + 1]
        beta[j + 1] = b
        np.divide(r, b, out=basis[j + 1])
    return alpha, beta


def _orthogonalize(r: np.ndarray, basis: np.ndarray) -> None:
    """Remove from ``r``, in place, its components along the orthonormal rows of ``basis``: CGS2."""
    for _ in range(2):
        r -= (basis @ r) @ basis


def _integrals_of_t(count: int) -> np.ndarray:
    """int_{-1}^{1} T_k(x) dx = 2 / (1 - k^2) for even k, 0 for odd k; k < count."""
    out = np.zeros(count)
    k = np.arange(0, count, 2, dtype=float)
    out[::2] = 2.0 / (1.0 - k * k)
    return out


def _lorentzian_moments(sf: SpectralFunction, count: int) -> np.ndarray:
    x0, ell = sf.omega0 / sf.cutoff, sf.lam / sf.cutoff
    z = complex(x0, ell)
    # total weight: the angle [-1, 1] subtends at z, with no cancellation
    weight = sf.kappa / (2 * np.pi) * math.atan2(2 * ell, (x0 - 1) * (x0 + 1) + ell * ell)
    log_rho = cmath.acosh(z).real
    if count * log_rho + math.log(2.0 ** -52) > math.log(FORWARD_TOLERANCE):
        scale = sf.cutoff / (2 * np.pi)
        nodes = 2 * math.ceil((count + QUADRATURE_DIGITS / log_rho) / 2)
        moments = _clenshaw_curtis_moments(lambda x: scale * sf(sf.cutoff * x), count, nodes)
    else:
        integrals = (2 * _integrals_of_t(count)).tolist()
        q = [complex(math.log(math.hypot(1 - x0, ell) / math.hypot(1 + x0, ell)),
                     math.atan2(2 * ell, (x0 - 1) * (x0 + 1) + ell * ell))]
        q.append(2 + z * q[0])
        two_z = 2 * z
        for k in range(1, count - 1):
            q.append(two_z * q[k] - q[k - 1] + integrals[k])
        moments = sf.kappa / (2 * np.pi) * np.array(q[:count]).imag
    moments[0] = weight
    return moments


def _clenshaw_curtis_moments(func, count: int, n: int) -> np.ndarray:
    """int_{-1}^{1} T_k(x) func(x) dx for k < count, by the (n + 1)-point Clenshaw-Curtis rule.

    The nodes are x_i = cos(pi i / n) with n even, so T_k(x_i) = cos(pi k i / n)
    and the moments are one DCT-I of weights times samples; the weights are
    another (Waldvogel, BIT 46, 195 (2006)).  Exact while deg(T_k func) <= n.
    """
    j = np.arange(1, n // 2, dtype=float)
    u = np.zeros(n)
    u[1:n // 2] = 1.0 / (4 * j * j - 1)
    u[n // 2 + 1:] = u[n // 2 - 1:0:-1]
    u[n // 2] = 1.0 / (n * n - 1.0)
    s = np.fft.fft(u).real
    weights = (2.0 / n) * (1.0 - np.append(s, s[0]))
    weights[[0, -1]] /= 2
    g = weights * func(np.cos(np.pi / n * np.arange(n + 1)))
    dct = np.fft.rfft(np.concatenate([g, g[-2:0:-1]]))[:count].real
    sign = np.ones(count)
    sign[1::2] = -1.0
    return 0.5 * (dct + g[0] + sign * g[-1])


def _modified_chebyshev(moments: np.ndarray, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Recurrence coefficients alpha_k, beta_k (k < depth) from 2 depth Chebyshev moments.

    Gautschi's mixed moments sigma_{k,l} = int pi_k p_l, with pi_k the monic
    orthogonal polynomials and p_l = 2^(1-l) T_l the monic Chebyshev ones,
    kept as s_{k,l} = 2^(k+l) sigma_{k,l}, which stays of order m_0 at any
    depth.  beta_0 = m_0; a level whose s_{k,k} is not positive raises
    ``NumericsError``.
    """
    n = 2 * depth
    before = np.zeros(n)
    row = 2.0 * moments[:n]
    row[0] = moments[0]
    nxt = np.empty(n)
    alpha, beta = np.empty(depth), np.empty(depth)
    if not (row[0] > 0 and math.isfinite(row[0]) and math.isfinite(row[1])):
        raise NumericsError("spectral function carries no weight on its support")
    alpha[0], beta[0] = row[1] / (2 * row[0]), row[0]
    ratio = 0.0
    for k in range(1, depth):
        lo, hi = k, n - k
        # s_{k,l} = s_{k-1,l+1} - 2 alpha_{k-1} s_{k-1,l} - 4 beta_{k-1} s_{k-2,l} + s_{k-1,l-1}
        part = nxt[lo:hi]
        np.multiply(row[lo:hi], -2.0 * alpha[k - 1], out=part)
        part += row[lo + 1:hi + 1]
        part += row[lo - 1:hi - 1]
        if k == 1:
            part[0] += row[0]  # p_2 = x p_1 - p_0 / 2: the l = 1 weight is twice the others
        else:
            part -= ratio * before[lo:hi]
        diag, cross = float(part[0]), float(part[1])  # s_{k,k}, s_{k,k+1}
        if not (diag > 0 and math.isfinite(diag) and math.isfinite(cross)):
            raise NumericsError(f"chain map lost positivity at depth {k}: the moments "
                                "do not define the measure to this depth")
        ratio = diag / float(row[k - 1])
        alpha[k] = (cross / diag - float(row[k]) / float(row[k - 1])) / 2
        beta[k] = ratio / 4
        before, row, nxt = row, nxt, before
    return alpha, beta


# -- moment recursion ---------------------------------------------------------


def chain_map_recursion(sf: SpectralFunction, depth: int) -> ChainCoefficients:
    """Iterate the moment recursion on a uniform frequency grid.

    Numerically reliable only for shallow depths (roughly p <= 10); beyond
    that use ``chain_map_tridiag``.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    grid = frequency_grid(sf)
    J = sf(grid)
    eps = np.empty(depth)
    hop = np.empty(depth)
    for p in range(depth):
        g2 = np.trapezoid(J, grid) / (2 * np.pi)
        if not np.isfinite(g2) or g2 <= RECURSION_G2_FLOOR:
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


# -- discretization and Lanczos ------------------------------------------------


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


def star_to_chain(freqs: np.ndarray, couplings_sq: np.ndarray,
                  depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Tridiagonalize a star bath (mode frequencies, squared couplings) into a chain.

    The Lanczos recurrence on the diagonal mode matrix, started from the
    coupling vector: a table's map, and the tests' oracle on a discretized
    bath.  Returns (eps, hop) with hop[0] the system-chain coupling; the
    arrays are shorter than ``depth`` if the Krylov space is exhausted first.
    """
    freqs = np.asarray(freqs, dtype=float)
    couplings_sq = np.asarray(couplings_sq, dtype=float)
    if freqs.ndim != 1 or freqs.shape != couplings_sq.shape or freqs.size == 0:
        raise ValueError("freqs and couplings_sq must be matching 1-d arrays")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if not (np.all(np.isfinite(freqs)) and np.all(np.isfinite(couplings_sq))):
        raise ValueError("frequencies and squared couplings must be finite")
    if np.any(couplings_sq < 0):
        raise ValueError("squared couplings must be non-negative")
    if couplings_sq.sum() <= 0:
        raise NumericsError("bath carries no coupling weight")
    return _lanczos_chain(freqs, np.sqrt(couplings_sq), depth)
