"""Map a bath spectral function onto nearest-neighbour tight-binding chain coefficients.

The chain is the orthogonal-polynomial chain of Chin, Rivas, Huelga & Plenio
(J. Math. Phys. 51, 092109 (2010)): its on-site energies and hoppings are the
recurrence coefficients of the monic polynomials orthogonal under the measure
J(w) dw / 2pi, and its first hopping g_0 = sqrt((1/2pi) int J) is the
system-chain coupling.

``chain_map_tridiag`` is the production route.  It maps the support of J onto
[-1, 1], takes the Chebyshev moments m_k = (1/2pi) int T_k J there, and runs
the modified Chebyshev algorithm on them (Sack & Donovan, Numer. Math. 18, 465
(1972); Gautschi, SIAM J. Sci. Stat. Comput. 3, 289 (1982)): O(depth^2)
operations, with no discretization of the bath and no Krylov basis.  The
level-k coefficients use only the moments below 2k + 2, so a map cut to n
sites is the depth-n map.  The moments are

- flat: exact, m_k = (kappa D / 2pi) int T_k;
- Lorentzian: m_k = (kappa / 2pi) Im q_k with q_k = int T_k(x) / (x - z) dx and
  z = (omega0 + i lam) / D.  The forward recurrence
  q_{k+1} = 2 z q_k - q_{k-1} + 2 int T_k amplifies roundoff by about
  rho^k, rho = |z + sqrt(z^2 - 1)|, so it runs only while
  rho^(2 depth) 2^-52 stays below ``FORWARD_TOLERANCE``; wider peaks take
  Clenshaw-Curtis quadrature of J, whose weights and moments are two FFTs;
- tabulated (piecewise-linear J): exact.  Integrating twice by parts leaves
  the slope jumps of J times a second antiderivative of T_k, cell by cell.
  Moments over a span with a gap in J amplify roundoff by about 2^depth, so
  each band of the table (a run of cells that carry weight) is mapped on
  its own span, and the band chains are merged by a Lanczos recurrence on
  their block diagonal.  A J that only nearly vanishes over a stretch is
  as badly conditioned, so a table's map is run a second time on moments
  moved by their own roundoff, and a map the two runs disagree on raises
  ``NumericsError``.

Two oracles stay for the tests and criterion C09: ``chain_map_recursion``
iterates the moment recursion on a frequency grid,

    g_p^2     = (1/2pi) int J_p(w) dw
    eps_{p+1} = (1/(2pi g_p^2)) int w J_p(w) dw
    J_{p+1}   = 4 g_p^2 J_p / (J_p^H^2 + J_p^2)

with J^H the principal-value Hilbert transform, exact but ill-conditioned at
depth; and ``discretize_modes`` with ``star_to_chain`` tridiagonalizes a
discretized bath by the Lanczos recurrence that merges band chains, the
discrete Stieltjes procedure (Gautschi, Orthogonal Polynomials, OUP 2004,
2.2), which Simon's estimate of the basis' loss of orthogonality switches to
full reorthogonalization where it is needed.  All three routes give the same
chain in the continuum limit.
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
TABLE_BLOCK = 1 << 16       # cosines per block of the tabulated moments
PROBE_SIZE = 2.0 ** -50     # moment perturbation, over m_0, that gauges a map's roundoff
PROBE_SEED = 20100921       # fixed, so a map is deterministic
MAP_TOLERANCE = 1e-8        # largest roundoff a map may carry, over its largest hopping
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


# -- modified Chebyshev moments ------------------------------------------------


def chain_map_tridiag(sf: SpectralFunction, depth: int) -> ChainCoefficients:
    """The bath's first ``depth`` chain sites, from its modified Chebyshev moments.

    The production route (see the module docstring): per band of J, the
    moments m_k for k < 2 depth, then the modified Chebyshev algorithm, then
    eps = c + h alpha and hop = (sqrt(m_0), h sqrt(beta_1), ...) with
    [c - h, c + h] the band.  A table whose J vanishes on whole cells between
    bands has one chain per band, and those chains are merged; a table's map
    that roundoff has taken over raises ``NumericsError``.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    bands = [_band_chain(interval, moments, depth, probed=sf.kind == TABULATED)
             for interval, moments in _chebyshev_moments(sf, 2 * depth)]
    eps, hop = bands[0] if len(bands) == 1 else _merge_bands(bands)
    if not (np.all(np.isfinite(eps)) and np.all(np.isfinite(hop)) and np.all(hop > 0)):
        raise NumericsError(f"chain map of depth {depth} is not finite and positive")
    return ChainCoefficients(eps=eps, hop=hop)


def _chebyshev_moments(sf: SpectralFunction,
                       count: int) -> list[tuple[tuple[float, float], np.ndarray]]:
    """Per band [lo, hi] of J, the moments m_k = (1/2pi) int T_k J for k < count.

    T_k is taken on the band mapped onto [-1, 1], and m_0 is the band's weight
    (1/2pi) int J in closed form.  The band of a flat or Lorentzian J is its
    support; a table has one band per run of cells that carry weight.
    """
    if sf.kind == FLAT:
        return [(sf.support, sf.kappa * sf.cutoff / (2 * np.pi) * _integrals_of_t(count))]
    if sf.kind == LORENTZIAN:
        return [(sf.support, _lorentzian_moments(sf, count))]
    table = sf.table
    cells = (table.values[:-1] > 0) | (table.values[1:] > 0)
    if not cells.any():
        raise NumericsError("spectral function carries no weight on its support")
    edges = np.flatnonzero(np.diff(np.concatenate([[0], cells.astype(np.int8), [0]])))
    return [_table_moments(table.omega[a:b + 1], table.values[a:b + 1], count)
            for a, b in zip(edges[::2], edges[1::2])]


def _band_chain(interval: tuple[float, float], moments: np.ndarray, depth: int,
                probed: bool) -> tuple[np.ndarray, np.ndarray]:
    alpha, beta = _modified_chebyshev(moments, depth)
    if probed:
        _check_roundoff(moments, alpha, beta)
    center, half = (interval[0] + interval[1]) / 2, (interval[1] - interval[0]) / 2
    hop = np.sqrt(beta)
    hop[1:] *= half
    return center + half * alpha, hop


def _check_roundoff(moments: np.ndarray, alpha: np.ndarray, beta: np.ndarray) -> None:
    """Raise ``NumericsError`` from the first level the moments no longer determine.

    Where J nearly vanishes on part of its span, the algorithm amplifies
    roundoff by about a factor 2 a level while s_{k,k} stays of order m_0,
    so the chain goes wrong without losing positivity.  A second run on
    moments moved by ``PROBE_SIZE`` m_0 in random directions, the size of
    their own roundoff, parts from the first as far as roundoff reaches; a
    level whose alpha or sqrt(beta) moved by more than ``MAP_TOLERANCE`` of
    the largest sqrt(beta) so far is lost.
    """
    depth = alpha.size
    probe = np.random.default_rng(PROBE_SEED).uniform(-1.0, 1.0, 2 * depth)
    moved = moments[:2 * depth] + PROBE_SIZE * moments[0] * probe
    try:
        probe_alpha, probe_beta = _modified_chebyshev(moved, depth)
    except NumericsError as exc:
        raise NumericsError(f"chain map lost accuracy: moments moved by their own roundoff "
                            f"give no chain ({exc})") from None
    root, probe_root = np.sqrt(beta[1:]), np.sqrt(probe_beta[1:])
    spread = np.maximum(np.abs(alpha[1:] - probe_alpha[1:]), np.abs(root - probe_root))
    lost = np.flatnonzero(spread > MAP_TOLERANCE * np.maximum.accumulate(root))
    if lost.size:
        raise NumericsError(f"chain map lost accuracy at depth {lost[0] + 1}: the moments "
                            "do not define the measure to this depth")


def _merge_bands(bands: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """The chain of a sum of measures, from each one's chain of the same depth n.

    Each band chain is a Jacobi matrix whose n-point Gauss rule, seen from
    its head, is exact up to degree 2n - 1.  So the first n levels of the sum
    are those of the star of one site coupled by hop_c[0] to the head of
    every band chain, and the Lanczos recurrence on the block diagonal of the
    band matrices, started from the heads, finds them at O(n bands) a step.
    """
    depth = bands[0][0].size
    diag = np.concatenate([eps for eps, _ in bands])
    off = np.concatenate([np.append(hop[1:], 0.0) for _, hop in bands])[:-1]
    heads = np.zeros(diag.size)
    heads[::depth] = [hop[0] for _, hop in bands]
    eps, hop = _lanczos_chain(diag, off, heads, depth)
    if eps.size < depth:
        raise NumericsError(f"merged band chain decouples at depth {eps.size}")
    return eps, hop


def _lanczos_chain(diag: np.ndarray, off: np.ndarray, start: np.ndarray,
                   depth: int) -> tuple[np.ndarray, np.ndarray]:
    """The first ``depth`` chain levels that ``start`` sees in a symmetric tridiagonal matrix.

    The matrix has diagonal ``diag`` and off-diagonal ``off`` (empty for a
    star).  The Lanczos recurrence starts from start / |start| and keeps the
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
    tiny = np.finfo(float).eps * (scale + 2 * np.max(off, initial=0.0))
    stop = 1e-13 * max(1.0, scale)
    omega, omega_before = np.ones(1), np.zeros(0)  # estimated overlaps of vector j, j - 1
    reorthogonalize = False
    r = np.empty(size)
    for j in range(steps):
        q = basis[j]
        np.multiply(diag, q, out=r)
        if off.size:
            r[:-1] += off * q[1:]
            r[1:] += off * q[:-1]
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


def _table_moments(omega: np.ndarray, values: np.ndarray,
                   count: int) -> tuple[tuple[float, float], np.ndarray]:
    """Exact moments of a piecewise-linear J on [omega[0], omega[-1]].

    With A_k'' = T_k, B_k = A_k' and s_i the slope on cell i, two integrations
    by parts give int J T_k = J(1) B_k(1) - J(-1) B_k(-1) + sum_i d_i A_k(x_i),
    where d_i is the slope jump at node x_i (s_0 at x = -1, -s_last at x = 1).
    A_k is a combination of T_{k+2}, T_k and T_{k-2}.
    """
    lo, hi = float(omega[0]), float(omega[-1])
    center, half = (lo + hi) / 2, (hi - lo) / 2
    x = np.clip((omega - center) / half, -1.0, 1.0)
    x[[0, -1]] = -1.0, 1.0
    slope = np.diff(values) / np.diff(x)
    jumps = np.concatenate([slope[:1], np.diff(slope), -slope[-1:]])
    where = np.flatnonzero(jumps)
    theta, jumps = np.arccos(x[where]), jumps[where]
    size = max(count, 3)
    order = np.arange(size + 2, dtype=float)
    sums = np.zeros(size + 2)  # S_j = sum_i d_i T_j(x_i)
    block = max(1, TABLE_BLOCK // (size + 2))
    for i in range(0, where.size, block):
        sums += np.cos(np.outer(order, theta[i:i + block])) @ jumps[i:i + block]
    k = order[3:size]
    inner = np.empty(size)  # sum_i d_i A_k(x_i)
    inner[:3] = sums[2] / 4, sums[3] / 24 - sums[1] / 8, sums[4] / 48 - sums[2] / 6
    inner[3:] = (sums[5:] / (4 * (k + 1) * (k + 2)) - sums[3:size] / (2 * (k * k - 1))
                 + sums[1:size - 2] / (4 * (k - 1) * (k - 2)))
    k = order[2:size]
    right = np.concatenate([[1.0, 0.25], -1.0 / (k * k - 1)])  # B_k(1)
    left = -right                                              # B_k(-1)
    left[1] = 0.25
    left[3::2] *= -1
    moments = half / (2 * np.pi) * (inner + values[-1] * right - values[0] * left)[:count]
    moments[0] = np.trapezoid(values, omega) / (2 * np.pi)
    return (lo, hi), moments


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


# -- discretization + Lanczos: the tests' oracle ------------------------------


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
    coupling vector: the one the band merge runs.  Returns (eps, hop) with
    hop[0] the system-chain coupling; the arrays are shorter than ``depth``
    if the Krylov space is exhausted first.
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
    return _lanczos_chain(freqs, np.zeros(0), np.sqrt(couplings_sq), depth)
