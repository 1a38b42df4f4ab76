"""The cycle map of a set-up, and discrete-time Lyapunov solvers for its fixed point.

The cycle map for the system correlation matrix is affine,

    C' = G_S^dag C G_S + P_S,

with G_S the system block of U = exp(-i H tau) and P_S built from the
bath-to-system blocks and the thermal bath correlations.  Its fixed point
solves the discrete-time Lyapunov equation C - G_S^dag C G_S = P_S, which has
a unique solution iff every eigenvalue of G_S lies strictly inside the unit
circle.

A thermal chain enters only through the Fermi factors f_l of its eigenmodes,
so P_S and every per-cycle bath quantity are linear in the f_l with
coefficients fixed by the set-up.  ``cycle_map`` reduces U to those
coefficients once per set-up, O(l_b) numbers in a read-only ``CycleMap``; U,
the set-up matrix and every eigenvector are freed when it returns.  U itself
is formed in real arithmetic from the set-up's eigensystem, and its unitarity
is checked on the orthonormality of the eigenvectors.

A point that changes only temperatures or chemical potentials applies new
Fermi factors to the same ``CycleMap``: P_S is two vector-matrix products and
the fixed point one 4 x 4 solve, and the stability check reads the spectral
radius the set-up computed, so a point does no eigendecomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .builder import SetupHamiltonian
from .errors import NoUniqueNessError, NumericsError

UNITARITY_TOL = 1e-10
RADIUS_MARGIN = 1e-12
DOUBLING_TOL = 1e-14
# columns of CycleMap.bath and entries of CycleMap.system: per bath, the change
# of its particle number, of its chain energy and of its coupling energy
CYCLE_COLUMNS = ("dn1", "dn2", "dh_b1", "dh_b2", "dh_sb1", "dh_sb2")


@dataclass(frozen=True, eq=False)
class CycleMap:
    """Everything one cycle of a set-up does, as linear maps of C_S and of the Fermi factors.

    S is the two-site system, and chain l is linked to its site l.  With V_l
    the eigenbasis of chain l and Y_l = V_l^T U[B_l, :], a cycle takes
    the initial state diag(C_S, V_1 f_1 V_1^T, V_2 f_2 V_2^T) to

        ct = U[S, :]^dag C_S U[S, :] + sum_l Y_l^dag diag(f_l) Y_l.

    Only the pieces a point reads are kept, never U or Y itself:

    - ``h_s`` and ``g_s`` = U[S, S], the system Hamiltonian and propagator block;
    - ``energies[l]``, chain l's mode energies, where its Fermi factors f_l are taken;
    - ``drive[l]``, complex (l_b, 4): row k holds the products
      conj(Y_l[k, i]) Y_l[k, j] over the system sites (i, j) in row-major
      order, so P_S = sum_l f_l @ drive[l], reshaped to 2 x 2;
    - ``bath[l]``, real (l_b, 6): entry x of ``f_l @ bath[l]`` is what chain l
      contributes to the change of ``CYCLE_COLUMNS[x]``; chain l's own values
      before the cycle (its particle number and energy) are already subtracted;
    - ``system``, complex (4, 6): the system's contribution is
      Re(C_S.ravel() @ system) for a Hermitian C_S;
    - ``unitarity_defect`` of U from ``step_propagator``, and the
      ``spectral_radius`` of G_S with the approach ``rate`` from
      ``stability_rate``; a point's stability check reads the stored radius.

    Its arrays are read-only, since every point of the set-up shares them.
    """

    tau: float
    h_s: np.ndarray
    g_s: np.ndarray
    energies: tuple[np.ndarray, np.ndarray]
    drive: tuple[np.ndarray, np.ndarray]
    bath: tuple[np.ndarray, np.ndarray]
    system: np.ndarray
    unitarity_defect: float
    spectral_radius: float
    rate: float

    def __post_init__(self):
        for array in self.arrays():
            array.setflags(write=False)

    @property
    def l_b(self) -> int:
        return self.energies[0].size

    def arrays(self) -> list[np.ndarray]:
        return [self.h_s, self.g_s, *self.energies, *self.drive, *self.bath, self.system]


def step_propagator(setup: SetupHamiltonian, tau: float) -> tuple[np.ndarray, float]:
    """U = exp(-i H tau) from the set-up's cached eigendecomposition, and its unitarity defect.

    With H = V diag(E) V^T, U = (V cos E tau) V^T - i (V sin E tau) V^T, two
    real products.  U is unitary to roundoff when V is orthogonal, so the
    defect is max|V^T V - I|.  A phase E tau is known only to its float64
    spacing, |E tau| 2**-52; once that exceeds ``UNITARITY_TOL`` at the largest
    |E|, U carries no trustworthy phase, and the set-up is refused as a
    numerical failure.
    """
    if tau < 0:
        raise ValueError("tau must be non-negative")
    energies, modes = setup.eigensystem
    phase = float(np.max(np.abs(energies))) * tau
    if not phase * 2.0 ** -52 <= UNITARITY_TOL:
        raise NumericsError(f"the largest phase max|E| tau = {phase:.3g} is too large: its "
                            f"float64 spacing exceeds the unitarity tolerance {UNITARITY_TOL:g}")
    overlap = modes.T @ modes
    n = overlap.shape[0]
    overlap.flat[::n + 1] -= 1.0
    defect = float(np.max(np.abs(overlap)))
    del overlap  # n^2 floats, freed before U takes 2 n^2
    if not defect <= UNITARITY_TOL:
        raise NumericsError(f"propagator lost unitarity: defect {defect:.3e}")
    u = np.empty((n, n), dtype=complex)
    u.real = (modes * np.cos(energies * tau)) @ modes.T
    u.imag = (modes * -np.sin(energies * tau)) @ modes.T
    return u, defect


def cycle_map(setup: SetupHamiltonian, tau: float) -> CycleMap:
    """The set-up's ``CycleMap`` for cycles of length ``tau``; U lives only in here."""
    u, defect = step_propagator(setup, tau)
    s = setup.system
    g_s = u[s, s].copy()
    radius, rate = stability_rate(g_s, tau)
    drive, bath, system = _cycle_operators(setup, u)
    return CycleMap(tau=tau, h_s=setup.h[s, s].copy(), g_s=g_s,
                    energies=tuple(e.copy() for e, _ in setup.chain_eigensystems),
                    drive=drive, bath=bath, system=system, unitarity_defect=defect,
                    spectral_radius=radius, rate=rate)


def _cycle_operators(setup: SetupHamiltonian, u: np.ndarray):
    """(drive, bath, system) of ``CycleMap``, each a copy that holds no part of U."""
    l_s, l_b = 2, setup.l_b
    (eps1, hop1), (eps2, hop2) = setup.chains
    # Each quantity x of CYCLE_COLUMNS reads the evolved state as
    # sum w_x Re ct[i, j] over site pairs (i, j): every chain site with itself
    # (its particle number and on-site energy), every bond of a chain, and the
    # link of chain l's head to system site l; distinct sites weigh 2 h_ij.
    links, heads = [0, 1], [setup.bath1.start, setup.bath2.start]
    w_site = np.zeros((2 * l_b, len(CYCLE_COLUMNS)))
    w_site[:l_b, 0] = w_site[l_b:, 1] = 1.0
    w_site[:l_b, 2], w_site[l_b:, 3] = eps1, eps2
    w_bond = np.zeros((2 * l_b - 1, len(CYCLE_COLUMNS)))  # the bond between the chains: 0
    w_bond[:l_b - 1, 2], w_bond[l_b:, 3] = 2.0 * hop1[1:], 2.0 * hop2[1:]
    w_link = np.zeros((2, len(CYCLE_COLUMNS)))
    w_link[0, 4], w_link[1, 5] = 2.0 * hop1[0], 2.0 * hop2[0]

    # source: the system, whose state enters as a full matrix
    z = u[setup.system]
    sites = np.arange(l_s, setup.n_sites)
    left = z[:, np.concatenate([sites, sites[:-1], links])].conj()
    right = z[:, np.concatenate([sites, sites[1:], heads])]
    system = ((left[:, None] * right[None]).reshape(l_s * l_s, -1)
              @ np.concatenate([w_site, w_bond, w_link]))

    # source: the chains' eigenmodes (rows of t), each occupied with its own f
    t = np.zeros((2 * l_b, 2 * l_b))
    y = np.empty((2 * l_b, 2 * setup.n_sites))
    for m, (b, (_, modes)) in enumerate(zip((setup.bath1, setup.bath2),
                                            setup.chain_eigensystems)):
        rows = slice(m * l_b, (m + 1) * l_b)
        t[rows, rows] = modes.T
        np.matmul(modes.T, u[b].view(float), out=y[rows])  # Y_m on its float view
    # on the float view, real and imaginary parts alternate: squares sum to
    # |y_i|^2 and products two floats apart to Re(conj(y_i) y_i+1)
    yc = y[:, 2 * l_s:]
    after = ((yc * yc) @ np.repeat(w_site, 2, axis=0)
             + (yc[:, :-2] * yc[:, 2:]) @ np.repeat(w_bond, 2, axis=0))
    # less each chain's own particle number and energy before the cycle, from
    # the modes as computed, so that C_B = V diag(f) V^T is the state evolved
    before = (t * t) @ w_site + (t[:, :-1] * t[:, 1:]) @ w_bond
    y = y.view(complex)
    bath = after - before + (y[:, links].conj() * y[:, heads]).real @ w_link
    ys = y[:, setup.system]
    outer = (ys.conj()[:, :, None] * ys[:, None, :]).reshape(2 * l_b, l_s * l_s)
    drive = (outer[:l_b].copy(), outer[l_b:].copy())
    return drive, (bath[:l_b].copy(), bath[l_b:].copy()), system


def drive_matrix(cycle: CycleMap, f1: np.ndarray, f2: np.ndarray) -> np.ndarray:
    """Injection term P_S = sum_l G_{B_l S}^dag C_{B_l}^therm G_{B_l S}.

    ``f1`` and ``f2`` are the Fermi factors of each chain's eigenmodes, in the
    order of ``CycleMap.energies``.  In that eigenbasis the sum is
    sum_l A_l^dag diag(f_l) A_l, Hermitian positive semidefinite by
    construction; ``CycleMap.drive`` holds each A_l^dag diag(.) A_l as a
    linear map of the f_l, so P_S is sum_l f_l @ drive[l].  It is symmetrized
    only to make it Hermitian to the last bit.
    """
    p = 0
    for d, f in zip(cycle.drive, (f1, f2)):
        if np.shape(f) != (d.shape[0],):
            raise ValueError("Fermi factors do not match the chain length")
        p = p + f @ d
    p = p.reshape(2, 2)
    return 0.5 * (p + p.conj().T)


def _spectral_radius(g_s: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(g_s))))


def stability_rate(g_s: np.ndarray, tau: float) -> tuple[float, float]:
    """Spectral radius of the system block and the approach rate r = -ln(radius)/tau.

    A radius >= 1 would yield r <= 0, but no report carries one:
    ``solve_dlyap_direct`` raises ``NoUniqueNessError`` for such a point first,
    and a sweep puts it in its error column.
    """
    if not (tau > 0):
        raise ValueError("tau must be positive")
    radius = _spectral_radius(g_s)
    rate = -np.log(radius) / tau if radius > 0 else np.inf
    return radius, float(rate)


def _check_stable(radius: float) -> None:
    if not radius < 1.0 - RADIUS_MARGIN:
        raise NoUniqueNessError(
            f"no unique NESS at this tau: spectral radius {radius:.15g} is not < 1")


def _lyapunov_operator(g_s: np.ndarray) -> np.ndarray:
    # I - G^dag kron G^T, the matrix of C -> C - G^dag C G on row-major vec(C);
    # broadcasting forms the same single product per entry as np.kron
    n = g_s.shape[0]
    kron = g_s.conj().T[:, None, :, None] * g_s.T[None, :, None, :]
    return np.eye(n * n, dtype=complex) - kron.reshape(n * n, n * n)


def solve_dlyap_direct(g_s: np.ndarray, p_s: np.ndarray,
                       radius: Optional[float] = None) -> np.ndarray:
    """Solve C - G^dag C G = P by dense linearization over matrix entries.

    Exact up to roundoff; cost (L_S^2)^3, fine at desk scale.  ``radius`` is
    the spectral radius of G when the caller holds it already, as a
    ``CycleMap`` does; otherwise it is computed here.
    """
    n = g_s.shape[0]
    if g_s.shape != (n, n) or p_s.shape != (n, n):
        raise ValueError("g_s and p_s must be square matrices of equal size")
    _check_stable(_spectral_radius(g_s) if radius is None else radius)
    # row-major vec: vec(A X B) = (A kron B^T) vec(X)
    c = np.linalg.solve(_lyapunov_operator(g_s), p_s.reshape(-1)).reshape(n, n)
    return 0.5 * (c + c.conj().T)


def solve_dlyap_doubling(g_s: np.ndarray, p_s: np.ndarray, *,
                         max_doublings: int = 200) -> np.ndarray:
    """Solve the same equation by Smith doubling: P += G^dag P G, G <- G^2.

    Converges super-geometrically for any stable G; the reference that the
    production solver ``solve_dlyap_direct`` is checked against.
    """
    _check_stable(_spectral_radius(g_s))
    c = np.array(p_s, dtype=complex)
    a = np.array(g_s, dtype=complex)
    for _ in range(max_doublings):
        update = a.conj().T @ c @ a
        c = c + update
        a = a @ a
        if np.max(np.abs(update)) < DOUBLING_TOL * max(1.0, float(np.max(np.abs(c)))):
            return 0.5 * (c + c.conj().T)
    raise NumericsError(f"doubling iteration did not converge in {max_doublings} steps")
