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
coefficients once per set-up, O(l_b) numbers in a read-only ``CycleMap``; U
and every eigenvector are freed when it returns.  U itself is formed in real
arithmetic from the set-up's tridiagonal eigensystem, in the set-up's path
order, and its unitarity is checked on the orthonormality of the
eigenvectors; the reduction then takes one chain at a time.

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
    return CycleMap(tau=tau, h_s=np.array([[0.0, setup.g], [setup.g, 0.0]]), g_s=g_s,
                    energies=tuple(e.copy() for e, _ in setup.chain_eigensystems),
                    drive=drive, bath=bath, system=system, unitarity_defect=defect,
                    spectral_radius=radius, rate=rate)


def _cycle_operators(setup: SetupHamiltonian, u: np.ndarray):
    """(drive, bath, system) of ``CycleMap``, each a copy that holds no part of U.

    U is in the set-up's path order, along which every weight below is a site
    or a bond of the tridiagonal matrix.  The chains are reduced one at a
    time, so no temporary is larger than l_b x 2n floats.
    """
    l_b, n = setup.l_b, setup.n_sites
    d, e = setup.diagonal, setup.off_diagonal
    # Each quantity x of CYCLE_COLUMNS reads the evolved state ct along the path
    # as sum_p site[p, x] ct[p, p] + sum_p bond[p, x] Re ct[p, p + 1]: the sites
    # of chain l weigh 1 in its particle number and their on-site energy in its
    # energy, the bonds inside chain l weigh twice their hopping in its energy,
    # and the bond of chain l's head to system site l twice its hopping in
    # chain l's coupling energy; the system's own bond weighs nothing.
    sites = (slice(0, l_b), slice(l_b + 2, n))
    bonds = (slice(0, l_b - 1), slice(l_b + 2, n - 1))
    links = (l_b - 1, l_b + 1)
    site = np.zeros((n, len(CYCLE_COLUMNS)))
    bond = np.zeros((n - 1, len(CYCLE_COLUMNS)))
    for m in range(2):
        site[sites[m], m] = 1.0
        site[sites[m], 2 + m] = d[sites[m]]
        bond[bonds[m], 2 + m] = 2.0 * e[bonds[m]]
        bond[links[m], 4 + m] = 2.0 * e[links[m]]

    # source: the system, whose state enters as a full matrix
    z = u[setup.system]
    left = np.concatenate([z, z[:, :-1]], axis=1).conj()
    right = np.concatenate([z, z[:, 1:]], axis=1)
    system = (left[:, None] * right[None]).reshape(4, -1) @ np.concatenate([site, bond])

    # source: each chain's eigenmodes, mode k occupied with its own f_k
    drive, bath = [], []
    site2, bond2 = np.repeat(site, 2, axis=0), np.repeat(bond, 2, axis=0)
    for m, (_, modes) in enumerate(setup.chain_eigensystems):
        vt = (modes[::-1] if m == 0 else modes).T  # row k: mode k along the path
        # Y_m = V_m^T U[B_m, :] on the float view of U, where real and imaginary
        # parts alternate: squares sum to |y_p|^2, and products two floats
        # apart to Re(conj(y_p) y_p+1)
        y = vt @ u[sites[m]].view(float)
        after = (y * y) @ site2 + (y[:, :-2] * y[:, 2:]) @ bond2
        # less the chain's own particle number and energy before the cycle, from
        # the modes as computed, so that C_B = V diag(f) V^T is the state evolved
        before = (vt * vt) @ site[sites[m]] + (vt[:, :-1] * vt[:, 1:]) @ bond[bonds[m]]
        bath.append(after - before)
        ys = y.view(complex)[:, setup.system]
        drive.append((ys.conj()[:, :, None] * ys[:, None, :]).reshape(l_b, 4))
    return tuple(drive), tuple(bath), system


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
