"""The cycle map of a set-up, and discrete-time Lyapunov solvers for its fixed point.

The cycle map for the system correlation matrix is affine,

    C' = G_S^dag C G_S + P_S,

with G_S the system block of U = exp(-i H tau) and P_S built from the
bath-to-system blocks and the thermal bath correlations.  Its fixed point
solves the discrete-time Lyapunov equation C - G_S^dag C G_S = P_S, which has
a unique solution iff every eigenvalue of G_S lies strictly inside the unit
circle.

The cycle is worked out in the star basis: the two system sites, and each
chain rotated into its eigenmodes, where a thermal chain is diag(f_l).  So
P_S and every per-cycle bath quantity are linear in the f_l, and with
U = 1 + D each coefficient is a short sum over D, never a difference of two
O(1) numbers, however short the cycle.  ``cycle_map`` reduces D to them once
per set-up, O(l_b) numbers in a read-only ``CycleMap``; D and every
eigenvector are freed when it returns.

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

    S is the two-site system, and chain l is linked to its site l.  In the
    star basis (chain 1's eigenmodes, s0, s1, chain 2's eigenmodes) U is
    1 + D, and a cycle takes the initial state diag(f_1, C_S, f_2) to

        ct = (1 + D)^dag diag(f_1, C_S, f_2) (1 + D).

    Only the pieces a point reads are kept, never D itself:

    - ``h_s`` and ``g_s`` = 1 + D[S, S], the system Hamiltonian and propagator block;
    - ``energies[l]``, chain l's mode energies, where its Fermi factors f_l are taken;
    - ``drive[l]``, complex (l_b, 4): row k holds the products
      conj(D[k, i]) D[k, j] of chain l's mode k over the system sites (i, j)
      in row-major order, so P_S = sum_l f_l @ drive[l], reshaped to 2 x 2;
    - ``bath[l]``, real (l_b, 6): entry x of ``f_l @ bath[l]`` is what chain l
      contributes to the change of ``CYCLE_COLUMNS[x]``;
    - ``system``, complex (4, 6): the system's contribution is
      Re(C_S.ravel() @ system) for a Hermitian C_S;
    - ``unitarity_defect`` from ``step_propagator``, and the
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
    """D = U - 1 in the star basis, for U = exp(-i H tau), and U's unitarity defect.

    With H = V diag(E) V^T and Z the rows of V in the star basis (each
    chain's block rotated by its eigenvectors), D = Z diag(expm1(-i E tau)) Z^T:
    Re D = -2 (Z sin(E tau/2)) (Z sin(E tau/2))^T and Im D = -(Z sin E tau) Z^T.
    The defect is max|V^T V - I|; one Newton step V - V (V^T V - I) / 2
    leaves only its square in D.  A phase E tau is known only to its float64
    spacing, |E tau| 2**-52; once that exceeds ``UNITARITY_TOL`` at the
    largest |E|, D carries no trustworthy phase, and the set-up is refused as
    a numerical failure.
    """
    if tau < 0:
        raise ValueError("tau must be non-negative")
    energies, modes = setup.eigensystem
    phase = float(np.max(np.abs(energies))) * tau
    if not phase * 2.0 ** -52 <= UNITARITY_TOL:
        raise NumericsError(f"the largest phase max|E| tau = {phase:.3g} is too large: its "
                            f"float64 spacing exceeds the unitarity tolerance {UNITARITY_TOL:g}")
    overlap = modes.T @ modes
    n, l_b = overlap.shape[0], setup.l_b
    overlap.flat[::n + 1] -= 1.0
    defect = float(np.max(np.abs(overlap)))
    if not defect <= UNITARITY_TOL:
        raise NumericsError(f"propagator lost unitarity: defect {defect:.3e}")
    # V (V^T V - I) is at most UNITARITY_TOL of V: float32 carries it below float64 roundoff
    z = (modes.astype(np.float32) @ overlap.astype(np.float32)).astype(float)
    z *= -0.5
    z += modes
    del overlap
    (_, phi1), (_, phi2) = setup.chain_eigensystems
    z[:l_b] = phi1[::-1].T @ z[:l_b]
    z[l_b + 2:] = phi2.T @ z[l_b + 2:]
    zs = z * np.sin(0.5 * tau * energies)
    re = zs @ zs.T
    re *= -2.0
    np.multiply(z, -np.sin(tau * energies), out=zs)
    im = zs @ z.T
    del z, zs  # D's 2 n^2 floats replace them: the peak is 5 n^2, V included
    d = np.empty((n, n), dtype=complex)
    d.real, d.imag = re, im
    return d, defect


def cycle_map(setup: SetupHamiltonian, tau: float) -> CycleMap:
    """The set-up's ``CycleMap`` for cycles of length ``tau``; D lives only in here."""
    d, defect = step_propagator(setup, tau)
    g_s = np.eye(2) + d[setup.system, setup.system]
    radius, rate = stability_rate(g_s, tau)
    drive, bath, system = _cycle_operators(setup, d)
    return CycleMap(tau=tau, h_s=np.array([[0.0, setup.g], [setup.g, 0.0]]), g_s=g_s,
                    energies=tuple(e.copy() for e, _ in setup.chain_eigensystems),
                    drive=drive, bath=bath, system=system, unitarity_defect=defect,
                    spectral_radius=radius, rate=rate)


def _cycle_operators(setup: SetupHamiltonian, d: np.ndarray):
    """(drive, bath, system) of ``CycleMap``, read off D.

    Star mode q of chain m weighs 1 in chain m's particle number and e_q in
    its energy, and couples to system site m with c_mq = hop_m[0] Phi_m[0, q].
    So mode k of chain l changes chain m's particle number by
    2 Re D_kk [l = m] + sum_{q in m} |D_kq|^2, its energy by the same sums
    weighted with e, and its coupling energy by
    2 Re[conj(D_k,s_m) (c_mk [l = m] + sum_q c_mq D_kq)].
    Unitarity makes 2 Re D_kk equal to -sum_j |D_jk|^2, and that is the form
    used: a filled star then changes no bath's particle number or energy to
    rounding, rather than to the propagator's roundoff, which is what
    otherwise separates a hole-frame report from the particle-frame one.
    """
    l_b, n, s = setup.l_b, setup.n_sites, setup.system
    chains = (slice(0, l_b), slice(l_b + 2, n))
    weight = np.zeros((n, 4))  # columns dn1, dn2, dh_b1, dh_b2 of CYCLE_COLUMNS
    coupling = np.zeros((n, 2))
    for m, ((e, phi), (_, hop)) in enumerate(zip(setup.chain_eigensystems, setup.chains)):
        weight[chains[m], m] = 1.0
        weight[chains[m], 2 + m] = e
        coupling[chains[m], m] = hop[0] * phi[0]
    abs2 = np.square(d.real)
    abs2 += np.square(d.imag)
    reach = d @ coupling  # row k: sum_q c_mq D_kq
    link = d[:, s]        # row k: D_k,s_m
    rows = np.empty((n, 6))
    rows[:, :4] = abs2 @ weight - abs2.sum(axis=0)[:, None] * weight
    rows[:, 4:] = 2.0 * (link.conj() * (coupling + reach)).real
    pairs = (link.conj()[:, :, None] * link[:, None, :]).reshape(n, 4)
    drive = tuple(pairs[b].copy() for b in chains)
    bath = tuple(rows[b].copy() for b in chains)

    # the system rows: sums of conj(U[s_i, q]) U[s_j, q], with U[s_i, q] = D[s_i, q]
    # off the system; the coupling term is 2 conj(U[s_i, s_m]) sum_q c_mq D[s_j, q]
    d_s = d[s]
    system = np.empty((2, 2, 6), dtype=complex)
    system[..., :4] = (d_s.conj()[:, None, :] * d_s[None, :, :]) @ weight
    system[..., 4:] = 2.0 * (np.eye(2) + link[s]).conj()[:, None, :] * reach[s][None, :, :]
    return drive, bath, system.reshape(4, 6)


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
