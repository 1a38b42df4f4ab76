"""One-cycle propagator blocks, the drive matrix, and discrete-time Lyapunov solvers.

The cycle map for the system correlation matrix is affine,

    C' = G_S^dag C G_S + P_S,

with G_S the system block of exp(-i H tau) and P_S built from the bath-to-
system blocks and the thermal bath correlations.  Its fixed point solves the
discrete-time Lyapunov equation C - G_S^dag C G_S = P_S, which has a unique
solution iff every eigenvalue of G_S lies strictly inside the unit circle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .builder import SetupHamiltonian
from .errors import NoUniqueNessError, NumericsError

UNITARITY_TOL = 1e-10
HERMITICITY_TOL = 1e-8
RADIUS_MARGIN = 1e-12


@dataclass(eq=False)
class StepPropagator:
    """exp(-i H tau) together with the index map of its blocks."""

    setup: SetupHamiltonian
    tau: float
    u: np.ndarray
    unitarity_defect: float

    @property
    def g_s(self) -> np.ndarray:
        s = self.setup.system
        return self.u[s, s]

    @property
    def g_b1s(self) -> np.ndarray:
        return self.u[self.setup.bath1, self.setup.system]

    @property
    def g_b2s(self) -> np.ndarray:
        return self.u[self.setup.bath2, self.setup.system]


def step_propagator(setup: SetupHamiltonian, tau: float) -> StepPropagator:
    """Exact propagator from the cached eigendecomposition of the set-up matrix."""
    if tau < 0:
        raise ValueError("tau must be non-negative")
    energies, modes = setup.eigensystem
    u = (modes * np.exp(-1j * energies * tau)) @ modes.T
    n = u.shape[0]
    defect = float(np.max(np.abs(u.conj().T @ u - np.eye(n))))
    if defect > UNITARITY_TOL:
        raise NumericsError(f"propagator lost unitarity: defect {defect:.3e}")
    return StepPropagator(setup=setup, tau=tau, u=u, unitarity_defect=defect)


def drive_matrix(prop: StepPropagator, c_b1: np.ndarray, c_b2: np.ndarray) -> np.ndarray:
    """Injection term P_S = sum_l G_{B_l S}^dag C_{B_l}^therm G_{B_l S}.

    The result is Hermitian positive semidefinite; it is symmetrized and an
    asymmetry above tolerance raises, since that signals a block-extraction bug.
    """
    g1, g2 = prop.g_b1s, prop.g_b2s
    if c_b1.shape != (g1.shape[0],) * 2 or c_b2.shape != (g2.shape[0],) * 2:
        raise ValueError("bath correlation matrices do not match the chain blocks")
    p = g1.conj().T @ c_b1 @ g1 + g2.conj().T @ c_b2 @ g2
    asym = float(np.max(np.abs(p - p.conj().T)))
    scale = max(1.0, float(np.max(np.abs(p))))
    if asym > HERMITICITY_TOL * scale:
        raise NumericsError(f"drive matrix asymmetry {asym:.3e}")
    return 0.5 * (p + p.conj().T)


def stability_rate(g_s: np.ndarray, tau: float) -> tuple[float, float]:
    """Spectral radius of the system block and the approach rate r = -ln(radius)/tau.

    A radius >= 1 yields r <= 0; it is returned rather than raised so sweeps can
    flag the point.
    """
    if not (tau > 0):
        raise ValueError("tau must be positive")
    radius = float(np.max(np.abs(np.linalg.eigvals(g_s))))
    rate = -np.log(radius) / tau if radius > 0 else np.inf
    return radius, float(rate)


def _check_stable(g_s: np.ndarray) -> float:
    radius = float(np.max(np.abs(np.linalg.eigvals(g_s))))
    if radius >= 1.0 - RADIUS_MARGIN:
        raise NoUniqueNessError(
            f"no unique NESS at this tau: spectral radius {radius:.15g} is not < 1")
    return radius


def solve_dlyap_direct(g_s: np.ndarray, p_s: np.ndarray) -> np.ndarray:
    """Solve C - G^dag C G = P by dense linearization over matrix entries.

    Exact up to roundoff; cost (L_S^2)^3, fine at desk scale.
    """
    n = g_s.shape[0]
    if g_s.shape != (n, n) or p_s.shape != (n, n):
        raise ValueError("g_s and p_s must be square matrices of equal size")
    _check_stable(g_s)
    # row-major vec: vec(A X B) = (A kron B^T) vec(X)
    a = np.eye(n * n, dtype=complex) - np.kron(g_s.conj().T, g_s.T)
    c = np.linalg.solve(a, p_s.reshape(-1)).reshape(n, n)
    return 0.5 * (c + c.conj().T)


def solve_dlyap_doubling(g_s: np.ndarray, p_s: np.ndarray, *,
                         tol: float = 1e-14, max_doublings: int = 200) -> np.ndarray:
    """Solve the same equation by Smith doubling: P += G^dag P G, G <- G^2.

    Converges super-geometrically for any stable G; the reference that the
    production solver ``solve_dlyap_direct`` is checked against.
    """
    _check_stable(g_s)
    c = np.array(p_s, dtype=complex)
    a = np.array(g_s, dtype=complex)
    for _ in range(max_doublings):
        update = a.conj().T @ c @ a
        c = c + update
        a = a @ a
        if np.max(np.abs(update)) < tol * max(1.0, float(np.max(np.abs(c)))):
            return 0.5 * (c + c.conj().T)
    raise NumericsError(f"doubling iteration did not converge in {max_doublings} steps")
