"""Cycle-by-cycle dynamics and per-step thermodynamics of the refreshed-bath process.

Convention lock: correlation matrices are C[p][q] = <d_p^dag d_q>, evolving as
C(t) = exp(iHt) C(0) exp(-iHt), and every quadratic expectation is
<H_X> = sum_pq H_X[p,q] C[p,q] with H real symmetric.  The per-step entropy
change is recorded as dS = S_before - S_after, so the per-step entropy
production reads Sigma = sum_l beta_l Q_l - dS and is non-negative.

The chains enter each cycle thermal, described by the Fermi factors of their
eigenmodes.  ``preb_step`` applies the cycle map; the per-step accounting
reads a state and the successor the map made from it, and applies them and
the Fermi factors to the set-up's ``CycleMap``, so a step costs O(l_b).
The system is a dimer, so every state here is 2 x 2, and its entropy comes
from the closed-form eigenvalues of a 2 x 2 Hermitian matrix: a step does no
eigendecomposition.

States and Fermi factors live in one of two frames.  In the particle frame
they are C_S and f_l.  In the hole frame they are C_S-bar = 1 - C_S and
f_l-bar = 1 - f_l: unitarity makes C_S = 1 with f_l = 1 a fixed point at which
every per-cycle change vanishes, so the cycle map keeps its form,
C-bar' = G_S^dag C-bar G_S + P_S(f-bar), and every change of the accounting
is minus the same linear form evaluated on (C-bar, f-bar).  When the baths
are nearly filled, the hole frame computes each change from small numbers
instead of as a difference of large ones; the particle frame would compute
the heat Q = dH_B - mu dN from a dN that is all roundoff, times mu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .propagator import CycleMap
from .spectral import BathThermalSpec

ENTROPY_CLIP = 1e-14
PARTICLE, HOLE = "particle", "hole"  # the frames of a state and its Fermi factors


def in_frame(c_s: np.ndarray, frame: str) -> np.ndarray:
    """The particle-frame state ``c_s`` in ``frame``, or back: the map is its own inverse."""
    return np.eye(2) - c_s if frame == HOLE else c_s


def gaussian_entropy(c_s: np.ndarray) -> float:
    """Von Neumann entropy of the Gaussian state with the 2 x 2 correlation matrix ``c_s``.

    The occupations are the eigenvalues m +- hypot((a - d)/2, |b|) of the
    Hermitian [[a, b*], [b, d]], with m = (a + d)/2; as in LAPACK's Hermitian
    eigensolvers only the lower triangle is read.
    """
    c = np.asarray(c_s)
    if c.shape != (2, 2):
        raise ValueError(f"gaussian_entropy takes a 2 x 2 state, not {c.shape}")
    (a, _), (b, d) = c.tolist()
    a, d = a.real, d.real
    mean, half_gap = 0.5 * (a + d), math.hypot(0.5 * (a - d), abs(b))
    s = 0.0
    for occ in (mean - half_gap, mean + half_gap):
        occ = min(max(occ, ENTROPY_CLIP), 1.0 - ENTROPY_CLIP)
        s -= occ * math.log(occ) + (1.0 - occ) * math.log(1.0 - occ)
    return s


def preb_step(c_s: np.ndarray, cycle: CycleMap, p_s: np.ndarray) -> np.ndarray:
    """One cycle of the map: G_S^dag C G_S + P_S."""
    g = cycle.g_s
    return g.conj().T @ c_s @ g + p_s


@dataclass
class TrajectoryResult:
    """States after each cycle (including the initial one) and distances to the NESS."""

    states: list[np.ndarray]
    dist_to_ness: Optional[np.ndarray]

    @property
    def steps(self) -> int:
        return len(self.states) - 1


def preb_trajectory(c0: np.ndarray, n: int, cycle: CycleMap, p_s: np.ndarray,
                    c_ness: Optional[np.ndarray] = None) -> TrajectoryResult:
    """Apply the cycle map ``n`` times, tracking the max-entry distance to the NESS."""
    if n < 1:
        raise ValueError("n must be >= 1")
    states = [np.array(c0, dtype=complex)]
    dists = [] if c_ness is not None else None
    if dists is not None:
        dists.append(float(np.max(np.abs(states[0] - c_ness))))
    for _ in range(n):
        states.append(preb_step(states[-1], cycle, p_s))
        if dists is not None:
            dists.append(float(np.max(np.abs(states[-1] - c_ness))))
    return TrajectoryResult(states=states,
                            dist_to_ness=np.array(dists) if dists is not None else None)


@dataclass(frozen=True)
class StepThermo:
    """Energy, work, heat, and entropy bookkeeping of a single cycle.

    ``q``, ``dn``, ``dh_b``, ``dh_sb`` are per-bath pairs; heat dissipated into
    a bath counts positive.
    """

    du: float
    w_ext: float
    w_chem: float
    q: tuple[float, float]
    ds: float
    sigma: float
    dn: tuple[float, float]
    dn_s: float
    dh_b: tuple[float, float]
    dh_sb: tuple[float, float]

    @property
    def w(self) -> float:
        return self.w_ext + self.w_chem

    @property
    def first_law_defect(self) -> float:
        """|dU - (W - Q)|; zero up to roundoff for every unitary cycle."""
        return abs(self.du - (self.w - self.q[0] - self.q[1]))


def step_thermodynamics(c_s: np.ndarray, ct_s: np.ndarray, cycle: CycleMap,
                        occupations: Sequence[np.ndarray],
                        specs: Sequence[BathThermalSpec], frame: str = PARTICLE) -> StepThermo:
    """The accounting of the cycle that took the system from ``c_s`` to ``ct_s``.

    ``ct_s`` is the map's image G_S^dag c_s G_S + P_S, as ``preb_step`` or a
    trajectory made it.  The cycle starts from the block-diagonal state of the
    system with the two thermal chains (no cross correlations); ``occupations``
    holds the Fermi factors (f1, f2) of the chains' eigenmodes.  External work
    is the negative change of the coupling energy, chemical work tracks the
    bath particle changes, and heat is the bath energy change less the
    chemical part.

    Each bath's particle, energy and coupling-energy changes are linear in c_s
    and in the f_l, read off the set-up's ``CycleMap``: one small product
    per bath plus one contraction with c_s, so a step costs O(l_b), not O(n^3).
    Both baths are computed independently, so the first law checks the cycle
    rather than holding by construction.

    The states and the Fermi factors are in ``frame``; in the hole frame every
    change, dU and dN_S included, is minus its linear form, and the entropy,
    the same for C and 1 - C, needs no sign.
    """
    sign = -1.0 if frame == HOLE else 1.0
    c, ct = np.ravel(c_s), np.ravel(ct_s)
    h = cycle.h_s.ravel()
    (f1, f2), (bath1, bath2), (spec1, spec2) = occupations, cycle.bath, specs
    x = sign * ((c @ cycle.system).real + f1 @ bath1 + f2 @ bath2)
    dn1, dn2, dh_b1, dh_b2, dh_sb1, dh_sb2 = x.tolist()  # the order of CYCLE_COLUMNS
    q1, q2 = dh_b1 - spec1.mu * dn1, dh_b2 - spec2.mu * dn2
    ds = gaussian_entropy(c_s) - gaussian_entropy(ct_s)
    # the trace of a raveled 2 x 2 state is the sum of its entries 0 and 3
    dn_s = sign * ((ct[0] + ct[3]) - (c[0] + c[3])).real.item()
    du = sign * ((h @ ct).real.item() - (h @ c).real.item())
    return StepThermo(du=du, w_ext=-(dh_sb1 + dh_sb2),
                      w_chem=-(spec1.mu * dn1 + spec2.mu * dn2), q=(q1, q2), ds=ds,
                      sigma=spec1.beta * q1 + spec2.beta * q2 - ds, dn=(dn1, dn2), dn_s=dn_s,
                      dh_b=(dh_b1, dh_b2), dh_sb=(dh_sb1, dh_sb2))


@dataclass(frozen=True)
class CumulativeThermo:
    """Component-wise sums over steps plus the corresponding time-averaged rates."""

    n_steps: int
    du: float
    w_ext: float
    w_chem: float
    q: tuple[float, float]
    ds: float
    sigma: float
    dn: tuple[float, float]
    p_ext: float
    p_chem: float
    qdot: tuple[float, float]
    sigma_rate: float


def cumulative_thermo(steps: Sequence[StepThermo], tau: float) -> CumulativeThermo:
    """Sum per-step quantities and divide by the elapsed time n * tau."""
    if not (tau > 0):
        raise ValueError("tau must be positive")
    n = len(steps)
    if n == 0:
        zero2 = (0.0, 0.0)
        return CumulativeThermo(0, 0.0, 0.0, 0.0, zero2, 0.0, 0.0, zero2,
                                0.0, 0.0, zero2, 0.0)
    du = sum(s.du for s in steps)
    w_ext = sum(s.w_ext for s in steps)
    w_chem = sum(s.w_chem for s in steps)
    q1 = sum(s.q[0] for s in steps)
    q2 = sum(s.q[1] for s in steps)
    ds = sum(s.ds for s in steps)
    sigma = sum(s.sigma for s in steps)
    dn1 = sum(s.dn[0] for s in steps)
    dn2 = sum(s.dn[1] for s in steps)
    t = n * tau
    return CumulativeThermo(n, du, w_ext, w_chem, (q1, q2), ds, sigma, (dn1, dn2),
                            w_ext / t, w_chem / t, (q1 / t, q2 / t), sigma / t)
