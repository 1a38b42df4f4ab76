"""Cycle-by-cycle dynamics and per-step thermodynamics of the refreshed-bath process.

Convention lock: correlation matrices are C[p][q] = <d_p^dag d_q>, evolving as
C(t) = exp(iHt) C(0) exp(-iHt), and every quadratic expectation is
<H_X> = sum_pq H_X[p,q] C[p,q] with H real symmetric.  The per-step entropy
change is recorded as dS = S_before - S_after, so the per-step entropy
production reads Sigma = sum_l beta_l Q_l - dS and is non-negative.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .propagator import StepPropagator
from .spectral import BathThermalSpec

ENTROPY_CLIP = 1e-14

TRAJECTORY_COLUMNS = ["step", "deltaU", "W_ext", "W_chem", "Q1", "Q2", "dS", "Sigma",
                      "dist_to_ness"]


def gaussian_entropy(c_s: np.ndarray, clip: float = ENTROPY_CLIP) -> float:
    """Von Neumann entropy of the Gaussian state with correlation matrix ``c_s``."""
    occ = np.linalg.eigvalsh(np.asarray(c_s))
    occ = np.clip(occ.real, clip, 1.0 - clip)
    return float(-np.sum(occ * np.log(occ) + (1.0 - occ) * np.log(1.0 - occ)))


def preb_step(c_s: np.ndarray, prop: StepPropagator, p_s: np.ndarray) -> np.ndarray:
    """One cycle of the map: G_S^dag C G_S + P_S."""
    g = prop.g_s
    return g.conj().T @ c_s @ g + p_s


@dataclass
class TrajectoryResult:
    """States after each cycle (including the initial one) and distances to the NESS."""

    states: list[np.ndarray]
    dist_to_ness: Optional[np.ndarray]

    @property
    def steps(self) -> int:
        return len(self.states) - 1


def preb_trajectory(c0: np.ndarray, n: int, prop: StepPropagator, p_s: np.ndarray,
                    c_ness: Optional[np.ndarray] = None) -> TrajectoryResult:
    """Apply the cycle map ``n`` times, tracking the max-entry distance to the NESS."""
    if n < 1:
        raise ValueError("n must be >= 1")
    states = [np.array(c0, dtype=complex)]
    dists = [] if c_ness is not None else None
    if dists is not None:
        dists.append(float(np.max(np.abs(states[0] - c_ness))))
    for _ in range(n):
        states.append(preb_step(states[-1], prop, p_s))
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


def _block_expectation(h: np.ndarray, c: np.ndarray, rows: slice, cols: slice) -> float:
    return float(np.sum(h[rows, cols] * c[rows, cols]).real)


def step_thermodynamics(c_s: np.ndarray, prop: StepPropagator,
                        c_baths: Sequence[np.ndarray],
                        specs: Sequence[BathThermalSpec]) -> StepThermo:
    """Evolve system (+ freshly thermal chains) through one cycle and do the accounting.

    The initial state is the block-diagonal correlation matrix of the system
    with the two thermal chains (no cross correlations).  External work is the
    negative change of the coupling energy, chemical work tracks the bath
    particle changes, and heat is the bath energy change less the chemical part.
    """
    setup = prop.setup
    h = setup.h
    s = setup.system
    bath_slices = (setup.bath1, setup.bath2)
    n = setup.n_sites
    c0 = np.zeros((n, n), dtype=complex)
    c0[s, s] = c_s
    for b, cb in zip(bath_slices, c_baths):
        c0[b, b] = cb
    u = prop.u
    ct = u.conj().T @ c0 @ u

    du = _block_expectation(h, ct, s, s) - _block_expectation(h, c0, s, s)
    dh_b, dh_sb, dn, q = [], [], [], []
    for b, spec in zip(bath_slices, specs):
        db = _block_expectation(h, ct, b, b) - _block_expectation(h, c0, b, b)
        # c0 has no system-bath blocks, so the coupling energy starts at zero
        dsb = _block_expectation(h, ct, s, b) + _block_expectation(h, ct, b, s)
        dnum = float((np.trace(ct[b, b]) - np.trace(c0[b, b])).real)
        dh_b.append(db)
        dh_sb.append(dsb)
        dn.append(dnum)
        q.append(db - spec.mu * dnum)
    dn_s = float((np.trace(ct[s, s]) - np.trace(c0[s, s])).real)
    w_ext = -(dh_sb[0] + dh_sb[1])
    w_chem = -(specs[0].mu * dn[0] + specs[1].mu * dn[1])
    ds = gaussian_entropy(c0[s, s]) - gaussian_entropy(ct[s, s])
    sigma = specs[0].beta * q[0] + specs[1].beta * q[1] - ds
    return StepThermo(du=du, w_ext=w_ext, w_chem=w_chem, q=(q[0], q[1]), ds=ds,
                      sigma=sigma, dn=(dn[0], dn[1]), dn_s=dn_s,
                      dh_b=(dh_b[0], dh_b[1]), dh_sb=(dh_sb[0], dh_sb[1]))


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


def trajectory_to_csv(fh, steps: Sequence[StepThermo],
                      dist_to_ness: Optional[Sequence[float]] = None) -> None:
    """Write one row per cycle with the columns documented in TRAJECTORY_COLUMNS."""
    writer = csv.writer(fh)
    writer.writerow(TRAJECTORY_COLUMNS)
    for i, st in enumerate(steps):
        dist = "" if dist_to_ness is None else f"{dist_to_ness[i]:.12g}"
        writer.writerow([i + 1] + [f"{v:.12g}" for v in
                                   (st.du, st.w_ext, st.w_chem, st.q[0], st.q[1],
                                    st.ds, st.sigma)] + [dist])
