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


def _expectation(h_block: np.ndarray, c_block: np.ndarray) -> float:
    return float(np.sum(h_block * c_block).real)


def _times(c: np.ndarray, u_rows: np.ndarray) -> np.ndarray:
    """c @ u_rows; a real c times a complex slab is one real product on its float view."""
    if np.iscomplexobj(c) or not np.iscomplexobj(u_rows):
        return c @ u_rows
    return (c @ np.ascontiguousarray(u_rows).view(float)).view(complex)


def _column_overlaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re sum_k conj(a[k, i]) b[k, i] for every column i of two complex arrays.

    Real and imaginary parts sit in adjacent float columns, so one real
    contraction covers both and no conjugated copy is made.
    """
    pairs = np.einsum("ki,ki->i", a.view(float), b.view(float))
    return pairs[0::2] + pairs[1::2]


def step_thermodynamics(c_s: np.ndarray, prop: StepPropagator,
                        c_baths: Sequence[np.ndarray],
                        specs: Sequence[BathThermalSpec]) -> StepThermo:
    """Evolve system (+ freshly thermal chains) through one cycle and do the accounting.

    The initial state c0 is the block-diagonal correlation matrix of the system
    with the two thermal chains (no cross correlations).  External work is the
    negative change of the coupling energy, chemical work tracks the bath
    particle changes, and heat is the bath energy change less the chemical part.

    The evolved state is ct = U^dag c0 U, but only the entries the accounting
    reads are formed: ct[S,S], the diagonal and first superdiagonal of each
    chain block (its Hamiltonian block is tridiagonal) and the one entry
    ct[site_l, head_l] that couples each chain to the system.  Each is a column
    overlap of U with W = c0 U, and W is built one row block of c0 at a time,
    in real arithmetic for the real chain blocks.
    """
    setup = prop.setup
    h, u = setup.h, prop.u
    s = setup.system
    bath_slices = (setup.bath1, setup.bath2)
    c_s = np.asarray(c_s)
    w = np.empty(u.shape, dtype=complex)
    for rows, c in zip((s,) + bath_slices, (c_s,) + tuple(c_baths)):
        w[rows] = _times(c, u[rows])

    ct_s = u[:, s].conj().T @ w[:, s]
    du = _expectation(h[s, s], ct_s) - _expectation(h[s, s], c_s)
    occ_all = _column_overlaps(u, w)                    # ct[i, i]
    hop_all = _column_overlaps(u[:, :-1], w[:, 1:])     # Re ct[i, i + 1]
    dh_b, dh_sb, dn, q = [], [], [], []
    for b, c_b, spec, site in zip(bath_slices, c_baths, specs, setup.coupling_sites):
        occ, hop = occ_all[b], hop_all[b.start:b.stop - 1]
        h_b = h[b, b]
        db = (float(np.diagonal(h_b) @ occ + 2.0 * (np.diagonal(h_b, 1) @ hop))
              - _expectation(h_b, c_b))
        # c0 has no system-bath blocks, so the coupling energy starts at zero
        dsb = 2.0 * h[site, b.start] * float(np.vdot(u[:, site], w[:, b.start]).real)
        dnum = float(np.sum(occ) - np.trace(c_b).real)
        dh_b.append(db)
        dh_sb.append(dsb)
        dn.append(dnum)
        q.append(db - spec.mu * dnum)
    dn_s = float((np.trace(ct_s) - np.trace(c_s)).real)
    w_ext = -(dh_sb[0] + dh_sb[1])
    w_chem = -(specs[0].mu * dn[0] + specs[1].mu * dn[1])
    ds = gaussian_entropy(c_s) - gaussian_entropy(ct_s)
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
