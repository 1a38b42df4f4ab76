"""Steady-state thermodynamics: rates, regime classification, and collisional-limit predictions.

Sign conventions: work done on the system and heat dissipated into a bath are
positive.  A heat engine has total power P < 0 with heat drawn from the hot
bath (Qdot_1 < 0); a refrigerator extracts heat from the cold bath
(Qdot_2 < 0) at the price of P > 0.  Bath 1 is the hot one (beta1 < beta2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .dynamics import PARTICLE, StepThermo, preb_step, step_thermodynamics
from .errors import NumericsError
from .propagator import CycleMap
from .spectral import BathThermalSpec

REGIME_HEAT_ENGINE = "heat-engine"
REGIME_REFRIGERATOR = "refrigerator"
REGIME_DUD = "dud"

DEAD_BAND = 1e-12
RESIDUAL_TOL = 1e-8  # of the fixed point, relative to max(1, |C|)
STATIONARITY_TOL = 1e-9  # of dU and dS, relative to the step's largest flow


@dataclass
class NessReport:
    """Everything the steady state of one parameter point yields."""

    tau: float
    beta1: float
    beta2: float
    mu: float
    p_ext: float = 0.0
    p_chem: float = 0.0
    p: float = 0.0
    qdot: tuple[float, float] = (0.0, 0.0)
    ndot: tuple[float, float] = (0.0, 0.0)
    hdot_b: tuple[float, float] = (0.0, 0.0)
    hdot_sb: tuple[float, float] = (0.0, 0.0)
    sigma: float = 0.0
    regime: str = REGIME_DUD
    eta: Optional[float] = None
    eta_c: Optional[float] = None
    eta_ca: Optional[float] = None
    cop: Optional[float] = None
    cop_c: Optional[float] = None
    r: Optional[float] = None
    spectral_radius: Optional[float] = None
    n_copies: Optional[int] = None
    lam: Optional[float] = None
    frame: str = PARTICLE  # of the steady state the accounting read: "particle" or "hole"
    step: Optional[StepThermo] = field(default=None, repr=False)


def carnot_efficiency(beta1: float, beta2: float) -> float:
    return 1.0 - beta1 / beta2


def carnot_cop(beta1: float, beta2: float) -> float:
    return 1.0 / (beta2 / beta1 - 1.0)


def curzon_ahlborn_efficiency(beta1: float, beta2: float) -> float:
    return 1.0 - math.sqrt(beta1 / beta2)


def ness_rates(c_s_ness: np.ndarray, cycle: CycleMap, p_s: np.ndarray,
               occupations: Sequence[np.ndarray],
               specs: Sequence[BathThermalSpec], frame: str = PARTICLE) -> NessReport:
    """Per-cycle thermodynamics at the steady state, divided by the cycle time.

    ``occupations`` are the Fermi factors (f1, f2) of the chains' eigenmodes,
    and ``c_s_ness``, ``p_s`` and they are in ``frame``, as in
    ``step_thermodynamics``.  The map is applied once: its image shows
    that the input really is the fixed point and feeds the accounting, which
    must find internal energy and entropy stationary and the entropy
    production not negative before rates are reported.
    """
    tau = cycle.tau
    c_next = preb_step(c_s_ness, cycle, p_s)
    residual = float(np.max(np.abs(c_next - c_s_ness)))
    if residual > RESIDUAL_TOL * max(1.0, float(np.max(np.abs(c_s_ness)))):
        raise NumericsError(f"state is not a fixed point of the cycle map: residual {residual:.3e}")
    st = step_thermodynamics(c_s_ness, c_next, cycle, occupations, specs, frame)
    scale = max(abs(st.dh_b[0]), abs(st.dh_b[1]), abs(st.w_ext), abs(st.q[0]),
                abs(st.q[1]), 1e-12)
    # the absolute floor covers roundoff at points where every rate vanishes
    floor = STATIONARITY_TOL * scale + 1e-12
    if abs(st.du) > floor or abs(st.ds) > floor:
        raise NumericsError(
            f"steady state not stationary: dU={st.du:.3e}, dS={st.ds:.3e}, scale={scale:.3e}")
    if st.sigma < -floor:
        raise NumericsError(
            f"negative entropy production per cycle: sigma={st.sigma:.3e}, scale={scale:.3e}")
    report = NessReport(tau=tau, beta1=specs[0].beta, beta2=specs[1].beta,
                        mu=specs[0].mu, frame=frame)
    report.p_ext = st.w_ext / tau
    report.p_chem = st.w_chem / tau
    report.p = report.p_ext + report.p_chem
    report.qdot = (st.q[0] / tau, st.q[1] / tau)
    report.ndot = (st.dn[0] / tau, st.dn[1] / tau)
    report.hdot_b = (st.dh_b[0] / tau, st.dh_b[1] / tau)
    report.hdot_sb = (st.dh_sb[0] / tau, st.dh_sb[1] / tau)
    report.sigma = specs[0].beta * report.qdot[0] + specs[1].beta * report.qdot[1]
    report.step = st
    return report


def classify_regime(report: NessReport) -> NessReport:
    """Label the point heat-engine / refrigerator / dud and fill the figures of merit.

    Strict sign tests with a small dead band so numerical zeros are not labeled
    as machines.
    """
    if report.beta1 >= report.beta2:
        raise ValueError("bath 1 must be hot: beta1 < beta2 required")
    report.eta_c = carnot_efficiency(report.beta1, report.beta2)
    report.cop_c = carnot_cop(report.beta1, report.beta2)
    report.eta_ca = curzon_ahlborn_efficiency(report.beta1, report.beta2)
    q1, q2 = report.qdot
    # the absolute reference 1.0 (units of g) keeps cancellation noise out of the regimes
    band = DEAD_BAND * max(abs(q1), abs(q2), abs(report.p), 1.0)
    report.eta = None
    report.cop = None
    if report.p < -band and q1 < -band:
        report.regime = REGIME_HEAT_ENGINE
        report.eta = report.p / q1
    elif q2 < -band and report.p > band:
        report.regime = REGIME_REFRIGERATOR
        report.cop = -q2 / report.p
    else:
        report.regime = REGIME_DUD
    return report


@dataclass(frozen=True)
class CollisionalPrediction:
    """Single-site-environment limit: performance set by the level ratio alone."""

    rho: float
    eta0: float
    cop0: float
    engine_window: bool
    fridge_window: bool
    window_split: float  # the boundary beta1/beta2 separating the two regimes


def collisional_limit(omega01: float, omega02: float, mu: float,
                      beta1: float, beta2: float) -> CollisionalPrediction:
    """Narrow-bath predictions from rho = (omega02 - mu) / (omega01 - mu).

    In that limit heat currents tie to particle currents, so the efficiency is
    1 - rho and the refrigerator COP is rho / (1 - rho), independent of every
    other detail; the engine needs beta1/beta2 < rho < 1 and the refrigerator
    0 < rho < beta1/beta2.
    """
    if omega01 == mu:
        raise ValueError("omega01 equals mu: the level ratio is undefined")
    rho = (omega02 - mu) / (omega01 - mu)
    eta0 = 1.0 - rho
    cop0 = math.inf if rho == 1.0 else 1.0 / (1.0 / rho - 1.0) if rho != 0 else 0.0
    split = beta1 / beta2
    return CollisionalPrediction(rho=rho, eta0=eta0, cop0=cop0,
                                 engine_window=split < rho < 1.0,
                                 fridge_window=0.0 < rho < split,
                                 window_split=split)


def tight_coupling_check(report: NessReport, omega0: tuple[float, float],
                         mu: float) -> tuple[float, float]:
    """Per-bath defect |Qdot_l - (omega0_l - mu) Ndot_l| of the tight-coupling relation.

    Near zero only for narrow baths refreshed faster than their width.
    """
    return tuple(abs(report.qdot[ell] - (omega0[ell] - mu) * report.ndot[ell])
                 for ell in range(2))
