"""Machine-checkable validation suite: one entry per release criterion.

Each criterion returns its measured numbers, the pinned tolerance, and a
pass/fail flag; ``run_validation`` executes the quick subset or the full list.
The same functions back the ``preb validate`` command and the acceptance tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .chainmap import chain_map_recursion, chain_map_tridiag
from .config import fixed_config, heat_engine_preset, refrigerator_preset
from .dynamics import cumulative_thermo, preb_step
from .pipeline import build_bundle, run_negf, run_ness, run_trajectory
from .spectral import SpectralFunction
from .sweeps import apply_axis
from .thermo import (REGIME_HEAT_ENGINE, carnot_cop, carnot_efficiency,
                     collisional_limit, curzon_ahlborn_efficiency,
                     tight_coupling_check)

# the worked example's bath peaks, width scale and cutoff
_EXAMPLE = heat_engine_preset()
OMEGA01, OMEGA02 = _EXAMPLE.bath1.omega0, _EXAMPLE.bath2.omega0
KAPPA, CUTOFF = _EXAMPLE.bath1.kappa, _EXAMPLE.bath1.cutoff


@dataclass
class CriterionResult:
    cid: str
    description: str
    measured: str
    tolerance: str
    passed: bool
    seconds: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{self.cid} {status} [{self.seconds:6.2f}s] {self.description}: "
                f"measured {self.measured} (tolerance {self.tolerance})")


class _Shared:
    """Lazily computed pieces reused by several criteria within one run."""

    def __init__(self):
        self._engine_sweep = None

    def engine_tau_sweep(self):
        if self._engine_sweep is None:
            taus = np.geomspace(0.05, 20.0, 40)
            reports = [run_ness(apply_axis(heat_engine_preset(), "tau", t)) for t in taus]
            self._engine_sweep = (taus, reports)
        return self._engine_sweep


def criterion_1(shared: _Shared) -> CriterionResult:
    """Lyapunov solution equals the iterated-map fixed point."""
    cfg = fixed_config(0.1, 1.0, -2.0, lam=0.1, tau=1.0)
    bundle = build_bundle(cfg)
    c_direct = bundle.solve_ness()
    c = np.zeros_like(c_direct)
    for _ in range(100000):
        c_next = preb_step(c, bundle.cycle, bundle.p_s)
        if np.max(np.abs(c_next - c)) < 1e-12:
            c = c_next
            break
        c = c_next
    diff = float(np.max(np.abs(c_direct - c)))
    return CriterionResult("C01", "Lyapunov vs iterated-map oracle",
                           f"max diff {diff:.3e}", "< 1e-8", diff < 1e-8)


def criterion_2(shared: _Shared) -> CriterionResult:
    """Conservation laws and Carnot bounds across the (tau, lambda, preset) grid."""
    worst = {"first_law": 0.0, "sigma": 0.0, "number": 0.0, "carnot": 0.0}
    for preset in (heat_engine_preset, refrigerator_preset):
        for lam in (0.05, 0.2, 1.0):
            for tau in np.geomspace(0.1, 20.0, 5):
                rep = run_ness(apply_axis(preset(lam=lam), "tau", tau))
                scale = max(abs(rep.qdot[0]), abs(rep.qdot[1]), abs(rep.p_ext),
                            abs(rep.p_chem), abs(rep.hdot_b[0]), abs(rep.hdot_b[1]), 1e-12)
                worst["first_law"] = max(worst["first_law"],
                                         abs(rep.p - rep.qdot[0] - rep.qdot[1]) / scale)
                worst["sigma"] = max(worst["sigma"], -rep.sigma)
                worst["number"] = max(worst["number"], abs(rep.ndot[0] + rep.ndot[1]))
                if rep.eta is not None:
                    worst["carnot"] = max(worst["carnot"], rep.eta - rep.eta_c)
                if rep.cop is not None:
                    worst["carnot"] = max(worst["carnot"], rep.cop - rep.cop_c)
    ok = (worst["first_law"] < 1e-8 and worst["sigma"] < 1e-10
          and worst["number"] < 1e-10 and worst["carnot"] < 1e-12)
    measured = (f"first-law {worst['first_law']:.2e}, -sigma {worst['sigma']:.2e}, "
                f"N-sum {worst['number']:.2e}, bound excess {worst['carnot']:.2e}")
    return CriterionResult("C02", "conservation suite on the 5x3x2 grid", measured,
                           "1e-8 / 1e-10 / 1e-10 / 1e-12", ok)


def criterion_3(shared: _Shared) -> CriterionResult:
    """Narrow-bath limit reproduces the single-site predictions."""
    rep_e = run_ness(heat_engine_preset(lam=1e-3))
    rep_f = run_ness(refrigerator_preset(lam=1e-3))
    pred_e = collisional_limit(OMEGA01, OMEGA02, -2.0, 0.1, 1.0)
    pred_f = collisional_limit(OMEGA01, OMEGA02, -2.0, 0.7, 1.0)
    eta_err = abs(rep_e.eta - pred_e.eta0) / pred_e.eta0 if rep_e.eta else np.inf
    cop_err = abs(rep_f.cop - pred_f.cop0) / pred_f.cop0 if rep_f.cop else np.inf
    # tight-coupling defects, relative to the heat rates
    tc = 0.0
    for rep in (rep_e, rep_f):
        defects = tight_coupling_check(rep, (OMEGA01, OMEGA02), -2.0)
        tc = max(tc, *(d / abs(q) for d, q in zip(defects, rep.qdot)))
    ok = eta_err < 0.05 and cop_err < 0.05 and tc < 0.02
    measured = (f"eta {rep_e.eta:.4f} vs {pred_e.eta0} ({eta_err:.2%}), "
                f"COP {rep_f.cop:.4f} vs {pred_f.cop0:.4f} ({cop_err:.2%}), "
                f"tight-coupling {tc:.2%}")
    return CriterionResult("C03", "collisional limit at lambda = 1e-3", measured,
                           "5% / 5% / 2%", ok)


def _rho_to_mu(rho: float) -> float:
    # rho = (omega02 - mu) / (omega01 - mu) inverted at the fixed peak positions
    return (OMEGA01 * rho - OMEGA02) / (rho - 1.0)


def criterion_4(shared: _Shared) -> CriterionResult:
    """Machine regimes appear only inside their collisional windows."""
    rhos = np.linspace(-0.49, 1.49, 61)
    tol = 1e-10
    violations = 0
    for rho in rhos:
        rep = run_ness(fixed_config(0.4, 1.0, _rho_to_mu(rho), 0.05, 1.0))
        if rep.p_ext < -tol and not (0.4 < rho < 1.0):
            violations += 1
        if rep.qdot[1] < -tol and not (0.0 < rho < 0.4):
            violations += 1
    scan = []
    for rho in rhos:
        rep = run_ness(fixed_config(0.4, 1.0, _rho_to_mu(rho), 1e-3, 1.0))
        scan.append((abs(rep.p_ext), abs(rep.qdot[1])))
    scan = np.array(scan)
    rep_b = run_ness(fixed_config(0.4, 1.0, _rho_to_mu(0.4), 1e-3, 1.0))
    ratio_p = abs(rep_b.p_ext) / scan[:, 0].max()
    ratio_q = abs(rep_b.qdot[1]) / scan[:, 1].max()
    ok = violations == 0 and ratio_p < 1e-3 and ratio_q < 1e-3
    measured = (f"{violations} window violations; boundary ratios "
                f"P_ext {ratio_p:.2e}, Q2 {ratio_q:.2e}")
    return CriterionResult("C04", "regime windows over the level-ratio scan", measured,
                           "0 violations, ratios < 1e-3", ok)


def criterion_5(shared: _Shared) -> CriterionResult:
    """Large cycle times converge to the always-coupled steady state."""
    neg = run_negf(heat_engine_preset(lam=1.0))
    rep20 = run_ness(apply_axis(heat_engine_preset(lam=1.0), "tau", 20.0))
    rep28 = run_ness(apply_axis(heat_engine_preset(lam=1.0), "tau", 28.0))
    negf_err = max(abs(rep20.qdot[ell] - neg.qdot[ell]) / abs(neg.qdot[ell])
                   for ell in range(2))
    cauchy = max(abs(rep20.qdot[ell] - rep28.qdot[ell]) / abs(rep20.qdot[ell])
                 for ell in range(2))
    taus, reports = shared.engine_tau_sweep()
    p_max = max(abs(r.p_ext) for r in reports)
    p_tail = abs(reports[-1].p_ext)
    decay = p_tail / p_max
    # the broad-bath family for reference: its switching power decays only as 1/tau,
    # so at tau = 20 it sits well above the 2% mark of its own peak
    p_broad_max = max(abs(run_ness(apply_axis(heat_engine_preset(lam=1.0), "tau", t)).p_ext)
                      for t in np.geomspace(0.3, 10.0, 12))
    decay_broad = abs(rep20.p_ext) / p_broad_max
    ok = negf_err < 0.05 and cauchy < 0.01 and decay < 0.02
    measured = (f"NEGF rel err {negf_err:.2%}, Cauchy 20/28 {cauchy:.2%}, "
                f"P_ext tail/peak {decay:.2%} (broad-bath family {decay_broad:.2%})")
    return CriterionResult("C05", "large-tau convergence to the autonomous NESS",
                           measured, "5% / 1% / 2%", ok)


def criterion_6(shared: _Shared) -> CriterionResult:
    """Approach rate r grows monotonically out of the small-tau regime."""
    worst = np.inf
    for lam in (0.05, 1.0):
        rs = []
        for tau in np.geomspace(0.01, 0.5, 10):
            rep = run_ness(apply_axis(heat_engine_preset(lam=lam), "tau", tau))
            rs.append(rep.r)
        worst = min(worst, float(np.min(np.diff(rs))))
    return CriterionResult("C06", "slowdown regime: r strictly increasing in tau",
                           f"min increment {worst:.3e}", "> 0", worst > 0)


def criterion_7(shared: _Shared) -> CriterionResult:
    """Peak irreversibility and peak performance coincide at finite tau."""
    taus, reports = shared.engine_tau_sweep()
    sigma = np.array([r.sigma for r in reports])
    p_ext = np.array([r.p_ext for r in reports])
    tau_sigma = float(taus[int(np.argmax(sigma))])
    tau_power = float(taus[int(np.argmax(-p_ext))])
    etas = [r.eta for r in reports if r.eta is not None]
    engine_exists = len(etas) > 0 and max(etas) > 0
    tail_is_engine = reports[-1].regime == REGIME_HEAT_ENGINE
    ok = (0.3 <= tau_sigma <= 3.0 and 0.3 <= tau_power <= 3.0
          and engine_exists and not tail_is_engine)
    measured = (f"argmax sigma at tau={tau_sigma:.3g}, argmax -P_ext at tau={tau_power:.3g}, "
                f"max eta {max(etas) if etas else float('nan'):.3f}, "
                f"tail regime {reports[-1].regime}")
    return CriterionResult("C07", "most-irreversible point is the best operating point",
                           measured, "both argmax in [0.3, 3]; engine only at finite tau", ok)


def criterion_8(shared: _Shared) -> CriterionResult:
    """Carnot references at the three quoted temperature pairs."""
    eta_c = carnot_efficiency(0.1, 1.0)
    cop_c = carnot_cop(0.7, 1.0)
    ratio = curzon_ahlborn_efficiency(0.4, 1.0) / carnot_efficiency(0.4, 1.0)
    ok = (abs(eta_c - 0.9) < 1e-12 and abs(cop_c - 7.0 / 3.0) < 1e-12
          and abs(ratio - 0.6126) < 5e-4)
    measured = f"eta_c {eta_c}, COP_c {cop_c:.12f}, CA ratio {ratio:.6f}"
    return CriterionResult("C08", "Carnot reference values", measured,
                           "0.9 / 7:3 exact, ratio 0.6126 +- 5e-4", ok)


def criterion_9(shared: _Shared) -> CriterionResult:
    """Chain-map golden values, parity, and cross-method agreement."""
    sf = SpectralFunction.lorentzian(KAPPA, 0.01, OMEGA01, CUTOFF)
    rec = chain_map_recursion(sf, 2)
    tri = chain_map_tridiag(sf, 2)
    residual_rec = chain_map_recursion(sf, 1).residual
    idx = int(np.argmin(np.abs(residual_rec.omega - OMEGA01)))
    res_peak = float(residual_rec.values[idx])
    golden = (abs(rec.hop[0] - 1.0) < 0.02 and abs(rec.eps[0] - 2.0) < 0.02
              and abs(tri.hop[0] - 1.0) < 0.02 and abs(tri.eps[0] - 2.0) < 0.02
              and abs(res_peak - 0.02) < 0.002)
    flat = chain_map_recursion(SpectralFunction.flat(0.5, CUTOFF), 8)
    parity = float(np.max(np.abs(flat.eps))) < 1e-8 * float(np.max(flat.hop))
    cross = 0.0
    for lam in (0.1, 1.0):
        sfl = SpectralFunction.lorentzian(KAPPA, lam, OMEGA01, CUTOFF)
        a = chain_map_recursion(sfl, 9)
        b = chain_map_tridiag(sfl, 9)
        floor = 1e-2 * b.hop_asym
        for x, y in ((a.eps[:8], b.eps[:8]), (a.hop[:8], b.hop[:8])):
            cross = max(cross, float(np.max(np.abs(x - y) /
                                            np.maximum(np.maximum(np.abs(x), np.abs(y)), floor))))
    ok = golden and parity and cross < 1e-3
    measured = (f"g0 {rec.hop[0]:.4f}/{tri.hop[0]:.4f}, eps1 {rec.eps[0]:.4f}/{tri.eps[0]:.4f}, "
                f"residual peak {res_peak:.4f}, parity {parity}, cross {cross:.2e}")
    return CriterionResult("C09", "chain-map golden values and cross-agreement", measured,
                           "+-0.02 / +-10% / 1e-3", ok)


def criterion_10(shared: _Shared) -> CriterionResult:
    """Per-step laws along a cold-start trajectory, and its rates at convergence."""
    cfg = heat_engine_preset()
    _, steps, report = run_trajectory(cfg, 200)
    worst_first_law = 0.0
    worst_sigma = 0.0
    worst_closure = 0.0
    for st in steps:
        scale = max(abs(st.w), abs(st.q[0]), abs(st.q[1]), abs(st.du), 1.0)
        worst_first_law = max(worst_first_law, st.first_law_defect / scale)
        worst_sigma = max(worst_sigma, -st.sigma)
        energy_closure = abs(st.du + sum(st.dh_b) + sum(st.dh_sb))
        particle_closure = abs(st.dn_s + st.dn[0] + st.dn[1])
        worst_closure = max(worst_closure, energy_closure, particle_closure)
    tail = cumulative_thermo(steps[180:], cfg.process.tau)
    rate_err = max(abs(tail.p_ext - report.p_ext) / abs(report.p_ext),
                   abs(tail.qdot[0] - report.qdot[0]) / abs(report.qdot[0]),
                   abs(tail.qdot[1] - report.qdot[1]) / abs(report.qdot[1]))
    ok = (worst_first_law < 1e-9 and worst_sigma < 1e-10 and worst_closure < 1e-10
          and rate_err < 1e-6)
    measured = (f"first-law {worst_first_law:.2e}, -Sigma {worst_sigma:.2e}, "
                f"closure {worst_closure:.2e}, tail-rate err {rate_err:.2e}")
    return CriterionResult("C10", "trajectory thermodynamics over 200 cold-start cycles",
                           measured, "1e-9 / 1e-10 / 1e-10 / 1e-6", ok)


CRITERIA: dict[str, Callable[[_Shared], CriterionResult]] = {
    "C01": criterion_1, "C02": criterion_2, "C03": criterion_3, "C04": criterion_4,
    "C05": criterion_5, "C06": criterion_6, "C07": criterion_7, "C08": criterion_8,
    "C09": criterion_9, "C10": criterion_10,
}

QUICK_SET = ("C01", "C03", "C06", "C08", "C09")


def run_validation(level: str) -> list[CriterionResult]:
    """Run the criteria of a level: 'quick' is the sub-minute subset, 'full' everything."""
    if level not in ("quick", "full"):
        raise ValueError("level must be 'quick' or 'full'")
    ids = QUICK_SET if level == "quick" else CRITERIA
    shared = _Shared()
    results = []
    for cid in ids:
        start = time.perf_counter()
        try:
            res = CRITERIA[cid](shared)
        except Exception as exc:  # a crash is a failure, not an abort
            res = CriterionResult(cid, "criterion crashed", f"{type(exc).__name__}: {exc}",
                                  "-", False)
        res.seconds = time.perf_counter() - start
        results.append(res)
    return results
