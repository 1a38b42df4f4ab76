"""Correctness gate applied to every benchmark op and to one reference point per run.

Steady-state reports must satisfy the conservation laws of release criterion
C02 at the tolerances pinned in ``preb.validation``; NEGF reports must have
sigma >= 0, Qdot1 + Qdot2 = P_chem and occupations in [0, 1].  The reference
point of each workload must reproduce the values recorded in
``reference.json``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# criterion C02 tolerances (preb.validation.criterion_2)
FIRST_LAW_TOL = 1e-8       # relative to the largest rate of the report
SIGMA_TOL = 1e-10          # sigma >= -SIGMA_TOL
NUMBER_TOL = 1e-10         # |Ndot1 + Ndot2|
CARNOT_TOL = 1e-12         # eta <= eta_c, COP <= COP_c
# NEGF: the quadrature works to an absolute tolerance of 1e-9
NEGF_BALANCE_TOL = 1e-10   # relative to the largest heat / chemical rate
OCCUPATION_TOL = 1e-8
# reference points: a change of the chain map's discretization may shift
# chain-mapped values by up to 9e-5 relative, the level at which doubling the
# chains moves them today; the NEGF quadrature alone is far tighter
REFERENCE_TOL = {"tau_sweep": 1e-4, "deep_cold": 1e-4, "deep_warm": 1e-4, "negf": 1e-6}
REFERENCE_FILE = Path(__file__).with_name("reference.json")


class CheckFailed(Exception):
    """An op produced output that violates the correctness gate."""


def _finite(values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


def ness_values(rep) -> list[float]:
    return [rep.p_ext, rep.p_chem, rep.qdot[0], rep.qdot[1], rep.ndot[0], rep.sigma]


def ness_problems(rep) -> list[str]:
    """Violations of the C02 laws by one steady-state report."""
    values = ness_values(rep) + [rep.ndot[1], rep.hdot_b[0], rep.hdot_b[1]]
    if not _finite(values):
        return [f"non-finite report values {values}"]
    out = []
    scale = max(abs(rep.qdot[0]), abs(rep.qdot[1]), abs(rep.p_ext), abs(rep.p_chem),
                abs(rep.hdot_b[0]), abs(rep.hdot_b[1]), 1e-12)
    first_law = abs(rep.p - rep.qdot[0] - rep.qdot[1]) / scale
    if not first_law < FIRST_LAW_TOL:
        out.append(f"first law defect {first_law:.3e}")
    if not -rep.sigma < SIGMA_TOL:
        out.append(f"negative entropy production {rep.sigma:.3e}")
    n_sum = abs(rep.ndot[0] + rep.ndot[1])
    if not n_sum < NUMBER_TOL:
        out.append(f"particle current imbalance {n_sum:.3e}")
    if rep.eta is not None and not rep.eta - rep.eta_c < CARNOT_TOL:
        out.append(f"efficiency {rep.eta} above Carnot {rep.eta_c}")
    if rep.cop is not None and not rep.cop - rep.cop_c < CARNOT_TOL:
        out.append(f"COP {rep.cop} above Carnot {rep.cop_c}")
    return out


def sweep_problems(rows, points: int) -> list[str]:
    if len(rows) != points:
        return [f"sweep returned {len(rows)} rows, expected {points}"]
    out = []
    for row in rows:
        if row.error is not None or row.report is None:
            out.append(f"tau={row.value:.6g}: {row.error}")
            continue
        out.extend(f"tau={row.value:.6g}: {p}" for p in ness_problems(row.report))
    return out


def negf_values(rep) -> list[float]:
    return [rep.current, rep.energy_current, rep.qdot[0], rep.qdot[1],
            *np.asarray(rep.occupations, dtype=float).tolist()]


def negf_problems(rep) -> list[str]:
    """Violations of the laws an NEGF report must satisfy."""
    values = negf_values(rep) + [rep.p_chem, rep.sigma]
    if not _finite(values):
        return [f"non-finite NEGF values {values}"]
    out = []
    if not -rep.sigma < SIGMA_TOL:
        out.append(f"negative entropy production {rep.sigma:.3e}")
    scale = max(abs(rep.qdot[0]), abs(rep.qdot[1]), abs(rep.p_chem), 1e-12)
    balance = abs(rep.qdot[0] + rep.qdot[1] - rep.p_chem) / scale
    if not balance < NEGF_BALANCE_TOL:
        out.append(f"Qdot1 + Qdot2 - P_chem = {balance:.3e} (relative)")
    occ = np.asarray(rep.occupations, dtype=float)
    if occ.size == 0 or np.any(occ < -OCCUPATION_TOL) or np.any(occ > 1 + OCCUPATION_TOL):
        out.append(f"occupations {occ.tolist()} outside [0, 1]")
    return out


def load_reference() -> dict:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


def reference_problems(workload: str, groups: list[list[float]], recorded: dict) -> list[str]:
    """Compare each group (one report) with its recorded values, relative to its scale."""
    expected = recorded[workload]["values"]
    tol = REFERENCE_TOL[workload]
    if len(groups) != len(expected):
        return [f"reference: {len(groups)} reports, recorded {len(expected)}"]
    out = []
    for k, (got, want) in enumerate(zip(groups, expected)):
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        if got.shape != want.shape or not np.all(np.isfinite(got)):
            out.append(f"reference report {k}: got {got.tolist()}")
            continue
        dev = float(np.max(np.abs(got - want)) / max(float(np.max(np.abs(want))), 1e-300))
        if not dev <= tol:
            out.append(f"reference report {k}: deviation {dev:.3e} > {tol:g}")
    return out
