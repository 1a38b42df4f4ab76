"""Exact symmetries of the model, each mapping one configuration onto another.

Each case runs the whole pipeline (chain map, set-up, cycle map, frame rule,
accounting) on both configurations, and needs no oracle:

- particle-hole conjugation, J_l(w) -> J_l(-w) and mu_l -> -mu_l: the dimer
  is bipartite, so c_i -> (-1)^i c_i^dag maps the set-up onto itself.  Heat,
  work and entropy production stay; the particle currents change sign.  The
  conjugate point's mean Fermi factor is 1 minus the original's, so the
  frame rule runs it in the other frame;
- bath exchange: the dimer is symmetric under s0 <-> s1, so swapping the
  baths swaps their heat and particle currents;
- g -> -g, a gauge transformation (flip s1 and all of chain 2): nothing moves.
"""

import dataclasses

import numpy as np
import pytest

from conftest import engine_config, fridge_config, write_spectral_table
from preb.config import BathConfig
from preb.dynamics import HOLE, PARTICLE
from preb.pipeline import build_bundle

RATES = ("p_ext", "p_chem", "qdot1", "qdot2", "ndot1", "ndot2", "sigma")
# the largest deviation over RATES, relative to the largest of |P_ext|, |Qdot|
# and |Ndot|: 3 times the worst measured on the grid below
TOLERANCE = {"particle_hole": 1.85e-12, "exchange": 6.16e-13, "gauge": 0.0}


def _report(cfg):
    bundle = build_bundle(cfg)
    rep = bundle.report()
    rates = dict(zip(RATES, (rep.p_ext, rep.p_chem, *rep.qdot, *rep.ndot, rep.sigma)))
    return rates, bundle.frame


def _mirrored(bath: BathConfig, tmp_path) -> BathConfig:
    """The bath with J(w) -> J(-w) and mu -> -mu."""
    if bath.table is None:
        return dataclasses.replace(bath, omega0=-bath.omega0, mu=-bath.mu)
    omega, values = np.loadtxt(bath.table, delimiter=",", skiprows=1).T
    path = tmp_path / "mirrored.csv"
    write_spectral_table(path, -omega[::-1], values[::-1])
    return dataclasses.replace(bath, table=str(path), mu=-bath.mu)


def _image(cfg, symmetry, tmp_path):
    """The configuration that ``symmetry`` maps ``cfg`` onto."""
    if symmetry == "particle_hole":
        return cfg.replace(bath1=_mirrored(cfg.bath1, tmp_path),
                           bath2=_mirrored(cfg.bath2, tmp_path))
    if symmetry == "exchange":
        return cfg.replace(bath1=cfg.bath2, bath2=cfg.bath1)
    return cfg.replace(g=-cfg.g)


def _expected(rates: dict, symmetry) -> dict:
    """The image's rates, as ``symmetry`` predicts them from the original's."""
    out = dict(rates)
    if symmetry == "particle_hole":
        out["ndot1"], out["ndot2"] = -rates["ndot1"], -rates["ndot2"]
    elif symmetry == "exchange":
        out["qdot1"], out["qdot2"] = rates["qdot2"], rates["qdot1"]
        out["ndot1"], out["ndot2"] = rates["ndot2"], rates["ndot1"]
    return out


def _config(preset, lam, tau, tmp_path):
    """A preset point; "tabulated" is the heat engine with bath 1 an off-centre tabulated peak."""
    if preset == "fridge":
        return fridge_config(lam=lam, tau=tau)
    cfg = engine_config(lam=lam, tau=tau)
    if preset == "engine":
        return cfg
    omega = np.linspace(-5.0, 5.0, 401)
    path = tmp_path / "peak.csv"
    write_spectral_table(path, omega, 0.4 + 1.6 / (1.0 + ((omega - 1.5) / 0.6) ** 2))
    return cfg.replace(bath1=BathConfig(kind="tabulated", table=str(path),
                                        beta=cfg.bath1.beta, mu=cfg.bath1.mu))


def symmetry_deviation(preset, lam, tau, symmetry, tmp_path) -> float:
    """How far the image's report is from the prediction, relative to the report's scale."""
    cfg = _config(preset, lam, tau, tmp_path)
    (rates, frame), (got, image_frame) = _report(cfg), _report(_image(cfg, symmetry, tmp_path))
    if symmetry == "particle_hole":  # the conjugate point runs in the other frame
        assert {frame, image_frame} == {PARTICLE, HOLE}
    want = _expected(rates, symmetry)
    scale = max(abs(rates[name]) for name in ("p_ext", "qdot1", "qdot2", "ndot1", "ndot2"))
    return max(abs(got[name] - want[name]) for name in RATES) / scale


@pytest.mark.parametrize("symmetry", sorted(TOLERANCE))
@pytest.mark.parametrize("tau", [1e-2, 0.3, 1.0, 20.0])
@pytest.mark.parametrize("lam", [0.05, 1.0])
@pytest.mark.parametrize("preset", ["engine", "fridge", "tabulated"])
def test_symmetry_maps_the_report(preset, lam, tau, symmetry, tmp_path):
    assert symmetry_deviation(preset, lam, tau, symmetry, tmp_path) <= TOLERANCE[symmetry]
