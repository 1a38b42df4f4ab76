import logging
import warnings

import numpy as np
import pytest

from conftest import engine_config, fixed_config
from preb.builder import assemble_hamiltonian
from preb.chainmap import ChainCoefficients, chain_map_tridiag
from preb.errors import NumericsError
from preb.negf import (LeadSelfEnergy, _resolvent_abs2, landauer_currents,
                       transmission_table)
from preb.pipeline import run_negf, run_ness
from preb.propagator import step_propagator
from preb.spectral import BathThermalSpec, SpectralFunction, fermi_occupation

LEAD1 = SpectralFunction.lorentzian(2.0, 1.0, 2.0, 6.0)
LEAD2 = SpectralFunction.lorentzian(2.0, 1.0, -1.0, 6.0)


class TestSelfEnergy:
    def test_imaginary_part_nonpositive_and_zero_outside(self):
        sig = LeadSelfEnergy(LEAD1)
        w = np.linspace(-10, 10, 801)
        vals = sig(w)
        assert np.all(vals.imag <= 0)
        outside = np.abs(w) > 6.0
        assert np.all(vals.imag[outside] == 0.0)

    def test_flat_band_broadening_is_half_height(self):
        height = 0.8
        sf = SpectralFunction.flat(height, 4.0)
        sig = LeadSelfEnergy(sf)
        assert -sig(0.0).imag == pytest.approx(height / 2)
        # the level broadening -2 Im Sigma is J itself
        assert -2 * sig(0.0).imag == pytest.approx(sf(0.0))

    def test_narrow_peak_broadening(self):
        sf = SpectralFunction.lorentzian(2.0, 0.01, 2.0, 6.0)
        assert -LeadSelfEnergy(sf)(2.0).imag == pytest.approx(2.0 / (2 * 0.01), rel=1e-6)

    def test_wide_band_decay_rate_locks_the_normalization(self):
        """An initially filled level on a wide flat band decays as exp(-J t).

        This pins the self-energy prefactor against the chain dynamics: the
        total squared chain coupling is (1/2pi) int J, so the golden-rule decay
        rate of the occupation equals the plateau height J.  The level is
        site 0 of a dimer with g = 0, whose site 1 sits on a ghost chain.
        """
        height, cut = 0.5, 8.0
        sf = SpectralFunction.flat(height, cut)
        chain = chain_map_tridiag(sf, 40)
        ghost = ChainCoefficients(eps=np.zeros(40), hop=np.full(40, 1e-300))
        setup = assemble_hamiltonian(0.0, [chain, ghost], 40)
        t = 4.0
        u, _ = step_propagator(setup, t)
        s0 = setup.system.start
        survival = abs(u[s0, s0]) ** 2
        assert survival == pytest.approx(np.exp(-height * t), rel=0.05)


class TestResolvent:
    def test_closed_form_matches_the_matrix_inverse(self):
        sigmas = (LeadSelfEnergy(LEAD1), LeadSelfEnergy(LEAD2))
        w = np.linspace(-6.5, 6.5, 1001)
        s1, s2 = sigmas[0](w), sigmas[1](w)
        g = 0.7
        a = w[:, None, None] * np.eye(2) - np.array([[0.0, g], [g, 0.0]], dtype=complex)
        a[:, 0, 0] -= s1
        a[:, 1, 1] -= s2
        want = np.abs(np.linalg.inv(a)) ** 2
        assert np.allclose(_resolvent_abs2(g, s1, s2, w), want, rtol=1e-12, atol=0)


class TestLandauer:
    def test_no_bias_no_currents(self):
        spec = BathThermalSpec(1.0, -0.5)
        rep = landauer_currents(1.0, (LEAD1, LEAD2), (spec, spec))
        assert abs(rep.current) < 1e-10
        assert abs(rep.energy_current) < 1e-10

    def test_disjoint_supports_block_transport(self, caplog):
        grid1 = np.linspace(1.0, 2.0, 65)
        grid2 = np.linspace(-2.0, -1.0, 65)
        lead1 = SpectralFunction.tabulated(grid1, np.full(65, 0.3))
        lead2 = SpectralFunction.tabulated(grid2, np.full(65, 0.3))
        with caplog.at_level(logging.WARNING, logger="preb.negf"):
            rep = landauer_currents(1.0, (lead1, lead2),
                                    (BathThermalSpec(0.5, 0.0), BathThermalSpec(2.0, 0.0)))
        assert rep.current == 0.0 and rep.energy_current == 0.0
        assert not [r for r in caplog.records if "refinement cap" in r.getMessage()]

    def test_swapping_leads_negates_currents(self):
        specs = (BathThermalSpec(0.1, -2.0), BathThermalSpec(1.0, -2.0))
        fwd = landauer_currents(1.0, (LEAD1, LEAD2), specs)
        bwd = landauer_currents(1.0, (LEAD2, LEAD1), (specs[1], specs[0]))
        assert fwd.current == pytest.approx(-bwd.current, abs=1e-8)
        assert fwd.energy_current == pytest.approx(-bwd.energy_current, abs=1e-8)

    def test_transmission_bounded_by_one(self):
        _, t = transmission_table(1.0, (LEAD1, LEAD2))
        assert np.all(t >= 0) and np.all(t <= 1 + 1e-9)

    def test_overflowing_transmission_raises(self):
        """g^2 overflows in the resolvent: a typed error, as landauer_currents raises, not nan."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericsError, match="transmission overflows"):
                transmission_table(1e200, (LEAD1, LEAD2))

    def test_entropy_rate_nonnegative_for_sampled_biases(self):
        for beta1, beta2, mu in ((0.1, 1.0, -2.0), (0.5, 2.0, 0.0), (1.0, 3.0, 1.0)):
            rep = landauer_currents(1.0, (LEAD1, LEAD2),
                                    (BathThermalSpec(beta1, mu), BathThermalSpec(beta2, mu)))
            assert rep.sigma > -1e-10

    def test_equal_potentials_give_balanced_heat(self):
        specs = (BathThermalSpec(0.1, -2.0), BathThermalSpec(1.0, -2.0))
        rep = landauer_currents(1.0, (LEAD1, LEAD2), specs)
        assert rep.p_chem == 0.0
        assert rep.qdot[0] == pytest.approx(-rep.qdot[1], rel=1e-12)


def test_refreshed_steady_state_approaches_the_autonomous_one():
    cfg = engine_config(lam=1.0, tau=20.0)
    preb_rep = run_ness(cfg)
    negf_rep = run_negf(cfg)
    for ell in range(2):
        rel = abs(preb_rep.qdot[ell] - negf_rep.qdot[ell]) / abs(negf_rep.qdot[ell])
        assert rel < 0.05


def _oracle(cfg, sub_cells=4, nodes=12, chunk=200_000):
    """(I, J, n1, n2) of ``cfg`` by a fixed Gauss-Legendre rule on the kink cells of Sigma.

    Each cell between consecutive lead-grid nodes, table nodes and support
    edges is cut into ``sub_cells`` equal pieces with ``nodes`` points each;
    the resolvent is the inverse of the 2 x 2 matrix by Cramer's rule.  On
    the cases below it agrees with 16 pieces of 16 points to 3e-15.
    """
    leads = (cfg.bath1.spectral_function(), cfg.bath2.spectral_function())
    specs = (BathThermalSpec(cfg.bath1.beta, cfg.bath1.mu),
             BathThermalSpec(cfg.bath2.beta, cfg.bath2.mu))
    sigmas = [LeadSelfEnergy(sf) for sf in leads]
    lo = min(sf.support[0] for sf in leads)
    hi = max(sf.support[1] for sf in leads)
    cells = np.unique(np.concatenate([sigmas[0].grid, sigmas[1].grid,
                                      [e for sf in leads for e in sf.support]]))
    cells = cells[(cells >= lo) & (cells <= hi)]
    edges = (cells[:-1, None] + np.outer(np.diff(cells), np.arange(sub_cells) / sub_cells)).ravel()
    edges = np.append(edges, hi)
    x, wt = np.polynomial.legendre.leggauss(nodes)
    g = cfg.g
    total = np.zeros(4)
    for k in range(0, edges.size - 1, chunk):
        a, b = edges[k:-1][:chunk], edges[k + 1:][:chunk]
        w = ((a + b)[:, None] + np.outer(b - a, x)).ravel() / 2
        weight = (np.outer(b - a, wt) / 2).ravel()
        s1, s2 = sigmas[0](w), sigmas[1](w)
        a11, a22 = w - s1, w - s2
        det = a11 * a22 - g * g
        g11, g12, g22 = a22 / det, g / det, a11 / det
        f1, f2 = fermi_occupation(specs[0], w), fermi_occupation(specs[1], w)
        j1, j2 = leads[0](w), leads[1](w)
        t = j1 * j2 * np.abs(g12) ** 2 * (f1 - f2)
        n1 = np.abs(g11) ** 2 * j1 * f1 + np.abs(g12) ** 2 * j2 * f2
        n2 = np.abs(g12) ** 2 * j1 * f1 + np.abs(g22) ** 2 * j2 * f2
        total += np.stack([t, w * t, n1, n2]) @ weight
    return total / (2 * np.pi)


@pytest.mark.parametrize("beta1, mu, lam", [
    *((0.1, -2.0, lam) for lam in np.geomspace(1e-3, 1.0, 5)),
    # a dressed resonance far from both Lorentzian peaks
    (0.478, -1.988, 1e-3),
])
def test_quadrature_meets_its_tolerance(beta1, mu, lam):
    """Every current and occupation is within QUAD_ABS_TOL = 1e-9 of a fixed-rule oracle."""
    cfg = fixed_config(beta1, 1.0, mu, lam, 1.0)
    rep = run_negf(cfg)
    got = np.array([rep.current, rep.energy_current, *rep.occupations])
    assert np.max(np.abs(got - _oracle(cfg))) < 1e-9
