import numpy as np
import pytest

from conftest import engine_config
from preb.builder import SystemSpec, assemble_hamiltonian
from preb.chainmap import ChainCoefficients, chain_map_tridiag
from preb.negf import LeadSelfEnergy, landauer_currents, transmission_table
from preb.pipeline import run_negf, run_ness
from preb.propagator import step_propagator
from preb.spectral import BathThermalSpec, SpectralFunction

LEAD1 = SpectralFunction.lorentzian(2.0, 1.0, 2.0, 6.0)
LEAD2 = SpectralFunction.lorentzian(2.0, 1.0, -1.0, 6.0)
SYSTEM = SystemSpec.two_site(1.0)


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
        rate of the occupation equals the plateau height J.
        """
        height, cut = 0.5, 8.0
        sf = SpectralFunction.flat(height, cut)
        chain = chain_map_tridiag(sf, 40)
        ghost = ChainCoefficients(eps=np.zeros(40), hop=np.full(40, 1e-300))
        system = SystemSpec(h_s=np.zeros((1, 1)), coupling_sites=(0, 0))
        setup = assemble_hamiltonian(system, [chain, ghost], 40)
        t = 4.0
        u, _ = step_propagator(setup, t)
        survival = abs(u[0, 0]) ** 2
        assert survival == pytest.approx(np.exp(-height * t), rel=0.05)


class TestLandauer:
    def test_no_bias_no_currents(self):
        spec = BathThermalSpec(1.0, -0.5)
        rep = landauer_currents(SYSTEM, (LEAD1, LEAD2), (spec, spec))
        assert abs(rep.current) < 1e-10
        assert abs(rep.energy_current) < 1e-10

    def test_disjoint_supports_block_transport(self):
        grid1 = np.linspace(1.0, 2.0, 65)
        grid2 = np.linspace(-2.0, -1.0, 65)
        lead1 = SpectralFunction.tabulated(grid1, np.full(65, 0.3))
        lead2 = SpectralFunction.tabulated(grid2, np.full(65, 0.3))
        rep = landauer_currents(SYSTEM, (lead1, lead2),
                                (BathThermalSpec(0.5, 0.0), BathThermalSpec(2.0, 0.0)))
        assert rep.current == 0.0 and rep.energy_current == 0.0

    def test_swapping_leads_negates_currents(self):
        specs = (BathThermalSpec(0.1, -2.0), BathThermalSpec(1.0, -2.0))
        fwd = landauer_currents(SYSTEM, (LEAD1, LEAD2), specs)
        bwd = landauer_currents(SYSTEM, (LEAD2, LEAD1), (specs[1], specs[0]))
        assert fwd.current == pytest.approx(-bwd.current, abs=1e-8)
        assert fwd.energy_current == pytest.approx(-bwd.energy_current, abs=1e-8)

    def test_transmission_bounded_by_one(self):
        _, t = transmission_table(SYSTEM, (LEAD1, LEAD2))
        assert np.all(t >= 0) and np.all(t <= 1 + 1e-9)

    def test_entropy_rate_nonnegative_for_sampled_biases(self):
        for beta1, beta2, mu in ((0.1, 1.0, -2.0), (0.5, 2.0, 0.0), (1.0, 3.0, 1.0)):
            rep = landauer_currents(SYSTEM, (LEAD1, LEAD2),
                                    (BathThermalSpec(beta1, mu), BathThermalSpec(beta2, mu)))
            assert rep.sigma > -1e-10

    def test_equal_potentials_give_balanced_heat(self):
        specs = (BathThermalSpec(0.1, -2.0), BathThermalSpec(1.0, -2.0))
        rep = landauer_currents(SYSTEM, (LEAD1, LEAD2), specs)
        assert rep.p_chem == 0.0
        assert rep.qdot[0] == pytest.approx(-rep.qdot[1], rel=1e-12)


def test_refreshed_steady_state_approaches_the_autonomous_one():
    cfg = engine_config(lam=1.0, tau=20.0)
    preb_rep = run_ness(cfg)
    negf_rep = run_negf(cfg)
    for ell in range(2):
        rel = abs(preb_rep.qdot[ell] - negf_rep.qdot[ell]) / abs(negf_rep.qdot[ell])
        assert rel < 0.05
