import numpy as np
import pytest
from numpy.testing import assert_allclose

from preb.builder import (SetupHamiltonian, assemble_hamiltonian, chain_length_for_tau,
                          copies_required, rethermalization_estimate, thermal_correlation)
from preb.chainmap import ChainCoefficients
from preb.spectral import BathThermalSpec, fermi_occupation


def toy_chain(eps_vals, hop_vals):
    return ChainCoefficients(eps=np.asarray(eps_vals, dtype=float),
                             hop=np.asarray(hop_vals, dtype=float))


class TestChainLength:
    def test_reference_values(self):
        assert chain_length_for_tau(3.0, 1.0, 5) == 8
        assert chain_length_for_tau(3.0, 1e-9, 5) == 6
        assert chain_length_for_tau(2.5, 2.0, 0) == 5

    def test_monotone_in_tau(self):
        lengths = [chain_length_for_tau(3.0, t, 5) for t in np.linspace(0.01, 30, 400)]
        assert np.all(np.diff(lengths) >= 0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            chain_length_for_tau(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            chain_length_for_tau(1.0, 0.0, 5)


class TestCopies:
    def test_reference_values(self):
        assert copies_required(0.5, 1.0) == 2
        assert copies_required(1.5, 1.0) == 3
        assert copies_required(2.0, 1.0) == 3

    def test_rethermalization_scale(self):
        assert rethermalization_estimate(0.5, 10.0) == pytest.approx(10.0)
        assert rethermalization_estimate(0.05, 10.0) == pytest.approx(100.0)
        assert rethermalization_estimate(0.5, 1.0) == pytest.approx(1.0)  # bare bound


class TestAssemble:
    @pytest.mark.parametrize("l_b", [1, 4, 7])
    def test_set_up_counters_the_tracer_reads(self, l_b):
        """The benchmark tracer reads ``n_sites`` and forces ``eigensystem`` on the set-up.

        It skips either one silently when it is missing, so its ``builder.n``
        and ``builder.eigh_s`` metrics would read 0; this pins both names.
        """
        chain = toy_chain(np.zeros(3), np.ones(3))
        setup = assemble_hamiltonian(0.5, [chain, chain], l_b)
        assert setup.n_sites == 2 + 2 * l_b
        assert hasattr(type(setup), "eigensystem")  # on the class, as the tracer checks
        energies, _ = setup.eigensystem
        assert energies.shape == (2 + 2 * l_b,)

    def test_minimal_block_layout(self):
        chain1 = toy_chain([0.7], [0.4])
        chain2 = toy_chain([-0.3], [0.2])
        setup = assemble_hamiltonian(1.0, [chain1, chain2], 1)
        expected = np.array([
            [0.0, 1.0, 0.4, 0.0],
            [1.0, 0.0, 0.0, 0.2],
            [0.4, 0.0, 0.7, 0.0],
            [0.0, 0.2, 0.0, -0.3],
        ])
        assert_allclose(setup.h, expected)

    def test_exact_symmetry_for_random_inputs(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            chain = toy_chain(rng.normal(size=6), rng.uniform(0.1, 2.0, 6))
            setup = assemble_hamiltonian(rng.normal(), [chain, chain], 6)
            assert np.max(np.abs(setup.h - setup.h.T)) == 0.0

    def test_near_zero_coupling_gives_block_diagonal(self):
        chain = toy_chain([0.5, 0.5], [1e-300, 2.0])
        setup = assemble_hamiltonian(1.0, [chain, chain], 2)
        s, b1, b2 = setup.system, setup.bath1, setup.bath2
        assert np.max(np.abs(setup.h[s, b1])) <= 1e-300
        assert np.max(np.abs(setup.h[s, b2])) <= 1e-300

    def test_padding_beyond_available_depth(self):
        chain = toy_chain([0.1, 0.2, 0.2], [0.9, 3.1, 2.9])
        setup = assemble_hamiltonian(1.0, [chain, chain], 6)
        b1 = setup.bath1
        diag = np.diag(setup.h[b1, b1])
        assert_allclose(diag[3:], chain.eps_asym)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            assemble_hamiltonian(1.0, [toy_chain([0.0], [1.0])], 1)
        with pytest.raises(ValueError, match="common length"):
            SetupHamiltonian(1.0, ((np.zeros(3), np.ones(3)), (np.zeros(2), np.ones(2))))
        with pytest.raises(ValueError, match="common length"):
            SetupHamiltonian(1.0, ((np.zeros(3), np.ones(2)), (np.zeros(3), np.ones(3))))


class TestThermalCorrelation:
    def test_filled_band_is_identity(self):
        h_b = np.diag([0.0, 1.0, -1.0]) + np.diag([0.4, 0.4], 1) + np.diag([0.4, 0.4], -1)
        c = thermal_correlation(h_b, BathThermalSpec(1e9, 100.0))
        assert_allclose(c, np.eye(3), atol=1e-12)

    def test_single_site(self):
        spec = BathThermalSpec(2.0, 0.3)
        c = thermal_correlation(np.array([[0.9]]), spec)
        assert c[0, 0] == pytest.approx(fermi_occupation(spec, 0.9))

    def test_trace_equals_mode_sum(self):
        rng = np.random.default_rng(7)
        diag = rng.normal(size=6)
        off = rng.uniform(0.2, 1.0, 5)
        h_b = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        spec = BathThermalSpec(0.8, -0.4)
        c = thermal_correlation(h_b, spec)
        modes = np.linalg.eigvalsh(h_b)
        assert np.trace(c) == pytest.approx(np.sum(fermi_occupation(spec, modes)),
                                            rel=1e-12)

    def test_commutes_with_block_and_is_physical(self):
        rng = np.random.default_rng(7)
        diag = rng.normal(size=6)
        off = rng.uniform(0.2, 1.0, 5)
        h_b = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        c = thermal_correlation(h_b, BathThermalSpec(1.3, 0.1))
        assert np.max(np.abs(c - c.T)) < 1e-12
        assert np.max(np.abs(c @ h_b - h_b @ c)) < 1e-10
        occ = np.linalg.eigvalsh(c)
        assert np.all(occ > 0) and np.all(occ < 1)

    def test_rejects_asymmetric_block(self):
        with pytest.raises(ValueError):
            thermal_correlation(np.array([[0.0, 1.0], [0.5, 0.0]]),
                                BathThermalSpec(1.0, 0.0))
