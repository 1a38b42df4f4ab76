import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from conftest import bundle_setup, dense_hamiltonian, engine_config
from preb.builder import (SetupHamiltonian, assemble_hamiltonian, chain_length_for_tau,
                          copies_required, rethermalization_estimate, thermal_correlation)
from preb.chainmap import ChainCoefficients
from preb.pipeline import build_bundle
from preb.spectral import BathThermalSpec, fermi_occupation


def toy_chain(eps_vals, hop_vals):
    return ChainCoefficients(eps=np.asarray(eps_vals, dtype=float),
                             hop=np.asarray(hop_vals, dtype=float))


def band_matrix(setup) -> np.ndarray:
    """The dense tridiagonal matrix of the set-up's two bands."""
    d, e = setup.diagonal, setup.off_diagonal
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


def orthogonality_defect(modes) -> float:
    return float(np.max(np.abs(modes.T @ modes - np.eye(modes.shape[1]))))


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
        chain = toy_chain(np.zeros(7), np.ones(7))
        setup = assemble_hamiltonian(0.5, [chain, chain], l_b)
        assert setup.n_sites == 2 + 2 * l_b
        assert hasattr(type(setup), "eigensystem")  # on the class, as the tracer checks
        energies, _ = setup.eigensystem
        assert energies.shape == (2 + 2 * l_b,)

    def test_minimal_block_layout(self):
        """Path chain 1 head -> s0 -> s1 -> chain 2 head: one tridiagonal matrix."""
        chain1 = toy_chain([0.7], [0.4])
        chain2 = toy_chain([-0.3], [0.2])
        setup = assemble_hamiltonian(1.0, [chain1, chain2], 1)
        assert_array_equal(setup.diagonal, [0.7, 0.0, 0.0, -0.3])
        assert_array_equal(setup.off_diagonal, [0.4, 1.0, 0.2])
        expected = np.array([
            [0.7, 0.4, 0.0, 0.0],
            [0.4, 0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, 0.2],
            [0.0, 0.0, 0.2, -0.3],
        ])
        assert_array_equal(dense_hamiltonian(setup), expected)

    def test_exact_symmetry_for_random_inputs(self):
        """The bands are exactly the site-by-site matrix, which is exactly symmetric."""
        rng = np.random.default_rng(3)
        for _ in range(5):
            chains = [toy_chain(rng.normal(size=6), rng.uniform(0.1, 2.0, 6)) for _ in range(2)]
            setup = assemble_hamiltonian(rng.normal(), chains, 6)
            h = dense_hamiltonian(setup)
            assert np.max(np.abs(h - h.T)) == 0.0
            assert_array_equal(band_matrix(setup), h)

    def test_near_zero_coupling_gives_block_diagonal(self):
        chain = toy_chain([0.5, 0.5], [1e-300, 2.0])
        setup = assemble_hamiltonian(1.0, [chain, chain], 2)
        h = dense_hamiltonian(setup)
        s, b1, b2 = setup.system, setup.bath1, setup.bath2
        assert np.max(np.abs(h[s, b1])) <= 1e-300
        assert np.max(np.abs(h[s, b2])) <= 1e-300

    def test_a_chain_shorter_than_the_set_up_is_refused(self):
        """Chains are cut, never padded: a set-up longer than a chain is an error."""
        chain = toy_chain([0.1, 0.2, 0.2], [0.9, 3.1, 2.9])
        setup = assemble_hamiltonian(1.0, [chain, chain], 2)
        for b in (setup.bath1, setup.bath2):
            assert_array_equal(setup.diagonal[b], chain.eps[:2])
        with pytest.raises(ValueError, match="chain length"):
            assemble_hamiltonian(1.0, [chain, chain], 4)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            assemble_hamiltonian(1.0, [toy_chain([0.0], [1.0])], 1)
        with pytest.raises(ValueError, match="common length"):
            SetupHamiltonian(1.0, ((np.zeros(3), np.ones(3)), (np.zeros(2), np.ones(2))))
        with pytest.raises(ValueError, match="common length"):
            SetupHamiltonian(1.0, ((np.zeros(3), np.ones(2)), (np.zeros(3), np.ones(3))))


class TestEigensystems:
    @pytest.mark.parametrize("tau", [1.0, 50.0])
    def test_match_the_dense_oracle(self, tau):
        """Eigenvalues of the dense matrix to 1e-13, and orthonormal eigenvectors to 1e-13."""
        setup = bundle_setup(build_bundle(engine_config(tau=tau)))
        h = dense_hamiltonian(setup)
        energies, modes = setup.eigensystem
        assert modes.shape == (setup.n_sites, setup.n_sites)
        assert np.max(np.abs(energies - np.linalg.eigvalsh(h))) <= 1e-13
        assert orthogonality_defect(modes) <= 1e-13
        assert np.max(np.abs(h @ modes - modes * energies)) <= 1e-13
        for b, (chain_energies, chain_modes) in zip((setup.bath1, setup.bath2),
                                                    setup.chain_eigensystems):
            block = h[b, b]
            assert np.max(np.abs(chain_energies - np.linalg.eigvalsh(block))) <= 1e-13
            assert orthogonality_defect(chain_modes) <= 1e-13
            assert np.max(np.abs(block @ chain_modes - chain_modes * chain_energies)) <= 1e-13

    def test_single_site_chains(self):
        setup = assemble_hamiltonian(0.5, [toy_chain([0.7], [0.4]), toy_chain([-0.3], [0.2])], 1)
        assert [e.tolist() for e, _ in setup.chain_eigensystems] == [[0.7], [-0.3]]
        assert_allclose(setup.eigensystem[0], np.linalg.eigvalsh(dense_hamiltonian(setup)),
                        rtol=0, atol=1e-15)


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
