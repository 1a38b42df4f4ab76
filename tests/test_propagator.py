import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose, assert_array_equal

from conftest import bundle_setup, decoupled_bundle_pieces, dense_hamiltonian, dense_propagator
from preb.builder import SetupHamiltonian
from preb.errors import NoUniqueNessError, NumericsError
from preb.propagator import (_lyapunov_operator, cycle_map, drive_matrix, solve_dlyap_direct,
                             solve_dlyap_doubling, stability_rate, step_propagator)


def star_basis(setup) -> np.ndarray:
    """W, with W[k, p] the amplitude of path site p in star mode k.

    Chain 1's modes come first, then s0 and s1 at ``setup.system``, then
    chain 2's modes, each chain's in the order of its energies.
    """
    n, l_b = setup.n_sites, setup.l_b
    sites = np.arange(n)
    w = np.zeros((n, n))
    w[setup.system, setup.system] = np.eye(2)
    for rows, b, (_, phi) in zip((slice(0, l_b), slice(l_b + 2, n)),
                                 (setup.bath1, setup.bath2), setup.chain_eigensystems):
        w[rows, sites[b]] = phi.T
    return w


class TestStepPropagator:
    def test_zero_time_is_identity(self, engine_bundle):
        d, _ = step_propagator(bundle_setup(engine_bundle), 0.0)
        assert np.all(d == 0.0)

    def test_diagonal_hamiltonian(self):
        """No hopping anywhere: D is the diagonal expm1(-i e tau) in star order."""
        chain = (np.array([0.3, -0.5, 1.1]), np.zeros(3))
        setup = SetupHamiltonian(0.0, (chain, chain))
        d, _ = step_propagator(setup, 0.7)
        star = np.array([-0.5, 0.3, 1.1, 0.0, 0.0, -0.5, 0.3, 1.1])
        assert_allclose(np.diag(d), np.expm1(-1j * star * 0.7), rtol=1e-14, atol=0)
        assert np.all(d - np.diag(np.diag(d)) == 0.0)

    def test_group_property(self, engine_bundle):
        """(1 + D_1)(1 + D_2) = 1 + D_12 for cycles t1, t2 and t1 + t2."""
        rng = np.random.default_rng(5)
        setup = bundle_setup(engine_bundle)
        one = np.eye(setup.n_sites)
        for _ in range(3):
            t1, t2 = rng.uniform(0.1, 3.0, size=2)
            d1, _ = step_propagator(setup, t1)
            d2, _ = step_propagator(setup, t2)
            d12, _ = step_propagator(setup, t1 + t2)
            assert np.max(np.abs((one + d1) @ (one + d2) - (one + d12))) < 1e-10

    def test_unitarity_at_long_times(self, broad_bundle):
        setup = bundle_setup(broad_bundle)
        d, defect = step_propagator(setup, 20.0)
        assert defect < 1e-10
        u = np.eye(setup.n_sites) + d
        assert np.max(np.abs(u.conj().T @ u - np.eye(setup.n_sites))) < 1e-13

    def test_corrupted_eigensystem_is_rejected(self):
        """A cached eigensystem whose modes are no longer orthonormal gives a non-unitary U."""
        setup, _, _ = decoupled_bundle_pieces()
        energies, modes = np.linalg.eigh(dense_hamiltonian(setup))
        modes[:, 0] *= 1.01
        setup.__dict__["eigensystem"] = (energies, modes)  # what the cached property holds
        with pytest.raises(NumericsError, match="lost unitarity"):
            step_propagator(setup, 1.0)
        with pytest.raises(NumericsError, match="lost unitarity"):
            cycle_map(setup, 1.0)

    def test_nan_in_the_modes_is_rejected(self):
        """A NaN defect fails the unitarity check, before the set-up reaches an eigensolver."""
        setup, _, _ = decoupled_bundle_pieces()
        energies, modes = np.linalg.eigh(dense_hamiltonian(setup))
        modes[3, 2] = np.nan
        setup.__dict__["eigensystem"] = (energies, modes)
        with pytest.raises(NumericsError, match="lost unitarity"):
            step_propagator(setup, 1.0)
        with pytest.raises(NumericsError, match="lost unitarity"):
            cycle_map(setup, 1.0)

    def test_real_arithmetic_matches_the_complex_exponential(self, engine_bundle):
        """1 + D is W U W^T for the dense U = exp(-i H tau) and the star basis W."""
        setup = bundle_setup(engine_bundle)
        _, modes = setup.eigensystem
        w, one = star_basis(setup), np.eye(setup.n_sites)
        for tau in (1e-5, 1.3, 20.0):
            d, defect = step_propagator(setup, tau)
            u = w @ dense_propagator(setup, tau) @ w.T
            assert np.max(np.abs(one + d - u)) < 1e-14
            assert defect == np.max(np.abs(modes.T @ modes - one))


class TestDriveMatrix:
    def test_decoupled_baths_inject_nothing(self):
        setup, occupations, _ = decoupled_bundle_pieces()
        p = drive_matrix(cycle_map(setup, 1.0), *occupations)
        assert np.max(np.abs(p)) < 1e-280

    def test_empty_baths_inject_nothing(self, engine_bundle):
        zero = np.zeros(engine_bundle.l_b)
        p = drive_matrix(engine_bundle.cycle, zero, zero)
        assert np.max(np.abs(p)) == 0.0

    def test_full_baths_saturate_unitarity_identity(self, engine_bundle):
        full = np.ones(engine_bundle.l_b)
        p = drive_matrix(engine_bundle.cycle, full, full)
        g = engine_bundle.cycle.g_s
        assert np.max(np.abs(p - (np.eye(g.shape[0]) - g.conj().T @ g))) < 1e-10

    def test_output_is_hermitian_psd(self, engine_bundle):
        p = engine_bundle.p_s
        assert np.max(np.abs(p - p.conj().T)) == 0.0
        assert np.min(np.linalg.eigvalsh(p)) > -1e-12

    def test_matches_the_dense_sum_over_chain_modes(self, engine_bundle):
        """P_S = sum_l A_l^dag diag(f_l) A_l with A_l = V_l^T U[B_l, S], formed densely."""
        setup = bundle_setup(engine_bundle)
        u = dense_propagator(setup, engine_bundle.cycle.tau)
        rng = np.random.default_rng(3)
        for f1, f2 in [engine_bundle.occupations, rng.random((2, engine_bundle.l_b))]:
            dense = 0
            for b, (_, v), f in zip((setup.bath1, setup.bath2), setup.chain_eigensystems,
                                    (f1, f2)):
                a = v.T @ u[b, setup.system]
                dense = dense + (a.conj().T * f) @ a
            assert np.max(np.abs(drive_matrix(engine_bundle.cycle, f1, f2) - dense)) < 1e-15

    def test_occupations_must_match_the_chains(self, engine_bundle):
        f1, f2 = engine_bundle.occupations
        with pytest.raises(ValueError, match="chain length"):
            drive_matrix(engine_bundle.cycle, f1[:-1], f2)


class TestLyapunovSolvers:
    def test_memoryless_map(self):
        p = np.array([[0.3, 0.1j], [-0.1j, 0.5]])
        assert_allclose(solve_dlyap_direct(np.zeros((2, 2)), p), p, atol=1e-14)
        assert_allclose(solve_dlyap_doubling(np.zeros((2, 2)), p), p, atol=1e-14)

    def test_scalar_geometric_series(self):
        g = 0.5 * np.eye(2)
        c = solve_dlyap_direct(g, np.eye(2))
        assert_allclose(c, (4.0 / 3.0) * np.eye(2), atol=1e-12)
        c2 = solve_dlyap_doubling(g, np.eye(2))
        assert_allclose(c2, (4.0 / 3.0) * np.eye(2), atol=1e-12)

    def test_solvers_agree_with_each_other_and_scipy(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            n = 4
            g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            g *= 0.9 / np.max(np.abs(np.linalg.eigvals(g)))
            w = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            p = w @ w.conj().T
            c1 = solve_dlyap_direct(g, p)
            c2 = solve_dlyap_doubling(g, p)
            c3 = scipy.linalg.solve_discrete_lyapunov(g.conj().T, p)
            assert np.max(np.abs(c1 - c2)) < 1e-10
            assert np.max(np.abs(c1 - c3)) < 1e-8

    def test_near_critical_radius(self):
        g = np.diag([1.0 - 1e-6, 0.3]).astype(complex)
        p = np.eye(2, dtype=complex)
        c = solve_dlyap_doubling(g, p)
        assert np.isfinite(c).all()
        assert c[0, 0].real > 1e5
        residual = np.max(np.abs(c - g.conj().T @ c @ g - p))
        assert residual < 1e-8 * np.max(np.abs(c))

    def test_unstable_map_is_rejected(self):
        g = np.eye(2, dtype=complex)
        with pytest.raises(NoUniqueNessError, match="no unique NESS"):
            solve_dlyap_direct(g, np.eye(2))
        with pytest.raises(NoUniqueNessError):
            solve_dlyap_doubling(1.001 * np.eye(2), np.eye(2))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_operator_is_the_kronecker_form(self, n):
        rng = np.random.default_rng(n)
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        dense = np.eye(n * n, dtype=complex) - np.kron(g.conj().T, g.T)
        assert_array_equal(_lyapunov_operator(g), dense)

    def test_nan_radius_is_not_stable(self):
        """The stored radius of a point is checked so that NaN fails, as a radius >= 1 does."""
        with pytest.raises(NoUniqueNessError, match="no unique NESS"):
            solve_dlyap_direct(0.5 * np.eye(2), np.eye(2), np.nan)

    def test_doubling_iteration_cap(self):
        g = (1 - 1e-9) * np.eye(2, dtype=complex)
        with pytest.raises(NumericsError, match="converge"):
            solve_dlyap_doubling(g, np.eye(2), max_doublings=3)

    def test_solution_is_physical_occupation_matrix(self, engine_bundle):
        c = engine_bundle.solve_ness()
        occ = np.linalg.eigvalsh(c)
        assert np.all(occ > -1e-10) and np.all(occ < 1 + 1e-10)
        residual = np.max(np.abs(
            c - engine_bundle.cycle.g_s.conj().T @ c @ engine_bundle.cycle.g_s
            - engine_bundle.p_s))
        assert residual < 1e-10 * max(1.0, np.max(np.abs(c)))

    def test_full_baths_fix_the_filled_system(self, engine_bundle):
        full = np.ones(engine_bundle.l_b)
        p = drive_matrix(engine_bundle.cycle, full, full)
        c = solve_dlyap_direct(engine_bundle.cycle.g_s, p)
        assert_allclose(c, np.eye(c.shape[0]), atol=1e-9)


class TestStabilityRate:
    def test_scalar_reference(self):
        radius, rate = stability_rate(0.5 * np.eye(3), 1.0)
        assert radius == pytest.approx(0.5)
        assert rate == pytest.approx(np.log(2.0))

    def test_decoupled_system_is_marginal(self):
        setup, _, _ = decoupled_bundle_pieces()
        radius, rate = stability_rate(cycle_map(setup, 1.0).g_s, 1.0)
        assert radius == pytest.approx(1.0, abs=1e-12)
        assert abs(rate) < 1e-10
