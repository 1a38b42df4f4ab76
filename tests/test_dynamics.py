import dataclasses
import io

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import (bundle_setup, decoupled_bundle_pieces, dense_hamiltonian, dense_propagator,
                      engine_config)
from preb.builder import thermal_correlation
from preb import cli
from preb.dynamics import (ENTROPY_CLIP, HOLE, PARTICLE, StepThermo, cumulative_thermo,
                           gaussian_entropy, in_frame, preb_step, preb_trajectory,
                           step_thermodynamics)
from preb.pipeline import build_bundle, run_negf
from preb.propagator import cycle_map
from preb.sweeps import apply_axis
from preb.thermo import ness_rates


def account(c_s, bundle) -> StepThermo:
    """The accounting of one cycle of ``bundle`` from the particle-frame state ``c_s``.

    The state moves to the bundle's frame, where the map makes its successor.
    """
    c = in_frame(c_s, bundle.frame)
    return step_thermodynamics(c, preb_step(c, bundle.cycle, bundle.p_s), bundle.cycle,
                               bundle.occupations, bundle.specs, bundle.frame)


def random_system_state(rng, n=2):
    """Hermitian matrix with eigenvalues in (0, 1): a valid occupation matrix."""
    w = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = w + w.conj().T
    occ = 1.0 / (1.0 + np.exp(np.linalg.eigvalsh(h)))
    _, v = np.linalg.eigh(h)
    return (v * occ) @ v.conj().T


def dense_entropy(c_s) -> float:
    """The entropy from ``eigvalsh`` occupations, clipped as ``gaussian_entropy`` clips them."""
    occ = np.clip(np.linalg.eigvalsh(c_s), ENTROPY_CLIP, 1.0 - ENTROPY_CLIP)
    return float(-np.sum(occ * np.log(occ) + (1.0 - occ) * np.log(1.0 - occ)))


class TestGaussianEntropy:
    def test_pure_states_have_zero_entropy(self):
        assert gaussian_entropy(np.zeros((2, 2))) == pytest.approx(0.0, abs=1e-11)
        assert gaussian_entropy(np.eye(2)) == pytest.approx(0.0, abs=1e-11)

    def test_maximally_mixed_two_sites(self):
        assert gaussian_entropy(0.5 * np.eye(2)) == pytest.approx(2 * np.log(2))

    def test_single_mode_reference_value(self):
        nu = 0.2689414213699951  # Fermi factor at beta * (w - mu) = 1
        assert gaussian_entropy(np.diag([nu, 0.0])) == \
            pytest.approx(0.5822031088882179, rel=1e-12)

    def test_basis_invariance(self):
        rng = np.random.default_rng(0)
        c = random_system_state(rng)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        assert gaussian_entropy(q @ c @ q.T) == pytest.approx(gaussian_entropy(c))

    @pytest.mark.parametrize("shape", [(1, 1), (3, 3), (4, 4), (2,)])
    def test_only_two_site_states(self, shape):
        with pytest.raises(ValueError, match="2 x 2"):
            gaussian_entropy(np.zeros(shape))

    def test_closed_form_matches_the_eigensolver(self):
        """Random states, and near-pure ones with occupations within 1e-15 of 0 and 1."""
        rng = np.random.default_rng(11)
        states = [random_system_state(rng) for _ in range(200)]
        for _ in range(200):
            occ = rng.choice([0.0, 1.0], size=2) + rng.uniform(-1e-15, 1e-15, size=2)
            if rng.random() < 0.5:  # one pure mode and one mixed one
                occ[rng.integers(2)] = rng.random()
            _, v = np.linalg.eigh(random_system_state(rng))
            states.append((v * np.clip(occ, 0.0, 1.0)) @ v.conj().T)
        for c in states:
            assert abs(gaussian_entropy(c) - dense_entropy(c)) < 1e-13


class TestPrebStep:
    def test_fixed_point_is_invariant(self, engine_bundle):
        c = engine_bundle.solve_ness()
        c_next = preb_step(c, engine_bundle.cycle, engine_bundle.p_s)
        assert np.max(np.abs(c_next - c)) < 1e-12

    def test_first_step_from_empty_system_is_the_drive(self, engine_bundle):
        c0 = np.zeros_like(engine_bundle.p_s)
        assert_allclose(preb_step(c0, engine_bundle.cycle, engine_bundle.p_s),
                        engine_bundle.p_s, atol=0)

    def test_closed_system_preserves_trace(self):
        setup, _, _ = decoupled_bundle_pieces()
        cycle = cycle_map(setup, 1.0)
        p0 = np.zeros((2, 2))
        rng = np.random.default_rng(1)
        c = random_system_state(rng)
        for _ in range(5):
            c = preb_step(c, cycle, p0)
        rng2 = np.random.default_rng(1)
        assert np.trace(c).real == pytest.approx(
            np.trace(random_system_state(rng2)).real, abs=1e-12)

    def test_evolution_convention_interference(self):
        """Current-carrying superposition: site-1 occupation follows (1 + sin 2gt)/2.

        Pins the dagger order of the evolution; the wrong transpose gives
        (1 - sin 2gt)/2.
        """
        setup, _, _ = decoupled_bundle_pieces()
        phi = np.array([1.0, 1.0j]) / np.sqrt(2.0)
        c = np.outer(phi.conj(), phi)
        tau = 0.3
        cycle = cycle_map(setup, tau)
        for m in range(1, 6):
            c = preb_step(c, cycle, np.zeros((2, 2)))
            expected = 0.5 * (1.0 + np.sin(2.0 * m * tau))
            assert c[0, 0].real == pytest.approx(expected, abs=1e-12)


class TestTrajectory:
    def test_single_step_matches_step(self, engine_bundle):
        c0 = np.zeros_like(engine_bundle.p_s)
        traj = preb_trajectory(c0, 1, engine_bundle.cycle, engine_bundle.p_s)
        assert_allclose(traj.states[1],
                        preb_step(c0, engine_bundle.cycle, engine_bundle.p_s))

    def test_geometric_decay_at_squared_radius(self):
        """Log-distance slope equals 2 ln(radius): occupations are quadratic in amplitudes."""
        bundle = build_bundle(engine_config(lam=0.2))
        c_ness = bundle.solve_ness()
        c0 = np.zeros_like(c_ness)
        traj = preb_trajectory(c0, 60, bundle.cycle, bundle.p_s, c_ness=c_ness)
        # distances from 5e-10 down to 2e-14, clear of the ~1e-16 roundoff floor
        steps = np.arange(30, 46)
        slope = np.polyfit(steps, np.log(traj.dist_to_ness[steps]), 1)[0]
        assert slope == pytest.approx(2.0 * np.log(bundle.cycle.spectral_radius), rel=0.02)

    def test_states_stay_physical(self, engine_bundle):
        c0 = np.zeros_like(engine_bundle.p_s)
        traj = preb_trajectory(c0, 30, engine_bundle.cycle, engine_bundle.p_s)
        for c in traj.states:
            assert np.max(np.abs(c - c.conj().T)) < 1e-10
            occ = np.linalg.eigvalsh(c)
            assert np.all(occ > -1e-10) and np.all(occ < 1 + 1e-10)

    def test_long_cycle_endpoint_matches_autonomous_occupations(self):
        cfg = engine_config(lam=1.0, tau=20.0)
        bundle = build_bundle(cfg)
        c_ness = bundle.solve_ness()
        c0 = np.zeros_like(c_ness)
        traj = preb_trajectory(c0, 25, bundle.cycle, bundle.p_s, c_ness=c_ness)
        assert traj.dist_to_ness[-1] < 1e-8
        occ = np.diag(traj.states[-1]).real
        negf = run_negf(cfg).occupations
        assert np.max(np.abs(occ - negf) / negf) < 0.02


def dense_step_thermodynamics(c_s, bundle) -> StepThermo:
    """The accounting on the full evolved state ct = U^dag c0 U: the reference.

    The set-up is assembled again from the bundle's chains, and the chains
    start in their dense thermal states from ``thermal_correlation``.  In a
    hole-frame bundle the whole initial state is replaced by 1 - c0, and every
    change is minus that of the state so evolved; the entropy needs no sign.
    """
    setup, specs = bundle_setup(bundle), bundle.specs
    u = dense_propagator(setup, bundle.cycle.tau)
    h, s = dense_hamiltonian(setup), setup.system
    bath_slices = (setup.bath1, setup.bath2)
    n = setup.n_sites
    c0 = np.zeros((n, n), dtype=complex)
    c0[s, s] = c_s
    for b, spec in zip(bath_slices, specs):
        c0[b, b] = thermal_correlation(h[b, b], spec)
    sign = 1.0
    if bundle.frame == HOLE:
        c0, sign = np.eye(n) - c0, -1.0
    ct = u.conj().T @ c0 @ u

    def energy(c, rows, cols):
        return float(np.sum(h[rows, cols] * c[rows, cols]).real)

    du = sign * (energy(ct, s, s) - energy(c0, s, s))
    dh_b, dh_sb, dn, q = [], [], [], []
    for b, spec in zip(bath_slices, specs):
        db = sign * (energy(ct, b, b) - energy(c0, b, b))
        dnum = sign * float((np.trace(ct[b, b]) - np.trace(c0[b, b])).real)
        dh_b.append(db)
        dh_sb.append(sign * (energy(ct, s, b) + energy(ct, b, s)))
        dn.append(dnum)
        q.append(db - spec.mu * dnum)
    ds = gaussian_entropy(c0[s, s]) - gaussian_entropy(ct[s, s])
    return StepThermo(du=du, w_ext=-(dh_sb[0] + dh_sb[1]),
                      w_chem=-(specs[0].mu * dn[0] + specs[1].mu * dn[1]),
                      q=(q[0], q[1]), ds=ds,
                      sigma=specs[0].beta * q[0] + specs[1].beta * q[1] - ds,
                      dn=(dn[0], dn[1]),
                      dn_s=sign * float((np.trace(ct[s, s]) - np.trace(c0[s, s])).real),
                      dh_b=(dh_b[0], dh_b[1]), dh_sb=(dh_sb[0], dh_sb[1]))


def _fields(st: StepThermo) -> dict:
    out = {}
    for field in dataclasses.fields(st):
        value = getattr(st, field.name)
        for i, x in enumerate(value if isinstance(value, tuple) else (value,)):
            out[f"{field.name}[{i}]"] = x
    return out


# du, ds, sigma and dn_s are differences of O(1) system quantities, formed in
# float64 from the states: below tau = 0.1 the oracle cases hold them to an
# absolute 3 times their measured worst (1.1e-15), not to the step's scale
STATE_FIELDS = ("du[0]", "ds[0]", "sigma[0]", "dn_s[0]")
STATE_ROUNDOFF = 3.3e-15


class TestStepThermodynamics:
    @pytest.mark.parametrize("tau", [1e-3, 1e-2, 0.1, 1.0, 20.0, 50.0])
    def test_matches_dense_accounting(self, tau):
        """Every field equals a reference's to 1e-12 of the step's largest field.

        Up to tau = 0.1 the reference is the 40-digit ``oracle_step``; from
        tau = 1 on it is the dense float64 ct = U^dag c0 U, which at tau = 0.1
        is itself about 3e-12 off the oracle.  Relative to the largest field
        of the step: single fields such as Q = dH_B - mu dN cancel far below
        the step's scale, and there the float64 reference carries that
        scale's roundoff.  The mu and beta points after the first reuse its
        set-up, and with it its cycle operators.  The mu = 0.7 point has a
        mean Fermi factor above 1/2, so it and the float64 reference run in
        the hole frame.
        """
        base = engine_config(tau=tau)
        points = [base] + [apply_axis(base, axis, value) for axis, value in
                           (("mu", -1.3), ("mu", 0.7), ("beta1", 0.3))]
        frames = [build_bundle(cfg).frame for cfg in points]
        assert frames == [PARTICLE, PARTICLE, HOLE, PARTICLE]
        if tau <= 0.1:
            oracle_step = pytest.importorskip("oracle").oracle_step  # needs mpmath
        for cfg in points:
            bundle = build_bundle(cfg)
            chains = [chain.cut(bundle.l_b) for chain in bundle.chains]
            rng = np.random.default_rng(11)
            for _ in range(4):
                c = random_system_state(rng)
                got = _fields(account(c, bundle))
                if tau <= 0.1:
                    want = _fields(oracle_step(cfg, chains, c))
                else:
                    want = _fields(dense_step_thermodynamics(c, bundle))
                scale = max(abs(x) for x in want.values())
                for name, x in want.items():
                    floor = STATE_ROUNDOFF if tau < 0.1 and name in STATE_FIELDS else 0.0
                    assert abs(got[name] - x) <= 1e-12 * scale + floor, (cfg.bath1, name)

    def test_first_law_and_closures_on_random_states(self, engine_bundle):
        rng = np.random.default_rng(9)
        for _ in range(4):
            c = random_system_state(rng)
            st = account(c, engine_bundle)
            scale = max(abs(st.w), abs(st.q[0]), abs(st.q[1]), abs(st.du), 1.0)
            assert st.first_law_defect < 1e-9 * scale
            assert abs(st.du + sum(st.dh_b) + sum(st.dh_sb)) < 1e-10
            assert abs(st.dn_s + st.dn[0] + st.dn[1]) < 1e-10

    def test_entropy_production_nonnegative(self, engine_bundle):
        rng = np.random.default_rng(10)
        for _ in range(4):
            st = account(random_system_state(rng), engine_bundle)
            assert st.sigma > -1e-10

    def test_filled_band_equilibrium_is_silent(self):
        """Fully filled global state: the cycle moves no energy, particles, or entropy.

        The hole frame sees an empty state with empty baths, so every change
        is exactly zero, not roundoff times mu = 1e4.
        """
        bundle = build_bundle(engine_config().replace(
            bath1=engine_config().bath1.__class__(lam=0.2, beta=1.0, mu=1e4),
            bath2=engine_config().bath2.__class__(lam=0.2, omega0=-1.0, beta=1.0, mu=1e4)))
        assert bundle.frame == HOLE
        c_s = np.eye(2, dtype=complex)
        st = account(c_s, bundle)
        assert all(x == 0.0 for x in _fields(st).values())

    def test_infinite_temperature_equilibrium_is_silent(self):
        cfg = engine_config(lam=0.2)
        cfg = cfg.replace(bath1=cfg.bath1.__class__(lam=0.2, beta=1e-12, mu=0.0),
                          bath2=cfg.bath2.__class__(lam=0.2, omega0=-1.0, beta=1e-12, mu=0.0))
        bundle = build_bundle(cfg)
        st = account(0.5 * np.eye(2, dtype=complex), bundle)
        assert abs(st.sigma) < 1e-9

    def test_equal_baths_still_dissipate_switching_work(self):
        """With equal baths the cycle is not reversible: coupling work is dissipated."""
        cfg = engine_config(lam=0.2)
        cfg = cfg.replace(bath1=cfg.bath1.__class__(lam=0.2, beta=1.0, mu=-2.0))
        bundle = build_bundle(cfg)
        c_s = thermal_correlation(bundle.cycle.h_s, bundle.specs[0]).astype(complex)
        st = account(c_s, bundle)
        assert st.sigma > 1e-3  # genuinely positive, not a numerical zero


class TestCumulative:
    def test_single_step_totals(self, engine_bundle):
        st = account(np.zeros((2, 2)), engine_bundle)
        tot = cumulative_thermo([st], tau=1.0)
        assert tot.w_ext == st.w_ext
        assert tot.q == st.q
        assert tot.p_ext == pytest.approx(st.w_ext)

    def test_empty_sequence_is_zero(self):
        tot = cumulative_thermo([], tau=1.0)
        assert tot.n_steps == 0 and tot.w_ext == 0.0 and tot.sigma == 0.0

    def test_entropy_production_accumulates_monotonically(self, engine_bundle):
        c = np.zeros((2, 2), dtype=complex)
        running = 0.0
        for _ in range(25):
            st = account(c, engine_bundle)
            assert st.sigma > -1e-10
            running_next = running + st.sigma
            assert running_next >= running - 1e-10
            running = running_next
            c = preb_step(c, engine_bundle.cycle, engine_bundle.p_s)

    def test_tail_rates_match_fixed_point_report(self, engine_bundle):
        c = engine_bundle.solve_ness()
        steps = []
        for _ in range(5):
            steps.append(account(c, engine_bundle))
            c = preb_step(c, engine_bundle.cycle, engine_bundle.p_s)
        tot = cumulative_thermo(steps, tau=engine_bundle.cycle.tau)
        rep = ness_rates(engine_bundle.solve_ness(), engine_bundle.cycle,
                         engine_bundle.p_s, engine_bundle.occupations, engine_bundle.specs)
        assert tot.p_ext == pytest.approx(rep.p_ext, rel=1e-10)
        assert tot.qdot[0] == pytest.approx(rep.qdot[0], rel=1e-10)


def test_global_entropy_identity(engine_bundle):
    """Summed production equals total bath entropy flow minus the system entropy drop.

    The per-step entropy bookkeeping telescopes, so the cumulative value must
    reproduce Sigma(n tau) = sum_l beta_l Q_l(n tau) - (S(0) - S(n tau)) exactly;
    this arbitrates the sign convention of the per-step entropy change.
    """
    c = np.zeros((2, 2), dtype=complex)
    steps = []
    for _ in range(30):
        steps.append(account(c, engine_bundle))
        c = preb_step(c, engine_bundle.cycle, engine_bundle.p_s)
    tot = cumulative_thermo(steps, tau=1.0)
    beta1, beta2 = (s.beta for s in engine_bundle.specs)
    s_first = gaussian_entropy(np.zeros((2, 2)))
    s_last = gaussian_entropy(c)
    expected = beta1 * tot.q[0] + beta2 * tot.q[1] - (s_first - s_last)
    assert tot.sigma == pytest.approx(expected, abs=1e-10)


def test_trajectory_csv_format(engine_bundle):
    c0 = np.zeros((2, 2), dtype=complex)
    traj = preb_trajectory(c0, 3, engine_bundle.cycle, engine_bundle.p_s,
                           c_ness=engine_bundle.solve_ness())
    steps = [account(c, engine_bundle) for c in traj.states[:-1]]
    buf = io.StringIO()
    cli._write_table(buf, cli.TRAJECTORY_COLUMNS,
                     cli._trajectory_rows(steps, traj.dist_to_ness[1:]))
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == ",".join(cli.TRAJECTORY_COLUMNS)
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[7]) > 0  # Sigma of the first step
