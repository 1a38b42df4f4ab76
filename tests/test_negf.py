import logging
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

import negf_oracle
from conftest import dense_propagator, engine_config, fixed_config
from preb import cli
from preb.builder import assemble_hamiltonian
from preb.chainmap import ChainCoefficients, chain_map_tridiag
from preb.config import heat_engine_preset, parse_config
from preb.errors import NumericsError
from preb.negf import (LeadSelfEnergy, _integrand, _resolvent_abs2, landauer_currents,
                       transmission_table)
from preb.pipeline import bath_pairs, run_negf, run_ness
from preb.spectral import BathThermalSpec, SpectralFunction, fermi_occupation

ROOT = Path(__file__).resolve().parent.parent
LEAD1 = SpectralFunction.lorentzian(2.0, 1.0, 2.0, 6.0)
LEAD2 = SpectralFunction.lorentzian(2.0, 1.0, -1.0, 6.0)
TABLE_OMEGA = np.linspace(-4.0, 4.0, 161)
TABLE_LEAD = SpectralFunction.tabulated(TABLE_OMEGA, 0.3 * (1 + np.cos(np.pi * TABLE_OMEGA / 4)))


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
        u = dense_propagator(setup, t)
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
        g11, g12, g22 = _resolvent_abs2(g, w, (s1.real, s2.real), (-2 * s1.imag, -2 * s2.imag))
        got = np.stack([g11, g12, g12, g22], axis=-1).reshape(-1, 2, 2)
        assert np.allclose(got, want, rtol=1e-12, atol=0)

    def test_singular_frequency_is_nudged_into_the_lower_half_plane(self):
        """At w = g with Re Sigma = J = 0, det A = w^2 - g^2 is exactly 0.

        That frequency alone moves to w + 1e-12 i, so |G^r|^2 stays finite and
        equals the closed form there; the other frequency is left as it is.
        """
        g = 1.0
        w = np.array([g, 0.3])
        zero = np.zeros(2)
        with pytest.warns(UserWarning, match="singular resolvent"):
            got = _resolvent_abs2(g, w, (zero, zero), (zero, zero))
        z = w + 1e-12j * (w == g)
        det = z * z - g * g
        want = (np.abs(z / det) ** 2, np.abs(g / det) ** 2, np.abs(z / det) ** 2)
        for part, ref in zip(got, want):
            assert np.isfinite(part).all()
            assert np.allclose(part, ref, rtol=1e-12, atol=0)


def _config_case(cfg):
    leads, specs = bath_pairs(cfg)
    return cfg.g, leads, specs


KERNEL_CASES = [
    *(pytest.param(*_config_case(heat_engine_preset(lam=lam)), id=f"ladder-{lam:.0e}")
      for lam in np.geomspace(1e-3, 1.0, 5)),
    pytest.param(*_config_case(parse_config(ROOT / "configs" / "refrigerator.ini")),
                 id="refrigerator"),
    pytest.param(1.0, (TABLE_LEAD, LEAD2), (BathThermalSpec(0.5, -1.0), BathThermalSpec(2.0, 0.5)),
                 id="tabulated"),
]


class TestKernel:
    @pytest.mark.parametrize("g, leads, specs", KERNEL_CASES)
    def test_rows_match_the_complex_integrand(self, g, leads, specs):
        """Each row is within 1e-13 of its largest magnitude of the complex reference.

        The frequencies reach past both supports, and past the tabulated
        lead's grid, where Re Sigma is held at its end value.
        """
        sigmas = (LeadSelfEnergy(leads[0]), LeadSelfEnergy(leads[1]))
        w = np.linspace(-6.3, 6.3, 20_001)
        got = _integrand(g, specs, sigmas)(w)
        want = negf_oracle.landauer_rows(g, specs, sigmas, w)
        assert got.shape == want.shape == (4, w.size)
        scale = np.max(np.abs(want), axis=1)
        assert (scale > 0).all()
        assert (np.max(np.abs(got - want), axis=1) <= 1e-13 * scale).all()

    @pytest.mark.parametrize("g, leads, specs", KERNEL_CASES[-3:])
    def test_transmission_table_matches_the_complex_resolvent(self, g, leads, specs):
        w, t = transmission_table(g, leads)
        s1, s2 = (negf_oracle.self_energy(LeadSelfEnergy(sf), w) for sf in leads)
        want = negf_oracle.transmission(s1, s2, negf_oracle.resolvent_abs2(g, s1, s2, w))
        assert np.max(np.abs(t - want)) <= 1e-13 * np.max(want)


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


class TestRefinementCap:
    NARROW_INI = textwrap.dedent("""\
        [bath1]
        lambda = 1e-4
        beta = 0.1
        mu = -2.0

        [bath2]
        lambda = 1e-4
        beta = 1.0
        mu = -2.0
    """)

    def test_capped_intervals_reach_the_report_and_the_cli(self, tmp_path, capsys):
        """Both baths at lambda = 1e-4 cap thousands of intervals; ``preb negf`` says so."""
        cfg = heat_engine_preset(lam=1e-4)
        rep = run_negf(cfg)
        assert rep.capped_intervals > 0
        path = tmp_path / "narrow.ini"
        path.write_text(self.NARROW_INI)
        assert parse_config(path) == cfg
        assert cli.main(["negf", str(path)]) == 0
        out, err = capsys.readouterr()
        assert out.count("\n") == 2
        warned = [line for line in err.splitlines() if "quadrature intervals" in line]
        assert len(warned) == 1
        assert f"{rep.capped_intervals} quadrature intervals hit the refinement cap" in warned[0]

    def test_a_bare_cli_run_names_the_cap_once(self, tmp_path):
        """Without logging configured, the library's warning stays off stderr: the CLI says it."""
        path = tmp_path / "narrow.ini"
        path.write_text(self.NARROW_INI)
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        out = subprocess.run([sys.executable, "-m", "preb", "negf", str(path)],
                             capture_output=True, text=True, check=True, env=env)
        assert len([line for line in out.stderr.splitlines() if "refinement cap" in line]) == 1

    @pytest.mark.parametrize("config", ["heat_engine.ini", "refrigerator.ini", "sweep_tau.ini"])
    def test_shipped_configs_are_not_capped(self, config, capsys):
        path = ROOT / "configs" / config
        assert run_negf(parse_config(path)).capped_intervals == 0
        assert cli.main(["negf", str(path)]) == 0
        assert capsys.readouterr().err == ""


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
