import dataclasses
import logging
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import chain_from_csv
from preb import cli
from preb.chainmap import (ChainCoefficients, chain_map_recursion,
                           chain_map_tridiag, discretize_modes, star_to_chain)
from preb.config import parse_config
from preb.errors import NumericsError
from preb.pipeline import run_chainmap
from preb.spectral import SpectralFunction

ROOT = Path(__file__).resolve().parent.parent
NARROW = SpectralFunction.lorentzian(2.0, 0.01, 2.0, 6.0)
FLAT = SpectralFunction.flat(0.5, 6.0)
RESUME_LINE = "resuming with CGS2"


class TestGoldenLorentzian:
    """One mapping step of the narrow peak: g0 = sqrt(kappa/2), eps1 = omega0, residual ~ 2*lam."""

    def test_recursion_first_coefficients(self):
        cc = chain_map_recursion(NARROW, 2)
        assert cc.hop[0] == pytest.approx(1.0, abs=0.02)
        assert cc.eps[0] == pytest.approx(2.0, abs=0.02)

    def test_tridiag_first_coefficients(self):
        cc = chain_map_tridiag(NARROW, 2)
        assert cc.hop[0] == pytest.approx(1.0, abs=0.02)
        assert cc.eps[0] == pytest.approx(2.0, abs=0.02)

    def test_residual_is_flat_two_lambda(self):
        res = chain_map_recursion(NARROW, 1).residual
        idx = np.argmin(np.abs(res.omega - 2.0))
        assert res.values[idx] == pytest.approx(0.02, rel=0.10)
        # flat across the band, not just at the old peak
        inner = np.abs(res.omega) < 5.0
        assert np.median(res.values[inner]) == pytest.approx(0.02, rel=0.15)


class TestFlatBand:
    def test_even_spectrum_has_zero_onsite_energies(self):
        cc = chain_map_recursion(FLAT, 10)
        assert np.max(np.abs(cc.eps)) < 1e-8 * np.max(cc.hop)

    def test_first_hopping_matches_sum_rule(self):
        # (1/2pi) int J = height * cutoff / pi for the flat band
        cc = chain_map_recursion(FLAT, 3)
        assert cc.hop[0] ** 2 == pytest.approx(0.5 * 6.0 / np.pi, rel=1e-3)
        cc_t = chain_map_tridiag(FLAT, 3)
        assert cc_t.hop[0] ** 2 == pytest.approx(0.5 * 6.0 / np.pi, rel=1e-12)

    def test_hoppings_approach_half_bandwidth(self):
        cc = chain_map_tridiag(FLAT, 24)
        assert cc.hop_asym == pytest.approx(3.0, rel=0.01)
        assert cc.tail_converged()


@pytest.mark.parametrize("lam", [0.1, 1.0])
def test_cross_method_agreement(lam):
    """Recursion and tridiagonalization agree on the first eight sites to 1e-3."""
    sf = SpectralFunction.lorentzian(2.0, lam, 2.0, 6.0)
    a = chain_map_recursion(sf, 9)
    b = chain_map_tridiag(sf, 9)
    floor = 1e-2 * b.hop_asym  # on-site energies sit near zero; compare on a physical scale
    for x, y in ((a.eps[:8], b.eps[:8]), (a.hop[:8], b.hop[:8])):
        rel = np.abs(x - y) / np.maximum(np.maximum(np.abs(x), np.abs(y)), floor)
        assert np.max(rel) < 1e-3


def test_sum_rule_both_methods():
    sf = SpectralFunction.lorentzian(2.0, 0.3, -1.0, 6.0)
    target = sf.integral(-6.0, 6.0) / (2 * np.pi)
    assert chain_map_tridiag(sf, 4).hop[0] ** 2 == pytest.approx(target, rel=1e-12)
    assert chain_map_recursion(sf, 4).hop[0] ** 2 == pytest.approx(target, rel=1e-4)


class TestStarToChain:
    def test_single_mode_terminates_at_depth_one(self):
        eps, hop = star_to_chain(np.array([1.7]), np.array([0.09]), depth=5)
        assert_allclose(eps, [1.7])
        assert_allclose(hop, [0.3])

    def test_two_symmetric_modes(self):
        # weights 1/2 at +-1: g0 = 1, then a two-site chain with unit hopping
        eps, hop = star_to_chain(np.array([-1.0, 1.0]), np.array([0.5, 0.5]), depth=6)
        assert_allclose(eps, [0.0, 0.0], atol=1e-14)
        assert_allclose(hop, [1.0, 1.0], rtol=1e-14)

    def test_chain_reproduces_star_spectrum(self):
        rng = np.random.default_rng(11)
        freqs = np.sort(rng.uniform(-3, 3, 24))
        weights = rng.uniform(0.01, 1.0, 24)
        eps, hop = star_to_chain(freqs, weights, depth=24)
        # the chain plus its entry site is unitarily equivalent to the star plus site
        n = 25
        h_chain = np.zeros((n, n))
        h_chain[0, 1] = h_chain[1, 0] = hop[0]
        for p in range(24):
            h_chain[1 + p, 1 + p] = eps[p]
        for p in range(1, 24):
            h_chain[p, 1 + p] = h_chain[1 + p, p] = hop[p]
        h_star = np.zeros((n, n))
        h_star[0, 1:] = h_star[1:, 0] = np.sqrt(weights)
        h_star[np.arange(1, n), np.arange(1, n)] = freqs
        assert_allclose(np.linalg.eigvalsh(h_chain), np.linalg.eigvalsh(h_star),
                        atol=1e-10)

    def test_degenerate_frequencies_exhaust_krylov_space(self):
        # two distinct frequencies span a two-dimensional Krylov space
        eps, hop = star_to_chain(np.array([1.0, 1.0, 2.0, 2.0]), np.full(4, 0.25), depth=4)
        assert_allclose(eps, [1.5, 1.5], rtol=1e-14)
        assert_allclose(hop, [1.0, 0.5], rtol=1e-14)

    def test_agrees_with_high_precision_lanczos(self, caplog):
        mpmath = pytest.importorskip("mpmath")
        freqs, weights = discretize_modes(SpectralFunction.lorentzian(2.0, 0.05, 2.0, 6.0), 200)
        with caplog.at_level(logging.INFO, logger="preb.chainmap"):
            eps, hop = star_to_chain(freqs, weights, depth=20)
        assert RESUME_LINE not in caplog.text  # ten modes per site: the plain pass is certified
        _assert_matches_oracle(mpmath, freqs, weights, eps, hop, 20)

    def test_resumes_with_cgs2_when_the_plain_pass_leaks(self, caplog):
        # at depth = N the Krylov space fills up, and the plain recurrence loses orthogonality
        mpmath = pytest.importorskip("mpmath")
        freqs = np.linspace(-1, 1, 40)
        weights = np.ones(40)
        with caplog.at_level(logging.INFO, logger="preb.chainmap"):
            eps, hop = star_to_chain(freqs, weights, depth=40)
        assert RESUME_LINE in caplog.text
        _assert_matches_oracle(mpmath, freqs, weights, eps, hop, 40)

    def test_orthogonality_guard_trips_on_absurd_tolerance(self):
        freqs = np.linspace(-1, 1, 40)
        weights = np.ones(40)
        with pytest.raises(NumericsError, match="orthogonality"):
            star_to_chain(freqs, weights, depth=10, ortho_tol=1e-30)

    def test_guard_names_the_first_leaking_depth(self):
        # roundoff alone exceeds 1e-30, so even the CGS2 resume leaks at the first new row
        with pytest.raises(NumericsError, match="loss of orthogonality at depth 1$"):
            star_to_chain(np.linspace(-1, 1, 40), np.ones(40), depth=10, ortho_tol=1e-30)

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            star_to_chain(np.array([1.0]), np.array([-0.1]), depth=1)

    def test_rejects_empty_depth(self):
        with pytest.raises(ValueError, match="depth"):
            star_to_chain(np.array([1.0]), np.array([0.1]), depth=0)


def _assert_matches_oracle(mpmath, freqs, weights, eps, hop, depth):
    eps_mp, hop_mp = _lanczos_mp(mpmath, freqs, weights, depth)
    assert eps.size == hop.size == depth
    scale = np.max(hop_mp)  # some on-site energies sit near zero: compare on the chain's scale
    assert np.max(np.abs(eps - eps_mp)) <= 1e-13 * scale
    assert np.max(np.abs(hop - hop_mp) / hop_mp) <= 1e-13


def _lanczos_mp(mpmath, freqs, weights, depth, digits=50):
    """Lanczos with full reorthogonalization (two passes) at ``digits`` digits."""
    with mpmath.workdps(digits):
        w = [mpmath.mpf(float(x)) for x in freqs]
        g0 = mpmath.sqrt(mpmath.fsum(mpmath.mpf(float(x)) for x in weights))
        basis = [[mpmath.sqrt(mpmath.mpf(float(x))) / g0 for x in weights]]
        eps, hop = [], [g0]
        for p in range(depth):
            v = basis[-1]
            fv = [a * b for a, b in zip(w, v)]
            eps.append(mpmath.fdot(fv, v))
            if p == depth - 1:
                break
            r = [a - eps[-1] * b for a, b in zip(fv, v)]
            for _ in range(2):
                for u in basis:
                    c = mpmath.fdot(u, r)
                    r = [a - c * b for a, b in zip(r, u)]
            beta = mpmath.sqrt(mpmath.fdot(r, r))
            hop.append(beta)
            basis.append([a / beta for a in r])
        return (np.array([float(x) for x in eps]), np.array([float(x) for x in hop]))


class TestDiscretization:
    def test_weights_sum_to_exact_total(self):
        freqs, weights = discretize_modes(NARROW, 2000)
        assert weights.sum() == pytest.approx(NARROW.integral(-6, 6) / (2 * np.pi),
                                              rel=1e-12)
        assert np.all(np.diff(freqs) > 0)

    def test_narrow_peak_is_resolved(self):
        freqs, _ = discretize_modes(NARROW, 2000)
        inside_peak = np.sum(np.abs(freqs - 2.0) < 0.01)
        assert inside_peak > 200

    def test_zero_weight_bath_rejected(self):
        empty = SpectralFunction.tabulated(np.linspace(-1, 1, 33), np.zeros(33))
        with pytest.raises(NumericsError, match="weight"):
            discretize_modes(empty, 100)


class TestChainCoefficients:
    def test_rejects_nonpositive_hopping(self):
        with pytest.raises(ValueError, match="decouples"):
            ChainCoefficients(eps=np.zeros(3), hop=np.array([1.0, 0.0, 1.0]))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            ChainCoefficients(eps=np.array([np.nan]), hop=np.array([1.0]))

    def test_padding_uses_asymptotics(self):
        cc = chain_map_tridiag(FLAT, 16)
        eps, hop = cc.padded(20)
        assert eps.size == hop.size == 20
        assert_allclose(eps[16:], cc.eps_asym)
        assert_allclose(hop[16:], cc.hop_asym)
        eps_s, hop_s = cc.padded(5)
        assert_allclose(eps_s, cc.eps[:5])
        assert_allclose(hop_s, cc.hop[:5])

    def test_replace_recomputes_the_asymptotics(self):
        """The tail averages follow the arrays: a replaced chain pads with its own tail."""
        cc = ChainCoefficients(eps=np.zeros(6), hop=np.ones(6))
        wider = dataclasses.replace(cc, hop=np.full(6, 3.0))
        assert wider.hop_asym == 3.0
        assert_allclose(wider.padded(8)[1][6:], 3.0)
        with pytest.raises(TypeError):
            ChainCoefficients(eps=np.zeros(6), hop=np.ones(6), eps_asym=1.0)

    @pytest.mark.parametrize("length", [0, -1])
    def test_padding_rejects_an_empty_chain(self, length):
        cc = ChainCoefficients(eps=np.zeros(3), hop=np.ones(3))
        with pytest.raises(ValueError, match="length"):
            cc.padded(length)

    def test_all_coefficients_positive_and_finite(self):
        for sf in (NARROW, FLAT, SpectralFunction.lorentzian(2.0, 1.0, -1.0, 6.0)):
            cc = chain_map_tridiag(sf, 30)
            assert np.all(cc.hop > 0)
            assert np.all(np.isfinite(cc.eps)) and np.all(np.isfinite(cc.hop))

    def test_csv_roundtrip_is_exact(self, tmp_path):
        """The files of ``preb chainmap --out`` read back to the very chains it mapped."""
        config = ROOT / "configs" / "heat_engine.ini"
        base = tmp_path / "chain"
        assert cli.main(["chainmap", str(config), "--out", str(base)]) == 0
        for ell, cc in enumerate(run_chainmap(parse_config(config))):
            back = chain_from_csv(f"{base}.bath{ell + 1}.csv")
            assert_allclose(back.eps, cc.eps, rtol=0, atol=0)
            assert_allclose(back.hop, cc.hop, rtol=0, atol=0)


def test_recursion_rejects_empty_spectrum():
    empty = SpectralFunction.tabulated(np.linspace(-1, 1, 33), np.zeros(33))
    with pytest.raises(NumericsError, match="decouples"):
        chain_map_recursion(empty, 2)
