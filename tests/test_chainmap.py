import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from conftest import chain_from_csv, engine_config
from preb import chainmap, cli, pipeline
from preb.chainmap import (ChainCoefficients, chain_map_recursion,
                           chain_map_tridiag, discretize_modes, star_to_chain)
from preb.config import parse_config
from preb.errors import NumericsError
from preb.pipeline import SIZING_WINDOW, bath_pairs, build_bundle, clear_caches, run_chainmap
from preb.spectral import SpectralFunction

ROOT = Path(__file__).resolve().parent.parent
NARROW = SpectralFunction.lorentzian(2.0, 0.01, 2.0, 6.0)
FLAT = SpectralFunction.flat(0.5, 6.0)
ORACLE = json.loads((Path(__file__).resolve().parent / "chain_oracle.json").read_text())


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

    def test_agrees_with_high_precision_lanczos(self, monkeypatch):
        mpmath = pytest.importorskip("mpmath")
        freqs, weights = discretize_modes(SpectralFunction.lorentzian(2.0, 0.05, 2.0, 6.0), 200)
        calls = _spy_on_orthogonalize(monkeypatch)
        eps, hop = star_to_chain(freqs, weights, depth=20)
        assert calls == []  # ten modes per site: the basis stays orthogonal unaided
        _assert_matches_oracle(mpmath, freqs, weights, eps, hop, 20)

    @pytest.mark.parametrize("depth", [40, 60])
    def test_reorthogonalization_engages_as_the_krylov_space_fills(self, depth, monkeypatch):
        # near depth = N Ritz values converge, and the plain recurrence loses orthogonality;
        # asked for more, the star returns its N levels and no more
        mpmath = pytest.importorskip("mpmath")
        freqs = np.linspace(-1, 1, 40)
        weights = np.ones(40)
        calls = _spy_on_orthogonalize(monkeypatch)
        eps, hop = star_to_chain(freqs, weights, depth=depth)
        assert calls
        _assert_matches_oracle(mpmath, freqs, weights, eps, hop, 40)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("argument", ["freqs", "couplings_sq"])
    def test_rejects_nonfinite_input(self, argument, bad):
        star = {"freqs": np.array([1.0, 2.0]), "couplings_sq": np.array([0.5, 0.5])}
        star[argument][1] = bad
        with pytest.raises(ValueError, match="finite"):
            star_to_chain(star["freqs"], star["couplings_sq"], depth=3)

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            star_to_chain(np.array([1.0]), np.array([-0.1]), depth=1)

    def test_rejects_empty_depth(self):
        with pytest.raises(ValueError, match="depth"):
            star_to_chain(np.array([1.0]), np.array([0.1]), depth=0)


def _spy_on_orthogonalize(monkeypatch):
    """Record the depth of every reorthogonalization the Lanczos recurrence makes."""
    calls = []
    orthogonalize = chainmap._orthogonalize

    def spy(r, basis):
        calls.append(basis.shape[0])
        orthogonalize(r, basis)

    monkeypatch.setattr(chainmap, "_orthogonalize", spy)
    return calls


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

    def test_cut_refuses_to_pad(self):
        """A cut is a prefix of the chain; a length past its depth is an error, not padding."""
        cc = chain_map_tridiag(FLAT, 16)
        eps_s, hop_s = cc.cut(5)
        assert_array_equal(eps_s, cc.eps[:5])
        assert_array_equal(hop_s, cc.hop[:5])
        assert_array_equal(cc.cut(16)[1], cc.hop)
        with pytest.raises(ValueError, match="chain length"):
            cc.cut(17)

    def test_replace_recomputes_the_asymptotics(self):
        """The tail averages follow the arrays: a replaced chain has its own tail."""
        cc = ChainCoefficients(eps=np.zeros(6), hop=np.ones(6))
        wider = dataclasses.replace(cc, hop=np.full(6, 3.0))
        assert wider.hop_asym == 3.0
        assert_array_equal(wider.cut(6)[1], 3.0)
        with pytest.raises(TypeError):
            ChainCoefficients(eps=np.zeros(6), hop=np.ones(6), eps_asym=1.0)

    @pytest.mark.parametrize("length", [0, -1])
    def test_cut_rejects_an_empty_chain(self, length):
        cc = ChainCoefficients(eps=np.zeros(3), hop=np.ones(3))
        with pytest.raises(ValueError, match="length"):
            cc.cut(length)

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


def _oracle_case(lam, omega0=2.0):
    return next(case for case in ORACLE["chains"]
                if case["lam"] == lam and case["omega0"] == omega0)


def _chain_gap(cc, eps, hop):
    """Largest coefficient difference, over the largest hopping: on-site energies sit near 0."""
    return max(np.max(np.abs(cc.eps - eps)), np.max(np.abs(cc.hop - hop))) / np.max(hop)


class TestModifiedMoments:
    """The production map against closed forms and 50-digit references."""

    @pytest.mark.parametrize("lam, depth, tol", [
        (1.0, 128, 1e-12),    # Clenshaw-Curtis moments
        (0.05, 128, 1e-12),   # forward recurrence
        (1e-3, 128, 1e-12),
        (0.05, 606, 1e-11),   # Clenshaw-Curtis moments
    ])
    def test_lorentzian_matches_the_mpmath_oracle(self, lam, depth, tol):
        case = _oracle_case(lam)
        sf = SpectralFunction.lorentzian(case["kappa"], lam, case["omega0"], case["cutoff"])
        cc = chain_map_tridiag(sf, depth)
        assert _chain_gap(cc, np.array(case["eps"][:depth]), np.array(case["hop"][:depth])) <= tol

    def test_recorded_oracle_comes_from_the_oracle_script(self):
        """A short chain recomputed live equals the head of the recorded one."""
        pytest.importorskip("mpmath")
        import chain_oracle

        case = _oracle_case(1.0)
        eps, hop = chain_oracle.oracle_chain(case["kappa"], 1.0, case["omega0"], case["cutoff"], 5)
        assert_allclose(eps, case["eps"][:5], rtol=1e-15, atol=1e-15)
        assert_allclose(hop, case["hop"][:5], rtol=1e-15)
        assert ORACLE["quad_vs_recurrence"] < 1e-30

    def test_flat_band_is_the_legendre_chain(self):
        """eps = 0, hop_0 = sqrt(kappa 2D / 2pi) and hop_p = D p / sqrt(4 p^2 - 1)."""
        cc = chain_map_tridiag(FLAT, 128)
        p = np.arange(1, 128)
        hop = np.concatenate([[math.sqrt(0.5 * 12.0 / (2 * np.pi))],
                              6.0 * p / np.sqrt(4 * p * p - 1)])
        assert _chain_gap(cc, np.zeros(128), hop) <= 1e-13

    def test_table_that_samples_a_lorentzian(self):
        """Only the piecewise-linear interpolation error, O(dw^2), separates the two."""
        sf = SpectralFunction.lorentzian(2.0, 1.0, 2.0, 6.0)
        omega = np.linspace(-6.0, 6.0, 12001)
        table = chain_map_tridiag(SpectralFunction.tabulated(omega, sf(omega)), 128)
        exact = chain_map_tridiag(sf, 128)
        assert _chain_gap(table, exact.eps, exact.hop) <= 1e-7

    def test_gapped_table_merges_its_bands(self):
        """Two bands with a gap, against the modified Chebyshev algorithm at 50 digits.

        Moments over the whole span amplify roundoff by about 2^depth here
        (double precision loses positivity at depth 52); the reference runs
        the algorithm on the table's exact moments at 50 digits.
        """
        mpmath = pytest.importorskip("mpmath")
        import chain_oracle

        omega = np.linspace(-3.0, 3.0, 7)
        values = np.array([1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0])
        cc = chain_map_tridiag(SpectralFunction.tabulated(omega, values), 40)
        eps, hop = chain_oracle.modified_chebyshev(
            _table_moments_mp(mpmath, omega, values, 80), 40, 3.0)
        assert _chain_gap(cc, np.array(eps), np.array(hop)) <= 1e-12

    def test_gapped_table_maps_past_a_thousand_sites(self):
        """J on [-3, -1] and [1, 3]: the hoppings tend to (3 - 1)/2 and (3 + 1)/2 in turn."""
        sf = SpectralFunction.tabulated(np.linspace(-3.0, 3.0, 7),
                                        np.array([1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0]))
        cc = chain_map_tridiag(sf, 1100)
        eps, hop = cc.cut(40)
        assert _chain_gap(chain_map_tridiag(sf, 40), eps, hop) <= 1e-13
        assert np.max(np.abs(cc.eps)) <= 1e-11  # the bands mirror each other
        assert_allclose(cc.hop[1000::2], 1.0, atol=1e-5)
        assert_allclose(cc.hop[1001::2], 2.0, atol=1e-5)

    @pytest.mark.parametrize("width", [1e-2, 0.0], ids=["narrow", "point"])
    def test_band_merge_matches_the_dense_star(self, width, monkeypatch):
        """Two band chains merged through their Gauss rules, against a Householder reduction.

        A band chain's n-point Gauss rule (the eigenvalues of its Jacobi
        matrix, with weights hop_0^2 Phi[0, q]^2) is exact to degree 2n - 1,
        so the star of both rules has the first n levels of the summed
        measure.  A band of width 0 is a point mass at 5, its rule one node,
        to which a Ritz value converges at once: the basis loses
        orthogonality and is kept orthogonal from there on.
        """
        from scipy.linalg import eigh_tridiagonal

        depth = 200
        p = np.arange(1, depth)
        nodes, phi = eigh_tridiagonal(np.zeros(depth), p / np.sqrt(4 * p * p - 1))
        rules = [(nodes, phi[0] ** 2)]  # both bands have hop_0 = 1
        if width:
            nodes, phi = eigh_tridiagonal(np.full(depth, 5.0), np.full(depth - 1, width / 4))
            rules.append((nodes, phi[0] ** 2))
        else:
            rules.append((np.array([5.0]), np.array([1.0])))
        freqs = np.concatenate([nodes for nodes, _ in rules])
        couplings_sq = np.concatenate([weights for _, weights in rules])
        calls = _spy_on_orthogonalize(monkeypatch)
        cc = ChainCoefficients(*star_to_chain(freqs, couplings_sq, depth))
        assert calls or width
        assert _chain_gap(cc, *_householder_chain(freqs, couplings_sq, depth)) <= 3e-13

    @pytest.mark.parametrize("floor", [1e-12, 1e-6])
    def test_near_gap_matches_a_denser_rule(self, floor, monkeypatch):
        """J = floor, not 0, across |w| < 1: Chebyshev moments over this span lose
        about 2 bits a level, the Gauss nodes of its cells lose nothing."""
        omega = np.linspace(-3.0, 3.0, 601)
        values = np.where(np.abs(omega) >= 1.0, 1.0 + 0.5 * np.cos(omega), floor)
        _, gap = _map_and_denser_rule(monkeypatch, SpectralFunction.tabulated(omega, values), 100)
        assert gap <= 1e-12


def _householder_chain(freqs, couplings_sq, depth):
    """The chain of a star by Householder reduction of its arrowhead, in extended precision.

    The reduction is normwise backward stable, which in double precision
    (LAPACK's dsytrd) leaves up to 8e-12 of the largest hopping in the deep
    levels of a star with a narrow cluster of nodes; np.longdouble's 64-bit
    mantissa takes that to 5e-15 of a 40-digit Lanczos run on the same star.
    """
    if np.finfo(np.longdouble).eps > 1e-18:
        pytest.skip("np.longdouble is no wider than double here")
    a = np.diag(np.concatenate([[0.0], freqs]).astype(np.longdouble))
    a[1:, 0] = np.sqrt(np.asarray(couplings_sq, dtype=np.longdouble))
    a[0, 1:] = a[1:, 0]
    eps, hop = np.empty(depth), np.empty(depth)
    for k in range(depth):
        x = a[k + 1:, k]
        norm = np.sqrt(x @ x)
        v = x.copy()
        v[0] += math.copysign(1.0, x[0]) * norm
        v /= np.sqrt(v @ v)
        rest = a[k + 1:, k + 1:]
        p = rest @ v
        q = 2 * (p - (v @ p) * v)
        rest -= np.outer(v, q) + np.outer(q, v)
        hop[k], eps[k] = norm, rest[0, 0]
    return eps, hop


def _spy_on_table_star(monkeypatch):
    """Record (density, (freqs, couplings_sq, exact)) for every node rule a table's map builds."""
    runs = []
    table_star = chainmap._table_star

    def spy(table, depth, density):
        runs.append((density, table_star(table, depth, density)))
        return runs[-1][1]

    monkeypatch.setattr(chainmap, "_table_star", spy)
    return runs


def _map_and_denser_rule(monkeypatch, sf, depth):
    """A table's map, and its gap to ``star_to_chain`` on nodes twice as dense as its last run."""
    runs = _spy_on_table_star(monkeypatch)
    cc = chain_map_tridiag(sf, depth)
    freqs, couplings_sq, _ = chainmap._table_star(sf.table, depth, 2 * runs[-1][0])
    return cc, _chain_gap(cc, *star_to_chain(freqs, couplings_sq, depth))


class TestTableMaps:
    """Tables map by Lanczos on Gauss-Legendre nodes of their cells, tails and all."""

    @pytest.mark.parametrize("sigma", [3.0, 1.0, 0.7])
    def test_gaussian_table_maps_deep(self, sigma, monkeypatch):
        """exp(-(w/sigma)^2) on [-6, 6] reaches 1e-32 of its peak at sigma = 0.7."""
        omega = np.linspace(-6.0, 6.0, 2401)
        sf = SpectralFunction.tabulated(omega, np.exp(-(omega / sigma) ** 2))
        cc, gap = _map_and_denser_rule(monkeypatch, sf, 300)
        assert cc.depth == 300
        assert gap <= 1e-12

    def test_narrow_bumps_far_apart_map_deep(self, monkeypatch):
        """Twelve bumps two cells wide: the chain's polynomials put zeros in each
        of the 24 cells, where the arcsine measure on their span gives the inner
        cells a node or two each."""
        omega = np.linspace(-3.0, 3.0, 601)
        values = np.where(np.arange(601) % 50 == 25, 1.0, 0.0)
        cc, gap = _map_and_denser_rule(monkeypatch, SpectralFunction.tabulated(omega, values), 300)
        assert cc.depth == 300
        assert gap <= 1e-12

    def test_a_map_past_the_basis_limit_raises(self, monkeypatch):
        """A map whose next run would pass ``KRYLOV_LIMIT`` raises, whatever the table."""
        monkeypatch.setattr(chainmap, "KRYLOV_LIMIT", 1 << 16)
        omega = np.linspace(-3.0, 3.0, 601)
        with pytest.raises(NumericsError, match="has not settled"):
            chain_map_tridiag(SpectralFunction.tabulated(omega, 1.0 + omega ** 2), 40)

    def test_table_matches_the_mpmath_lanczos_on_its_nodes(self, monkeypatch):
        """Near-zero and zero stretches beside the weight: the recurrence adds no error."""
        mpmath = pytest.importorskip("mpmath")
        runs = _spy_on_table_star(monkeypatch)
        omega = np.linspace(-3.0, 3.0, 7)
        values = np.array([1e-14, 1.0, 2.0, 1e-9, 0.0, 1.5, 1e-12])
        cc = chain_map_tridiag(SpectralFunction.tabulated(omega, values), 30)
        freqs, couplings_sq, _ = runs[-1][1]
        _assert_matches_oracle(mpmath, freqs, couplings_sq, cc.eps, cc.hop, 30)


def _table_moments_mp(mpmath, omega, values, count):
    """(1/2pi) int T_k(w / D) J(w) dw of a piecewise-linear J on [-D, D], at 60 digits."""
    with mpmath.workdps(60):
        cutoff = mpmath.mpf(float(omega[-1]))
        x = [mpmath.mpf(float(w)) / cutoff for w in omega]
        y = [mpmath.mpf(float(v)) for v in values]

        def anti(k, t):  # int T_k
            if k == 0:
                return t
            if k == 1:
                return t * t / 2
            return (mpmath.chebyt(k + 1, t) / (k + 1) - mpmath.chebyt(k - 1, t) / (k - 1)) / 2

        def anti_x(k, t):  # int x T_k = int (T_{k+1} + T_{|k-1|}) / 2
            return (anti(k + 1, t) + anti(abs(k - 1), t)) / 2

        out = []
        for k in range(count):
            total = mpmath.mpf(0)
            for a, b, ya, yb in zip(x[:-1], x[1:], y[:-1], y[1:]):
                slope = (yb - ya) / (b - a)
                total += ((ya - slope * a) * (anti(k, b) - anti(k, a))
                          + slope * (anti_x(k, b) - anti_x(k, a)))
            out.append(total * cutoff / (2 * mpmath.pi))
        return out


class TestCachedMaps:
    """A map's first n sites do not depend on its depth, so the pipeline cuts one map."""

    @pytest.mark.parametrize("sf", [NARROW, FLAT, SpectralFunction.lorentzian(2.0, 0.3, 2.0, 6.0)],
                             ids=["narrow", "flat", "wide"])
    def test_a_cut_of_a_deeper_map_is_the_direct_map(self, sf):
        deep = chain_map_tridiag(sf, 156)
        for n in (1, SIZING_WINDOW, 128):
            eps, hop = deep.cut(n)
            assert _chain_gap(chain_map_tridiag(sf, n), eps, hop) <= 1e-13

    def test_sizing_map_is_the_head_of_the_deep_map(self):
        clear_caches()
        cfg = engine_config(tau=50.0)
        bundle = build_bundle(cfg)
        for sf, chain in zip(bath_pairs(cfg)[0], bundle.chains):
            window = chain_map_tridiag(sf, SIZING_WINDOW)
            eps, hop = chain.cut(SIZING_WINDOW)
            assert _chain_gap(window, eps, hop) <= 1e-13
            assert pipeline._bath_speed(sf) == window.hop_asym
