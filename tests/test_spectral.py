import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_max_ulp
from scipy.special import expit

import preb
from conftest import write_spectral_table
from preb.spectral import (BathThermalSpec, SpectralFunction, fermi_occupation,
                           frequency_grid, hilbert_transform, read_spectral_table)


def lorentzian_hilbert_exact(w, kappa, lam, w0, cut):
    """Closed-form transform of the hard-cutoff Lorentzian, via complex logarithms."""
    z = w0 + 1j * lam
    w = np.asarray(w, dtype=complex)
    term = np.log((cut - z) / (-cut - z)) + np.log(np.abs((w.real + cut) / (w.real - cut)))
    return (kappa / np.pi) * np.imag(term / (w - z))


class TestEvaluate:
    def test_peak_value(self):
        sf = SpectralFunction.lorentzian(2.0, 1.0, 2.0, 6.0)
        assert sf(2.0) == pytest.approx(2.0)

    def test_beyond_cutoff_is_zero(self):
        sf = SpectralFunction.lorentzian(2.0, 1.0, 2.0, 6.0)
        assert sf(7.0) == 0.0
        assert sf(-6.0001) == 0.0
        assert sf(6.0) > 0.0  # the cutoff itself is inside

    def test_off_peak_value(self):
        sf = SpectralFunction.lorentzian(2.0, 0.5, 2.0, 6.0)
        assert sf(2.5) == pytest.approx(2.0)  # kappa*lam / (0.25 + 0.25)

    def test_nonnegative_everywhere(self):
        sf = SpectralFunction.lorentzian(2.0, 0.05, -1.0, 6.0)
        w = np.linspace(-10, 10, 1001)
        assert np.all(sf(w) >= 0)

    def test_flat_kind(self):
        sf = SpectralFunction.flat(0.7, 3.0)
        assert sf(0.0) == 0.7
        assert sf(2.9999) == 0.7
        assert sf(3.1) == 0.0

    def test_tabulated_interpolates(self):
        sf = SpectralFunction.tabulated([-1.0, 0.0, 1.0], [0.0, 2.0, 0.0])
        assert sf(0.5) == pytest.approx(1.0)
        assert sf(2.0) == 0.0

    def test_tabulated_requires_uniform_grid(self):
        with pytest.raises(ValueError, match="uniform"):
            SpectralFunction.tabulated([0.0, 0.5, 2.0], [1.0, 1.0, 1.0])

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SpectralFunction.lorentzian(0.0, 1.0, 0.0, 6.0)
        with pytest.raises(ValueError):
            SpectralFunction.lorentzian(1.0, -1.0, 0.0, 6.0)
        with pytest.raises(ValueError):
            SpectralFunction.flat(1.0, -2.0)


class TestExactIntegrals:
    @pytest.mark.parametrize("sf", [
        SpectralFunction.lorentzian(2.0, 0.5, 2.0, 6.0),
        SpectralFunction.flat(0.7, 6.0),
        SpectralFunction.tabulated(np.linspace(-6, 6, 97),
                                   np.abs(np.sin(np.linspace(-6, 6, 97)))),
    ])
    @pytest.mark.parametrize("a,b", [(-6.0, 6.0), (-1.3, 2.7), (5.0, 8.0)])
    def test_against_dense_quadrature(self, sf, a, b):
        w = np.linspace(a, b, 200001)
        assert sf.integral(a, b) == pytest.approx(np.trapezoid(sf(w), w), abs=1e-5)
        assert sf.first_moment(a, b) == pytest.approx(np.trapezoid(w * sf(w), w), abs=1e-4)

    def test_vectorized_edges(self):
        sf = SpectralFunction.lorentzian(2.0, 0.5, 2.0, 6.0)
        edges = np.array([-6.0, -1.0, 2.0, 6.0])
        cells = sf.integral(edges[:-1], edges[1:])
        assert cells.sum() == pytest.approx(sf.integral(-6.0, 6.0), rel=1e-12)


class TestFermiOccupation:
    def test_half_at_chemical_potential(self):
        assert fermi_occupation(BathThermalSpec(1.0, -2.0), -2.0) == 0.5

    def test_zero_temperature_step(self):
        spec = BathThermalSpec(1e6, 0.0)
        assert fermi_occupation(spec, -1.0) == pytest.approx(1.0, abs=1e-12)
        assert fermi_occupation(spec, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_reference_value(self):
        # 1 / (e + 1)
        assert fermi_occupation(BathThermalSpec(1.0, 0.0), 1.0) == \
            pytest.approx(0.2689414213699951, rel=1e-14)

    def test_no_overflow_at_extreme_arguments(self):
        spec = BathThermalSpec(1e280, 0.0)
        with np.errstate(over="raise"):
            assert fermi_occupation(spec, 10.0) == 0.0
            assert fermi_occupation(spec, -10.0) == 1.0

    def test_matches_the_logistic_of_scipy(self):
        """f(x) = expit(-x) with x = beta (w - mu), and the hole factor expit(x).

        Both compute 1 / (1 + e^y), where numpy's and libm's exp differ in the
        last bit of about one value in twenty; the results then stay within
        2 ulp.  Only where e^y lies in [2**53, 2**54) does 1 + e^y round to
        even, so a 1-ulp change of e^y moves it by 2 or 4 of its own ulp, and
        the result by up to 4.  The extremes, past the overflow of e^y at
        709.78 and at infinity, agree exactly and raise no warning.
        """
        spec = BathThermalSpec(1.0, 0.0)
        rng = np.random.default_rng(5)
        x = np.concatenate([rng.normal(0.0, 30.0, 20000), rng.uniform(-745.0, 745.0, 20000),
                            rng.uniform(36.0, 38.0, 20000), rng.uniform(-38.0, -36.0, 20000)])
        rounds = (np.abs(x) >= 53 * math.log(2.0)) & (np.abs(x) < 54 * math.log(2.0))
        for got, want in ((fermi_occupation(spec, x), expit(-x)),
                          (fermi_occupation(spec, x, hole=True), expit(x))):
            assert_array_max_ulp(got[~rounds], want[~rounds], maxulp=2)
            assert_array_max_ulp(got[rounds], want[rounds], maxulp=4)
        extremes = np.array([709.8, -709.8, 1e308, -1e308, np.inf, -np.inf, 0.0])
        for hole, sign in ((False, -1.0), (True, 1.0)):
            assert np.array_equal(fermi_occupation(spec, extremes, hole=hole),
                                  expit(sign * extremes))
        assert fermi_occupation(BathThermalSpec(4.0, -1.0), 1e308) == 0.0  # beta x overflows

    def test_hole_factor_is_the_complement(self):
        spec = BathThermalSpec(0.7, 0.4)
        w = np.linspace(-30.0, 30.0, 201)
        f, holes = fermi_occupation(spec, w), fermi_occupation(spec, w, hole=True)
        assert np.max(np.abs(f + holes - 1.0)) <= 2.0 ** -52
        # deep below mu a hole factor keeps its relative precision, where 1 - f is 0
        assert fermi_occupation(spec, -100.0, hole=True) == pytest.approx(math.exp(-0.7 * 100.4))
        assert 1.0 - fermi_occupation(spec, -100.0) == 0.0

    def test_vectorized_and_bounded(self):
        spec = BathThermalSpec(3.7, 0.3)
        f = fermi_occupation(spec, np.linspace(-50, 50, 101))
        assert np.all((f >= 0) & (f <= 1))
        assert np.all(np.diff(f) <= 0)


class TestHilbertTransform:
    def test_zero_input(self):
        w = np.linspace(-5, 5, 512)
        assert_allclose(hilbert_transform(w, np.zeros_like(w)), 0.0)

    def test_even_input_gives_odd_output(self):
        sf = SpectralFunction.lorentzian(2.0, 0.5, 0.0, 4.0)
        w = np.linspace(-5, 5, 4097)  # odd count: nodes mirror exactly
        jh = hilbert_transform(w, sf(w))
        assert np.max(np.abs(jh + jh[::-1])) < 1e-10

    def test_flat_band_closed_form(self):
        cut, height = 6.0, 0.7
        sf = SpectralFunction.flat(height, cut)
        w = frequency_grid(sf)
        jh = hilbert_transform(w, sf(w))
        exact = (height / np.pi) * np.log(np.abs((w + cut) / (w - cut)))
        away = np.abs(np.abs(w) - cut) > 0.3
        assert np.max(np.abs(jh - exact)[away]) < 2e-3

    def test_lorentzian_closed_form(self):
        kappa, lam, w0, cut = 2.0, 0.5, 2.0, 6.0
        sf = SpectralFunction.lorentzian(kappa, lam, w0, cut)
        w = frequency_grid(sf)
        jh = hilbert_transform(w, sf(w))
        exact = lorentzian_hilbert_exact(w, kappa, lam, w0, cut)
        away = np.abs(np.abs(w) - cut) > 0.3
        assert np.max(np.abs(jh - exact)[away]) < 5e-4

    def test_rejects_nonuniform_grid(self):
        w = np.array([0.0, 1.0, 2.5, 3.0])
        with pytest.raises(ValueError, match="uniform"):
            hilbert_transform(w, np.ones_like(w))


def test_spectral_table_csv_roundtrip(tmp_path):
    sf = SpectralFunction.lorentzian(2.0, 0.3, 1.0, 4.0)
    w = np.linspace(-4, 4, 257)
    path = tmp_path / "table.csv"
    write_spectral_table(path, w, sf(w))
    back = read_spectral_table(path)
    assert back.kind == "tabulated"
    assert_allclose(back(w), sf(w), atol=1e-10)


def test_bath_thermal_spec_validation():
    with pytest.raises(ValueError):
        BathThermalSpec(0.0, 0.0)
    with pytest.raises(ValueError):
        BathThermalSpec(1.0, math.inf)


def test_import_loads_no_scipy():
    """A fresh ``import preb`` loads no scipy module: only a new set-up's eigensolver needs one."""
    src = Path(preb.__file__).resolve().parent.parent
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); import preb; "
            f"print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
