"""Property test of the production chain map over random baths; needs Hypothesis."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from preb.chainmap import chain_map_tridiag  # noqa: E402
from preb.errors import NumericsError  # noqa: E402
from preb.spectral import TABULATED, SpectralFunction  # noqa: E402


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@st.composite
def _baths(draw):
    """A spectral function and its weight (1/2pi) int J, computed apart from the map."""
    kind = draw(st.sampled_from(["lorentzian", "flat", "tabulated"]))
    cutoff = draw(_log_uniform(1e-3, 1e3))
    if kind == "lorentzian":
        mpmath = pytest.importorskip("mpmath")
        kappa, lam = draw(_log_uniform(1e-8, 1e4)), draw(_log_uniform(1e-4, 100.0))
        omega0 = draw(st.floats(-2.0, 2.0)) * cutoff  # peaks outside the cutoff too
        with mpmath.workdps(30):
            angle = (mpmath.atan((cutoff - mpmath.mpf(omega0)) / lam)
                     + mpmath.atan((cutoff + mpmath.mpf(omega0)) / lam))
            weight = float(kappa * angle / (2 * mpmath.pi))
        return SpectralFunction.lorentzian(kappa, lam, omega0, cutoff), weight
    if kind == "flat":
        kappa = draw(_log_uniform(1e-8, 1e4))
        return SpectralFunction.flat(kappa, cutoff), kappa * cutoff / np.pi
    # tables with runs of zeros, so with gaps between bands, and near-zero stretches
    samples = draw(st.integers(2, 40))
    values = draw(st.lists(st.one_of(st.just(0.0), _log_uniform(1e-14, 1e-6),
                                     st.floats(1e-3, 10.0)),
                           min_size=samples, max_size=samples))
    values[draw(st.integers(0, samples - 1))] = 1.0
    start = draw(st.floats(-2.0, 1.0)) * cutoff
    sf = SpectralFunction.tabulated(np.linspace(start, start + cutoff, samples), np.array(values))
    return sf, sf.integral(*sf.support) / (2 * np.pi)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(bath=_baths(), depth=st.integers(1, 400))
def test_chain_map_is_finite_and_keeps_its_weight(bath, depth):
    """Any bath maps to finite positive hoppings with hop_0^2 = (1/2pi) int J.

    A Lorentzian or flat bath may raise instead; a table, which always
    carries weight here, may not.
    """
    sf, weight = bath
    if sf.kind == TABULATED:
        cc = chain_map_tridiag(sf, depth)
    else:
        try:
            cc = chain_map_tridiag(sf, depth)
        except NumericsError:
            return
    assert cc.depth == depth
    assert np.all(np.isfinite(cc.eps)) and np.all(np.isfinite(cc.hop)) and np.all(cc.hop > 0)
    assert cc.hop[0] ** 2 == pytest.approx(weight, rel=1e-12)
