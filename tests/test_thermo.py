import dataclasses
import io

import numpy as np
import pytest

from conftest import engine_config, fixed_config, fridge_config
from preb import cli
from preb.errors import NumericsError
from preb.pipeline import run_ness
from preb.thermo import (REGIME_DUD, REGIME_HEAT_ENGINE, REGIME_REFRIGERATOR,
                         NessReport, carnot_cop, carnot_efficiency,
                         classify_regime, collisional_limit,
                         curzon_ahlborn_efficiency, ness_rates,
                         tight_coupling_check)


class TestNessRates:
    def test_rejects_non_fixed_point(self, engine_bundle):
        c_wrong = np.zeros_like(engine_bundle.p_s)
        with pytest.raises(NumericsError, match="fixed point"):
            ness_rates(c_wrong, engine_bundle.cycle, engine_bundle.p_s,
                       engine_bundle.occupations, engine_bundle.specs)

    def test_first_law_at_steady_state(self, engine_bundle):
        rep = ness_rates(engine_bundle.solve_ness(), engine_bundle.cycle,
                         engine_bundle.p_s, engine_bundle.occupations, engine_bundle.specs)
        scale = max(abs(rep.qdot[0]), abs(rep.qdot[1]), abs(rep.p_ext))
        assert abs(rep.p - rep.qdot[0] - rep.qdot[1]) < 1e-8 * scale
        assert rep.sigma > -1e-10
        assert abs(rep.ndot[0] + rep.ndot[1]) < 1e-10

    def test_equal_chemical_potentials_mean_no_chemical_power(self, engine_bundle):
        rep = ness_rates(engine_bundle.solve_ness(), engine_bundle.cycle,
                         engine_bundle.p_s, engine_bundle.occupations, engine_bundle.specs)
        assert abs(rep.p_chem) < 1e-12

    def test_single_temperature_cannot_yield_work(self):
        cfg = engine_config(lam=0.2)
        cfg = cfg.replace(bath1=dataclasses.replace(cfg.bath1, beta=1.0))
        rep = run_ness(cfg)
        assert rep.regime == REGIME_DUD
        assert rep.p_ext > -1e-10
        assert rep.eta_c is None  # no hot/cold labeling without a temperature bias


class TestRegimes:
    def test_heat_engine_preset(self):
        rep = run_ness(engine_config())
        assert rep.regime == REGIME_HEAT_ENGINE
        assert rep.p < 0 and rep.qdot[0] < 0
        assert 0 < rep.eta <= rep.eta_c

    def test_refrigerator_preset(self):
        rep = run_ness(fridge_config())
        assert rep.regime == REGIME_REFRIGERATOR
        assert rep.qdot[1] < 0 and rep.p > 0
        assert 0 < rep.cop <= rep.cop_c

    def test_broad_baths_kill_the_engine(self):
        rep = run_ness(engine_config(lam=1.0))
        assert rep.regime == REGIME_DUD

    def test_numerical_zeros_are_not_machines(self):
        rep = NessReport(tau=1.0, beta1=0.5, beta2=1.0, mu=0.0)
        rep.p_ext = -1e-17
        rep.p = -1e-17
        rep.qdot = (-1e-17, 1e-17)
        classify_regime(rep)
        assert rep.regime == REGIME_DUD

    def test_hot_bath_ordering_enforced(self):
        rep = NessReport(tau=1.0, beta1=1.0, beta2=0.5, mu=0.0)
        with pytest.raises(ValueError, match="hot"):
            classify_regime(rep)


class TestCarnotReferences:
    def test_carnot_efficiency(self):
        assert carnot_efficiency(0.1, 1.0) == pytest.approx(0.9, abs=1e-15)

    def test_carnot_cop(self):
        assert carnot_cop(0.7, 1.0) == pytest.approx(7.0 / 3.0, rel=1e-12)

    def test_curzon_ahlborn_ratio(self):
        ratio = curzon_ahlborn_efficiency(0.4, 1.0) / carnot_efficiency(0.4, 1.0)
        assert ratio == pytest.approx(0.6126, abs=5e-4)


class TestCollisionalLimit:
    def test_reference_ratio(self):
        pred = collisional_limit(2.0, -1.0, -2.0, 0.1, 1.0)
        assert pred.rho == pytest.approx(0.25)
        assert pred.eta0 == pytest.approx(0.75)
        assert pred.engine_window  # 0.1 < 0.25 < 1
        assert not pred.fridge_window

    def test_efficiency_fraction_of_carnot(self):
        pred = collisional_limit(2.0, -1.0, -2.0, 0.1, 1.0)
        assert pred.eta0 / carnot_efficiency(0.1, 1.0) == pytest.approx(0.75 / 0.9)

    def test_cop_and_its_carnot_fraction(self):
        pred = collisional_limit(2.0, -1.0, -2.0, 0.7, 1.0)
        assert pred.cop0 == pytest.approx(1.0 / 3.0)
        assert pred.cop0 / carnot_cop(0.7, 1.0) == pytest.approx(1.0 / 7.0)
        assert pred.fridge_window  # 0 < 0.25 < 0.7

    def test_undefined_ratio_rejected(self):
        with pytest.raises(ValueError, match="undefined"):
            collisional_limit(-2.0, 1.0, -2.0, 0.5, 1.0)


class TestTightCoupling:
    def test_narrow_bath_is_tightly_coupled(self):
        rep = run_ness(engine_config(lam=1e-3))
        d1, d2 = tight_coupling_check(rep, (2.0, -1.0), -2.0)
        assert d1 / abs(rep.qdot[0]) < 0.02
        assert d2 / abs(rep.qdot[1]) < 0.02

    def test_broad_bath_is_not(self):
        rep = run_ness(engine_config(lam=2.0))
        d1, d2 = tight_coupling_check(rep, (2.0, -1.0), -2.0)
        assert d1 / abs(rep.qdot[0]) > 0.1

    def test_silent_point_has_zero_defect(self):
        rep = NessReport(tau=1.0, beta1=0.5, beta2=1.0, mu=-2.0)
        assert tight_coupling_check(rep, (2.0, -1.0), -2.0) == (0.0, 0.0)


class TestReportSerialization:
    def test_columns_and_determinism(self):
        rep = run_ness(engine_config())
        row = cli._report_row(rep)
        assert len(row) == len(cli.REPORT_COLUMNS)
        assert row[cli.REPORT_COLUMNS.index("regime")] == REGIME_HEAT_ENGINE
        buf1, buf2 = io.StringIO(), io.StringIO()
        cli._write_table(buf1, cli.REPORT_COLUMNS, [row])
        cli._write_table(buf2, cli.REPORT_COLUMNS, [cli._report_row(run_ness(engine_config()))])
        assert buf1.getvalue() == buf2.getvalue()

    def test_copies_estimate_scales_with_bath_width(self):
        narrow = run_ness(engine_config(lam=0.05))
        broad = run_ness(engine_config(lam=1.0))
        assert narrow.n_copies == 101   # ceil(10 / (2 * 0.05)) + 1
        assert broad.n_copies == 6      # ceil(10 / 2) + 1
