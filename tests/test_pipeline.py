import dataclasses

import pytest

from conftest import engine_config
from preb.pipeline import (build_bundle, chain_depth, chain_size_convergence,
                           clear_caches, run_ness, run_trajectory)
from preb.sweeps import apply_axis


class TestSizing:
    def test_depth_from_tau_and_offset(self):
        cfg = engine_config()
        base = chain_depth(cfg)
        assert base == chain_depth(cfg)  # deterministic, cached
        longer = cfg.replace(process=dataclasses.replace(cfg.process, tau=2.0))
        assert chain_depth(longer) > base

    def test_explicit_depth_override(self):
        cfg = engine_config()
        cfg = cfg.replace(process=dataclasses.replace(cfg.process, depth=13))
        assert chain_depth(cfg) == 13
        assert build_bundle(cfg).l_b == 13

    def test_chain_size_doubling_check(self):
        """Rates are converged in the chain length; the buffer sets the accuracy.

        The light-cone truncation error falls superexponentially with the
        offset L_0: the default 5 gives ~1e-4, and 1e-6 needs L_0 >= 10.
        """
        cfg = engine_config()
        assert chain_size_convergence(cfg) < 1e-4
        buffered = cfg.replace(process=dataclasses.replace(cfg.process, l_0=10))
        assert chain_size_convergence(buffered) < 1e-6


class TestTrajectoryRun:
    def test_converges_to_the_reported_ness(self):
        traj, thermos, report = run_trajectory(engine_config(), steps=60)
        assert report is not None
        assert traj.dist_to_ness[-1] < 1e-8
        tail = thermos[-1]
        assert tail.w_ext / report.tau == pytest.approx(report.p_ext, rel=1e-6)

    def test_repeated_runs_are_identical(self):
        rep1 = run_ness(engine_config())
        rep2 = run_ness(engine_config())
        assert rep1.csv_row() == rep2.csv_row()


def _with_process(cfg, **changes):
    return cfg.replace(process=dataclasses.replace(cfg.process, **changes))


class TestSetUpCache:
    @pytest.mark.parametrize("axis, value", [("mu", -1.5), ("beta1", 0.3)])
    def test_mu_and_beta1_points_share_the_set_up(self, axis, value):
        base = build_bundle(engine_config())
        other = build_bundle(apply_axis(engine_config(), axis, value))
        assert other.prop is base.prop and other.setup is base.setup
        assert other.specs != base.specs

    def test_hit_reports_equal_cold_reports(self):
        cfg = apply_axis(engine_config(), "mu", -1.7)
        build_bundle(engine_config())  # a neighbouring point fills the entry
        warm = build_bundle(cfg).report()
        clear_caches()
        cold = build_bundle(cfg).report()
        for field in dataclasses.fields(cold):
            assert getattr(warm, field.name) == getattr(cold, field.name), field.name

    @pytest.mark.parametrize("change", [
        lambda cfg: apply_axis(cfg, "tau", 1.1),
        lambda cfg: apply_axis(cfg, "lambda", 0.06),
        lambda cfg: _with_process(cfg, depth=10),
        lambda cfg: _with_process(cfg, n_modes=1000),
        lambda cfg: cfg.replace(g=1.1),
    ], ids=["tau", "lambda", "depth", "n_modes", "g"])
    def test_set_up_inputs_miss_the_cache(self, change):
        base_cfg = _with_process(engine_config(), depth=9)  # tau alone keeps l_b
        base = build_bundle(base_cfg)
        other = build_bundle(change(base_cfg))
        assert other.prop is not base.prop and other.setup is not base.setup

    def test_cached_arrays_are_read_only(self):
        bundle = build_bundle(engine_config())
        setup = bundle.setup
        arrays = [setup.h, bundle.prop.u, bundle.prop.g_s, *setup.eigensystem,
                  *(a for es in setup.chain_eigensystems for a in es)]
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 0.0
