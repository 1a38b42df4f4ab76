import dataclasses

import pytest

from conftest import engine_config
from preb.pipeline import (build_bundle, chain_depth, chain_size_convergence,
                           run_ness, run_trajectory)


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
