import dataclasses
import logging
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import (assert_conservation_laws, bundle_in_frame, chain_size_convergence,
                      engine_config, fixed_config, write_spectral_table)
from preb import cli
from preb.chainmap import chain_map_tridiag, discretize_modes, star_to_chain
from preb.config import BathConfig, parse_config
from preb.dynamics import HOLE, PARTICLE, in_frame, preb_step
from preb.pipeline import (MAP_DEPTH, SIZING_WINDOW, build_bundle, chain_depth, clear_caches,
                           run_ness, run_trajectory)
from preb.propagator import drive_matrix
from preb.sweeps import apply_axis, run_sweep, sweep_values
from preb.validation import _rho_to_mu

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _wrap_at_every_binding(monkeypatch, fn, record):
    """Replace ``fn`` at every ``preb.*`` binding by a wrapper that calls ``record`` first."""
    def wrapped(*args, **kwargs):
        record(*args, **kwargs)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "preb" or name.startswith("preb."):
            for key, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, key, wrapped)


class TestSizing:
    def test_depth_from_tau_and_offset(self):
        cfg = engine_config()
        base = chain_depth(cfg)
        assert base == chain_depth(cfg)  # deterministic, cached
        longer = cfg.replace(process=dataclasses.replace(cfg.process, tau=2.0))
        assert chain_depth(longer) > base

    def test_heat_engine_depths(self):
        """The light-cone speed comes from a map of the first 16 sites."""
        assert chain_depth(engine_config(tau=50.0)) == 156
        cfg = parse_config(CONFIGS / "sweep_tau.ini")
        taus = sweep_values(cfg.sweep)
        assert sum(chain_depth(apply_axis(cfg, "tau", tau)) for tau in taus) == 642

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
        assert cli._report_row(rep1) == cli._report_row(rep2)


class TestWorkPerPoint:
    """A point builds one drive matrix, and each state meets the cycle map once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Call counts of ``drive_matrix`` and ``preb_step``, wrapped at every binding."""
        counts = {}
        for fn in (drive_matrix, preb_step):
            counts[fn.__name__] = 0

            def count(*args, _name=fn.__name__, **kwargs):
                counts[_name] += 1

            _wrap_at_every_binding(monkeypatch, fn, count)
        return counts

    def test_steady_state(self, calls):
        run_ness(engine_config())
        assert calls == {"drive_matrix": 1, "preb_step": 1}

    def test_trajectory(self, calls):
        run_trajectory(engine_config(), 50)  # 50 steps, plus the report's residual check
        assert calls == {"drive_matrix": 1, "preb_step": 51}


def test_warm_point_does_no_eigendecomposition(monkeypatch):
    """On a cached set-up a new mu and beta1 take 2 x 2 algebra and one 4 x 4 solve."""
    cfg = engine_config(tau=50.0)
    run_ness(cfg)

    def refuse(*args, **kwargs):
        raise AssertionError("a warm point called an eigensolver")

    for name in ("eigvals", "eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    rep = run_ness(cfg.replace(bath1=dataclasses.replace(cfg.bath1, mu=-1.7, beta=0.3),
                               bath2=dataclasses.replace(cfg.bath2, mu=-1.7)))
    assert (rep.mu, rep.beta1) == (-1.7, 0.3)
    scale = max(abs(rep.qdot[0]), abs(rep.qdot[1]), abs(rep.p_ext), abs(rep.p_chem),
                abs(rep.hdot_b[0]), abs(rep.hdot_b[1]), 1e-12)
    assert abs(rep.p - rep.qdot[0] - rep.qdot[1]) < 1e-8 * scale
    assert rep.sigma > -1e-10
    assert abs(rep.ndot[0] + rep.ndot[1]) < 1e-10
    for merit, carnot in ((rep.eta, rep.eta_c), (rep.cop, rep.cop_c)):
        assert merit is None or merit - carnot < 1e-12


class TestChainMaps:
    """Each bath is sized from a ``SIZING_WINDOW``-site map, then mapped once and cut.

    The map is max(l_b, ``MAP_DEPTH``) sites deep; a longer chain maps the bath again.
    """

    @pytest.fixture
    def map_depths(self, monkeypatch):
        """The depth of every ``chain_map_tridiag`` call, from cold caches."""
        clear_caches()
        depths = []
        _wrap_at_every_binding(monkeypatch, chain_map_tridiag,
                               lambda sf, depth: depths.append(depth))
        return depths

    def test_tau_sweep_maps_each_bath_once(self, map_depths):
        rows = run_sweep(parse_config(CONFIGS / "sweep_tau.ini"))
        assert len(rows) == 40 and all(row.error is None for row in rows)
        assert map_depths == [SIZING_WINDOW, SIZING_WINDOW, MAP_DEPTH, MAP_DEPTH]

    def test_deep_point_maps_each_bath_once(self, map_depths):
        bundle = build_bundle(engine_config(tau=50.0))
        assert bundle.l_b == 156
        assert map_depths == [SIZING_WINDOW, SIZING_WINDOW, 156, 156]
        # a shorter set-up cuts the deeper map; a longer one maps the baths again
        shorter = build_bundle(engine_config(tau=20.0))
        assert all(a is b for a, b in zip(shorter.chains, bundle.chains))
        assert len(map_depths) == 4
        assert build_bundle(engine_config(tau=60.0)).l_b == 186
        assert map_depths[4:] == [186, 186]

    def test_unsettled_tail_is_mapped_to_the_chain_length(self, map_depths, tmp_path):
        """Two bands with a gap: the hoppings alternate and never settle."""
        omega = np.linspace(-3.0, 3.0, 601)
        write_spectral_table(tmp_path / "gapped.csv", omega, (abs(omega) >= 1.0) * 1.0)
        cfg = engine_config(tau=80.0)
        cfg = cfg.replace(bath1=BathConfig(kind="tabulated", table=str(tmp_path / "gapped.csv")))
        l_b = chain_depth(cfg)
        assert l_b > MAP_DEPTH and map_depths == [SIZING_WINDOW, SIZING_WINDOW]
        bundle = build_bundle(cfg)
        assert [chain.depth for chain in bundle.chains] == [l_b, l_b]
        assert not bundle.chains[0].tail_converged()
        assert map_depths == [SIZING_WINDOW, SIZING_WINDOW, l_b, l_b]

    def test_tabulated_bath_is_mapped_once(self, map_depths, tmp_path):
        """A table read again for every point still keys both caches."""
        omega = np.linspace(-6.0, 6.0, 601)
        write_spectral_table(tmp_path / "band.csv", omega, np.maximum(0.0, 1.0 - (omega / 4) ** 2))
        cfg = engine_config().replace(
            bath1=BathConfig(kind="tabulated", table=str(tmp_path / "band.csv")))
        bundles = [build_bundle(apply_axis(cfg, "mu", mu)) for mu in (-2.0, -1.5, -1.0, -0.5)]
        assert map_depths == [SIZING_WINDOW, SIZING_WINDOW, MAP_DEPTH, MAP_DEPTH]
        assert all(bundle.cycle is bundles[0].cycle for bundle in bundles)

    def test_production_never_reaches_the_lanczos_oracle(self, monkeypatch, tmp_path):
        """No bath is discretized; only a table maps through ``star_to_chain``.

        Lorentzian and flat baths map through their moments, a table through
        the Gauss nodes of its cells.
        """
        def refuse(*args, **kwargs):
            raise AssertionError("a point reached the discretize-and-Lanczos oracle")

        stars = []
        _wrap_at_every_binding(monkeypatch, discretize_modes, refuse)
        _wrap_at_every_binding(monkeypatch, star_to_chain, lambda *args: stars.append(args[2]))
        omega = np.linspace(-3.0, 3.0, 601)
        write_spectral_table(tmp_path / "gapped.csv", omega, (abs(omega) >= 1.0) * 1.0)
        cfg = engine_config(tau=50.0)
        for bath1, via_star in ((cfg.bath1, False), (BathConfig(kind="flat", kappa=0.5), False),
                                (BathConfig(kind="tabulated", table=str(tmp_path / "gapped.csv")),
                                 True)):
            clear_caches()
            stars.clear()
            assert build_bundle(cfg.replace(bath1=bath1)).l_b > MAP_DEPTH
            assert bool(stars) == via_star

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.ini")), ids=lambda p: p.name)
    def test_shipped_baths_settle_within_the_map(self, path, caplog):
        clear_caches()
        with caplog.at_level(logging.INFO, logger="preb.chainmap"):
            bundle = build_bundle(parse_config(path))
        assert [chain.depth for chain in bundle.chains] == [MAP_DEPTH, MAP_DEPTH]
        assert all(chain.tail_converged() for chain in bundle.chains)
        # the chain map logs nothing, such as "chain tail not settled"
        assert [r.getMessage() for r in caplog.records if r.name == "preb.chainmap"] == []


def _with_process(cfg, **changes):
    return cfg.replace(process=dataclasses.replace(cfg.process, **changes))


class TestSetUpCache:
    @pytest.mark.parametrize("axis, value", [("mu", -1.5), ("beta1", 0.3)])
    def test_mu_and_beta1_points_share_the_set_up(self, axis, value):
        base = build_bundle(engine_config())
        other = build_bundle(apply_axis(engine_config(), axis, value))
        assert other.cycle is base.cycle
        assert all(a is b for a, b in zip(other.chains, base.chains))
        assert other.specs != base.specs
        assert any((f != g).any() for f, g in zip(other.occupations, base.occupations))

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
        lambda cfg: _with_process(cfg, l_0=6),
        lambda cfg: cfg.replace(g=1.1),
    ], ids=["tau", "lambda", "l0", "g"])
    def test_set_up_inputs_miss_the_cache(self, change):
        base_cfg = engine_config()  # l_b = 9, which tau = 1.1 keeps
        base = build_bundle(base_cfg)
        other = build_bundle(change(base_cfg))
        assert other.cycle is not base.cycle

    def test_cached_arrays_are_read_only(self):
        bundle = build_bundle(engine_config())
        arrays = [*bundle.cycle.arrays(), *(a for chain in bundle.chains
                                            for a in (chain.eps, chain.hop))]
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 0.0

    def test_entry_holds_no_array_of_the_set_up_size(self):
        """At tau = 50 (l_b = 156, n = 314) U alone has n^2 = 98 596 entries."""
        cycle = build_bundle(engine_config(tau=50.0)).cycle
        assert cycle.l_b == 156
        for array in cycle.arrays():
            while array.base is not None:  # nor is any a view into a larger array
                array = array.base
            assert array.size <= 6 * cycle.l_b


RATES = ("p_ext", "p_chem", "qdot", "ndot", "hdot_b", "hdot_sb", "sigma")


def _rates(report) -> np.ndarray:
    return np.hstack([getattr(report, name) for name in RATES])


class TestFrame:
    """Filled baths are accounted in holes: 1 - C_S and 1 - f_l."""

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.ini")), ids=lambda p: p.name)
    def test_shipped_configs_count_particles(self, path):
        report = run_ness(parse_config(path))
        assert report.frame == PARTICLE

    @pytest.mark.parametrize("lam", [0.05, 1e-3])
    @pytest.mark.parametrize("rho, frame", [(1.028, HOLE), (0.995, PARTICLE)])
    def test_level_ratio_scan_ends(self, lam, rho, frame):
        """C04's outermost points: mu = 109.1 fills both baths and mu = -598 empties them.

        With a path-ordered eigensolver and particles alone, sigma at
        rho = 1.028, lambda = 1e-3 came out -3e-12, below the stationarity
        floor of ``ness_rates``: roundoff in dN times mu.
        """
        rhos = np.linspace(-0.49, 1.49, 61)  # C04's scan
        rho = float(rhos[np.argmin(np.abs(rhos - rho))])
        bundle = build_bundle(fixed_config(0.4, 1.0, _rho_to_mu(rho), lam, 1.0))
        assert bundle.frame == frame
        report = bundle.report()
        assert report.frame == frame
        assert_conservation_laws(report)

    @pytest.mark.parametrize("tau", [1.0, 20.0])
    @pytest.mark.parametrize("mu", [-3.0, -2.0, 0.0, 1.0])
    def test_frames_agree(self, tau, mu):
        """Both frames give the same report to 3e-13 of its largest rate."""
        bundle = build_bundle(apply_axis(engine_config(tau=tau), "mu", mu))
        assert bundle.frame == (HOLE if mu >= 0 else PARTICLE)
        other = bundle_in_frame(bundle, PARTICLE if bundle.frame == HOLE else HOLE)
        got, want = _rates(other.report()), _rates(bundle.report())
        assert np.max(np.abs(got - want)) <= 3e-13 * np.max(np.abs(want))

    def test_hole_frame_trajectory_returns_particle_states(self):
        cfg = apply_axis(engine_config(), "mu", 1.0)
        bundle = build_bundle(cfg)
        assert bundle.frame == HOLE
        traj, steps, report = run_trajectory(cfg, 60)
        assert report.frame == HOLE
        assert np.max(np.abs(traj.states[0])) == 0.0  # the empty system
        c_ness = in_frame(bundle.solve_ness(), HOLE)
        assert traj.dist_to_ness[-1] < 1e-8
        assert np.max(np.abs(traj.states[-1] - c_ness)) < 1e-8
        for st in steps:
            assert st.first_law_defect < 1e-12 and st.sigma > -1e-12
            assert abs(st.dn_s + st.dn[0] + st.dn[1]) < 1e-12
        # the first cycle fills the empty system: its particle number grows
        assert steps[0].dn_s > 0


class TestShortCycles:
    """The laws hold towards the Zeno regime, where every per-cycle change is O(tau^2)."""

    @pytest.mark.parametrize("tau", [1e-2, 1e-3, 1e-4, 1e-5])
    @pytest.mark.parametrize("lam", [0.05, 1.0])
    def test_conservation_laws(self, lam, tau):
        """First law to 1.62e-12 of the largest rate, particles to 2.62e-5 of the larger current.

        Each bound is 3 times the worst measured over these eight points.  The
        particle currents, O(tau) each, cancel only to the fixed point's
        absolute roundoff divided by tau.
        """
        rep = run_ness(engine_config(lam=lam, tau=tau))
        scale = max(abs(rep.qdot[0]), abs(rep.qdot[1]), abs(rep.p_ext), abs(rep.p_chem),
                    abs(rep.hdot_b[0]), abs(rep.hdot_b[1]))
        assert abs(rep.p - rep.qdot[0] - rep.qdot[1]) <= 1.62e-12 * scale
        current = max(abs(rep.ndot[0]), abs(rep.ndot[1]))
        assert abs(rep.ndot[0] + rep.ndot[1]) <= 2.62e-5 * current
