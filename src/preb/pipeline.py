"""End-to-end runs: config -> chains -> set-up -> propagator -> steady state -> report.

The pipeline is deterministic for a fixed configuration, and it keeps two
process-wide caches, both emptied by ``clear_caches()``:

- chain maps, per (spectral function, depth, discretization size), so sweeps
  that share a bath do not recompute them;
- one set-up: its chains, Hamiltonian with eigensystem, chain eigensystems,
  propagator and stability, keyed by (both spectral functions, discretization
  size, chain length, g, tau).  None of these depends on the temperatures or
  chemical potentials, so a point that differs only in mu or beta refills the
  Fermi factors and solves the Lyapunov equation, nothing more.  The entry's
  arrays are read-only, since later points share them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .builder import (SetupHamiltonian, SystemSpec, assemble_hamiltonian,
                      chain_length_for_tau, copies_required,
                      rethermalization_estimate, thermal_correlation)
from .chainmap import MIN_MODES_PER_SITE, ChainCoefficients, chain_map_tridiag
from .config import ProcessConfig, RunConfig
from .dynamics import preb_trajectory, step_thermodynamics
from .errors import ConfigError, NoUniqueNessError
from .negf import NegfReport, landauer_currents
from .propagator import (StepPropagator, drive_matrix, solve_dlyap_direct,
                         stability_rate, step_propagator)
from .spectral import BathThermalSpec, SpectralFunction
from .thermo import NessReport, classify_regime, ness_rates

PROBE_DEPTH = 16

_CHAIN_CACHE: dict = {}
_SETUP_CACHE: dict = {}  # at most one entry: a tau = 500 propagator alone is 145 MB


def clear_caches() -> None:
    _CHAIN_CACHE.clear()
    _SETUP_CACHE.clear()


def _chain_for(sf: SpectralFunction, depth: int,
               process: ProcessConfig) -> ChainCoefficients:
    n_modes = process.n_modes
    if n_modes is not None and n_modes < MIN_MODES_PER_SITE * depth:
        raise ConfigError(
            f"process.n_modes = {n_modes} is too small for chain depth {depth}: "
            f"need at least {MIN_MODES_PER_SITE * depth}")
    key = (sf, depth, n_modes)
    chain = _CHAIN_CACHE.get(key)
    if chain is None:
        chain = _CHAIN_CACHE[key] = chain_map_tridiag(sf, depth, n_modes=n_modes)
    return chain


@dataclass
class NessBundle:
    """All intermediate objects of one parameter point, for reuse and inspection."""

    cfg: RunConfig
    system: SystemSpec
    chains: tuple[ChainCoefficients, ChainCoefficients]
    l_b: int
    setup: SetupHamiltonian
    prop: StepPropagator
    specs: tuple[BathThermalSpec, BathThermalSpec]
    c_baths: tuple[np.ndarray, np.ndarray]
    p_s: np.ndarray
    spectral_radius: float
    rate: float

    def solve_ness(self) -> np.ndarray:
        return solve_dlyap_direct(self.prop.g_s, self.p_s)

    def report(self, c_ness: Optional[np.ndarray] = None) -> NessReport:
        """Steady-state report of this point, solving for ``c_ness`` unless given.

        With beta1 >= beta2 the hot/cold labeling is undefined, so the point is
        reported as a dud without Carnot references.
        """
        if c_ness is None:
            c_ness = self.solve_ness()
        report = ness_rates(c_ness, self.prop, self.p_s, self.c_baths, self.specs)
        if report.beta1 < report.beta2:
            classify_regime(report)
        cfg = self.cfg
        report.r = self.rate
        report.spectral_radius = self.spectral_radius
        if cfg.bath1.kind == "lorentzian":
            report.lam = cfg.bath1.lam
        if cfg.bath1.kind == "lorentzian" and cfg.bath2.kind == "lorentzian":
            tau_r = rethermalization_estimate(min(cfg.bath1.lam, cfg.bath2.lam),
                                              cfg.process.tau_r_factor)
            report.n_copies = copies_required(tau_r, cfg.process.tau)
        return report


def chain_depth(cfg: RunConfig) -> int:
    """Chain length: the configured override, or ceil(g_B tau) + L_0 from a probe map."""
    if cfg.process.depth is not None:
        return cfg.process.depth
    g_b = max(_chain_for(bath.spectral_function(), PROBE_DEPTH, cfg.process).hop_asym
              for bath in (cfg.bath1, cfg.bath2))
    return chain_length_for_tau(g_b, cfg.process.tau, cfg.process.l_0)


@dataclass(frozen=True)
class _SetUp:
    """The part of a bundle that neither temperatures nor chemical potentials change."""

    system: SystemSpec
    chains: tuple[ChainCoefficients, ChainCoefficients]
    setup: SetupHamiltonian
    prop: StepPropagator
    spectral_radius: float
    rate: float


def _set_up(cfg: RunConfig, l_b: int) -> _SetUp:
    sfs = (cfg.bath1.spectral_function(), cfg.bath2.spectral_function())
    key = (*sfs, cfg.process.n_modes, l_b, cfg.g, cfg.process.tau)
    entry = _SETUP_CACHE.get(key)
    if entry is not None:
        return entry
    _SETUP_CACHE.clear()  # release the old entry before building the new one
    chains = tuple(_chain_for(sf, l_b, cfg.process) for sf in sfs)
    system = SystemSpec.two_site(cfg.g)
    setup = assemble_hamiltonian(system, chains, l_b)
    prop = step_propagator(setup, cfg.process.tau)
    radius, rate = stability_rate(prop.g_s, cfg.process.tau)
    (e1, v1), (e2, v2) = setup.chain_eigensystems
    for array in (setup.h, *setup.eigensystem, e1, v1, e2, v2, prop.u):
        array.setflags(write=False)
    entry = _SETUP_CACHE[key] = _SetUp(system=system, chains=chains, setup=setup,
                                       prop=prop, spectral_radius=radius, rate=rate)
    return entry


def build_bundle(cfg: RunConfig, l_b: Optional[int] = None) -> NessBundle:
    """Every intermediate of one point; the set-up part comes from the set-up cache."""
    l_b = l_b if l_b is not None else chain_depth(cfg)
    fixed = _set_up(cfg, l_b)
    setup = fixed.setup
    specs = (BathThermalSpec(cfg.bath1.beta, cfg.bath1.mu),
             BathThermalSpec(cfg.bath2.beta, cfg.bath2.mu))
    c_baths = tuple(thermal_correlation(setup.h[b, b], spec, eigensystem=es)
                    for b, spec, es in zip((setup.bath1, setup.bath2), specs,
                                           setup.chain_eigensystems))
    p_s = drive_matrix(fixed.prop, *c_baths)
    return NessBundle(cfg=cfg, system=fixed.system, chains=fixed.chains, l_b=l_b,
                      setup=setup, prop=fixed.prop, specs=specs, c_baths=c_baths,
                      p_s=p_s, spectral_radius=fixed.spectral_radius, rate=fixed.rate)


def run_ness(cfg: RunConfig) -> NessReport:
    """Solve one parameter point and return the full steady-state report."""
    return build_bundle(cfg).report()


def run_trajectory(cfg: RunConfig, steps: int):
    """Iterate the cycle map from the empty system, with per-step thermodynamics.

    Returns (TrajectoryResult, [StepThermo per cycle], NessReport or None); the
    report is None when the point has no unique steady state.
    """
    bundle = build_bundle(cfg)
    try:
        c_ness = bundle.solve_ness()
    except NoUniqueNessError:
        c_ness, report = None, None
    else:
        report = bundle.report(c_ness)
    c0 = np.zeros((bundle.setup.l_s, bundle.setup.l_s), dtype=complex)
    traj = preb_trajectory(c0, steps, bundle.prop, bundle.p_s, c_ness=c_ness)
    thermos = [step_thermodynamics(c, bundle.prop, bundle.c_baths, bundle.specs)
               for c in traj.states[:-1]]
    return traj, thermos, report


def run_chainmap(cfg: RunConfig) -> tuple[ChainCoefficients, ChainCoefficients]:
    l_b = chain_depth(cfg)
    return tuple(_chain_for(bath.spectral_function(), l_b, cfg.process)
                 for bath in (cfg.bath1, cfg.bath2))


def run_negf(cfg: RunConfig) -> NegfReport:
    system = SystemSpec.two_site(cfg.g)
    sfs = (cfg.bath1.spectral_function(), cfg.bath2.spectral_function())
    specs = (BathThermalSpec(cfg.bath1.beta, cfg.bath1.mu),
             BathThermalSpec(cfg.bath2.beta, cfg.bath2.mu))
    return landauer_currents(system, sfs, specs)


def chain_size_convergence(cfg: RunConfig, factor: int = 2) -> float:
    """Relative change of the steady rates when the chains are ``factor`` times longer.

    The doubling check of validation mode; small values confirm the
    light-cone sizing of the chains.
    """
    base = run_ness(cfg)
    ref = build_bundle(cfg, l_b=factor * chain_depth(cfg)).report()
    scale = max(abs(ref.qdot[0]), abs(ref.qdot[1]), abs(ref.p_ext), 1e-12)
    return max(abs(base.p_ext - ref.p_ext), abs(base.qdot[0] - ref.qdot[0]),
               abs(base.qdot[1] - ref.qdot[1])) / scale
