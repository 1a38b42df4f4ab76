"""End-to-end runs: config -> chains -> set-up -> propagator -> steady state -> report.

The pipeline is deterministic for a fixed configuration, and it keeps two
process-wide caches, both emptied by ``clear_caches()``:

- chain maps, per (spectral function, discretization size).  Each bath is
  mapped once, to the fixed depth ``MAP_DEPTH``, and every set-up cuts or pads
  that map to its chain length l_b, so a tau sweep maps each bath once.  The
  entry also holds the bath's light-cone speed g_B, the tail hopping of the
  map's first ``SIZING_WINDOW`` sites, so sizing a chain is a lookup.  Only a
  bath whose tail has not settled by ``MAP_DEPTH`` is mapped to l_b > MAP_DEPTH
  on its own, uncached;
- one set-up: its chains, Hamiltonian with eigensystem, chain eigensystems,
  propagator with its cycle operators, and stability, keyed by (both spectral
  functions, discretization size, chain length, g, tau).  None of these
  depends on the temperatures or chemical potentials, so a point that differs
  only in mu or beta refills the chains' Fermi factors, applies the cycle
  operators to them (the drive matrix and the accounting, O(l_b) each) and
  solves the Lyapunov equation, nothing more.  The entry's arrays are
  read-only, since later points share them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .builder import (SetupHamiltonian, SystemSpec, assemble_hamiltonian,
                      chain_length_for_tau, copies_required,
                      rethermalization_estimate)
from .chainmap import MIN_MODES_PER_SITE, ChainCoefficients, chain_map_tridiag
from .config import ProcessConfig, RunConfig
from .dynamics import preb_trajectory, step_thermodynamics
from .errors import ConfigError, NoUniqueNessError
from .negf import NegfReport, landauer_currents
from .propagator import (StepPropagator, drive_matrix, solve_dlyap_direct,
                         stability_rate, step_propagator)
from .spectral import BathThermalSpec, SpectralFunction, fermi_occupation
from .thermo import NessReport, classify_regime, ness_rates

MAP_DEPTH = 128     # D: the depth every bath is mapped to, then cut or padded
SIZING_WINDOW = 16  # g_B is the tail hopping of the map's first this many sites

_CHAIN_CACHE: dict = {}
_SETUP_CACHE: dict = {}  # at most one entry: a tau = 500 propagator alone is 145 MB


def clear_caches() -> None:
    _CHAIN_CACHE.clear()
    _SETUP_CACHE.clear()


@dataclass(frozen=True)
class _BathMap:
    chain: ChainCoefficients  # mapped to MAP_DEPTH sites
    g_b: float                # light-cone speed, from the first SIZING_WINDOW sites


def _map(sf: SpectralFunction, depth: int, n_modes: Optional[int]) -> ChainCoefficients:
    if n_modes is not None and n_modes < MIN_MODES_PER_SITE * depth:
        raise ConfigError(
            f"process.n_modes = {n_modes} is too small to map a bath to depth {depth}: "
            f"need at least {MIN_MODES_PER_SITE * depth}")
    return chain_map_tridiag(sf, depth, n_modes=n_modes)


def _bath_map(sf: SpectralFunction, process: ProcessConfig) -> _BathMap:
    key = (sf, process.n_modes)
    entry = _CHAIN_CACHE.get(key)
    if entry is None:
        chain = _map(sf, MAP_DEPTH, process.n_modes)
        window = ChainCoefficients(chain.eps[:SIZING_WINDOW], chain.hop[:SIZING_WINDOW])
        entry = _CHAIN_CACHE[key] = _BathMap(chain, window.hop_asym)
    return entry


def _chain_for(sf: SpectralFunction, l_b: int, process: ProcessConfig) -> ChainCoefficients:
    """The bath's chain for a set-up of ``l_b`` sites, to be cut or padded to it.

    That is the cached map, unless its tail has not settled and ``l_b``
    reaches past it: then the bath is mapped to ``l_b`` itself.
    """
    chain = _bath_map(sf, process).chain
    if l_b <= MAP_DEPTH or chain.tail_converged():
        return chain
    return _map(sf, l_b, process.n_modes)


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
    occupations: tuple[np.ndarray, np.ndarray]  # Fermi factors of each chain's eigenmodes
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
        report = ness_rates(c_ness, self.prop, self.p_s, self.occupations, self.specs)
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
    """Chain length l_b: ceil(g_B tau) + L_0, or the configured override.

    An override may not cut into the light cone ceil(g_B tau), the sites a
    cycle of length tau reaches; g_B comes from the cached bath maps.
    """
    process = cfg.process
    g_b = max(_bath_map(bath.spectral_function(), process).g_b
              for bath in (cfg.bath1, cfg.bath2))
    if process.depth is None:
        return chain_length_for_tau(g_b, process.tau, process.l_0)
    light_cone = chain_length_for_tau(g_b, process.tau, 0)
    if process.depth < light_cone:
        raise ConfigError(f"process.depth = {process.depth} is below the light cone "
                          f"ceil(g_B tau) = {light_cone} of tau = {process.tau:g}")
    return process.depth


@dataclass(frozen=True)
class _SetUp:
    """The part of a bundle that neither temperatures nor chemical potentials change."""

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
    setup = assemble_hamiltonian(SystemSpec.two_site(cfg.g), chains, l_b)
    prop = step_propagator(setup, cfg.process.tau)
    radius, rate = stability_rate(prop.g_s, cfg.process.tau)
    for array in (setup.h, *setup.eigensystem, prop.u, *prop.cycle_operators.arrays(),
                  *(a for pair in setup.chains + setup.chain_eigensystems for a in pair)):
        array.setflags(write=False)
    entry = _SETUP_CACHE[key] = _SetUp(chains=chains, setup=setup, prop=prop,
                                       spectral_radius=radius, rate=rate)
    return entry


def build_bundle(cfg: RunConfig, l_b: Optional[int] = None) -> NessBundle:
    """Every intermediate of one point; the set-up part comes from the set-up cache."""
    l_b = l_b if l_b is not None else chain_depth(cfg)
    fixed = _set_up(cfg, l_b)
    setup = fixed.setup
    specs = (BathThermalSpec(cfg.bath1.beta, cfg.bath1.mu),
             BathThermalSpec(cfg.bath2.beta, cfg.bath2.mu))
    occupations = tuple(fermi_occupation(spec, energies)
                        for spec, (energies, _) in zip(specs, setup.chain_eigensystems))
    p_s = drive_matrix(fixed.prop, *occupations)
    return NessBundle(cfg=cfg, system=setup.system_spec, chains=fixed.chains, l_b=l_b,
                      setup=setup, prop=fixed.prop, specs=specs, occupations=occupations,
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
    thermos = [step_thermodynamics(c, ct, bundle.prop, bundle.occupations, bundle.specs)
               for c, ct in zip(traj.states[:-1], traj.states[1:])]
    return traj, thermos, report


def run_chainmap(cfg: RunConfig) -> tuple[ChainCoefficients, ChainCoefficients]:
    """Each bath's chain as the set-up uses it: ``l_b`` sites, cut or padded."""
    l_b = chain_depth(cfg)
    return tuple(ChainCoefficients(*_chain_for(bath.spectral_function(), l_b,
                                               cfg.process).padded(l_b))
                 for bath in (cfg.bath1, cfg.bath2))


def run_negf(cfg: RunConfig) -> NegfReport:
    system = SystemSpec.two_site(cfg.g)
    sfs = (cfg.bath1.spectral_function(), cfg.bath2.spectral_function())
    specs = (BathThermalSpec(cfg.bath1.beta, cfg.bath1.mu),
             BathThermalSpec(cfg.bath2.beta, cfg.bath2.mu))
    return landauer_currents(system, sfs, specs)


def chain_size_convergence(cfg: RunConfig) -> float:
    """Relative change of the steady rates when the chains are twice as long.

    The doubling check of validation mode; small values confirm the
    light-cone sizing of the chains.
    """
    base = run_ness(cfg)
    ref = build_bundle(cfg, l_b=2 * chain_depth(cfg)).report()
    scale = max(abs(ref.qdot[0]), abs(ref.qdot[1]), abs(ref.p_ext), 1e-12)
    return max(abs(base.p_ext - ref.p_ext), abs(base.qdot[0] - ref.qdot[0]),
               abs(base.qdot[1] - ref.qdot[1])) / scale
