"""End-to-end runs: config -> chains -> set-up -> cycle map -> steady state -> report.

The pipeline is deterministic for a fixed configuration, and it keeps two
process-wide caches, both emptied by ``clear_caches()``:

- chain maps, per (spectral function, discretization size).  Each bath is
  mapped once, to the fixed depth ``MAP_DEPTH``, and every set-up cuts or pads
  that map to its chain length l_b, so a tau sweep maps each bath once.  The
  entry also holds the bath's light-cone speed g_B, the tail hopping of the
  map's first ``SIZING_WINDOW`` sites, so sizing a chain is a lookup.  Only a
  bath whose tail has not settled by ``MAP_DEPTH`` is mapped to l_b > MAP_DEPTH
  on its own, uncached;
- one set-up: its chains and its ``CycleMap``, keyed by (both spectral
  functions, discretization size, chain length, g, tau).  Neither depends on
  the temperatures or chemical potentials, so a point that differs only in mu
  or beta refills the chains' Fermi factors, applies the cycle map to them
  (the drive matrix and the accounting, O(l_b) each) and solves the Lyapunov
  equation, nothing more.  The set-up matrix, U and every eigenvector are
  freed once the cycle map is built, so the entry holds O(l_b) numbers, all
  read-only, since later points share them.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .builder import (SystemSpec, assemble_hamiltonian, chain_length_for_tau,
                      copies_required, rethermalization_estimate)
from .chainmap import MIN_MODES_PER_SITE, ChainCoefficients, chain_map_tridiag
from .config import RunConfig
from .dynamics import preb_trajectory, step_thermodynamics
from .errors import ConfigError, NoUniqueNessError
from .negf import NegfReport, landauer_currents
from .propagator import CycleMap, cycle_map, drive_matrix, solve_dlyap_direct
from .spectral import LORENTZIAN, BathThermalSpec, SpectralFunction, fermi_occupation
from .thermo import NessReport, classify_regime, ness_rates

MAP_DEPTH = 128     # D: the depth every bath is mapped to, then cut or padded
SIZING_WINDOW = 16  # g_B is the tail hopping of the map's first this many sites


def clear_caches() -> None:
    _bath_map.cache_clear()
    _set_up.cache_clear()


def _map(sf: SpectralFunction, depth: int, n_modes: Optional[int]) -> ChainCoefficients:
    if n_modes is not None and n_modes < MIN_MODES_PER_SITE * depth:
        raise ConfigError(
            f"process.n_modes = {n_modes} is too small to map a bath to depth {depth}: "
            f"need at least {MIN_MODES_PER_SITE * depth}")
    return chain_map_tridiag(sf, depth, n_modes=n_modes)


@functools.cache
def _bath_map(sf: SpectralFunction, n_modes: Optional[int]) -> tuple[ChainCoefficients, float]:
    """The bath's map to ``MAP_DEPTH`` sites and its light-cone speed g_B."""
    chain = _map(sf, MAP_DEPTH, n_modes)
    window = ChainCoefficients(chain.eps[:SIZING_WINDOW], chain.hop[:SIZING_WINDOW])
    return chain, window.hop_asym


def _chain_for(sf: SpectralFunction, l_b: int, n_modes: Optional[int]) -> ChainCoefficients:
    """The bath's chain for a set-up of ``l_b`` sites, to be cut or padded to it.

    That is the cached map, unless its tail has not settled and ``l_b``
    reaches past it: then the bath is mapped to ``l_b`` itself.
    """
    chain, _ = _bath_map(sf, n_modes)
    if l_b <= MAP_DEPTH or chain.tail_converged():
        return chain
    return _map(sf, l_b, n_modes)


@dataclass
class NessBundle:
    """All intermediate objects of one parameter point, for reuse and inspection."""

    cfg: RunConfig
    chains: tuple[ChainCoefficients, ChainCoefficients]
    cycle: CycleMap
    specs: tuple[BathThermalSpec, BathThermalSpec]
    occupations: tuple[np.ndarray, np.ndarray]  # Fermi factors of each chain's eigenmodes
    p_s: np.ndarray

    @property
    def l_b(self) -> int:
        return self.cycle.l_b

    def solve_ness(self) -> np.ndarray:
        return solve_dlyap_direct(self.cycle.g_s, self.p_s)

    def report(self, c_ness: Optional[np.ndarray] = None) -> NessReport:
        """Steady-state report of this point, solving for ``c_ness`` unless given.

        With beta1 >= beta2 the hot/cold labeling is undefined, so the point is
        reported as a dud without Carnot references.
        """
        if c_ness is None:
            c_ness = self.solve_ness()
        report = ness_rates(c_ness, self.cycle, self.p_s, self.occupations, self.specs)
        if report.beta1 < report.beta2:
            classify_regime(report)
        cfg = self.cfg
        report.r = self.cycle.rate
        report.spectral_radius = self.cycle.spectral_radius
        if cfg.bath1.kind == LORENTZIAN:
            report.lam = cfg.bath1.lam
        if cfg.lorentzian_baths:
            tau_r = rethermalization_estimate(min(cfg.bath1.lam, cfg.bath2.lam),
                                              cfg.process.tau_r_factor)
            ratio = tau_r / cfg.process.tau
            if not ratio < 2.0 ** 53:
                raise ConfigError(f"process.tau_r_factor = {cfg.process.tau_r_factor:g} "
                                  f"makes tau_R / tau = factor / (2 lambda tau) = {ratio:g}; "
                                  f"from 2**53 on the copy count is not an exact integer")
            report.n_copies = copies_required(tau_r, cfg.process.tau)
        return report


def chain_depth(cfg: RunConfig) -> int:
    """Chain length l_b: ceil(g_B tau) + L_0, or the configured override.

    An override may not cut into the light cone ceil(g_B tau), the sites a
    cycle of length tau reaches; g_B comes from the cached bath maps.
    """
    process = cfg.process
    g_b = max(_bath_map(bath.spectral_function(), process.n_modes)[1]
              for bath in (cfg.bath1, cfg.bath2))
    if process.depth is None:
        return chain_length_for_tau(g_b, process.tau, process.l_0)
    light_cone = chain_length_for_tau(g_b, process.tau, 0)
    if process.depth < light_cone:
        raise ConfigError(f"process.depth = {process.depth} is below the light cone "
                          f"ceil(g_B tau) = {light_cone} of tau = {process.tau:g}")
    return process.depth


@functools.lru_cache(maxsize=1)
def _set_up(sfs: tuple[SpectralFunction, SpectralFunction], n_modes: Optional[int],
            l_b: int, g: float, tau: float) -> tuple[tuple[ChainCoefficients, ...], CycleMap]:
    """The part of a point that neither temperatures nor chemical potentials change."""
    chains = tuple(_chain_for(sf, l_b, n_modes) for sf in sfs)
    setup = assemble_hamiltonian(SystemSpec.two_site(g), chains, l_b)
    return chains, cycle_map(setup, tau)


def build_bundle(cfg: RunConfig) -> NessBundle:
    """Every intermediate of one point; the set-up part comes from the set-up cache."""
    sfs = (cfg.bath1.spectral_function(), cfg.bath2.spectral_function())
    chains, cycle = _set_up(sfs, cfg.process.n_modes, chain_depth(cfg), cfg.g,
                            cfg.process.tau)
    specs = (BathThermalSpec(cfg.bath1.beta, cfg.bath1.mu),
             BathThermalSpec(cfg.bath2.beta, cfg.bath2.mu))
    occupations = tuple(fermi_occupation(spec, energies)
                        for spec, energies in zip(specs, cycle.energies))
    p_s = drive_matrix(cycle, *occupations)
    return NessBundle(cfg=cfg, chains=chains, cycle=cycle, specs=specs,
                      occupations=occupations, p_s=p_s)


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
    c0 = np.zeros(bundle.cycle.h_s.shape, dtype=complex)
    traj = preb_trajectory(c0, steps, bundle.cycle, bundle.p_s, c_ness=c_ness)
    thermos = [step_thermodynamics(c, ct, bundle.cycle, bundle.occupations, bundle.specs)
               for c, ct in zip(traj.states[:-1], traj.states[1:])]
    return traj, thermos, report


def run_chainmap(cfg: RunConfig) -> tuple[ChainCoefficients, ChainCoefficients]:
    """Each bath's chain as the set-up uses it: ``l_b`` sites, cut or padded."""
    l_b = chain_depth(cfg)
    return tuple(ChainCoefficients(*_chain_for(bath.spectral_function(), l_b,
                                               cfg.process.n_modes).padded(l_b))
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
    ref = run_ness(cfg.replace(process=dataclasses.replace(cfg.process,
                                                           depth=2 * chain_depth(cfg))))
    scale = max(abs(ref.qdot[0]), abs(ref.qdot[1]), abs(ref.p_ext), 1e-12)
    return max(abs(base.p_ext - ref.p_ext), abs(base.qdot[0] - ref.qdot[0]),
               abs(base.qdot[1] - ref.qdot[1])) / scale
