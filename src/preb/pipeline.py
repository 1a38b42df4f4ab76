"""End-to-end runs: config -> chains -> set-up -> cycle map -> steady state -> report.

Every chain has l_b = ceil(g_B tau) + L_0 sites: the light cone that a cycle
of length tau reaches at the faster bath's speed g_B, plus the buffer L_0.

The pipeline is deterministic for a fixed configuration and cache state, and
it keeps two process-wide caches, both emptied by ``clear_caches()``:

- chain maps, per spectral function.  A bath is sized from a map of its
  first ``SIZING_WINDOW`` sites: its light-cone speed g_B is that map's tail
  hopping.  It is then mapped once to max(l_b, ``MAP_DEPTH``) sites, and every
  set-up cuts that map to its chain length l_b, so a tau sweep maps each bath
  once.  The deepest map of each bath is kept; a longer chain maps the bath
  again, to its own length.  A map's first n sites do not depend on its
  depth beyond roundoff (a Lorentzian's moments switch from a recurrence to
  quadrature at a depth-dependent threshold), so a cut equals the direct
  n-site map to 2e-14 of its largest hopping, and a report may move in its
  last digits with the maps already cached.  No chain is ever padded;
- one set-up: its chains and its ``CycleMap``, keyed by (both spectral
  functions, chain length, g, tau).  Neither depends on the temperatures or
  chemical potentials, so a point that differs only in mu or beta refills the
  chains' Fermi factors, applies the cycle map to them (the drive matrix and
  the accounting, O(l_b) each) and solves the Lyapunov equation, nothing more.
  The set-up's bands, U and every eigenvector are freed once the cycle map is
  built, so the entry holds O(l_b) numbers, all read-only, since later points
  share them.

Each point picks its frame (``preb.dynamics``) in ``build_bundle``: the hole
frame when the mean Fermi factor over both chains' modes exceeds 1/2, else
the particle frame.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .builder import (assemble_hamiltonian, chain_length_for_tau, copies_required,
                      rethermalization_estimate)
from .chainmap import ChainCoefficients, chain_map_tridiag
from .config import ProcessConfig, RunConfig
from .dynamics import HOLE, PARTICLE, in_frame, preb_trajectory, step_thermodynamics
from .errors import ConfigError, NoUniqueNessError
from .negf import NegfReport, landauer_currents
from .propagator import CycleMap, cycle_map, drive_matrix, solve_dlyap_direct
from .spectral import LORENTZIAN, BathThermalSpec, SpectralFunction, fermi_occupations
from .thermo import NessReport, classify_regime, ness_rates

MAP_DEPTH = 128     # the shallowest map: a bath is mapped to max(l_b, MAP_DEPTH) sites
SIZING_WINDOW = 16  # g_B is the tail hopping of a map this many sites deep

_maps: dict[SpectralFunction, ChainCoefficients] = {}  # the deepest map of each bath


def clear_caches() -> None:
    _maps.clear()
    _bath_speed.cache_clear()
    _set_up.cache_clear()


@functools.cache
def _bath_speed(sf: SpectralFunction) -> float:
    """The bath's light-cone speed g_B: the tail hopping of its ``SIZING_WINDOW``-site map."""
    return chain_map_tridiag(sf, SIZING_WINDOW).hop_asym


def _chain_for(sf: SpectralFunction, l_b: int) -> ChainCoefficients:
    """The bath's cached map, at least ``l_b`` sites deep; a longer chain remaps the bath."""
    chain = _maps.get(sf)
    if chain is None or chain.depth < l_b:
        chain = _maps[sf] = chain_map_tridiag(sf, max(l_b, MAP_DEPTH))
    return chain


@dataclass
class NessBundle:
    """All intermediate objects of one parameter point, for reuse and inspection.

    ``occupations``, ``p_s`` and every state the bundle solves for or reads
    are in its ``frame``: in the hole frame they are the holes' 1 - f_l,
    the drive matrix made from them, and 1 - C_S.
    """

    cfg: RunConfig
    chains: tuple[ChainCoefficients, ChainCoefficients]
    cycle: CycleMap
    specs: tuple[BathThermalSpec, BathThermalSpec]
    occupations: tuple[np.ndarray, np.ndarray]  # Fermi factors of each chain's eigenmodes
    p_s: np.ndarray
    frame: str  # "particle" or "hole"

    @property
    def l_b(self) -> int:
        return self.cycle.l_b

    def solve_ness(self) -> np.ndarray:
        return solve_dlyap_direct(self.cycle.g_s, self.p_s, self.cycle.spectral_radius)

    def report(self, c_ness: Optional[np.ndarray] = None) -> NessReport:
        """Steady-state report of this point, solving for ``c_ness`` unless given.

        With beta1 >= beta2 the hot/cold labeling is undefined, so the point is
        reported as a dud without Carnot references.
        """
        if c_ness is None:
            c_ness = self.solve_ness()
        report = ness_rates(c_ness, self.cycle, self.p_s, self.occupations, self.specs,
                            self.frame)
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


def _chain_length(sfs: tuple[SpectralFunction, ...], process: ProcessConfig) -> int:
    """l_b = ceil(g_B tau) + L_0, with g_B the faster bath's, from the cached sizing maps."""
    g_b = max(_bath_speed(sf) for sf in sfs)
    return chain_length_for_tau(g_b, process.tau, process.l_0)


def chain_depth(cfg: RunConfig) -> int:
    """The configured point's chain length l_b."""
    return _chain_length(bath_pairs(cfg)[0], cfg.process)


@functools.lru_cache(maxsize=1)
def _set_up(sfs: tuple[SpectralFunction, SpectralFunction], l_b: int, g: float,
            tau: float) -> tuple[tuple[ChainCoefficients, ...], CycleMap]:
    """The part of a point that neither temperatures nor chemical potentials change."""
    chains = tuple(_chain_for(sf, l_b) for sf in sfs)
    setup = assemble_hamiltonian(g, chains, l_b)
    return chains, cycle_map(setup, tau)


def bath_pairs(cfg: RunConfig) -> tuple[tuple[SpectralFunction, ...], tuple[BathThermalSpec, ...]]:
    """Both baths' spectral functions, and both thermal specs; bath 1 first in each pair."""
    b1, b2 = cfg.bath1, cfg.bath2
    return ((b1.spectral_function(), b2.spectral_function()),
            (BathThermalSpec(b1.beta, b1.mu), BathThermalSpec(b2.beta, b2.mu)))


def build_bundle(cfg: RunConfig) -> NessBundle:
    """Every intermediate of one point; the set-up part comes from the set-up cache."""
    sfs, specs = bath_pairs(cfg)
    chains, cycle = _set_up(sfs, _chain_length(sfs, cfg.process), cfg.g, cfg.process.tau)
    occupations = fermi_occupations(specs, cycle.energies)
    frame = PARTICLE
    # a mean above 1/2; np.add.reduce is ndarray.sum without its Python wrapper
    if np.add.reduce(occupations[0]) + np.add.reduce(occupations[1]) > cycle.l_b:
        frame = HOLE
        occupations = fermi_occupations(specs, cycle.energies, hole=True)
    p_s = drive_matrix(cycle, *occupations)
    return NessBundle(cfg=cfg, chains=chains, cycle=cycle, specs=specs,
                      occupations=occupations, p_s=p_s, frame=frame)


def run_ness(cfg: RunConfig) -> NessReport:
    """Solve one parameter point and return the full steady-state report."""
    return build_bundle(cfg).report()


def run_trajectory(cfg: RunConfig, steps: int):
    """Iterate the cycle map from the empty system, with per-step thermodynamics.

    Returns (TrajectoryResult, [StepThermo per cycle], NessReport or None); the
    report is None when the point has no unique steady state.  The map runs in
    the bundle's frame, and the returned states are in the particle frame.
    """
    bundle = build_bundle(cfg)
    try:
        c_ness = bundle.solve_ness()
    except NoUniqueNessError:
        c_ness, report = None, None
    else:
        report = bundle.report(c_ness)
    c0 = in_frame(np.zeros(bundle.cycle.h_s.shape, dtype=complex), bundle.frame)
    traj = preb_trajectory(c0, steps, bundle.cycle, bundle.p_s, c_ness=c_ness)
    thermos = [step_thermodynamics(c, ct, bundle.cycle, bundle.occupations, bundle.specs,
                                   bundle.frame)
               for c, ct in zip(traj.states[:-1], traj.states[1:])]
    traj.states = [in_frame(c, bundle.frame) for c in traj.states]
    return traj, thermos, report


def run_chainmap(cfg: RunConfig) -> tuple[ChainCoefficients, ChainCoefficients]:
    """Each bath's chain as the set-up uses it: its map cut to ``l_b`` sites."""
    sfs = bath_pairs(cfg)[0]
    l_b = _chain_length(sfs, cfg.process)
    return tuple(ChainCoefficients(*_chain_for(sf, l_b).cut(l_b)) for sf in sfs)


def run_negf(cfg: RunConfig) -> NegfReport:
    return landauer_currents(cfg.g, *bath_pairs(cfg))
