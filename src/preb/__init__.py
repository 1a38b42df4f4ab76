"""Steady states and thermodynamics of quadratic fermionic systems with periodically refreshed baths.

The cycle map for the system correlation matrix is affine; its fixed point
solves a discrete-time Lyapunov equation, from which the full steady-state
thermodynamics (power, heat currents, entropy production, machine regimes)
follows without time evolution.
"""

from .builder import (SetupHamiltonian, assemble_hamiltonian, chain_length_for_tau,
                      copies_required, rethermalization_estimate, thermal_correlation)
from .chainmap import (ChainCoefficients, chain_map_recursion, chain_map_tridiag,
                       discretize_modes, star_to_chain)
from .config import (BathConfig, ProcessConfig, RunConfig, SweepConfig,
                     heat_engine_preset, parse_config, refrigerator_preset)
from .dynamics import (CumulativeThermo, StepThermo, TrajectoryResult,
                       cumulative_thermo, gaussian_entropy, preb_step,
                       preb_trajectory, step_thermodynamics)
from .errors import ConfigError, NoUniqueNessError, NumericsError, PrebError
from .negf import LeadSelfEnergy, NegfReport, landauer_currents, transmission_table
from .pipeline import (NessBundle, build_bundle, chain_depth, run_chainmap, run_negf,
                       run_ness, run_trajectory)
from .propagator import (CycleMap, cycle_map, drive_matrix, solve_dlyap_direct,
                         solve_dlyap_doubling, stability_rate, step_propagator)
from .spectral import (BathThermalSpec, SpectralFunction, SpectralTable,
                       fermi_occupation, frequency_grid, hilbert_transform,
                       read_spectral_table)
from .sweeps import SweepRow, apply_axis, run_sweep, sweep_values
from .thermo import (CollisionalPrediction, NessReport, carnot_cop,
                     carnot_efficiency, classify_regime, collisional_limit,
                     curzon_ahlborn_efficiency, ness_rates, tight_coupling_check)
from .validation import CriterionResult, run_validation

__version__ = "0.1.0"
