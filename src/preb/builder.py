"""Assemble the finite set-up: the two-site system plus two mapped chains as one tridiagonal matrix.

Everything is expressed at the single-particle level.  Ordered along its path,
chain 1 from its tail to its head, the system sites s0 and s1, then chain 2
from its head to its tail, the set-up is a real-symmetric tridiagonal matrix
of size 2 + 2 L_B: each chain couples only to its own system site, and the
system sites only to each other.  ``SetupHamiltonian`` keeps its two bands and
takes its eigensystems from a tridiagonal eigensolver, never from a dense
matrix.  Units are hbar = k_B = 1 with the system hopping g setting the energy
scale.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .chainmap import ChainCoefficients
from .spectral import BathThermalSpec, fermi_occupation

SYMMETRY_TOL = 1e-12


def _snap(x: float) -> float:
    # absorb float fuzz in products that are mathematically integers
    if abs(x - round(x)) < 1e-12 * max(1.0, abs(x)):
        return float(round(x))
    return x


@dataclass(frozen=True, eq=False)
class SetupHamiltonian:
    """The set-up's path-ordered tridiagonal matrix, as its two bands, with its index map.

    Built from the dimer hopping ``g`` and each chain's ``(eps, hop)`` pair of
    length ``l_b`` (``hop[0]`` couples chain l's head to system site l).  Along
    the path chain 1 reversed -> s0 -> s1 -> chain 2 the matrix has

    - ``diagonal`` = [eps1 reversed, 0, 0, eps2];
    - ``off_diagonal`` = [hop1[1:] reversed, hop1[0], g, hop2[0], hop2[1:]].

    ``system`` indexes s0 and s1 in that order; ``bath1`` and ``bath2`` index
    each chain from its head, so ``bath1`` runs backwards along the path.
    """

    g: float
    chains: tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]
    diagonal: np.ndarray = field(init=False, repr=False)
    off_diagonal: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.chains) != 2:
            raise ValueError("need exactly two chains")
        chains = tuple((np.asarray(eps, dtype=float), np.asarray(hop, dtype=float))
                       for eps, hop in self.chains)
        l_b = chains[0][0].size
        if l_b < 1 or any(a.shape != (l_b,) for chain in chains for a in chain):
            raise ValueError("each chain needs 1-d eps and hop arrays of one common length >= 1")
        object.__setattr__(self, "chains", chains)
        (eps1, hop1), (eps2, hop2) = chains
        object.__setattr__(self, "diagonal", np.concatenate([eps1[::-1], [0.0, 0.0], eps2]))
        object.__setattr__(self, "off_diagonal", np.concatenate(
            [hop1[:0:-1], [hop1[0], self.g, hop2[0]], hop2[1:]]))

    @property
    def l_b(self) -> int:
        return self.chains[0][0].size

    @property
    def n_sites(self) -> int:
        return 2 + 2 * self.l_b

    @property
    def system(self) -> slice:
        return slice(self.l_b, self.l_b + 2)

    @property
    def bath1(self) -> slice:
        return slice(self.l_b - 1, None, -1)

    @property
    def bath2(self) -> slice:
        return slice(self.l_b + 2, self.n_sites)

    @functools.cached_property
    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigendecomposition of the path-ordered matrix, computed once and reused."""
        return _eigh_tridiagonal(self.diagonal, self.off_diagonal)

    @functools.cached_property
    def chain_eigensystems(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Eigendecomposition of each chain, its rows from the head on, computed once and reused."""
        return tuple(_eigh_tridiagonal(eps, hop[1:]) for eps, hop in self.chains)


def _eigh_tridiagonal(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # scipy.linalg is imported here rather than with the package: it doubles the
    # time and memory of ``import preb``, and only a new set-up needs it
    from scipy.linalg import eigh_tridiagonal
    return eigh_tridiagonal(d, e, lapack_driver="stevd")


def chain_length_for_tau(g_b: float, tau: float, l_0: int) -> int:
    """Chain sites needed for one cycle: ceil(g_B tau) + L_0."""
    if not (g_b > 0 and tau > 0):
        raise ValueError("g_b and tau must be positive")
    return int(math.ceil(_snap(g_b * tau))) + int(l_0)


def assemble_hamiltonian(g: float, chains: Sequence[ChainCoefficients],
                         l_b: int) -> SetupHamiltonian:
    """The set-up of the dimer with hopping ``g`` and two chains, each cut to ``l_b`` sites.

    A chain shorter than ``l_b`` raises ``ValueError``: chains are never padded.
    """
    return SetupHamiltonian(g, tuple(chain.cut(l_b) for chain in chains))


def thermal_correlation(h_b: np.ndarray, spec: BathThermalSpec) -> np.ndarray:
    """Correlation matrix <b_p^dag b_q> of the chain's thermal state.

    Diagonalize the (real symmetric) chain block and occupy each eigenmode with
    its Fermi factor; the result is Hermitian, commutes with the block, and has
    eigenvalues exactly {f(e_k)}.  The pipeline never forms this dense matrix:
    it keeps the Fermi factors (``NessBundle.occupations``) and applies them to
    the set-up's ``CycleMap``.
    """
    h_b = np.asarray(h_b, dtype=float)
    if np.max(np.abs(h_b - h_b.T)) > SYMMETRY_TOL:
        raise ValueError("chain block must be symmetric")
    energies, modes = np.linalg.eigh(h_b)
    return (modes * fermi_occupation(spec, energies)) @ modes.T


def copies_required(tau_r: float, tau: float) -> int:
    """Minimum bath replicas needed to refresh every cycle: ceil(tau_R / tau) + 1."""
    if not (tau_r > 0 and tau > 0):
        raise ValueError("tau_r and tau must be positive")
    return int(math.ceil(_snap(tau_r / tau))) + 1


def rethermalization_estimate(lam: float, tau_r_factor: float) -> float:
    """Self-rethermalization time scale of a Lorentzian bath, c / (2 lam).

    The underlying bound is only a lower-bound scale, so the returned value is
    an estimate controlled by the dimensionless factor c.
    """
    if not (lam > 0):
        raise ValueError("lam must be positive")
    return tau_r_factor / (2.0 * lam)
