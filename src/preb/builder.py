"""Assemble the finite set-up: system plus two mapped chains as one block Hamiltonian.

Everything is expressed at the single-particle level: the set-up Hamiltonian is
a real-symmetric (L_S + 2 L_B) x (L_S + 2 L_B) matrix in block form
(system | chain 1 | chain 2) with no direct chain-chain coupling.  Units are
hbar = k_B = 1 with the system hopping g setting the energy scale.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .chainmap import ChainCoefficients
from .spectral import BathThermalSpec, fermi_occupation

SYMMETRY_TOL = 1e-12


def _snap(x: float) -> float:
    # absorb float fuzz in products that are mathematically integers
    if abs(x - round(x)) < 1e-12 * max(1.0, abs(x)):
        return float(round(x))
    return x


@dataclass(frozen=True)
class SystemSpec:
    """Single-particle system Hamiltonian plus the site each bath couples to."""

    h_s: np.ndarray
    coupling_sites: tuple[int, int]

    def __post_init__(self):
        h = np.asarray(self.h_s, dtype=float)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError("h_s must be square")
        if np.max(np.abs(h - h.T)) > SYMMETRY_TOL:
            raise ValueError("h_s must be symmetric")
        for site in self.coupling_sites:
            if not (0 <= site < h.shape[0]):
                raise ValueError(f"coupling site {site} out of range")
        object.__setattr__(self, "h_s", h)
        object.__setattr__(self, "coupling_sites", tuple(int(s) for s in self.coupling_sites))

    @property
    def n_sites(self) -> int:
        return self.h_s.shape[0]

    @classmethod
    def two_site(cls, g: float = 1.0) -> "SystemSpec":
        """Two fermionic sites with hopping g, one bath on each site."""
        return cls(h_s=np.array([[0.0, g], [g, 0.0]]), coupling_sites=(0, 1))


@dataclass(eq=False)
class SetupHamiltonian:
    """Block single-particle matrix (system | chain 1 | chain 2) with its index map."""

    h: np.ndarray
    l_s: int
    l_b: int
    coupling_sites: tuple[int, int]

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        n = self.l_s + 2 * self.l_b
        if h.shape != (n, n):
            raise ValueError(f"expected a {n}x{n} matrix, got {h.shape}")
        if np.max(np.abs(h - h.T)) > SYMMETRY_TOL:
            raise ValueError("set-up Hamiltonian must be symmetric")
        b1, b2 = self.bath1, self.bath2
        if np.any(h[b1, b2] != 0.0):
            raise ValueError("chains of different baths must not couple")
        for ell, b in enumerate((b1, b2)):
            block = h[b, b]
            if np.max(np.abs(block - np.diag(np.diag(block))
                             - np.diag(np.diag(block, 1), 1)
                             - np.diag(np.diag(block, -1), -1))) > 0:
                raise ValueError(f"bath {ell + 1} block is not tridiagonal")
            sb = h[self.system, b]
            mask = np.zeros_like(sb, dtype=bool)
            mask[self.coupling_sites[ell], 0] = True
            if np.any(sb[~mask] != 0.0):
                raise ValueError(f"bath {ell + 1} may couple only at its first chain site")
        self.h = h

    @property
    def n_sites(self) -> int:
        return self.l_s + 2 * self.l_b

    @property
    def system(self) -> slice:
        return slice(0, self.l_s)

    @property
    def bath1(self) -> slice:
        return slice(self.l_s, self.l_s + self.l_b)

    @property
    def bath2(self) -> slice:
        return slice(self.l_s + self.l_b, self.n_sites)

    @functools.cached_property
    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigendecomposition of the full matrix, computed once and reused."""
        return np.linalg.eigh(self.h)

    @functools.cached_property
    def chain_eigensystems(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Eigendecomposition of each chain block, computed once and reused."""
        return tuple(np.linalg.eigh(self.h[b, b]) for b in (self.bath1, self.bath2))


def chain_length_for_tau(g_b: float, tau: float, l_0: int) -> int:
    """Chain sites needed for one cycle: ceil(g_B tau) + L_0."""
    if not (g_b > 0 and tau > 0):
        raise ValueError("g_b and tau must be positive")
    return int(math.ceil(_snap(g_b * tau))) + int(l_0)


def assemble_hamiltonian(system: SystemSpec,
                         chains: Sequence[ChainCoefficients],
                         l_b: int) -> SetupHamiltonian:
    """Build the block matrix from the system and two chains of length ``l_b``.

    Chains shorter than ``l_b`` are padded with their asymptotic coefficients.
    """
    if len(chains) != 2:
        raise ValueError("need exactly two chains")
    if l_b < 1:
        raise ValueError("l_b must be >= 1")
    l_s = system.n_sites
    n = l_s + 2 * l_b
    h = np.zeros((n, n))
    h[:l_s, :l_s] = system.h_s
    for ell, chain in enumerate(chains):
        eps, hop = chain.padded(l_b)
        off = l_s + ell * l_b
        site = system.coupling_sites[ell]
        h[site, off] = h[off, site] = hop[0]
        idx = np.arange(l_b)
        h[off + idx, off + idx] = eps
        h[off + idx[:-1], off + idx[1:]] = hop[1:]
        h[off + idx[1:], off + idx[:-1]] = hop[1:]
    return SetupHamiltonian(h=h, l_s=l_s, l_b=l_b, coupling_sites=system.coupling_sites)


def thermal_correlation(h_b: np.ndarray, spec: BathThermalSpec, *,
                        eigensystem: Optional[tuple[np.ndarray, np.ndarray]] = None
                        ) -> np.ndarray:
    """Correlation matrix <b_p^dag b_q> of the chain's thermal state.

    Diagonalize the (real symmetric) chain block and occupy each eigenmode with
    its Fermi factor; the result is Hermitian, commutes with the block, and has
    eigenvalues exactly {f(e_k)}.  Given the block's ``eigensystem`` (as
    ``SetupHamiltonian.chain_eigensystems`` caches it), only the Fermi factors
    are computed.
    """
    if eigensystem is None:
        h_b = np.asarray(h_b, dtype=float)
        if np.max(np.abs(h_b - h_b.T)) > SYMMETRY_TOL:
            raise ValueError("chain block must be symmetric")
        eigensystem = np.linalg.eigh(h_b)
    energies, modes = eigensystem
    return (modes * fermi_occupation(spec, energies)) @ modes.T


def copies_required(tau_r: float, tau: float) -> int:
    """Minimum bath replicas needed to refresh every cycle: ceil(tau_R / tau) + 1."""
    if not (tau_r > 0 and tau > 0):
        raise ValueError("tau_r and tau must be positive")
    return int(math.ceil(_snap(tau_r / tau))) + 1


def rethermalization_estimate(lam: float, tau_r_factor: float = 10.0) -> float:
    """Self-rethermalization time scale of a Lorentzian bath, c / (2 lam).

    The underlying bound is only a lower-bound scale, so the returned value is
    an estimate controlled by the dimensionless factor c.
    """
    if not (lam > 0):
        raise ValueError("lam must be positive")
    return tau_r_factor / (2.0 * lam)
