"""The complex-arithmetic Landauer integrand, the reference for ``preb.negf``'s real kernel.

It is the integrand ``landauer_currents`` used before the kernel: the retarded
self-energies as complex arrays, with Re Sigma from ``np.interp`` on the lead
grid, the dressed diagonal A_ll = w - Sigma_l and det A as complex products,
and |G^r_ij|^2 stacked as (N, 2, 2) matrices.  It shares no arithmetic with the
kernel, only the lead's tabulated Hilbert transform.
"""

from __future__ import annotations

import warnings

import numpy as np

from preb.spectral import fermi_occupation


def self_energy(sigma, w: np.ndarray) -> np.ndarray:
    """Sigma(w) = (J^H(w) - i J(w)) / 2 of one ``LeadSelfEnergy``."""
    return 0.5 * (np.interp(w, sigma.grid, sigma.jh_grid) - 1j * sigma.sf(w))


def _dressed(g: float, sigma1, sigma2, w: np.ndarray):
    """Diagonal of A = w - h_S - Sigma at each frequency of ``w``, and det A."""
    diag = [w - sigma1, w - sigma2]
    return diag, diag[0] * diag[1] - g * g


def _abs2(z: np.ndarray) -> np.ndarray:
    return z.real ** 2 + z.imag ** 2


def resolvent_abs2(g: float, sigma1: np.ndarray, sigma2: np.ndarray,
                   w: np.ndarray) -> np.ndarray:
    """|G^r_ij(w)|^2 of the dressed system resolvent G^r = adj A / det A at each frequency."""
    diag, det = _dressed(g, sigma1, sigma2, w)
    singular = det == 0
    if singular.any():
        warnings.warn("singular resolvent on the real axis; nudging into the lower half plane")
        diag, det = _dressed(g, sigma1 - 1e-12j * singular, sigma2 - 1e-12j * singular, w)
    inv = 1 / _abs2(det)
    off = g * g * inv
    return np.stack([_abs2(diag[1]) * inv, off, off, _abs2(diag[0]) * inv],
                    axis=-1).reshape(-1, 2, 2)


def transmission(sigma1: np.ndarray, sigma2: np.ndarray, g2: np.ndarray) -> np.ndarray:
    """T(w) = Gamma_1 Gamma_2 |G^r_12|^2, with Gamma = -2 Im Sigma = J and g2 = |G^r|^2."""
    return 4 * sigma1.imag * sigma2.imag * g2[:, 0, 1]


def landauer_rows(g: float, specs, sigmas, w: np.ndarray) -> np.ndarray:
    """(T (f1 - f2), w T (f1 - f2), n_1, n_2) / 2pi at each frequency of ``w``."""
    s1, s2 = self_energy(sigmas[0], w), self_energy(sigmas[1], w)
    g2 = resolvent_abs2(g, s1, s2, w)
    f1, f2 = fermi_occupation(specs[0], w), fermi_occupation(specs[1], w)
    base = transmission(s1, s2, g2) * (f1 - f2)
    occ = g2[:, :, 0].T * (-2 * s1.imag * f1) + g2[:, :, 1].T * (-2 * s2.imag * f2)
    return np.vstack([base, w * base, occ]) / (2 * np.pi)
