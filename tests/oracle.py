"""A 40-digit evaluation of one cycle's accounting, the reference for short cycles.

It takes only the chains' coefficients and the run configuration.  The dense
set-up is built in mpmath, in its own site order (s0, s1, then each chain
from its head on), U = exp(-i H tau) comes from ``mp.eigsy``, each chain
starts in the dense thermal state that its own block's ``mp.eigsy`` gives,
and every field of a ``StepThermo`` is read off ct = U^dag c0 U.  None of it
goes through ``preb.propagator`` or ``preb.dynamics.step_thermodynamics``, so
it shares none of their cancellations: a float64 dense reference is about
3e-12 of the step's scale off at tau = 0.1, and further off below.
"""

from __future__ import annotations

import functools

import mpmath as mp
import numpy as np

from preb.dynamics import StepThermo

DPS = 40


@functools.lru_cache(maxsize=2)
def _cycle(g: float, chains: tuple, tau: float):
    """(h, U, per chain its site indices and (energies, modes)) of the dense set-up."""
    l_b = len(chains[0][0])
    n = 2 + 2 * l_b
    h = mp.zeros(n, n)
    h[0, 1] = h[1, 0] = mp.mpf(g)
    blocks = []
    for link, (eps, hop) in enumerate(chains):
        sites = list(range(2 + link * l_b, 2 + (link + 1) * l_b))
        h[link, sites[0]] = h[sites[0], link] = mp.mpf(hop[0])
        for p, site in enumerate(sites):
            h[site, site] = mp.mpf(eps[p])
            if p:
                h[site, site - 1] = h[site - 1, site] = mp.mpf(hop[p])
        block = mp.matrix([[h[p, q] for q in sites] for p in sites])
        blocks.append((sites, mp.eigsy(block)))
    energies, modes = mp.eigsy(h)
    phases = mp.diag([mp.exp(-1j * e * mp.mpf(tau)) for e in energies])
    return h, modes * phases * modes.T, blocks


def _entropy(c: mp.matrix) -> mp.mpf:
    """Von Neumann entropy of the Gaussian state whose system block is c[:2, :2]."""
    mean = (c[0, 0].real + c[1, 1].real) / 2
    half_gap = mp.sqrt(((c[0, 0].real - c[1, 1].real) / 2) ** 2 + abs(c[1, 0]) ** 2)
    return -mp.fsum(x * mp.log(x) + (1 - x) * mp.log(1 - x)
                    for x in (mean - half_gap, mean + half_gap))


def oracle_step(cfg, chains, c_s: np.ndarray) -> StepThermo:
    """The accounting of one cycle from the particle-frame system state ``c_s``.

    ``chains`` are the set-up's two (eps, hop) pairs, each already cut to the
    chain length; ``cfg`` gives g, tau and the baths' beta and mu.
    """
    key = tuple(tuple(tuple(float(x) for x in a) for a in chain) for chain in chains)
    specs = [(mp.mpf(b.beta), mp.mpf(b.mu)) for b in (cfg.bath1, cfg.bath2)]
    with mp.workdps(DPS):
        h, u, blocks = _cycle(float(cfg.g), key, float(cfg.process.tau))
        n = h.rows
        c0 = mp.zeros(n, n)
        for i in range(2):
            for j in range(2):
                c0[i, j] = mp.mpc(complex(c_s[i, j]))
        for (sites, (e, v)), (beta, mu) in zip(blocks, specs):
            f = mp.diag([1 / (1 + mp.exp(beta * (x - mu))) for x in e])
            thermal = v * f * v.T
            for a, p in enumerate(sites):
                for b, q in enumerate(sites):
                    c0[p, q] = thermal[a, b]
        ct = u.H * c0 * u
        delta = ct - c0

        def energy(rows, cols):
            return mp.fsum(h[p, q] * delta[p, q] for p in rows for q in cols).real

        dn, dh_b, dh_sb, q = [], [], [], []
        for link, ((sites, _), (beta, mu)) in enumerate(zip(blocks, specs)):
            dn.append(mp.fsum(delta[p, p] for p in sites).real)
            dh_b.append(energy(sites, sites))
            dh_sb.append(energy([link], sites) + energy(sites, [link]))
            q.append(dh_b[-1] - mu * dn[-1])
        ds = _entropy(c0) - _entropy(ct)
        (beta1, mu1), (beta2, mu2) = specs
        fields = dict(du=energy([0, 1], [0, 1]), w_ext=-(dh_sb[0] + dh_sb[1]),
                      w_chem=-(mu1 * dn[0] + mu2 * dn[1]), ds=ds,
                      sigma=beta1 * q[0] + beta2 * q[1] - ds,
                      dn_s=(delta[0, 0] + delta[1, 1]).real)
        pairs = dict(q=q, dn=dn, dh_b=dh_b, dh_sb=dh_sb)
        return StepThermo(**{k: float(v) for k, v in fields.items()},
                          **{k: (float(v[0]), float(v[1])) for k, v in pairs.items()})
