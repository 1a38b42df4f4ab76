import csv
import dataclasses

import numpy as np
import pytest

from preb.builder import assemble_hamiltonian
from preb.chainmap import ChainCoefficients
from preb.config import fixed_config
from preb.config import heat_engine_preset as engine_config
from preb.config import refrigerator_preset as fridge_config
from preb.dynamics import HOLE
from preb.pipeline import build_bundle, chain_depth, run_ness
from preb.propagator import drive_matrix
from preb.spectral import BathThermalSpec, fermi_occupation

__all__ = ["engine_config", "fridge_config", "fixed_config"]


def chain_from_csv(path) -> ChainCoefficients:
    """Read back a ``p,eps,hop`` file written by ``preb chainmap --out``."""
    eps, hop = {}, {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        assert header == ["p", "eps", "hop"], header
        for row in reader:
            p = int(row[0])
            if row[1]:
                eps[p] = float(row[1])
            if row[2]:
                hop[p] = float(row[2])
    depth = max(eps)
    return ChainCoefficients(eps=np.array([eps[p] for p in range(1, depth + 1)]),
                             hop=np.array([hop[p] for p in range(depth)]))


def chain_size_convergence(cfg) -> float:
    """Relative change of the steady rates when the chains are twice as long.

    Raising L_0 by l_b doubles l_b = ceil(g_B tau) + L_0; small values confirm
    the light-cone sizing of the chains.
    """
    base = run_ness(cfg)
    longer = dataclasses.replace(cfg.process, l_0=chain_depth(cfg) + cfg.process.l_0)
    ref = run_ness(cfg.replace(process=longer))
    scale = max(abs(ref.qdot[0]), abs(ref.qdot[1]), abs(ref.p_ext), 1e-12)
    return max(abs(base.p_ext - ref.p_ext), abs(base.qdot[0] - ref.qdot[0]),
               abs(base.qdot[1] - ref.qdot[1])) / scale


def assert_conservation_laws(rep) -> None:
    """The laws of criterion C02 on one steady-state report, at its tolerances.

    Every rate is finite, the first law holds to 1e-8 of the largest rate,
    sigma >= -1e-10 and the particle currents cancel to 1e-10.
    """
    rates = [rep.p_ext, rep.p_chem, *rep.qdot, *rep.ndot, *rep.hdot_b, *rep.hdot_sb, rep.sigma]
    assert np.isfinite(rates).all(), rates
    scale = max(abs(rep.qdot[0]), abs(rep.qdot[1]), abs(rep.p_ext), abs(rep.p_chem),
                abs(rep.hdot_b[0]), abs(rep.hdot_b[1]), 1e-12)
    assert abs(rep.p - rep.qdot[0] - rep.qdot[1]) < 1e-8 * scale
    assert rep.sigma > -1e-10
    assert abs(rep.ndot[0] + rep.ndot[1]) < 1e-10


def write_spectral_table(path, omega, values) -> None:
    """Write ``omega,J`` rows, the table format of a ``kind = tabulated`` bath."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["omega", "J"])
        for w, j in zip(np.asarray(omega, dtype=float), np.asarray(values, dtype=float)):
            writer.writerow([f"{w:.12g}", f"{j:.12g}"])


def dense_hamiltonian(setup) -> np.ndarray:
    """The set-up's dense n x n matrix, assembled site by site through its index map.

    The oracle for the set-up's bands and eigensystems: g links the two
    system sites, and chain l's head links to system site l.
    """
    n = setup.n_sites
    sites = np.arange(n)
    h = np.zeros((n, n))
    s0, s1 = sites[setup.system]
    h[s0, s1] = h[s1, s0] = setup.g
    for link, (eps, hop), b in zip((s0, s1), setup.chains, (setup.bath1, setup.bath2)):
        idx = sites[b]  # chain sites from the head on
        h[link, idx[0]] = h[idx[0], link] = hop[0]
        h[idx, idx] = eps
        h[idx[:-1], idx[1:]] = h[idx[1:], idx[:-1]] = hop[1:]
    return h


def dense_propagator(setup, tau) -> np.ndarray:
    """U = exp(-i H tau) of the dense set-up matrix, in its path order.

    The reference for the set-up's cycle: a dense ``eigh`` of
    ``dense_hamiltonian``, so no part of it comes from ``preb.propagator``.
    """
    energies, modes = np.linalg.eigh(dense_hamiltonian(setup))
    return (modes * np.exp(-1j * tau * energies)) @ modes.T


def bundle_in_frame(bundle, frame):
    """``bundle`` with its occupations, drive matrix and frame moved to ``frame``."""
    occupations = tuple(fermi_occupation(spec, energies, hole=frame == HOLE)
                        for spec, energies in zip(bundle.specs, bundle.cycle.energies))
    return dataclasses.replace(bundle, occupations=occupations,
                               p_s=drive_matrix(bundle.cycle, *occupations), frame=frame)


def bundle_setup(bundle):
    """The set-up a bundle's cycle map was built from, assembled again from its chains."""
    return assemble_hamiltonian(bundle.cfg.g, bundle.chains, bundle.l_b)


@pytest.fixture(scope="session")
def engine_bundle():
    """Heat-engine point of the worked example (lambda = 0.05, tau = 1)."""
    return build_bundle(engine_config())


@pytest.fixture(scope="session")
def broad_bundle():
    """Broad-bath point (lambda = 1, tau = 1), used where structure matters more than regime."""
    return build_bundle(engine_config(lam=1.0))


def decoupled_bundle_pieces(l_b=4, tau=1.0, beta=1.0, mu=-2.0):
    """Set-up whose system-chain couplings underflow to zero: an exactly closed system.

    Returns the set-up, the Fermi factors of each chain's eigenmodes and the
    thermal specs.
    """
    eps = np.zeros(l_b)
    hop = np.full(l_b, 3.0)
    hop[0] = 1e-300
    chain = ChainCoefficients(eps=eps, hop=hop)
    setup = assemble_hamiltonian(1.0, [chain, chain], l_b)
    spec = BathThermalSpec(beta, mu)
    f = fermi_occupation(spec, setup.chain_eigensystems[0][0])
    return setup, (f, f), (spec, spec)
