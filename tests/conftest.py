import csv

import numpy as np
import pytest

from preb.builder import SystemSpec, assemble_hamiltonian, thermal_correlation
from preb.chainmap import ChainCoefficients
from preb.config import heat_engine_preset as engine_config
from preb.config import refrigerator_preset as fridge_config
from preb.pipeline import build_bundle
from preb.spectral import BathThermalSpec
from preb.validation import fixed_config

__all__ = ["engine_config", "fridge_config", "fixed_config"]


def chain_from_csv(path) -> ChainCoefficients:
    """Read back a ``p,eps,hop`` file written by ``ChainCoefficients.to_csv``."""
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


def write_spectral_table(path, omega, values) -> None:
    """Write ``omega,J`` rows, the table format of a ``kind = tabulated`` bath."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["omega", "J"])
        for w, j in zip(np.asarray(omega, dtype=float), np.asarray(values, dtype=float)):
            writer.writerow([f"{w:.12g}", f"{j:.12g}"])


@pytest.fixture(scope="session")
def engine_bundle():
    """Heat-engine point of the worked example (lambda = 0.05, tau = 1)."""
    return build_bundle(engine_config())


@pytest.fixture(scope="session")
def broad_bundle():
    """Broad-bath point (lambda = 1, tau = 1), used where structure matters more than regime."""
    return build_bundle(engine_config(lam=1.0))


def decoupled_bundle_pieces(l_b=4, tau=1.0, beta=1.0, mu=-2.0):
    """Set-up whose system-chain couplings underflow to zero: an exactly closed system."""
    system = SystemSpec.two_site(1.0)
    eps = np.zeros(l_b)
    hop = np.full(l_b, 3.0)
    hop[0] = 1e-300
    chain = ChainCoefficients(eps=eps, hop=hop)
    setup = assemble_hamiltonian(system, [chain, chain], l_b)
    spec = BathThermalSpec(beta, mu)
    c_b = thermal_correlation(setup.h[setup.bath1, setup.bath1], spec)
    return setup, (c_b, c_b), (spec, spec)
