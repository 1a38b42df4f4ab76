"""The four benchmark workloads: seeded inputs, the timed call, and its checks.

Each workload draws its physical parameters from ``--seed``; the depths and the
op mix are fixed, so runs with different seeds cost the same.  The program only
ever sees the generated ``RunConfig`` objects, built from the heat-engine preset
(Lorentzian baths at +2 / -1, kappa = 2, cutoff 6, beta2 = 1).
"""

from __future__ import annotations

import dataclasses

import numpy as np

import preb
from preb import pipeline

import checks

POOL = 4096            # pre-drawn op inputs, cycled; far more than any run uses
DEEP_TAU = 50.0        # chain depth 156, set-up size n = 314
SWEEP = dict(axis="tau", minimum=0.05, maximum=20.0, points=40, spacing="log")
NEGF_LADDER = np.geomspace(1e-3, 1.0, 5)
# Draws follow additive recurrences x_j = frac(x_0 + j a) with irrational steps
# and a seeded start x_0.  Any run of consecutive draws covers its range evenly,
# so the seed moves the values without moving the mix of cheap and costly ops.
# That matters on the negf workload, where one op's cost varies 2.5x with mu.
STEPS = (0.6180339887498949, 0.4142135623730951)  # golden ratio and sqrt(2), mod 1


def engine_config(lam: float, tau: float, mu: float = -2.0, beta1: float = 0.1):
    cfg = preb.heat_engine_preset(lam=float(lam), tau=float(tau))
    return cfg.replace(bath1=dataclasses.replace(cfg.bath1, mu=float(mu), beta=float(beta1)),
                       bath2=dataclasses.replace(cfg.bath2, mu=float(mu)))


def draws(seed: int, ranges: list[tuple[float, float, bool]]) -> list[np.ndarray]:
    """``POOL`` draws per (low, high, log-spaced) range, one sequence per range."""
    starts = np.random.default_rng(seed).random(len(ranges))
    out = []
    for start, step, (lo, hi, log) in zip(starts, STEPS, ranges):
        u = (start + step * np.arange(POOL)) % 1.0
        out.append(np.exp(np.log(lo) + u * np.log(hi / lo)) if log else lo + u * (hi - lo))
    return out


def clear_chain_cache() -> None:
    """Empty the process-wide chain cache, as a fresh CLI process starts."""
    clear = getattr(pipeline, "clear_caches", None)
    if clear is not None:
        clear()


class Workload:
    """One op type: ``config(i)`` builds op i's input (untimed), ``run`` is timed."""

    points_per_op = 1
    cycle = 1                  # a run ends on a multiple of this many ops
    cold = False               # clear the chain cache before every op

    def prepare(self) -> None:
        """Work done once before the first timed op."""

    def config(self, i: int):
        raise NotImplementedError

    def run(self, cfg):
        return preb.run_ness(cfg)

    def problems(self, out) -> list[str]:
        return checks.ness_problems(out)

    def failed_points(self, out) -> int:
        return 0

    def reference_config(self):
        raise NotImplementedError

    def reference_values(self, out) -> list[list[float]]:
        """The compared numbers, one group per report."""
        return [checks.ness_values(out)]


class TauSweep(Workload):
    """A fresh ``preb sweep`` over the 40-point log tau axis [0.05, 20]."""

    points_per_op = SWEEP["points"]
    cold = True

    def __init__(self, seed: int):
        self.lam, self.mu = draws(seed, [(0.02, 0.2, True), (-2.5, -1.5, False)])

    def config(self, i: int):
        k = i % POOL
        return self._with_sweep(engine_config(self.lam[k], 1.0, mu=self.mu[k]))

    @staticmethod
    def _with_sweep(cfg):
        return cfg.replace(sweep=preb.SweepConfig(**SWEEP))

    def run(self, cfg):
        return preb.run_sweep(cfg, jobs=1)

    def problems(self, rows) -> list[str]:
        return checks.sweep_problems(rows, SWEEP["points"])

    def failed_points(self, rows) -> int:
        return sum(row.error is not None for row in rows)

    def reference_config(self):
        return self._with_sweep(engine_config(0.05, 1.0))

    def reference_values(self, rows) -> list[list[float]]:
        return [checks.ness_values(row.report) for row in rows]


class DeepCold(Workload):
    """One cold steady state at tau = 50 with a new bath width every op."""

    cold = True

    def __init__(self, seed: int):
        (self.lam,) = draws(seed, [(0.01, 0.3, True)])

    def config(self, i: int):
        return engine_config(self.lam[i % POOL], DEEP_TAU)

    def reference_config(self):
        return engine_config(0.02, DEEP_TAU)


class DeepWarm(Workload):
    """Steady states at tau = 50 on one cached pair of chains; mu and beta1 vary."""

    LAM = 0.05

    def __init__(self, seed: int):
        self.mu, self.beta1 = draws(seed, [(-2.5, -1.5, False), (0.05, 0.5, False)])

    def prepare(self) -> None:
        # the first point maps the chains; every timed op reuses them
        clear_chain_cache()
        out = self.run(self.config(0))
        problems = self.problems(out)
        if problems:
            raise checks.CheckFailed(f"warm-up point: {'; '.join(problems)}")

    def config(self, i: int):
        k = i % POOL
        return engine_config(self.LAM, DEEP_TAU, mu=self.mu[k], beta1=self.beta1[k])

    def reference_config(self):
        return engine_config(self.LAM, DEEP_TAU)


class Negf(Workload):
    """Continuous-time reference points over a fixed ladder of five bath widths."""

    cycle = len(NEGF_LADDER)   # whole ladders only: the narrowest rung costs 50x the widest

    def __init__(self, seed: int):
        self.mu, self.beta1 = draws(seed, [(-2.5, -1.5, False), (0.05, 0.5, False)])

    def config(self, i: int):
        # each rung of the ladder walks its own pass through the (mu, beta1) draws
        rung, k = i % len(NEGF_LADDER), (i // len(NEGF_LADDER)) % POOL
        return engine_config(NEGF_LADDER[rung], 1.0, mu=self.mu[k], beta1=self.beta1[k])

    def run(self, cfg):
        return preb.run_negf(cfg)

    def problems(self, out) -> list[str]:
        return checks.negf_problems(out)

    def reference_config(self):
        return engine_config(NEGF_LADDER[0], 1.0)

    def reference_values(self, out) -> list[list[float]]:
        return [checks.negf_values(out)]


WORKLOADS = {"tau_sweep": TauSweep, "deep_cold": DeepCold,
             "deep_warm": DeepWarm, "negf": Negf}
