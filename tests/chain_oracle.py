"""A 50-digit oracle of the Lorentzian chain map, and the record the tests compare against.

The chain of J(w) = kappa lam / ((w - omega0)^2 + lam^2) on [-D, D] is computed
here the way ``preb.chainmap.chain_map_tridiag`` computes it, but in mpmath
and independently at each step:

- the Chebyshev moments m_k = (1/2pi) int T_k(w / D) J(w) dw are integrals
  over theta = arccos(w / D) by the Gauss-Legendre rule of ``mpmath.quad``,
  on panels graded toward the peak;
- the modified Chebyshev algorithm runs in its textbook form (Gautschi, SIAM
  J. Sci. Stat. Comput. 3, 289 (1982)), on the unscaled mixed moments, at 50
  digits.

The depth-606 chain takes minutes, so the tests read the chains from
``chain_oracle.json`` and recompute a short one live.  Re-record with

    PYTHONPATH=src python tests/chain_oracle.py

which also checks every quadrature moment against the forward recurrence for
q_k run at 120 digits, and stores the largest difference.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import mpmath

RECORD = Path(__file__).resolve().parent / "chain_oracle.json"
DIGITS = 50
QUAD_DIGITS = 40
# (kappa, lam, omega0, cutoff, depth): the heat engine's bath 1 at three widths,
# one deep, and its bath 2
CASES = [(2.0, 1.0, 2.0, 6.0, 128), (2.0, 0.05, 2.0, 6.0, 606), (2.0, 1e-3, 2.0, 6.0, 128),
         (2.0, 0.05, -1.0, 6.0, 128)]


def quad_moments(kappa, lam, omega0, cutoff, count):
    """m_k, k < count, by the Gauss-Legendre rule on panels of theta, at ``QUAD_DIGITS`` digits.

    m_k = (kappa / 2pi) int_0^pi cos(k theta) sin(theta) ell / ((cos theta - x0)^2 + ell^2),
    with x0 = omega0 / D and ell = lam / D.  The panels are uniform, about
    count / 6 of them so that each holds at most ten radians of cos(k theta),
    and graded by factors of 4 around the peak; every panel takes the
    48-point rule of ``mpmath.quad``'s Gauss-Legendre method, and one set of
    nodes serves all k through the recurrence for T_k(cos theta).
    """
    with mpmath.workdps(QUAD_DIGITS):
        x0, ell = mpmath.mpf(omega0) / cutoff, mpmath.mpf(lam) / cutoff
        panels = max(8, count // 6)
        edges = {mpmath.pi * j / panels for j in range(panels + 1)}
        if abs(x0) < 1:
            theta0 = mpmath.acos(x0)
            width = ell / mpmath.sin(theta0)
            step = width / 4
            while step < mpmath.pi:
                edges.update(t for t in (theta0 - step, theta0 + step) if 0 < t < mpmath.pi)
                step *= 4
        edges = sorted(edges)
        rule = mpmath.calculus.quadrature.GaussLegendre(mpmath.mp).calc_nodes(5, mpmath.mp.prec)
        moments = [mpmath.mpf(0)] * count
        for a, b in zip(edges[:-1], edges[1:]):
            mid, half = (a + b) / 2, (b - a) / 2
            for x, w in rule:
                t = mid + half * x
                c = mpmath.cos(t)
                g = w * half * mpmath.sin(t) * ell / ((c - x0) ** 2 + ell ** 2)
                before, current, two_c = mpmath.mpf(1), c, 2 * c
                moments[0] += g
                for k in range(1, count):
                    moments[k] += g * current
                    before, current = current, two_c * current - before
        scale = mpmath.mpf(kappa) / (2 * mpmath.pi)
        return [scale * m for m in moments]


def recurrence_moments(kappa, lam, omega0, cutoff, count, digits=120):
    """m_k = (kappa / 2pi) Im q_k from the forward recurrence for q_k, at ``digits`` digits."""
    with mpmath.workdps(digits):
        z = mpmath.mpc(omega0, lam) / cutoff
        q = [mpmath.log((1 - z) / (-1 - z))]
        q.append(2 + z * q[0])
        for k in range(1, count - 1):
            integral = 0 if k % 2 else mpmath.mpf(2) / (1 - k * k)
            q.append(2 * z * q[k] - q[k - 1] + 2 * integral)
        return [mpmath.mpf(kappa) / (2 * mpmath.pi) * v.imag for v in q[:count]]


def modified_chebyshev(moments, depth, cutoff):
    """(eps, hop) as floats: Gautschi's algorithm on m_k at ``DIGITS`` digits.

    The monic Chebyshev polynomials p_0 = 1, p_l = 2^(1-l) T_l have a_l = 0,
    b_1 = 1/2 and b_l = 1/4; nu_l = int p_l dmu are the modified moments and
    sigma_{k,l} = int pi_k p_l the mixed ones.
    """
    with mpmath.workdps(DIGITS):
        n = 2 * depth
        nu = [mpmath.mpf(moments[0])] + [mpmath.mpf(moments[l]) / mpmath.mpf(2) ** (l - 1)
                                         for l in range(1, n)]
        b = [mpmath.mpf(0), mpmath.mpf(1) / 2] + [mpmath.mpf(1) / 4] * n
        before, row = [mpmath.mpf(0)] * n, nu
        alpha, beta = [nu[1] / nu[0]], [nu[0]]
        for k in range(1, depth):
            new = [mpmath.mpf(0)] * n
            for l in range(k, n - k):
                new[l] = (row[l + 1] - alpha[k - 1] * row[l] - beta[k - 1] * before[l]
                          + b[l] * row[l - 1])
            alpha.append(new[k + 1] / new[k] - row[k] / row[k - 1])
            beta.append(new[k] / row[k - 1])
            before, row = row, new
        eps = [float(cutoff * a) for a in alpha]
        hop = [float(mpmath.sqrt(beta[0]))] + [float(cutoff * mpmath.sqrt(x)) for x in beta[1:]]
        return eps, hop


def oracle_chain(kappa, lam, omega0, cutoff, depth):
    return modified_chebyshev(quad_moments(kappa, lam, omega0, cutoff, 2 * depth), depth, cutoff)


def record() -> None:
    chains, worst = [], mpmath.mpf(0)
    for kappa, lam, omega0, cutoff, depth in CASES:
        moments = quad_moments(kappa, lam, omega0, cutoff, 2 * depth)
        check = recurrence_moments(kappa, lam, omega0, cutoff, 2 * depth)
        worst = max([worst] + [abs(a - b) / abs(moments[0]) for a, b in zip(moments, check)])
        eps, hop = modified_chebyshev(moments, depth, cutoff)
        chains.append(dict(kappa=kappa, lam=lam, omega0=omega0, cutoff=cutoff, depth=depth,
                           eps=eps, hop=hop))
        print(f"lam {lam:g}, omega0 {omega0:g}, depth {depth}: done", file=sys.stderr)
    RECORD.write_text(json.dumps(dict(
        digits=DIGITS, quad_digits=QUAD_DIGITS,
        quad_vs_recurrence=float(worst), chains=chains), indent=1) + "\n")


if __name__ == "__main__":
    record()
