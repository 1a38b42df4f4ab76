"""Command-line front end: ness / sweep / trajectory / chainmap / negf / validate.

Every table the commands print is written here, by ``_write_table``: a header
row, then one row per record through ``csv.writer``'s default dialect, with
numbers to 12 significant digits (17 for chain coefficients, so they read
back exactly), ``None`` as an empty cell, and text and integers as they are.
The physics modules return objects and know nothing of the format.

Exit codes: 0 success, 2 configuration error, 3 no unique steady state,
4 numerical failure or any other error, 5 validation failure.  An error
prints one line to stderr, never a traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import sys

from .config import RunConfig, parse_config, validate_process
from .errors import ConfigError, NoUniqueNessError, PrebError
from .negf import landauer_currents, transmission_table
from .pipeline import bath_pairs, run_chainmap, run_ness, run_trajectory
from .sweeps import run_sweep
from .validation import run_validation

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_NESS = 3
EXIT_NUMERICS = 4
EXIT_VALIDATION = 5

REPORT_COLUMNS = ["tau", "lambda", "mu", "beta1", "beta2", "P_ext", "P_chem",
                  "Q1", "Q2", "N1", "sigma", "regime", "eta", "eta_c",
                  "cop", "cop_c", "r", "radius", "Ncopies"]
SWEEP_COLUMNS = REPORT_COLUMNS + ["error"]
TRAJECTORY_COLUMNS = ["step", "deltaU", "W_ext", "W_chem", "Q1", "Q2", "dS", "Sigma",
                      "dist_to_ness"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="preb",
                                     description="Refreshed-bath steady states and their thermodynamics")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("config", help="INI configuration file")
        p.add_argument("--out", help="output CSV path (default: stdout)")
        p.add_argument("--l0", type=int, help="override L_0 in l_b = ceil(g_B tau) + L_0")

    p_ness = sub.add_parser("ness", help="solve one point and print its report row")
    add_common(p_ness)

    p_sweep = sub.add_parser("sweep", help="run the [sweep] axis of the config")
    add_common(p_sweep)
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="parallel workers (at most the CPU count and the sweep points)")

    p_traj = sub.add_parser("trajectory", help="iterate the cycle map from the empty system")
    add_common(p_traj)
    p_traj.add_argument("--steps", type=int, required=True, help="number of cycles")

    p_chain = sub.add_parser("chainmap", help="export the mapped chain coefficients")
    add_common(p_chain)

    p_negf = sub.add_parser("negf", help="continuous-time reference currents")
    add_common(p_negf)
    p_negf.add_argument("--transmission", help="also dump T(omega) to this CSV path")

    p_val = sub.add_parser("validate", help="run the validation suite")
    p_val.add_argument("--full", action="store_true", help="run all criteria")
    p_val.add_argument("--out", help="write the summary to this path as well")
    return parser


def _load_config(args) -> RunConfig:
    """The config file with the command-line overrides, validated like file values."""
    cfg = parse_config(args.config)
    process = cfg.process
    if getattr(args, "l0", None) is not None:
        process = dataclasses.replace(process, l_0=args.l0)
    validate_process(process)
    if getattr(args, "steps", 1) < 1:
        raise ConfigError("--steps must be >= 1")
    return cfg.replace(process=process)


@contextlib.contextmanager
def _out_stream(path):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", newline="") as fh:
            yield fh


def _write_table(fh, header, rows, digits: int = 12) -> None:
    """Floats to ``digits`` significant digits; csv.writer prints None empty, the rest by str."""
    writer = csv.writer(fh)
    writer.writerow(header)
    writer.writerows([f"{x:.{digits}g}" if isinstance(x, float) else x for x in row]
                     for row in rows)


def _report_row(report) -> list:
    return [report.tau, report.lam, report.mu, report.beta1, report.beta2, report.p_ext,
            report.p_chem, *report.qdot, report.ndot[0], report.sigma, report.regime,
            report.eta, report.eta_c, report.cop, report.cop_c, report.r,
            report.spectral_radius, report.n_copies]


def _sweep_row(row, axis: str) -> list:
    """A failed point keeps its swept value in its axis's column: each axis names one."""
    if row.report is not None:
        return _report_row(row.report) + [None]
    cells = [None] * len(REPORT_COLUMNS)
    cells[REPORT_COLUMNS.index(axis)] = row.value
    return cells + [row.error]


def _trajectory_rows(thermos, dists) -> list:
    return [[i + 1, st.du, st.w_ext, st.w_chem, *st.q, st.ds, st.sigma,
             None if dists is None else dists[i]] for i, st in enumerate(thermos)]


def _chain_rows(chain) -> list:
    """Rows ``p,eps,hop``: the hop cell of row p holds g_p, the eps cell eps_p."""
    return list(zip(range(chain.depth + 1), [None, *chain.eps], [*chain.hop, None]))


def _cmd_ness(args) -> int:
    report = run_ness(_load_config(args))
    with _out_stream(args.out) as fh:
        _write_table(fh, REPORT_COLUMNS, [_report_row(report)])
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    rows = run_sweep(cfg, jobs=args.jobs)
    with _out_stream(args.out) as fh:
        _write_table(fh, SWEEP_COLUMNS, [_sweep_row(row, cfg.sweep.axis) for row in rows])
    return EXIT_OK


def _cmd_trajectory(args) -> int:
    traj, thermos, _report = run_trajectory(_load_config(args), args.steps)
    dists = traj.dist_to_ness[1:] if traj.dist_to_ness is not None else None
    with _out_stream(args.out) as fh:
        _write_table(fh, TRAJECTORY_COLUMNS, _trajectory_rows(thermos, dists))
    return EXIT_OK


def _cmd_chainmap(args) -> int:
    chains = run_chainmap(_load_config(args))
    for ell, chain in enumerate(chains):
        path = f"{args.out}.bath{ell + 1}.csv" if args.out else None
        with _out_stream(path) as fh:
            if path is None:
                _write_table(fh, [f"# bath{ell + 1}"], [])  # a one-cell marker row
            _write_table(fh, ["p", "eps", "hop"], _chain_rows(chain), digits=17)
    return EXIT_OK


def _cmd_negf(args) -> int:
    cfg = _load_config(args)
    leads, specs = bath_pairs(cfg)
    report = landauer_currents(cfg.g, leads, specs)
    with _out_stream(args.out) as fh:
        _write_table(fh, ["I", "J", "Q1", "Q2", "P_chem", "sigma"]
                     + [f"n{i + 1}" for i in range(report.occupations.size)],
                     [[report.current, report.energy_current, *report.qdot, report.p_chem,
                       report.sigma, *report.occupations]])
    if args.transmission:
        with _out_stream(args.transmission) as fh:
            _write_table(fh, ["omega", "T"], zip(*transmission_table(cfg.g, leads)))
    return EXIT_OK


def _cmd_validate(args) -> int:
    results = run_validation("full" if args.full else "quick")
    lines = [res.line() for res in results]
    n_fail = sum(not res.passed for res in results)
    lines.append(f"{len(results) - n_fail}/{len(results)} criteria passed")
    text = "\n".join(lines)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return EXIT_OK if n_fail == 0 else EXIT_VALIDATION


_COMMANDS = {
    "ness": _cmd_ness,
    "sweep": _cmd_sweep,
    "trajectory": _cmd_trajectory,
    "chainmap": _cmd_chainmap,
    "negf": _cmd_negf,
    "validate": _cmd_validate,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NoUniqueNessError as exc:
        print(f"no unique steady state: {exc}", file=sys.stderr)
        return EXIT_NO_NESS
    except PrebError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICS
    except Exception as exc:  # a bug or an unforeseen input: one line, not a traceback
        print(f"internal error: {type(exc).__name__}: {' '.join(str(exc).split())}",
              file=sys.stderr)
        return EXIT_NUMERICS


if __name__ == "__main__":
    sys.exit(main())
