"""Command-line front end: ness / sweep / trajectory / chainmap / negf / validate.

Exit codes: 0 success, 2 configuration error, 3 no unique steady state,
4 numerical failure, 5 validation failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import sys

from .builder import SystemSpec
from .config import RunConfig, parse_config, validate_process
from .dynamics import trajectory_to_csv
from .errors import ConfigError, NoUniqueNessError, PrebError
from .negf import negf_to_csv, transmission_table, transmission_to_csv
from .pipeline import run_chainmap, run_negf, run_ness, run_trajectory
from .sweeps import report_to_csv, run_sweep, sweep_to_csv
from .validation import run_validation

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_NESS = 3
EXIT_NUMERICS = 4
EXIT_VALIDATION = 5


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="preb",
                                     description="Refreshed-bath steady states and their thermodynamics")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config=True):
        if config:
            p.add_argument("config", help="INI configuration file")
        p.add_argument("--out", help="output CSV path (default: stdout)")
        p.add_argument("--l0", type=int, help="override the chain-length offset L_0")
        p.add_argument("--depth", type=int, help="override the chain depth")

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
    if getattr(args, "depth", None) is not None:
        process = dataclasses.replace(process, depth=args.depth)
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


def _cmd_ness(args) -> int:
    report = run_ness(_load_config(args))
    with _out_stream(args.out) as fh:
        report_to_csv(fh, report)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    if cfg.sweep is None:
        raise ConfigError("config has no [sweep] section")
    rows = run_sweep(cfg, jobs=args.jobs)
    with _out_stream(args.out) as fh:
        sweep_to_csv(fh, rows, axis=cfg.sweep.axis)
    return EXIT_OK


def _cmd_trajectory(args) -> int:
    traj, thermos, _report = run_trajectory(_load_config(args), args.steps)
    dists = traj.dist_to_ness[1:] if traj.dist_to_ness is not None else None
    with _out_stream(args.out) as fh:
        trajectory_to_csv(fh, thermos, dists)
    return EXIT_OK


def _cmd_chainmap(args) -> int:
    chains = run_chainmap(_load_config(args))
    for ell, chain in enumerate(chains):
        if args.out:
            with _out_stream(f"{args.out}.bath{ell + 1}.csv") as fh:
                chain.to_csv(fh)
        else:
            csv.writer(sys.stdout).writerow([f"# bath{ell + 1}"])
            chain.to_csv(sys.stdout)
    return EXIT_OK


def _cmd_negf(args) -> int:
    cfg = _load_config(args)
    with _out_stream(args.out) as fh:
        negf_to_csv(fh, run_negf(cfg))
    if args.transmission:
        leads = (cfg.bath1.spectral_function(), cfg.bath2.spectral_function())
        with _out_stream(args.transmission) as fh:
            transmission_to_csv(fh, *transmission_table(SystemSpec.two_site(cfg.g), leads))
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


if __name__ == "__main__":
    sys.exit(main())
