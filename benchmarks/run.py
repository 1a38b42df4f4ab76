"""Benchmark of the preb steady-state pipeline on seeded workloads.

    python3 benchmarks/run.py --workload tau_sweep --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports ``preb`` from its ``src``
directory.  Each op is one call of a public entry point (``run_sweep``,
``run_ness`` or ``run_negf``) in a closed loop: the next op starts when the
previous one has ended and passed the correctness gate.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics from a traced run with ``--trace 1``.  The line before it
holds the full record: sample counts, layer shares, failures, the reference
check and the environment.  Records and span files go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import envinfo

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
READY = "ready"
TAIL_MIN_OPS = 100      # op_s.p90 needs at least ten samples beyond it
UNTRACED_SHARE = 1 / 3  # of --seconds, in a traced run, to measure the tracing overhead


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)  # internal: set up, report ready, exit
    return p.parse_args(argv)


def measure(wl, seconds: float, tracer=None) -> dict:
    """Closed loop of ops for ``seconds``, then to the end of the op cycle.

    Every output goes through the gate; a failed op is counted and the loop
    goes on.
    """
    from workloads import clear_chain_cache

    times, failures = [], []
    points = failed_points = 0
    i = 0
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end or i % wl.cycle:
        cfg = wl.config(i)
        if wl.cold:
            clear_chain_cache()
        if tracer is not None:
            tracer.begin_op()
        t0 = time.perf_counter()
        try:
            out = wl.run(cfg)
            problems = None
        except Exception:  # the boundary that must keep running
            out, problems = None, [traceback.format_exc(limit=-2).strip()]
        finally:
            times.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.end_op()
        if problems is None:
            problems = wl.problems(out)
            bad_points = wl.failed_points(out)
            failed_points += bad_points
            if tracer is not None:
                tracer.count("sweeps.failed_points", bad_points)
        if problems:
            failures.append({"op": i, "problems": problems[:3]})
        else:
            points += wl.points_per_op
        i += 1
    return {"times": times, "failures": failures, "points": points,
            "failed_points": failed_points}


def probe_setup(args) -> list[float]:
    """Seconds from process start to first timed op, in fresh processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line != READY or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        samples.append(elapsed)
    return samples


def check_reference(wl, name: str) -> list[str]:
    import checks
    from workloads import clear_chain_cache

    if wl.cold:
        clear_chain_cache()
    try:
        out = wl.run(wl.reference_config())
    except Exception as exc:  # reported as a failed reference check
        return [f"reference point raised {type(exc).__name__}: {exc}"]
    problems = wl.problems(out)
    if problems:
        return problems
    return checks.reference_problems(name, wl.reference_values(out), checks.load_reference())


def p90(values) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(run: dict, setup: list[float]) -> dict:
    """Every end-to-end metric as name -> (value, unit, sample count)."""
    times = run["times"]
    return {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "points_per_s": (run["points"] / sum(times), "1/s", run["points"]),
        "op_s.p50": (statistics.median(times), "s", len(times)),
        "op_s.p90": (p90(times), "s", len(times)),
        "failed_frac": (len(run["failures"]) / len(times), "1", len(times)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB", 1),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "preb" / "__init__.py").is_file():
        print(f"error: no preb package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    envinfo.pin_blas_threads()
    envinfo.pin_cpu()
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.prepare()
    if args.setup_probe:
        print(READY, flush=True)
        return 0

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace}
    if args.trace:
        untraced = measure(wl, args.seconds * UNTRACED_SHARE)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            run = measure(wl, args.seconds * (1 - UNTRACED_SHARE), tracer)
        finally:
            tracer.uninstall()
        layers, shares = tracer.layer_metrics(wl.points_per_op)
        traced_p50 = statistics.median(run["times"])
        layers["trace.op_s"] = traced_p50
        layers["trace.overhead_s"] = traced_p50 - statistics.median(untraced["times"])
        metrics = {k: {"value": v, "unit": tracing.UNITS[k]} for k, v in sorted(layers.items())}
        record.update(per_layer=metrics, shares=shares, unmeasured=tracer.unmeasured,
                      samples={"traced_ops": len(run["times"]),
                               "untraced_ops": len(untraced["times"])})
        runs = [untraced, run]
    else:
        setup = probe_setup(args)
        run = measure(wl, args.seconds)
        report = end_to_end(run, setup)
        # failed_frac is 0 on every passing run, so it reaches the result line
        # through its "attempted" and "failed" counts, not as a bounded metric
        metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in report.items()
                   if k != "failed_frac"}
        record.update(end_to_end={k: {"value": v, "unit": u, "samples": n}
                                  for k, (v, u, n) in report.items()},
                      setup_samples=setup)
        runs = [run]

    failures = [f for r in runs for f in r["failures"]]
    attempted = sum(len(r["times"]) for r in runs)
    reference = check_reference(wl, args.workload)
    record.update(failed_frac=len(failures) / attempted, failures=failures[:10],
                  failed_points=sum(r["failed_points"] for r in runs),
                  tail_samples_ok=len(run["times"]) >= TAIL_MIN_OPS,
                  reference={"ok": not reference, "problems": reference},
                  environment=envinfo.environment(ROOT))
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.dump(OUT_DIR / f"{stem}.spans.jsonl.gz")
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(record))

    failed = len(failures) + (1 if reference else 0)
    result = {"correct": failed == 0, "attempted": attempted + 1, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
