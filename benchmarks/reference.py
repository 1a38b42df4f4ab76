"""Record the reference point of every workload into ``reference.json``.

    python3 benchmarks/reference.py

The recorded values define correct output for the benchmark's reference check,
so re-record only at a commit whose outputs are known to be right, and say so
in the change that does it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import envinfo

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    envinfo.pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import checks
    import workloads

    record = {"commit": envinfo.git_commit(ROOT)}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(0)
        workloads.clear_chain_cache()
        out = wl.run(wl.reference_config())
        problems = wl.problems(out)
        if problems:
            print(f"{name}: reference point fails the gate: {problems}", file=sys.stderr)
            return 1
        record[name] = {"values": wl.reference_values(out)}
    checks.REFERENCE_FILE.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {checks.REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
