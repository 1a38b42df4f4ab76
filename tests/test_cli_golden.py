"""CLI output of the shipped configs against recorded goldens.

Header lines and text cells must match exactly; numeric cells to 1e-10
relative with an absolute floor of 1e-14, so the check survives harmless
last-digit roundoff but not a change of the numbers or the layout.
"""

from pathlib import Path

import pytest

from preb import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

REL_TOL = 1e-10
ABS_FLOOR = 1e-14

CASES = [
    (["ness", "heat_engine.ini"], "ness_heat_engine.csv"),
    (["ness", "refrigerator.ini"], "ness_refrigerator.csv"),
    (["ness", "sweep_tau.ini"], "ness_sweep_tau.csv"),
    (["sweep", "sweep_tau.ini"], "sweep_sweep_tau.csv"),
    (["chainmap", "heat_engine.ini"], "chainmap_heat_engine.txt"),
]


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def _cells_match(got, want):
    a, b = _number(got), _number(want)
    if a is None or b is None:
        return got == want
    return abs(a - b) <= max(REL_TOL * abs(b), ABS_FLOOR)


@pytest.mark.parametrize("argv, golden", CASES, ids=[name for _, name in CASES])
def test_cli_output_matches_golden(argv, golden, capsys):
    command, config = argv
    assert cli.main([command, str(ROOT / "configs" / config)]) == 0
    got_lines = capsys.readouterr().out.splitlines()
    want_lines = (GOLDEN / golden).read_text().splitlines()
    assert len(got_lines) == len(want_lines)
    for n, (got, want) in enumerate(zip(got_lines, want_lines)):
        if n == 0 or got.startswith("#") or want.startswith("#"):
            assert got == want, f"line {n + 1}"
            continue
        got_cells, want_cells = got.split(","), want.split(",")
        assert len(got_cells) == len(want_cells), f"line {n + 1}"
        for col, (g, w) in enumerate(zip(got_cells, want_cells)):
            assert _cells_match(g, w), f"line {n + 1}, column {col + 1}: {g!r} != {w!r}"
