"""CLI output of the shipped configs against recorded goldens, and its CSV dialect.

Header lines and text cells must match exactly; numeric cells to 1e-10
relative with an absolute floor of 1e-14, so the check survives harmless
last-digit roundoff but not a change of the numbers or the layout.  Rate
cells are compared to 1e-10 of the largest rate magnitude in their golden
row: a rate that cancels to zero (P_chem at equal chemical potentials) is
roundoff noise on the scale of the report, not a number to match on its own.
"""

from pathlib import Path

import pytest

from preb import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

REL_TOL = 1e-10
ABS_FLOOR = 1e-14
RATE_COLUMNS = ("P_ext", "P_chem", "Q1", "Q2", "N1", "sigma")

CASES = [
    (["ness", "heat_engine.ini"], "ness_heat_engine.csv"),
    (["ness", "refrigerator.ini"], "ness_refrigerator.csv"),
    (["ness", "sweep_tau.ini"], "ness_sweep_tau.csv"),
    (["sweep", "sweep_tau.ini"], "sweep_sweep_tau.csv"),
    (["chainmap", "heat_engine.ini"], "chainmap_heat_engine.txt"),
    (["negf", "heat_engine.ini"], "negf_heat_engine.csv"),
    (["negf", "refrigerator.ini"], "negf_refrigerator.csv"),
    (["negf", "sweep_tau.ini"], "negf_sweep_tau.csv"),
]


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def _cells_match(got, want, scale=None):
    """Per-cell rule, or 1e-10 of ``scale`` when the cell is a rate."""
    a, b = _number(got), _number(want)
    if a is None or b is None:
        return got == want
    if scale is not None:
        return abs(a - b) <= REL_TOL * scale
    return abs(a - b) <= max(REL_TOL * abs(b), ABS_FLOOR)


@pytest.mark.parametrize("argv, golden", CASES, ids=[name for _, name in CASES])
def test_cli_output_matches_golden(argv, golden, capsys):
    command, config = argv
    assert cli.main([command, str(ROOT / "configs" / config)]) == 0
    _assert_matches_golden(capsys.readouterr().out, golden)


def test_mu_sweep_matches_golden(tmp_path, capsys):
    """A mu axis: every point after the first reuses the first point's set-up."""
    path = tmp_path / "sweep_mu.ini"
    path.write_text((ROOT / "configs" / "heat_engine.ini").read_text()
                    + "\n[sweep]\naxis = mu\nmin = -3.0\nmax = 1.0\npoints = 9\n"
                      "spacing = linear\n")
    assert cli.main(["sweep", str(path)]) == 0
    _assert_matches_golden(capsys.readouterr().out, "sweep_mu_heat_engine.csv")


def _assert_matches_golden(out, golden):
    got_lines = out.splitlines()
    want_lines = (GOLDEN / golden).read_text().splitlines()
    assert len(got_lines) == len(want_lines)
    header = want_lines[0].split(",")
    rates = [col for col, name in enumerate(header) if name in RATE_COLUMNS]
    for n, (got, want) in enumerate(zip(got_lines, want_lines)):
        if n == 0 or got.startswith("#") or want.startswith("#"):
            assert got == want, f"line {n + 1}"
            continue
        got_cells, want_cells = got.split(","), want.split(",")
        assert len(got_cells) == len(want_cells), f"line {n + 1}"
        rate_scale = max((abs(x) for x in (_number(want_cells[c]) for c in rates)
                          if x is not None), default=0.0)
        for col, (g, w) in enumerate(zip(got_cells, want_cells)):
            scale = rate_scale if col in rates else None
            assert _cells_match(g, w, scale), f"line {n + 1}, column {col + 1}: {g!r} != {w!r}"


def test_every_table_ends_lines_in_crlf(tmp_path, capsys):
    """All tables come from csv.writer, and the chainmap files equal its stdout blocks."""
    engine = str(ROOT / "configs" / "heat_engine.ini")
    texts = {}
    for argv in (["ness", engine], ["sweep", str(ROOT / "configs" / "sweep_tau.ini")],
                 ["trajectory", engine, "--steps", "3"], ["chainmap", engine],
                 ["negf", engine, "--transmission", str(tmp_path / "T.csv")]):
        assert cli.main(argv) == 0
        texts[argv[0]] = capsys.readouterr().out
    assert cli.main(["chainmap", engine, "--out", str(tmp_path / "chain")]) == 0
    for name in ("chain.bath1.csv", "chain.bath2.csv", "T.csv"):
        texts[name] = (tmp_path / name).read_bytes().decode()
    for name, text in texts.items():
        assert text.endswith("\r\n") and "\n" not in text.replace("\r\n", ""), name
    stdout_block = texts["chainmap"].split("# bath2\r\n")[0].removeprefix("# bath1\r\n")
    assert texts["chain.bath1.csv"] == stdout_block
