import io
import re
import runpy
import textwrap
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_conservation_laws, chain_from_csv
from preb import cli, config, sweeps
from preb.config import ConfigError, parse_config
from preb.pipeline import run_ness, run_trajectory
from preb.sweeps import SweepRow, apply_axis, run_sweep
from preb.validation import CRITERIA, _Shared

ROOT = Path(__file__).resolve().parent.parent

ENGINE_INI = textwrap.dedent("""\
    [system]
    g = 1.0

    [bath1]
    kind = lorentzian
    kappa = 2.0
    lambda = 0.05
    omega0 = 2.0
    cutoff = 6.0
    beta = 0.1
    mu = -2.0

    [bath2]
    lambda = 0.05
    omega0 = -1.0
    beta = 1.0
    mu = -2.0

    [process]
    tau = 1.0
    l0 = 5
""")


@pytest.fixture
def engine_ini(tmp_path):
    path = tmp_path / "engine.ini"
    path.write_text(ENGINE_INI)
    return str(path)


def weak_tabulated_ini(tmp_path, extra=""):
    """Both baths tabulated at J = 1e-290: the chains decouple, so no unique NESS."""
    table = tmp_path / "weak.csv"
    w = np.linspace(-6, 6, 65)
    lines = ["omega,J"] + [f"{wi},1e-290" for wi in w]
    table.write_text("\n".join(lines) + "\n")
    path = tmp_path / "run.ini"
    path.write_text(textwrap.dedent(f"""\
        [bath1]
        kind = tabulated
        table = {table}
        beta = 0.1

        [bath2]
        kind = tabulated
        table = {table}
        beta = 1.0
    """) + textwrap.dedent(extra))
    return str(path)


class TestConfigParsing:
    def test_full_roundtrip(self, engine_ini):
        cfg = parse_config(engine_ini)
        assert cfg.g == 1.0
        assert cfg.bath1.beta == 0.1 and cfg.bath2.beta == 1.0
        assert cfg.bath1.omega0 == 2.0 and cfg.bath2.omega0 == -1.0
        assert cfg.process.tau == 1.0 and cfg.process.l_0 == 5

    def test_defaults_fill_missing_keys(self, tmp_path):
        path = tmp_path / "tiny.ini"
        path.write_text("[process]\ntau = 0.5\n")
        cfg = parse_config(path)
        assert cfg.bath1.kappa == 2.0 and cfg.bath1.cutoff == 6.0
        assert cfg.bath2.omega0 == -1.0
        assert cfg.process.tau == 0.5

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[bath1]\nwidth = 3\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[bath3]\nbeta = 1\n")
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[process]\ntau = one\n")
        with pytest.raises(ConfigError, match="bad value"):
            parse_config(path)

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config("/nonexistent/run.ini")

    @pytest.mark.parametrize("text", [
        "[bath1]\nbeta = -2\n",
        "[process]\ntau = 0\n",
        "[process]\nl0 = -1\n",
        "[process]\ndepth = 0\n",           # removed key
        "[process]\nmethod = tridiag\n",     # removed key
        "[process]\ngrid_points = 8192\n",  # removed key
        "[process]\nn_modes = 8000\n",      # removed key
        "[process]\ntau_r_factor = 0\n",
    ], ids=["beta", "tau", "l0", "depth", "method", "grid_points", "n_modes",
            "tau_r_factor"])
    def test_invalid_physics_rejected(self, tmp_path, text):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_readme_ini_block_names_every_key(self):
        """The README's annotated config names each accepted key, commented ones included."""
        block = (ROOT / "README.md").read_text().split("```ini\n")[1].split("```")[0]
        named, section = {}, None
        for line in block.splitlines():
            if header := re.fullmatch(r"\[(\w+)\]", line):
                section = named.setdefault(header[1], [])
            elif key := re.match(r"#?\s*(\w+)\s*=", line):
                section.append(key[1])
        tables = {"system": config._SYSTEM_FIELDS, "bath1": config._BATH_FIELDS,
                  "process": config._PROCESS_FIELDS, "sweep": config._SWEEP_FIELDS}
        assert named == {name: list(fields) for name, fields in tables.items()}


class TestSweeps:
    def sweep_ini(self, tmp_path, axis="tau", points=3):
        path = tmp_path / "sweep.ini"
        path.write_text(ENGINE_INI + textwrap.dedent(f"""
            [sweep]
            axis = {axis}
            min = 0.5
            max = 2.0
            points = {points}
            spacing = log
        """))
        return str(path)

    def test_rows_match_single_point_runs(self, tmp_path):
        cfg = parse_config(self.sweep_ini(tmp_path))
        rows = run_sweep(cfg)
        assert len(rows) == 3
        for row in rows:
            solo = run_ness(apply_axis(cfg, "tau", row.value))
            assert row.error is None
            assert row.report.p_ext == solo.p_ext
            assert row.report.qdot == solo.qdot

    def test_csv_is_deterministic(self, tmp_path):
        path = self.sweep_ini(tmp_path)
        out1, out2 = tmp_path / "one.csv", tmp_path / "two.csv"
        assert cli.main(["sweep", path, "--out", str(out1)]) == 0
        assert cli.main(["sweep", path, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().splitlines()[0]
        assert header == ",".join(cli.SWEEP_COLUMNS)

    def test_failing_points_land_in_error_column(self, tmp_path):
        path = weak_tabulated_ini(tmp_path, """
            [sweep]
            axis = tau
            min = 0.5
            max = 1.0
            points = 2
            spacing = linear
        """)
        rows = run_sweep(parse_config(path))
        assert all(r.report is None for r in rows)
        assert all("NESS" in r.error or "Error" in r.error for r in rows)
        buf = io.StringIO()
        cli._write_table(buf, cli.SWEEP_COLUMNS, [cli._sweep_row(row, "tau") for row in rows])
        assert len(buf.getvalue().splitlines()) == 3

    @pytest.mark.parametrize("axis", ["tau", "lambda", "mu", "beta1"])
    def test_failed_row_keeps_its_value_in_the_axis_column(self, axis):
        rows = [SweepRow(0.25, None, "err"), SweepRow(-3.5, None, "err")]
        buf = io.StringIO()
        cli._write_table(buf, cli.SWEEP_COLUMNS, [cli._sweep_row(row, axis) for row in rows])
        header, *lines = buf.getvalue().splitlines()
        column = header.split(",").index(axis)
        for row, line in zip(rows, lines):
            cells = line.split(",")
            assert len(cells) == len(cli.SWEEP_COLUMNS)
            assert cells[column] == f"{row.value:.12g}" and cells[-1] == "err"
            assert cells[:column] + cells[column + 1:-1] == [""] * (len(cells) - 2)

    def test_overflowing_tau_r_lands_in_error_column(self, tmp_path):
        """tau_R = factor / (2 lambda) overflows at lambda = 0.1; at lambda = 1 it is finite,
        but tau_R / tau = 5e307 is far beyond an exact copy count.  Both rows are errors."""
        path = tmp_path / "sweep.ini"
        ini = ENGINE_INI.replace("l0 = 5", "l0 = 5\ntau_r_factor = 1e308")
        path.write_text(ini + textwrap.dedent("""
            [sweep]
            axis = lambda
            min = 0.1
            max = 1.0
            points = 2
            spacing = log
        """))
        rows = run_sweep(parse_config(path))
        assert rows[0].report is None and "process.tau_r_factor" in rows[0].error
        assert rows[1].report is None and "process.tau_r_factor" in rows[1].error

    @pytest.mark.parametrize("kinds", [("flat", "flat"), ("lorentzian", "flat"),
                                       ("flat", "lorentzian")], ids="-".join)
    def test_lambda_axis_needs_lorentzian_baths(self, tmp_path, kinds, capsys):
        """Only a Lorentzian has a width: a lambda sweep over another kind is a config error."""
        path = tmp_path / "sweep.ini"
        path.write_text(f"[bath1]\nkind = {kinds[0]}\n[bath2]\nkind = {kinds[1]}\n"
                        "[sweep]\naxis = lambda\nmin = 0.1\nmax = 1.0\npoints = 3\n")
        assert cli.main(["sweep", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Lorentzian" in err
        with pytest.raises(ConfigError, match="Lorentzian"):
            apply_axis(parse_config(path), "lambda", 0.5)

    def test_parallel_equals_serial(self, tmp_path):
        cfg = parse_config(self.sweep_ini(tmp_path))
        serial = run_sweep(cfg, jobs=1)
        parallel = run_sweep(cfg, jobs=2)
        for a, b in zip(serial, parallel):
            assert cli._report_row(a.report) == cli._report_row(b.report)

    @pytest.mark.parametrize("jobs, cpus, points, expected", [
        (10 ** 6, 8, 3, 3),   # never more workers than points
        (5, 2, 4, 2),         # never more workers than CPUs
        (3, None, 4, None),   # unknown CPU count: serial
        (2, 8, 4, 2),         # within every limit: as asked
    ])
    def test_jobs_are_clamped(self, tmp_path, monkeypatch, jobs, cpus, points, expected):
        requested = []

        class SerialPool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(sweeps, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(sweeps.os, "cpu_count", lambda: cpus)
        cfg = parse_config(self.sweep_ini(tmp_path, points=points))
        rows = run_sweep(cfg, jobs=jobs)
        assert len(rows) == points and all(r.error is None for r in rows)
        assert requested == ([] if expected is None else [expected])


class TestCli:
    def test_ness_command(self, engine_ini, tmp_path, capsys):
        out = tmp_path / "row.csv"
        assert cli.main(["ness", engine_ini, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(cli.REPORT_COLUMNS)
        cells = lines[1].split(",")
        assert cells[cli.REPORT_COLUMNS.index("regime")] == "heat-engine"

    def test_ness_to_stdout(self, engine_ini, capsys):
        assert cli.main(["ness", engine_ini]) == 0
        assert "heat-engine" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[bath1]\nbeta = nope\n")
        assert cli.main(["ness", str(path)]) == 2

    def test_unexpected_error_is_one_line_and_exit_4(self, engine_ini, monkeypatch, capsys):
        def broken(args):
            raise RuntimeError("boom\nsecond line")

        monkeypatch.setitem(cli._COMMANDS, "ness", broken)
        assert cli.main(["ness", engine_ini]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "RuntimeError" in captured.err

    def test_keyboard_interrupt_is_not_swallowed(self, engine_ini, monkeypatch):
        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setitem(cli._COMMANDS, "ness", interrupted)
        with pytest.raises(KeyboardInterrupt):
            cli.main(["ness", engine_ini])

    def test_module_entry_point_help(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.argv", ["preb", "--help"])
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("preb", run_name="__main__")
        assert exc.value.code == 0
        assert "usage: preb" in capsys.readouterr().out

    def test_no_ness_exit_code(self, tmp_path, capsys):
        path = tmp_path / "weak.ini"
        path.write_text(textwrap.dedent("""\
            [bath1]
            kappa = 1e-300
            [bath2]
            kappa = 1e-300
        """))
        assert cli.main(["ness", str(path)]) == 3

    @pytest.mark.parametrize("key", ["depth", "n_modes"])
    def test_retired_process_key_exit_code(self, tmp_path, capsys, key):
        """l0 alone sizes the chains, and the map sets its own mode count."""
        path = tmp_path / "retired.ini"
        path.write_text(f"[process]\n{key} = 12\n")
        assert cli.main(["ness", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"unknown key '{key}' in section [process]" in err

    def test_retired_depth_flag_is_rejected(self, engine_ini, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["chainmap", engine_ini, "--depth", "12"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --depth 12" in capsys.readouterr().err

    @pytest.mark.parametrize("text, code", [
        ("[system]\ng = 1e200\n", 4),  # the phases g tau carry no information
        ("[system]\ng = 1e3\n", 0),
    ], ids=["g-1e200", "g-1e3"])
    def test_huge_hopping_ness_exit_code(self, tmp_path, capsys, text, code):
        """A phase whose float64 spacing exceeds the unitarity tolerance is a numerics failure."""
        path = tmp_path / "hopping.ini"
        path.write_text(text)
        assert cli.main(["ness", str(path)]) == code
        captured = capsys.readouterr()
        if code:
            assert captured.out == ""
            assert captured.err.count("\n") == 1 and "largest phase" in captured.err
        else:
            assert captured.err == ""

    @pytest.mark.parametrize("argv, reads", [
        (["ness"], 2), (["chainmap"], 2), (["trajectory", "--steps", "3"], 2), (["sweep"], 5),
    ], ids=["ness", "chainmap", "trajectory", "sweep"])
    def test_tabulated_bath_is_read_once_per_point(self, tmp_path, monkeypatch, argv, reads):
        """The config check reads the table once; each point reads it once more."""
        table = tmp_path / "band.csv"
        w = np.linspace(-6, 6, 65)
        table.write_text("omega,J\n" + "".join(f"{wi},{1 - (wi / 6) ** 2}\n" for wi in w))
        path = tmp_path / "run.ini"
        path.write_text(f"[bath1]\nkind = tabulated\ntable = {table}\n"
                        "[sweep]\naxis = mu\nmin = -2\nmax = -1\npoints = 4\nspacing = linear\n")
        calls = []
        real = config.read_spectral_table
        monkeypatch.setattr(config, "read_spectral_table",
                            lambda p: calls.append(p) or real(p))
        out = tmp_path / "out.csv"
        assert cli.main([argv[0], str(path), "--out", str(out), *argv[1:]]) == 0
        assert calls == [str(table)] * reads

    @pytest.mark.parametrize("text, key", [
        ("[process]\ntau = nan\n", "process.tau"),
        ("[process]\ntau = inf\n", "process.tau"),
        ("[bath1]\nlambda = nan\n", "bath1.lambda"),
        ("[bath1]\nkappa = inf\n", "bath1.kappa"),
        ("[system]\ng = nan\n", "system.g"),
        ("[bath1]\nbeta = inf\n", "bath1.beta"),
        ("[process]\ntau_r_factor = 1e308\n", "process.tau_r_factor"),  # tau_R overflows
        ("[bath1]\nlambda = 1\n[bath2]\nlambda = 1\n[process]\ntau_r_factor = 1e308\n",
         "process.tau_r_factor"),  # tau_R / tau = 5e307 is finite but beyond 2**53
    ], ids=["tau-nan", "tau-inf", "lambda-nan", "kappa-inf", "g-nan", "beta-inf",
            "tau_r-overflow", "tau_r-inexact-count"])
    def test_nonfinite_value_exit_code(self, tmp_path, capsys, text, key):
        path = tmp_path / "nonfinite.ini"
        path.write_text(text)
        assert cli.main(["ness", str(path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and key in err

    @pytest.mark.parametrize("rows", [
        "omega,J\n-6,1\n0,nan\n6,1\n",
        "omega,J\n-6,1\n0,inf\n6,1\n",
        "omega,J\n-6,1\n0\n6,1\n",
        "",
    ], ids=["nan", "inf", "short-row", "empty"])
    def test_malformed_spectral_table_exit_code(self, tmp_path, capsys, rows):
        table = tmp_path / "bad.csv"
        table.write_text(rows)
        path = tmp_path / "run.ini"
        path.write_text(f"[bath1]\nkind = tabulated\ntable = {table}\n")
        assert cli.main(["ness", str(path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and str(table) in err

    @pytest.mark.parametrize("mu", ["1e308", "1000", "-1000"])
    def test_huge_mu_exit_code(self, tmp_path, capsys, mu):
        """A huge |mu| gives a row that keeps the C02 laws, or one typed error line.

        Filled baths are accounted in holes and empty ones in particles, so mu
        never multiplies a particle change that is all roundoff: mu = +-1000
        must give a row.  At 1e308 a typed error (exit 2 or 4) is also allowed.
        """
        path = tmp_path / "huge_mu.ini"
        path.write_text(f"[bath1]\nmu = {mu}\n[bath2]\nmu = {mu}\n")
        code = cli.main(["ness", str(path)])
        captured = capsys.readouterr()
        if code != 0 and mu == "1e308":
            assert code in (2, 4) and captured.out == ""
            assert captured.err.count("\n") == 1
            return
        assert code == 0 and captured.err == ""
        header, row = captured.out.splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert all(np.isfinite(float(cells[name]))
                   for name in ("P_ext", "P_chem", "Q1", "Q2", "N1", "sigma"))
        assert_conservation_laws(run_ness(parse_config(path)))

    @pytest.mark.parametrize("text, message", [
        ("[system]\ng = 1e200\n", "integrand overflows"),  # g^2 overflows in det A
        ("[bath1]\nmu = 1e308\n[bath2]\nmu = -1e308\n", "report overflows"),  # P_chem = inf
    ], ids=["g-1e200", "mu-1e308-bias"])
    def test_overflowing_negf_exit_code(self, tmp_path, capsys, text, message):
        """An input that overflows the NEGF reference is one typed error, not a nan row."""
        path = tmp_path / "overflow.ini"
        path.write_text(text)
        assert cli.main(["negf", str(path)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and message in captured.err

    @pytest.mark.parametrize("command", ["ness", "chainmap", "negf"])
    def test_overflowing_spectral_table_exit_code(self, tmp_path, capsys, command):
        """A table over +-1e300 overflows its first moment: a config error naming it."""
        table = tmp_path / "wide.csv"
        table.write_text("omega,J\n-1e300,1\n1e300,1\n")
        path = tmp_path / "run.ini"
        path.write_text(f"[bath1]\nkind = tabulated\ntable = {table}\n")
        assert cli.main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and str(table) in captured.err
        assert "overflows" in captured.err

    def test_trajectory_without_unique_ness(self, tmp_path):
        traj, thermos, report = run_trajectory(parse_config(weak_tabulated_ini(tmp_path)),
                                               steps=3)
        assert report is None
        assert traj.dist_to_ness is None
        assert len(thermos) == 3
        assert all(st.first_law_defect < 1e-10 for st in thermos)

    def test_trajectory_command_without_unique_ness(self, tmp_path, capsys):
        assert cli.main(["trajectory", weak_tabulated_ini(tmp_path), "--steps", "3"]) == 0

    def test_trajectory_command(self, engine_ini, tmp_path):
        out = tmp_path / "traj.csv"
        assert cli.main(["trajectory", engine_ini, "--steps", "5",
                         "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("step,deltaU,W_ext")
        assert len(lines) == 6

    def test_chainmap_command(self, engine_ini, tmp_path):
        """At tau = 1 the light cone ceil(g_B tau) is 4 sites, so L_0 = 2 gives 6."""
        base = tmp_path / "chain"
        assert cli.main(["chainmap", engine_ini, "--l0", "2", "--out", str(base)]) == 0
        cc = chain_from_csv(f"{base}.bath1.csv")
        assert cc.depth == 6
        assert cc.hop[0] == pytest.approx(1.0, abs=0.03)

    def test_negf_command(self, engine_ini, tmp_path):
        out = tmp_path / "negf.csv"
        trans = tmp_path / "trans.csv"
        assert cli.main(["negf", engine_ini, "--out", str(out),
                         "--transmission", str(trans)]) == 0
        header, row = out.read_text().splitlines()
        assert header.startswith("I,J,Q1,Q2")
        assert len(row.split(",")) == len(header.split(","))
        t_lines = trans.read_text().splitlines()
        assert t_lines[0] == "omega,T"
        assert len(t_lines) > 100

    @pytest.mark.parametrize("argv, message", [
        (["ness", "--l0", "-1"], "process.l0"),
        (["trajectory", "--steps", "0"], "--steps"),
    ], ids=["l0-negative", "steps-0"])
    def test_invalid_override_exit_code(self, engine_ini, capsys, argv, message):
        assert cli.main([argv[0], engine_ini, *argv[1:]]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and message in err

    @pytest.mark.parametrize("axis, lo, hi, points, message", [
        ("lambda", -0.1, 0.1, 3, "sweep.min"),
        ("beta1", -1, 1, 3, "sweep.min"),
        ("tau", -1, 1, 3, "sweep.min"),
        ("mu", -1e308, 1e308, 3, "sweep.max - sweep.min"),  # the linear step overflows
        ("mu", -1, 1, 10_001, "sweep.points"),  # one above the bound
    ], ids=["lambda", "beta1", "tau", "mu-overflow", "points-too-many"])
    def test_sweep_range_crossing_invalid_values_exit_code(self, tmp_path, capsys,
                                                          axis, lo, hi, points, message):
        path = tmp_path / "sweep.ini"
        path.write_text(f"[sweep]\naxis = {axis}\nmin = {lo}\nmax = {hi}\n"
                        f"points = {points}\nspacing = linear\n")
        assert cli.main(["sweep", str(path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and message in err

    @pytest.mark.parametrize("factor, cell", [
        (2.0 ** 53 - 1, "9007199254740992"),
        (2.0 ** 53, None),
    ], ids=["below-2**53", "at-2**53"])
    def test_copy_count_is_exact_up_to_2_53(self, tmp_path, capsys, factor, cell):
        """At lambda = 1/2 and tau = 1, tau_R / tau equals the factor; every copy is printed."""
        path = tmp_path / "copies.ini"
        path.write_text(f"[bath1]\nlambda = 0.5\n[bath2]\nlambda = 0.5\n"
                        f"[process]\ntau = 1.0\ntau_r_factor = {factor!r}\n")
        out = tmp_path / "row.csv"
        code = cli.main(["ness", str(path), "--out", str(out)])
        if cell is None:
            assert code == 2 and "process.tau_r_factor" in capsys.readouterr().err
        else:
            assert code == 0
            assert out.read_text().splitlines()[1].split(",")[-1] == cell

    def test_sweep_without_sweep_section_exit_code(self, capsys):
        assert cli.main(["sweep", str(ROOT / "configs" / "heat_engine.ini")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "configuration error" in err and "[sweep]" in err

    def test_chain_at_the_light_cone_runs(self, engine_ini, tmp_path):
        """At tau = 1 the light cone ceil(g_B tau) is 4 sites: with L_0 = 0 a 4-site chain runs."""
        base = tmp_path / "chain"
        assert cli.main(["chainmap", engine_ini, "--l0", "0", "--out", str(base)]) == 0
        assert chain_from_csv(f"{base}.bath1.csv").depth == 4
        assert cli.main(["ness", engine_ini, "--l0", "0"]) == 0

    def test_depth_and_l0_overrides(self, engine_ini):
        from preb.pipeline import build_bundle
        args_cfg = cli._load_config(
            cli._build_parser().parse_args(["ness", engine_ini, "--l0", "7"]))
        assert build_bundle(args_cfg).l_b == 11  # ceil(g_B) + 7 with g_B ~ 3


class TestValidationHarness:
    def test_tampering_is_detected(self, monkeypatch):
        """Corrupting the Lyapunov solver must fail at least one criterion."""
        import preb.pipeline as pipeline
        real = pipeline.solve_dlyap_direct
        monkeypatch.setattr(pipeline, "solve_dlyap_direct",
                            lambda g, p, radius: 1.01 * real(g, p, radius))
        assert not CRITERIA["C01"](_Shared()).passed

    def test_validate_cli_exit_code_on_failure(self, monkeypatch, capsys):
        import preb.pipeline as pipeline
        real = pipeline.solve_dlyap_direct
        monkeypatch.setattr(pipeline, "solve_dlyap_direct",
                            lambda g, p, radius: 1.01 * real(g, p, radius))
        assert cli.main(["validate"]) == 5
