import io
import textwrap

import numpy as np
import pytest

from conftest import chain_from_csv
from preb import cli, sweeps
from preb.config import ConfigError, parse_config
from preb.pipeline import run_ness, run_trajectory
from preb.sweeps import SWEEP_COLUMNS, apply_axis, run_sweep, sweep_to_csv
from preb.thermo import REPORT_COLUMNS
from preb.validation import run_validation

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
        "[process]\ndepth = 0\n",
        "[process]\nmethod = tridiag\n",     # removed key
        "[process]\ngrid_points = 8192\n",  # removed key
    ], ids=["beta", "tau", "l0", "depth", "method", "grid_points"])
    def test_invalid_physics_rejected(self, tmp_path, text):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        with pytest.raises(ConfigError):
            parse_config(path)


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
        cfg = parse_config(self.sweep_ini(tmp_path))
        buf1, buf2 = io.StringIO(), io.StringIO()
        sweep_to_csv(buf1, run_sweep(cfg), axis="tau")
        sweep_to_csv(buf2, run_sweep(cfg), axis="tau")
        assert buf1.getvalue() == buf2.getvalue()
        header = buf1.getvalue().splitlines()[0]
        assert header == ",".join(SWEEP_COLUMNS)

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
        sweep_to_csv(buf, rows, axis="tau")
        assert len(buf.getvalue().splitlines()) == 3

    def test_parallel_equals_serial(self, tmp_path):
        cfg = parse_config(self.sweep_ini(tmp_path))
        serial = run_sweep(cfg, jobs=1)
        parallel = run_sweep(cfg, jobs=2)
        for a, b in zip(serial, parallel):
            assert a.report.csv_row() == b.report.csv_row()

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
        assert lines[0] == ",".join(REPORT_COLUMNS)
        cells = lines[1].split(",")
        assert cells[REPORT_COLUMNS.index("regime")] == "heat-engine"

    def test_ness_to_stdout(self, engine_ini, capsys):
        assert cli.main(["ness", engine_ini]) == 0
        assert "heat-engine" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[bath1]\nbeta = nope\n")
        assert cli.main(["ness", str(path)]) == 2

    def test_no_ness_exit_code(self, tmp_path, capsys):
        path = tmp_path / "weak.ini"
        path.write_text(textwrap.dedent("""\
            [bath1]
            kappa = 1e-300
            [bath2]
            kappa = 1e-300
        """))
        assert cli.main(["ness", str(path)]) == 3

    def test_too_few_modes_exit_code(self, tmp_path, capsys):
        path = tmp_path / "coarse.ini"
        path.write_text("[process]\nn_modes = 10\n")
        assert cli.main(["ness", str(path)]) == 2
        assert "process.n_modes" in capsys.readouterr().err

    @pytest.mark.parametrize("text, key", [
        ("[process]\ntau = nan\n", "process.tau"),
        ("[process]\ntau = inf\n", "process.tau"),
        ("[bath1]\nlambda = nan\n", "bath1.lambda"),
        ("[bath1]\nkappa = inf\n", "bath1.kappa"),
        ("[system]\ng = nan\n", "system.g"),
        ("[bath1]\nbeta = inf\n", "bath1.beta"),
    ], ids=["tau-nan", "tau-inf", "lambda-nan", "kappa-inf", "g-nan", "beta-inf"])
    def test_nonfinite_value_exit_code(self, tmp_path, capsys, text, key):
        path = tmp_path / "nonfinite.ini"
        path.write_text(text)
        assert cli.main(["ness", str(path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and key in err

    @pytest.mark.parametrize("mu", ["1e308", "1000"])
    def test_huge_mu_exit_code(self, tmp_path, capsys, mu):
        """mu times the roundoff in dN swamps the heat: a negative sigma, not a report."""
        path = tmp_path / "huge_mu.ini"
        path.write_text(f"[bath1]\nmu = {mu}\n[bath2]\nmu = {mu}\n")
        assert cli.main(["ness", str(path)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "negative entropy production" in captured.err

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
        base = tmp_path / "chain"
        assert cli.main(["chainmap", engine_ini, "--depth", "6",
                         "--out", str(base)]) == 0
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
        (["ness", "--depth", "0"], "process.depth"),
        (["ness", "--l0", "-1"], "process.l0"),
        (["trajectory", "--steps", "0"], "--steps"),
    ], ids=["depth-0", "l0-negative", "steps-0"])
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

    def test_depth_and_l0_overrides(self, engine_ini):
        from preb.pipeline import build_bundle
        args_cfg = cli._load_config(
            cli._build_parser().parse_args(["ness", engine_ini, "--l0", "7"]))
        assert build_bundle(args_cfg).l_b == 11  # ceil(g_B) + 7 with g_B ~ 3


class TestValidationHarness:
    def test_quick_subset_passes(self):
        results = run_validation("quick")
        assert all(r.passed for r in results)

    def test_tampering_is_detected(self, monkeypatch):
        """Corrupting the Lyapunov solver must fail at least one criterion."""
        import preb.pipeline as pipeline
        real = pipeline.solve_dlyap_direct
        monkeypatch.setattr(pipeline, "solve_dlyap_direct",
                            lambda g, p: 1.01 * real(g, p))
        results = run_validation("quick", only=["C01"])
        assert not results[0].passed

    def test_validate_cli_exit_code_on_failure(self, monkeypatch, capsys):
        import preb.pipeline as pipeline
        real = pipeline.solve_dlyap_direct
        monkeypatch.setattr(pipeline, "solve_dlyap_direct",
                            lambda g, p: 1.01 * real(g, p))
        assert cli.main(["validate"]) == 5
