"""Self-test of the benchmark harness: the gate flags corrupted output, seeds
reproduce inputs, and the tracer restores every binding it replaced.

    python3 -m pytest benchmarks/test_harness.py -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import preb  # noqa: E402
from preb import pipeline  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def report():
    return preb.run_ness(workloads.engine_config(0.05, 1.0))


@pytest.fixture(scope="module")
def negf_report():
    return preb.run_negf(workloads.engine_config(1.0, 1.0))


class TestGate:
    def test_real_reports_pass(self, report, negf_report):
        assert checks.ness_problems(report) == []
        assert checks.negf_problems(negf_report) == []

    @pytest.mark.parametrize("corrupt, expected", [
        (lambda r: setattr(r, "qdot", (r.qdot[0] * (1 + 1e-6), r.qdot[1])), "first law"),
        (lambda r: setattr(r, "sigma", -1e-6), "entropy"),
        (lambda r: setattr(r, "ndot", (r.ndot[0], -r.ndot[0] + 1e-8)), "particle"),
        (lambda r: setattr(r, "p_ext", float("nan")), "non-finite"),
        (lambda r: (setattr(r, "eta", 0.95), setattr(r, "eta_c", 0.9)), "Carnot"),
    ])
    def test_corrupted_ness_report_is_flagged(self, report, corrupt, expected):
        bad = dataclasses.replace(report)
        corrupt(bad)
        problems = checks.ness_problems(bad)
        assert any(expected in p for p in problems), problems

    @pytest.mark.parametrize("change, expected", [
        (dict(occupations=np.array([0.2, 1.01])), "occupations"),
        (dict(qdot=(1e-3, 1e-3)), "P_chem"),
        (dict(sigma=-1e-6), "entropy"),
    ])
    def test_corrupted_negf_report_is_flagged(self, negf_report, change, expected):
        problems = checks.negf_problems(dataclasses.replace(negf_report, **change))
        assert any(expected in p for p in problems), problems

    def test_failed_sweep_point_is_flagged(self, report):
        rows = [preb.SweepRow(value=1.0, report=report, error=None),
                preb.SweepRow(value=2.0, report=None, error="NoUniqueNessError: x")]
        assert checks.sweep_problems(rows, 2) == ["tau=2: NoUniqueNessError: x"]
        assert checks.sweep_problems(rows[:1], 2)

    def test_reference_tolerance(self, report):
        values = checks.ness_values(report)
        recorded = {"deep_warm": {"values": [values]}}
        near = [[v * (1 + 5e-5) for v in values]]
        far = [[v * (1 + 5e-4) for v in values]]
        assert checks.reference_problems("deep_warm", near, recorded) == []
        assert checks.reference_problems("deep_warm", far, recorded)

    def test_reference_values_are_recorded_for_every_workload(self):
        recorded = checks.load_reference()
        assert set(workloads.WORKLOADS) <= set(recorded)

    def test_corrupted_op_counts_as_failed(self):
        class Corrupted(workloads.Workload):
            def config(self, i):
                return workloads.engine_config(0.05, 1.0)

            def run(self, cfg):
                rep = preb.run_ness(cfg)
                rep.sigma = -1.0
                return rep

        result = run.measure(Corrupted(), 0.05)
        assert result["failures"] and len(result["failures"]) == len(result["times"])
        assert result["points"] == 0

    def test_raising_op_counts_as_failed(self):
        class Raising(workloads.Workload):
            def config(self, i):
                return workloads.engine_config(0.05, 1.0)

            def run(self, cfg):
                raise preb.NumericsError("no convergence")

        result = run.measure(Raising(), 0.01)
        assert len(result["failures"]) == len(result["times"]) >= 1
        assert "NumericsError: no convergence" in result["failures"][0]["problems"][0]


class TestSeeds:
    @pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
    def test_same_seed_same_inputs_other_seed_same_shape(self, name):
        cls = workloads.WORKLOADS[name]
        a, b, c = cls(7), cls(7), cls(8)
        for i in range(12):
            assert a.config(i) == b.config(i)
            other = c.config(i)
            assert other != a.config(i)
            assert other.process == a.config(i).process
            assert other.sweep == a.config(i).sweep
            assert other.bath1.omega0 == a.config(i).bath1.omega0
        if name == "negf":
            lams = [a.config(i).bath1.lam for i in range(5)]
            assert lams == [c.config(i).bath1.lam for i in range(5)]

    def test_cold_draws_need_new_chains_with_equal_depth(self):
        wl_a, wl_b = workloads.DeepCold(1), workloads.DeepCold(2)
        cfg_a, cfg_b = wl_a.config(0), wl_b.config(0)
        assert cfg_a.bath1.lam != cfg_b.bath1.lam
        assert pipeline.chain_depth(cfg_a) == pipeline.chain_depth(cfg_b) == 156


class TestTracer:
    def _bindings(self):
        return {(mod, key): value
                for mod in (preb, preb.chainmap, preb.pipeline, preb.builder,
                            preb.propagator, preb.thermo, preb.negf, preb.sweeps)
                for key, value in vars(mod).items() if callable(value)}

    def test_spans_cover_an_op_and_originals_come_back(self):
        before = self._bindings()
        init = preb.negf.LeadSelfEnergy.__init__
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert preb.pipeline.chain_map_tridiag is not before[(preb.pipeline,
                                                                  "chain_map_tridiag")]
            pipeline.clear_caches()
            tracer.begin_op()
            preb.run_ness(workloads.engine_config(0.05, 1.0))
            tracer.end_op()
        finally:
            tracer.uninstall()
        assert self._bindings() == before
        assert preb.negf.LeadSelfEnergy.__init__ is init
        metrics, shares = tracer.layer_metrics(1)
        assert tracer.unmeasured == []
        assert metrics["chainmap.maps_per_point"] == 4   # two probes, two chains
        assert metrics["builder.n"] == 20
        assert metrics["trace.coverage"] > 0.8
        assert {"chainmap", "builder", "propagator", "dynamics", "thermo"} <= set(shares)

    def test_missing_name_is_unmeasured_not_fatal(self, monkeypatch):
        monkeypatch.setattr(tracing, "LAYER_SPANS",
                            tracing.LAYER_SPANS + [("gone", "preb.chainmap", "no_such_fn")])
        tracer = tracing.Tracer()
        tracer.install()
        tracer.uninstall()
        assert tracer.unmeasured == ["gone (preb.chainmap.no_such_fn)"]


class TestContract:
    @pytest.fixture(scope="class")
    def spec(self):
        return json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

    def test_end_to_end_names_and_units_match(self, spec):
        fake = {"times": [0.1, 0.2, 0.3], "points": 3, "failures": []}
        report = run.end_to_end(fake, [0.5, 0.6])
        report.pop("failed_frac")
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
            {k: unit for k, (_, unit, _) in report.items()}

    def test_per_layer_names_and_units_match(self, spec):
        assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.UNITS

    def test_workload_names_match(self, spec):
        assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
