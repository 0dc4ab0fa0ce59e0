import contextlib
import io
import json
import math
import os
import stat
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import magspec as ms
from magspec import bounds, cli, domain, eigensolve, eigfn, harness
from conftest import degeneracy_flags


def box_config(**extra):
    cfg = {
        "name": "unit-square-analytic",
        "spectrum": {"type": "box", "lengths": [1.0, 1.0], "count": 250},
        "checks": [
            {"name": "berezin-li-yau", "lambdas": [100.0, 500.0]},
            {"name": "li-yau", "ks": [1, 10, 50]},
            {"name": "riesz-mean-lower", "lambdas": [100.0]},
            {"name": "shifted-sum-upper", "ks": [2, 20]},
            {"name": "ratio-bounds", "ks": [1, 5]},
            {"name": "yang", "ks": [1, 10]},
            {"name": "yang-corollaries", "ks": [1, 4]},
        ],
    }
    cfg.update(extra)
    return cfg


def grid_config(h=1 / 16, B=0.0, k=6, **extra):
    gauge = {"kind": "uniform", "B": B} if B else {"kind": "none"}
    cfg = {
        "name": "grid-square",
        "spectrum": {
            "type": "grid",
            "domain": {"shape": "rectangle", "a": 1.0, "b": 1.0, "h": h},
            "gauge": gauge,
            "potential": {"kind": "zero"},
            "solver": {"k": k, "tol": 1e-10},
        },
        "checks": [
            {"name": "ratio-bounds", "ks": [1, 2]},
            {"name": "yang", "ks": [1, 3]},
        ],
    }
    cfg.update(extra)
    return cfg


def parse_grid(**blocks):
    """The parsed grid of grid_config() with its spectrum's ``blocks`` replaced, or
    left out where None."""
    spectrum = {**grid_config()["spectrum"], **blocks}
    return harness.parse_config(grid_config(
        spectrum={key: value for key, value in spectrum.items() if value is not None})).spectrum


class TestConfigParsing:
    def test_parse_shapes(self):
        assert isinstance(parse_grid(domain={"shape": "rectangle", "a": 1, "b": 2,
                                             "h": 0.125}).shape, ms.Rectangle)
        assert isinstance(parse_grid(domain={"shape": "disk", "radius": 1, "h": 0.125}).shape,
                          ms.Disk)
        with pytest.raises(ms.InputDataError):
            parse_grid(domain={"shape": "pentagon", "h": 0.125})

    def test_parse_gauge(self):
        assert parse_grid(gauge=None).gauge == ms.GaugeSpec()
        assert parse_grid(gauge={"kind": "uniform", "B": 2.0}).gauge.B == 2.0
        with pytest.raises(ms.InputDataError):
            parse_grid(gauge={"kind": "torus"})

    def test_parse_potential(self):
        assert parse_grid(potential=None).potential == ms.PotentialSpec()
        with pytest.raises(ms.InputDataError):
            parse_grid(potential={"kind": "random"})

    def test_each_kind_builds_its_record(self):
        # a gauge or potential kind only sets fields of its one record
        gauges = [({"kind": "none"}, ms.GaugeSpec()),
                  ({"kind": "uniform", "B": 5}, ms.GaugeSpec(5.0)),
                  ({"kind": "linear_gauge_shift", "B": 2, "chi_coeffs": [0.5, -1]},
                   ms.GaugeSpec(2.0, (0.5, -1.0, 0.0))),
                  ({"kind": "linear_gauge_shift", "chi_coeffs": [0.5, -1, 3]},
                   ms.GaugeSpec(0.0, (0.5, -1.0, 3.0)))]
        for block, record in gauges:
            assert parse_grid(gauge=block).gauge == record
        potentials = [({"kind": "zero"}, ms.PotentialSpec()),
                      ({"kind": "constant", "c": 2.5}, ms.PotentialSpec(c=2.5)),
                      ({"kind": "radial_quadratic", "a": 3}, ms.PotentialSpec(a=3.0)),
                      ({"kind": "radial_quadratic", "a": 3, "center": [0.5, -2]},
                       ms.PotentialSpec(a=3.0, center=(0.5, -2.0))),
                      ({"kind": "grid_file", "path": "v.csv"}, ms.PotentialSpec(path="v.csv"))]
        for block, record in potentials:
            assert parse_grid(potential=block).potential == record

    def test_parse_config_typed_values(self):
        scenario = harness.parse_config(grid_config(
            h=1 / 8, B=5, eigenfunction={"ode": True},
            reference={"type": "disk", "radius": 1}))
        grid = scenario.spectrum
        assert (grid.shape, grid.h, grid.k, grid.tol) == (ms.Rectangle(1.0, 1.0), 0.125, 6, 1e-10)
        assert grid.gauge == ms.GaugeSpec(5.0)
        assert grid.potential == ms.PotentialSpec()
        # the eigenfunction block's flags select its checks, after the listed ones
        assert scenario.checks == [("ratio-bounds", (1, 2), ()), ("yang", (1, 3), ()),
                                   ("chiti-sup-bound", (2.0,), ()),
                                   ("ball-comparison", (None,), ()),
                                   ("rearrangement-slope", (None,), ())]
        assert (scenario.reference.kind, scenario.reference.size) == ("disk", 1.0)
        box = harness.parse_config(box_config(checks=[
            {"name": "berezin-li-yau", "lambdas": [100], "lambda_indices": [3]}]))
        assert (box.spectrum.kind, box.spectrum.size, box.spectrum.count) == ("box", (1.0, 1.0),
                                                                              250)
        assert box.checks == [("berezin-li-yau", (100.0,), (3,))]
        assert box.reference is None

    def test_validate_rejects_bad_configs(self):
        with pytest.raises(ms.InputDataError):
            harness.parse_config({})
        with pytest.raises(ms.InputDataError):
            harness.parse_config(box_config(checks=[{"name": "nonsense"}]))
        with pytest.raises(ms.InputDataError):
            harness.parse_config(box_config(checks=[{"name": "yang", "ks": [0]}]))


class TestRunScenario:
    def test_analytic_box_all_pass(self):
        report = harness.run_scenario(box_config())
        assert report["overall_pass"]
        assert not report["check_errors"]
        assert report["spectrum"]["source"] == "analytic"
        assert report["notes"] == []
        hard = [c for c in report["checks"] if c["applicable"] and not c["diagnostic"]]
        assert hard and all(c["passed"] for c in hard)

    def test_grid_scenario_with_eigenfunction(self):
        cfg = grid_config(h=1 / 32,
                          eigenfunction={"chiti": True, "comparison": True, "ode": True})
        report = harness.run_scenario(cfg)
        assert report["overall_pass"]
        names = {c["name"] for c in report["checks"]}
        assert {"chiti-sup-bound", "heat-kernel-sup-bound", "ball-inclusion",
                "profile-domination", "rearrangement-slope"} <= names
        assert report["notes"]  # finite-spectrum note attached to grid runs
        assert "eigenfunction" not in report

    def test_lambda_indices_resolved_from_spectrum(self):
        cfg = box_config(checks=[{"name": "riesz-mean-lower", "lambda_indices": [40]}])
        report = harness.run_scenario(cfg)
        (chk,) = report["checks"]
        assert chk["context"]["lambda"] == pytest.approx(
            ms.box_spectrum([1.0, 1.0], 40).values[-1])

    def test_error_isolation(self):
        cfg = box_config(checks=[
            {"name": "berezin-li-yau", "lambdas": [1e9]},  # beyond enumeration
            {"name": "yang", "ks": [1]},
        ])
        report = harness.run_scenario(cfg)
        assert report["overall_pass"]  # the other check still ran and passed
        assert len(report["check_errors"]) == 1
        assert report["check_errors"][0]["error"] == "TruncationError"
        assert any(c["name"] == "yang" and c["passed"] for c in report["checks"])

    @pytest.mark.parametrize("run", [
        lambda: harness.run_scenario(grid_config()),
        lambda: harness.convergence_study(grid_config(h=1 / 8, k=4), levels=3),
    ], ids=["verify", "convergence"])
    def test_determinism(self, run):
        a = harness.strip_timing(run())
        b = harness.strip_timing(run())
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_report_is_json_serializable(self):
        report = harness.run_scenario(grid_config())
        json.dumps(report)

    @pytest.mark.parametrize("source,residuals", [
        ({"type": "box", "lengths": [1.0, 1.2], "count": 20}, 0),
        ({"type": "disk", "radius": 1.0, "count": 20}, 0),
        (grid_config(h=1 / 8)["spectrum"], 6),
    ], ids=["box", "disk", "grid"])
    def test_report_spectrum_is_the_built_spectrum(self, source, residuals):
        # one result per solve: the report reads values and residuals off the
        # spectrum; an exact spectrum has no residuals
        config = {"spectrum": source, "checks": []}
        spec = harness.build_spectrum(harness.parse_config(config).spectrum)
        assert isinstance(spec, ms.Spectrum) and len(spec.residuals) == residuals
        written = harness.run_scenario(config)["spectrum"]
        assert written["values"] == spec.values.tolist()
        assert written["residuals"] == spec.residuals.tolist()

    @pytest.mark.parametrize("source", ["grid", "box"])
    def test_slack_scales_pinned(self, source):
        # every configured check on a grid scenario and on an exact box
        # spectrum; each slack must be discrete_slack(h, scale) on the grid and
        # ANALYTIC_SLACK_RTOL * |scale| on the box, with the scale written out here
        h = 1 / 16
        checks = [
            {"name": "berezin-li-yau", "lambdas": [60.0]},
            {"name": "li-yau", "ks": [1, 4]},
            {"name": "riesz-mean-lower", "lambdas": [60.0]},
            {"name": "shifted-sum-upper", "ks": [3]},
            {"name": "ratio-bounds", "ks": [2]},
            {"name": "yang", "ks": [3]},
            {"name": "yang-corollaries", "ks": [3]},
        ]
        if source == "grid":
            cfg = grid_config(h=h, checks=checks + [
                {"name": "ground-state-riesz-lower", "lambdas": [60.0]}])
            slack = lambda scale: bounds.discrete_slack(h, scale)
        else:
            cfg = box_config(checks=checks)
            slack = lambda scale: bounds.ANALYTIC_SLACK_RTOL * abs(scale)
        report = harness.run_scenario(cfg)
        assert not report["check_errors"]
        vals = np.asarray(report["spectrum"]["values"])
        d, measure = report["spectrum"]["d"], report["spectrum"]["measure"]
        v_d = report["constants"]["ball_volume"]
        top = lambda c: vals[c["k"]]  # lambda_(k+1)
        scales = {
            "berezin-li-yau": lambda c: 2 / (d + 2) * v_d / (2 * np.pi) ** d * measure
            * c["lambda"] ** (1 + d / 2),
            "li-yau": lambda c: float(vals[: c["k"]].sum()),
            "riesz-mean-lower": lambda c: c["lambda"] ** (1 + d / 2) / vals[0] ** (d / 2),
            "shifted-sum-upper": lambda c: vals[0] * c["k"] ** (1 + 2 / d),
            "ratio-direct": top,
            "ratio-via-sum": top,
            "ratio-ppw": top,
            "yang": lambda c: float(vals[c["k"]]) ** 2 * c["k"],
            "yang-second": top,
            "hile-protter": top,
            "ppw-gap": top,
            "ground-state-riesz-lower":
                lambda c: c["lambda"] ** (1 + d / 2) / c["sup_norm"] ** 2,
        }
        if source == "box":
            del scales["ground-state-riesz-lower"]
        assert {c["name"] for c in report["checks"]} == set(scales)
        assert len(report["checks"]) == len(scales) + 1  # ks [1, 4] gives two li-yau
        for chk in report["checks"]:
            scale = scales[chk["name"]](chk["context"])
            assert chk["slack"] == slack(scale), chk["name"]

    def test_overflowing_bound_is_a_check_error(self, tmp_path):
        # a five-box of side 1e-50 has lambda_5 = 7.9e101, whose lambda^(7/2) in the
        # Berezin-Li-Yau bound overflows: an entry in check_errors and exit 3
        cfg = {"spectrum": {"type": "box", "lengths": [1e-50] * 5, "count": 10},
               "checks": [{"name": "berezin-li-yau", "lambda_indices": [5]},
                          {"name": "li-yau", "ks": [3]}]}
        report = harness.run_scenario(cfg)
        assert [c["name"] for c in report["checks"]] == ["li-yau"]
        assert [e["error"] for e in report["check_errors"]] == ["OverflowError"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main(["verify", "--config", str(cfg_path)]) == 3

    def test_out_of_range_ks_are_check_errors(self, tmp_path, capsys):
        # k beyond the 250 values of the box (or k = 250, which needs
        # lambda_251) is one ValueError entry per check, and verify exits 3
        cfg = box_config(checks=[
            {"name": "li-yau", "ks": [251]},
            {"name": "shifted-sum-upper", "ks": [251]},
            {"name": "ratio-bounds", "ks": [250]},
            {"name": "yang", "ks": [250]},
            {"name": "yang-corollaries", "ks": [250]},
        ])
        report = harness.run_scenario(cfg)
        assert report["checks"] == [] and report["overall_pass"]
        assert report["check_errors"] == [
            {"check": name, "error": "ValueError", "message": message, "k": k}
            for name, k, message in [
                ("li-yau", 251, "need 1 <= k <= 250, got 251"),
                ("shifted-sum-upper", 251, "need 1 <= k <= 250, got 251"),
                ("ratio-bounds", 250, "need 1 <= k <= 249 for lambda_(k+1), got 250"),
                ("yang", 250, "need 1 <= k <= 249 for lambda_(k+1), got 250"),
                ("yang-corollaries", 250, "need 1 <= k <= 249 for lambda_(k+1), got 250"),
            ]]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main(["verify", "--config", str(cfg_path)]) == 3

    def test_eigenfunction_slacks_pinned(self):
        # each eigenfunction entry's slack, written out
        h = 1 / 32
        cfg = grid_config(h=h, checks=[],
                          eigenfunction={"chiti": True, "comparison": True, "ode": True})
        report = harness.run_scenario(cfg)
        by_name = {c["name"]: c for c in report["checks"]}
        lam = report["spectrum"]["values"][0]
        measure = report["spectrum"]["measure"]
        ball_measure = by_name["ball-inclusion"]["lhs"]
        assert by_name["chiti-sup-bound"]["slack"] == 0.0
        assert by_name["heat-kernel-sup-bound"]["slack"] == 0.0
        assert by_name["ball-inclusion"]["slack"] == 10.0 * h * max(measure, ball_measure) ** 0.5
        assert by_name["profile-domination"]["slack"] == 0.02 * ms.z_profile(lam, 2, 0.0)
        ode = by_name["rearrangement-slope"]
        assert ode["slack"] == 0.0 and ode["rhs"] == 0.05
        assert ode["context"]["slack_rtol"] == max(1e-6, 40.0 * h)
        assert ode["context"]["window"] == max(1, ode["context"]["nodes"] // 100)


class TestConvergenceStudy:
    def test_square_orders_near_two(self):
        cfg = grid_config(h=1 / 8, k=4)
        cfg["reference"] = {"type": "box", "lengths": [1.0, 1.0]}
        report = harness.convergence_study(cfg, levels=3)
        orders = np.asarray(report["observed_orders"])
        assert orders.shape == (2, 4)
        assert np.all(np.abs(orders[-1] - 2.0) < 0.2)
        # fine + (fine - coarse)/3 assumed order 2; the report carries no extrapolation
        assert "richardson_extrapolated" not in report

    def test_self_convergence_without_reference(self):
        report = harness.convergence_study(grid_config(h=1 / 8, k=2), levels=3)
        orders = np.asarray(report["observed_orders"])
        assert orders.shape == (1, 2)
        assert np.all(np.abs(orders - 2.0) < 0.3)

    def test_reference_asked_for_k_values(self, monkeypatch):
        counts = []

        def box_spectrum(lengths, count, exact=ms.box_spectrum):
            counts.append(count)
            return exact(lengths, count)

        monkeypatch.setattr(harness.analytic, "box_spectrum", box_spectrum)
        cfg = grid_config(h=1 / 8, k=4, reference={"type": "box", "lengths": [1.0, 1.0]})
        report = harness.convergence_study(cfg, levels=2)
        assert counts == [4]
        assert report["reference_values"] == ms.box_spectrum([1.0, 1.0], 50).values[:4].tolist()

    def test_rejects_analytic_and_short_studies(self):
        with pytest.raises(ms.InputDataError):
            harness.convergence_study(box_config(), levels=3)
        with pytest.raises(ms.InputDataError):
            harness.convergence_study(grid_config(), levels=1)
        with pytest.raises(ms.InputDataError, match="'lengths'"):
            harness.convergence_study(grid_config(h=1 / 8, k=2, reference={"type": "box"}),
                                      levels=2)

    @pytest.mark.parametrize("spectrum,k,levels", [
        # B = 0: doubled values, half-size real solve
        (grid_config(h=1 / 8)["spectrum"], 6, 3),
        # a shifted gauge: complex, half-size
        ({"type": "grid", "domain": {"shape": "lshape", "a": 1.0, "b": 1.0, "cut": 0.5,
                                     "h": 1 / 8},
          "gauge": {"kind": "linear_gauge_shift", "B": 5.0, "chi_coeffs": [0.7, -0.3, 0.2]}},
         6, 3),
        # a varying diagonal: full-size solve; the boundary nodes are not nested
        ({"type": "grid", "domain": {"shape": "disk", "radius": 1.0, "h": 0.2},
          "potential": {"kind": "radial_quadratic", "a": 3.0, "center": [0.1, -0.2]}}, 5, 3),
        # flux pi per plaquette at level 0: lambda_1 is double and the count rejects
        # the first request.  Two levels: at h = 1/64 the lowest Landau level holds
        # more than 8 values within 3e-9 of each other, which no solve at tol 1e-10
        # tells apart, so there a cold and a warm solve return different members
        ({"type": "grid", "domain": {"shape": "rectangle", "a": 1.0, "b": 1.0, "h": 1 / 16},
          "gauge": {"kind": "uniform", "B": math.pi * 16**2}}, 8, 2),
    ], ids=["square-B0", "lshape-shifted", "disk-radial", "pi-flux"])
    def test_warm_started_levels_match_cold_solves(self, monkeypatch, spectrum, k, levels):
        # each level after the first starts from the coarser level's vectors,
        # and its values are those of a solve from the fixed start
        starts, solve = [], harness.lowest_eigenpairs

        def record(op, k, tol, start=None):
            starts.append(start)
            return solve(op, k, tol, start)

        monkeypatch.setattr(harness, "lowest_eigenpairs", record)
        config = {"spectrum": {**spectrum, "solver": {"k": k, "tol": 1e-10}}}
        report = harness.convergence_study(config, levels)
        assert not report["failures"] and len(report["timing"]["level_seconds"]) == levels
        assert starts[0] is None
        grid = harness.parse_config(config).spectrum
        for level, start in zip(report["levels"], starts):
            op = ms.assemble(ms.build_domain(grid.shape, level["h"]), grid.gauge, grid.potential)
            assert start is None or start.shape == (op.n,) and np.all(start != 0)
            cold = solve(op, k, 1e-10)[0].values
            assert np.max(np.abs(np.array(level["values"]) - cold) / cold) < 1e-12
        assert all(s is not None for s in starts[1:])

    def test_warm_start_saves_solves_at_the_finest_level(self, monkeypatch):
        # OPinv applications: the h = 1/128 level of a study from h = 1/32 against
        # a solve of the same operator from the fixed start
        counts, factor, solve = [], eigensolve._factor, harness.lowest_eigenpairs

        class Counted:
            def __init__(self, lu):
                self.lu = lu

            def solve(self, x):
                counts[-1] += 1
                return self.lu.solve(x)

            def __getattr__(self, name):
                return getattr(self.lu, name)

        def record(*args):
            counts.append(0)
            return solve(*args)

        monkeypatch.setattr(eigensolve, "_factor", lambda a: Counted(factor(a)))
        monkeypatch.setattr(harness, "lowest_eigenpairs", record)
        harness.convergence_study(grid_config(h=1 / 32, k=12), levels=3)
        warm = counts[-1]
        op = ms.assemble(ms.build_domain(ms.Rectangle(1.0, 1.0), 1 / 128), ms.GaugeSpec(),
                         ms.PotentialSpec())
        record(op, 12, 1e-10)
        assert len(counts) == 4 and warm < counts[-1]

    def test_mask_file_study_refused(self, tmp_path, capsys):
        # a mask fixes the nodes, so halving h shrank the domain: each level's values
        # grew fourfold and every order read -2, with exit 0
        mask = tmp_path / "mask.csv"
        mask.write_text("".join(",".join("1" if 0 < i < 11 and 0 < j < 11 else "0"
                                         for j in range(12)) + "\n" for i in range(12)))
        config = {"spectrum": {"type": "grid", "solver": {"k": 4},
                               "domain": {"shape": "mask_file", "path": str(mask), "h": 0.1}}}
        assert len(harness.build_spectrum(harness.parse_config(config).spectrum)) == 4
        with pytest.raises(ms.InputDataError, match="'domain.shape'"):
            harness.parse_config(config, levels=2)
        with pytest.raises(ms.InputDataError, match="'domain.shape'"):
            harness.convergence_study(config, levels=3)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert cli.main(["convergence", "--config", str(cfg_path)]) == 2
        assert "'domain.shape'" in capsys.readouterr().err

    def test_potential_grid_file_study_refused_before_any_solve(self, tmp_path, monkeypatch):
        # the file fits level 0 only: level 0 was solved before the study stopped
        grid = tmp_path / "v.csv"
        grid.write_text("\n".join(",".join(["1.5"] * 9) for _ in range(9)) + "\n")
        config = {"spectrum": {**grid_config(h=1 / 8, k=2)["spectrum"],
                               "potential": {"kind": "grid_file", "path": str(grid)}}}
        assert len(harness.build_spectrum(harness.parse_config(config).spectrum)) == 2

        def solve(*args):
            raise AssertionError("solved a level of a study that cannot refine")

        monkeypatch.setattr(harness, "lowest_eigenpairs", solve)
        monkeypatch.setattr(harness, "build_domain", solve)
        with pytest.raises(ms.InputDataError, match="'potential.kind'"):
            harness.convergence_study(config, levels=2)


class TestReportFiles:
    def test_write_report_and_csv(self, tmp_path):
        report = harness.run_scenario(box_config())
        rp = tmp_path / "report.json"
        cp = tmp_path / "spectrum.csv"
        harness.write_report(report, rp)
        harness.write_spectrum_csv(report["spectrum"]["values"], cp)
        assert json.loads(rp.read_text())["overall_pass"]
        values = [float(x) for x in cp.read_text().split()]
        assert values == pytest.approx(report["spectrum"]["values"], rel=1e-15)


def _hand_built_report():
    return {
        "z": {"deep": {"deeper": [{"k": "v", "a": []}]}},
        "empty_list": [],
        "empty_dict": {},
        "lists_of_lists": [[1, 2.5], [], [[]], [[3.0, -0.0], {"x": []}], [{}]],
        "special": [float("nan"), float("inf"), -float("inf"), 1e-300, 1e300, 5e-324],
        "nan": float("nan"),
        "neg_inf": -float("inf"),
        "mixed": [1, "two", None, True, False, 3.0, "é"],
        "tuple": (1, (2, 3)),
        "numpy": [np.float64(0.1), np.float64(2.0), 4.0],
        "non_ascii_é": "ünïcode ☃ \u2603",
        "escapes": 'quote " backslash \\ newline \n tab \t',
        "booleans": [True, False],
        "none": None,
        "int": 7,
        "Capital": 1,
    }


def _report_cases():
    box = harness.run_scenario(box_config(spectrum={"type": "box", "lengths": [1.0, 1.0],
                                                    "count": 10_000}))
    grid = harness.run_scenario(grid_config(eigenfunction={"chiti": True, "ode": True}))
    conv = harness.convergence_study(grid_config(h=1 / 8, k=2, reference={
        "type": "box", "lengths": [1.0, 1.0]}), levels=3)
    table = harness._jsonable(ms.constants_table(3, p_list=(0.5, 1.0, 2.0)))
    return {"box-1e4": box, "grid": grid, "convergence": conv, "constants": table,
            "hand-built": _hand_built_report()}


#: Floats at and around the ends of the range where orjson and repr agree, and
#: the values outside it that the C encoder must write.
_EDGE_FLOATS = [1e-4, math.nextafter(1e-4, 0), 1e16, math.nextafter(1e16, 0), 0.0, -0.0,
                -1e-4, 5e-324, math.nan, math.inf, -math.inf]


def assert_same_text(actual: str, expected: str) -> None:
    """Equal strings, or a failure naming the first difference (pytest's own
    diff of two multi-megabyte strings takes minutes)."""
    if actual != expected:
        at = next((i for i, (a, b) in enumerate(zip(actual, expected)) if a != b),
                  min(len(actual), len(expected)))
        lo = max(at - 40, 0)
        pytest.fail(f"first difference at {at}: {actual[lo:at + 40]!r} != "
                    f"{expected[lo:at + 40]!r}")


class TestReportText:
    """Reports are written byte for byte as json.dumps(sort_keys=True, indent=2)."""

    @pytest.fixture(scope="class")
    def reports(self):
        return _report_cases()

    @pytest.mark.parametrize("name", ["box-1e4", "grid", "convergence", "constants",
                                      "hand-built"])
    def test_file_matches_json_dumps(self, reports, name, tmp_path, capsys):
        report = reports[name]
        expected = json.dumps(report, sort_keys=True, indent=2) + "\n"
        path = tmp_path / "report.json"
        harness.write_report(report, path)
        assert_same_text(path.read_text(), expected)
        harness.write_report(report, None)
        assert_same_text(capsys.readouterr().out, expected)

    def test_unserializable_value_still_raises(self, tmp_path):
        for bad in ({"a": [object()]}, {"a": {1j: 0}}):
            with pytest.raises(TypeError):
                harness.write_report(bad, tmp_path / "bad.json")

    @pytest.mark.parametrize("bad", [1j, np.complex128(2j), Path("r.json"), object()],
                             ids=["complex", "numpy-complex", "path", "object"])
    def test_jsonable_refuses_unknown_types(self, bad):
        # a value JSON cannot encode is an error, not its str() in the report
        with pytest.raises(TypeError, match=type(bad).__name__):
            harness._jsonable({"context": {"margin": bad}})

    def test_write_holds_a_small_part_of_the_report(self, tmp_path):
        report = harness.run_scenario({
            "spectrum": {"type": "box", "lengths": [1.0, 1.2, 0.9], "count": 100_000},
            "checks": [{"name": "li-yau", "ks": [1, 50_000]}]})
        path = tmp_path / "report.json"
        tracemalloc.start()
        try:
            harness.write_report(report, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 2_500_000
        assert peak < size / 4

    @pytest.mark.parametrize("write,bad", [
        (harness.write_report, {"a": list(range(20_000)), "b": object()}),
        (harness.write_spectrum_csv, [1.5] * 20_000 + ["x"]),
    ], ids=["report", "csv"])
    def test_failed_write_keeps_the_earlier_file(self, tmp_path, write, bad):
        path = tmp_path / "out.txt"
        path.write_text("earlier\n")
        with pytest.raises(TypeError):
            write(bad, path)
        assert path.read_text() == "earlier\n"
        with pytest.raises(TypeError):
            write(bad, tmp_path / "new.txt")
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_write_goes_through_links_and_pipes(self, tmp_path):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("earlier\n")
        link.symlink_to(target)
        harness.write_spectrum_csv([1.5, 2.0], link)
        assert link.is_symlink() and target.read_text() == "1.5\n2\n"
        fifo, got = tmp_path / "pipe", []
        os.mkfifo(fifo)
        reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
        reader.start()
        harness.write_spectrum_csv([1.5, 2.0], fifo)
        reader.join(timeout=10)
        assert not reader.is_alive() and got == ["1.5\n2\n"]
        assert stat.S_ISFIFO(fifo.lstat().st_mode)

    def test_csv_matches_per_value_format(self, tmp_path):
        spectrum = ms.box_spectrum([1.0, 1.3], 10_000).values
        for values in (spectrum, list(spectrum), [float("nan"), float("inf"), -0.0, 1e-300, 3],
                       []):
            path = tmp_path / "spectrum.csv"
            harness.write_spectrum_csv(values, path)
            assert_same_text(path.read_text(), "".join(f"{float(v):.17g}\n" for v in values))

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.lists(st.floats(), max_size=40),
        st.lists(st.floats(1e-4, 1e16, exclude_max=True).flatmap(
            lambda x: st.sampled_from([x, -x, 0.0])), max_size=40),
        st.lists(st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(-1e3, 1e3)), max_size=40),
        st.lists(st.booleans(), max_size=40)))
    @example([1.5] * 3000 + [math.nan] + [2.5] * 3000)
    @example(_EDGE_FLOATS)
    def test_scalar_lists_match_json_dumps(self, xs):
        self._assert_written_as_json_dumps({"v": xs})

    @pytest.mark.parametrize("x", _EDGE_FLOATS, ids=repr)
    def test_edge_floats_match_json_dumps(self, x):
        self._assert_written_as_json_dumps({"v": [x], "w": [1.5, x], "x": [x, True]})

    @staticmethod
    def _assert_written_as_json_dumps(report):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            harness.write_report(report, None)
        assert_same_text(out.getvalue(), json.dumps(report, sort_keys=True, indent=2) + "\n")

    def test_spectrum_slices_take_the_orjson_path(self, tmp_path, monkeypatch):
        box = harness.run_scenario({
            "spectrum": {"type": "box", "lengths": [1.0, 1.2, 0.9], "count": 100_000},
            "checks": [{"name": "li-yau", "ks": [1, 50_000]}]})
        # lambda_1 = 6.4e-5 lies below 1e-4, so only the disk's later slices qualify
        disk = harness.run_scenario({
            "spectrum": {"type": "disk", "radius": 300.0, "count": 5000},
            "checks": [{"name": "li-yau", "ks": [1, 5000]}]})
        flags = [i % 3 == 0 for i in range(5000)]
        encoded = []
        dumps = harness.orjson.dumps

        def counting_dumps(obj):
            encoded.append(tuple(obj))
            return dumps(obj)

        monkeypatch.setattr(harness.orjson, "dumps", counting_dumps)
        for report in (box, disk, {"flags": flags}):
            path = tmp_path / "report.json"
            harness.write_report(report, path)
            assert_same_text(path.read_text(),
                             json.dumps(report, sort_keys=True, indent=2) + "\n")
        box_slices, disk_slices, flag_slices = (
            [tuple(v[i:i + 2048]) for i in range(0, len(v), 2048)]
            for v in (box["spectrum"]["values"], disk["spectrum"]["values"], flags))
        assert len(box_slices) == 49 and len(disk_slices) == 3 and len(flag_slices) == 3
        assert disk_slices[0][0] < 1e-4 <= disk_slices[1][0]
        assert set(box_slices + disk_slices[1:] + flag_slices) <= set(encoded)
        assert disk_slices[0] not in encoded

    @pytest.mark.parametrize("source", [
        {"type": "box", "lengths": [1.0, 1.2, 0.9], "count": 100_000},
        {"type": "disk", "radius": 1.0, "count": 5000},
        grid_config(h=1 / 16)["spectrum"],
    ], ids=["box3-1e5", "disk-5000", "square-h16"])
    def test_degeneracy_flags_rebuilt_from_the_report(self, tmp_path, source):
        # a report leaves the flags out: they are a function of its exact values
        config = {"spectrum": source, "checks": []}
        path = tmp_path / "report.json"
        harness.write_report(harness.run_scenario(config), path)
        written = json.loads(path.read_text())["spectrum"]
        spec = harness.build_spectrum(harness.parse_config(config).spectrum)
        flags = degeneracy_flags(spec.values)
        assert "degeneracy_flags" not in written and flags.any()
        np.testing.assert_array_equal(degeneracy_flags(np.array(written["values"])), flags)


class TestCli:
    def test_constants_command(self, capsys):
        assert cli.main(["constants", "--dim", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ball_volume"] == pytest.approx(np.pi)

    def test_verify_pass_exit_zero(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(box_config()))
        out_path = tmp_path / "report.json"
        code = cli.main(["verify", "--config", str(cfg_path), "--out", str(out_path)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "PASS" in printed and "overall: pass" in printed
        assert out_path.is_file() and not out_path.with_suffix(".csv").exists()

    @pytest.mark.parametrize("config", [box_config(), grid_config(h=1 / 16)],
                             ids=["box", "grid"])
    def test_verify_report_holds_the_spectrum_export(self, tmp_path, capsys, config):
        # the report's values are the `spectrum --out` CSV, float for float
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        report_path, csv_path = tmp_path / "report.json", tmp_path / "spec.csv"
        assert cli.main(["verify", "--config", str(cfg_path), "--out", str(report_path)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "report.json"]
        assert cli.main(["spectrum", "--config", str(cfg_path), "--out", str(csv_path)]) == 0
        values = json.loads(report_path.read_text())["spectrum"]["values"]
        exported = [float(line) for line in csv_path.read_text().splitlines()]
        assert values and values == exported

    def test_spectrum_command_csv(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(box_config()))
        out_path = tmp_path / "spec.csv"
        assert cli.main(["spectrum", "--config", str(cfg_path),
                         "--out", str(out_path)]) == 0
        first = float(out_path.read_text().splitlines()[0])
        assert first == pytest.approx(2 * np.pi**2, rel=1e-12)

    def test_spectrum_command_stdout_is_the_csv(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(box_config()))
        out_path = tmp_path / "spec.csv"
        assert cli.main(["spectrum", "--config", str(cfg_path), "--out", str(out_path)]) == 0
        capsys.readouterr()
        assert cli.main(["spectrum", "--config", str(cfg_path)]) == 0
        assert capsys.readouterr().out == out_path.read_text()

    @pytest.mark.parametrize("dim, p", [("8", "200"), ("9", "150"), ("5", "540"), ("10", "250"),
                                        ("4", "1100"), ("2", "1e200"), ("2", "1e-5"),
                                        ("3", "0.003")])
    def test_constants_underflow_exit_three(self, capsys, dim, p):
        # I_d(p) underflows, the rule's weights overflow, above p ~ 1e154 scipy
        # cannot build the rule at all, or at small p C_d(p) itself underflows: a
        # typed numerical failure, not C_d(p) = 0, not an OverflowError and not
        # scipy's ValueError (exit 2)
        assert cli.main(["constants", "--dim", dim, "--p", p]) == 3
        assert "did not reach tolerance" in capsys.readouterr().err

    def test_huge_chiti_exponent_exit_three(self, tmp_path, capsys):
        # the eigenfunction block's p reaches the same rule, after the solve; the
        # comparison is off, as its profile-domination fails on this coarse grid
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(grid_config(
            h=0.125, k=4, eigenfunction={"p": 1e200, "comparison": False})))
        assert cli.main(["verify", "--config", str(cfg_path)]) == 3
        [error] = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("ERROR")]
        assert "chiti-sup-bound" in error and "did not reach tolerance" in error

    def test_small_chiti_exponent_exit_three(self, tmp_path, capsys):
        # lambda_1^(d/2p) overflowed at p = 1e-5 and ended in a traceback with exit 1;
        # now C_d(p) underflows first, and either is a check error like any check's
        cfg_path, out_path = tmp_path / "cfg.json", tmp_path / "report.json"
        cfg_path.write_text(json.dumps(grid_config(
            h=1 / 16, k=4, eigenfunction={"p": 1e-5, "comparison": False})))
        assert cli.main(["verify", "--config", str(cfg_path), "--out", str(out_path)]) == 3
        assert any(line.startswith("ERROR") and "chiti-sup-bound" in line
                   for line in capsys.readouterr().out.splitlines())
        [error] = json.loads(out_path.read_text())["check_errors"]
        assert error["check"] == "chiti-sup-bound" and error["p"] == 1e-05

    def test_check_error_overall_line_reads_error(self, tmp_path, capsys):
        # the last line names the exit code's verdict: it read "overall: pass" before exit 3
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(box_config(checks=[{"name": "li-yau", "ks": [251]}])))
        assert cli.main(["verify", "--config", str(cfg_path)]) == 3
        *_, error, overall = capsys.readouterr().out.splitlines()
        assert error.startswith("ERROR") and "li-yau" in error
        assert overall == "overall: ERROR"

    def test_eigenfunction_check_error_keeps_the_other_verdicts(self, tmp_path, capsys,
                                                                 monkeypatch):
        # an eigenfunction check that raises is one check error, as a spectral one is
        def fail(spec):
            raise ms.NumericalError("comparison failed")

        monkeypatch.setattr(eigfn, "comparison_check", fail)
        cfg_path, out_path = tmp_path / "cfg.json", tmp_path / "report.json"
        cfg_path.write_text(json.dumps(grid_config(h=1 / 16, k=4, eigenfunction={})))
        assert cli.main(["verify", "--config", str(cfg_path), "--out", str(out_path)]) == 3
        report = json.loads(out_path.read_text())
        names = [c["name"] for c in report["checks"]]
        assert names[-2:] == ["chiti-sup-bound", "heat-kernel-sup-bound"]
        assert report["check_errors"] == [{"check": "ball-comparison", "error": "NumericalError",
                                           "message": "comparison failed"}]

    @pytest.mark.parametrize("command", ["verify", "spectrum", "convergence"])
    def test_value_error_inside_a_solve_exit_three(self, tmp_path, capsys, monkeypatch,
                                                   command):
        # only an InputDataError is a configuration error; a ValueError from inside
        # numpy or scipy is a numerical failure, named by its type
        def solve(*args):
            raise ValueError("raised inside the solve")

        monkeypatch.setattr(eigensolve, "_shift_invert", solve)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(grid_config(h=0.125, k=4)))
        argv = [command, "--config", str(cfg_path)]
        assert cli.main(argv + (["--levels", "2"] if command == "convergence" else [])) == 3
        assert capsys.readouterr().err == \
            "numerical failure: ValueError: raised inside the solve\n"

    def test_config_that_is_no_text_exit_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(b'{"name": "\xff"}')
        assert cli.main(["verify", "--config", str(cfg_path)]) == 2
        assert "'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err

    @pytest.mark.parametrize("block", ["domain", "potential"])
    def test_csv_grid_beyond_the_node_limit_exit_two(self, tmp_path, capsys, monkeypatch,
                                                     block):
        # a 5 x 5 mask or potential grid is 25 values; the cell after the limit is never read
        monkeypatch.setattr(domain, "MAX_GRID_NODES", 24)
        grid = tmp_path / "grid.csv"
        grid.write_text("0,0,0,0,0\n" + "0,1,1,1,0\n" * 3 + "0,0,0,0,x\n")
        spectrum = {"type": "grid", "solver": {"k": 2}, **(
            {"domain": {"shape": "mask_file", "path": str(grid), "h": 0.25}} if block == "domain"
            else {"domain": {"shape": "rectangle", "a": 1.0, "b": 1.0, "h": 0.25},
                  "potential": {"kind": "grid_file", "path": str(grid)}})}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"spectrum": spectrum}))
        assert cli.main(["spectrum", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == f"error: CSV grid {grid} holds more than 24 values\n"

    def test_csv_grid_cell_that_is_no_number_exit_two(self, tmp_path, capsys):
        mask = tmp_path / "mask.csv"
        mask.write_text("0,0,0\n0,1,0\n0,0,x\n")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"spectrum": {
            "type": "grid", "domain": {"shape": "mask_file", "path": str(mask), "h": 0.5},
            "solver": {"k": 1}}}))
        assert cli.main(["spectrum", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == "error: could not convert string to float: 'x'\n"

    def test_far_center_with_zero_coefficient_is_the_zero_potential(self, tmp_path, capsys):
        # 0 * |x - center|^2 is 0 at the largest centre the reader takes
        out = []
        for potential in ({"kind": "radial_quadratic", "a": 0.0, "center": [1e50, -1e50]},
                          {"kind": "zero"}):
            spectrum = {**grid_config(h=0.125, k=4)["spectrum"], "potential": potential}
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps({"spectrum": spectrum}))
            assert cli.main(["spectrum", "--config", str(cfg_path)]) == 0
            out.append(capsys.readouterr().out)
        assert out[0] == out[1] and len(out[0].split()) == 4

    @pytest.mark.parametrize("p", ["inf", "nan", "0", "-1"])
    def test_constants_bad_p_exit_two(self, capsys, p):
        assert cli.main(["constants", "--dim", "2", "--p", p]) == 2
        assert "must be a finite positive number" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "spectrum", "constants"])
    def test_out_with_a_nul_byte_exit_two(self, tmp_path, capsys, command):
        # the ValueError of resolving such a path is an input fault, not a numerical one
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(box_config()))
        source = ["--dim", "2"] if command == "constants" else ["--config", str(cfg_path)]
        assert cli.main([command, *source, "--out", str(tmp_path / "r\0.json")]) == 2
        assert capsys.readouterr().err == "error: embedded null byte\n"

    @pytest.mark.parametrize("command", ["verify", "spectrum"])
    def test_unwritable_out_exit_two(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        Path("cfg.json").write_text(json.dumps(box_config()))
        assert cli.main([command, "--config", "cfg.json", "--out", "missing/r.json"]) == 2
        assert capsys.readouterr().err == \
            "error: cannot write missing/r.json: No such file or directory\n"
        # the temporary file beside the path cannot be made: the earlier file stays
        Path("r.json").write_text("earlier\n")
        Path(f".r.json.{os.getpid()}.tmp").mkdir()
        assert cli.main([command, "--config", "cfg.json", "--out", "r.json"]) == 2
        assert capsys.readouterr().err == "error: cannot write r.json: Is a directory\n"
        assert Path("r.json").read_text() == "earlier\n"

    @pytest.mark.parametrize("command", ["verify", "spectrum", "convergence"])
    def test_unwritable_out_refused_before_the_solve(self, tmp_path, capsys, monkeypatch,
                                                     command):
        def solve(*args):
            raise AssertionError("solved before the output path was checked")

        monkeypatch.chdir(tmp_path)
        # every command solves a grid through this name, convergence without build_spectrum
        monkeypatch.setattr(harness, "lowest_eigenpairs", solve)
        Path("cfg.json").write_text(json.dumps(grid_config(h=1 / 8, k=2)))
        assert cli.main([command, "--config", "cfg.json", "--out", "missing/r.json"]) == 2
        assert capsys.readouterr().err == \
            "error: cannot write missing/r.json: No such file or directory\n"
        Path("out").mkdir()
        assert cli.main([command, "--config", "cfg.json", "--out", "out"]) == 2
        assert capsys.readouterr().err == "error: cannot write out: Is a directory\n"
        Path("out").rmdir()
        # a writable path leaves no file behind the check: the solve comes next
        with pytest.raises(AssertionError, match="solved before"):
            cli.main([command, "--config", "cfg.json", "--out", "r.json"])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_import_leaves_out_scipy_integrate(self):
        code = ("import sys, magspec.cli; "
                "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True).stdout
        assert out.strip() == "[]"

    def test_convergence_command(self, tmp_path, capsys):
        cfg = grid_config(h=1 / 8, k=2)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main(["convergence", "--config", str(cfg_path),
                         "--levels", "3"]) == 0

    def test_usage_errors_exit_two(self, tmp_path, capsys):
        assert cli.main(["verify", "--config", str(tmp_path / "missing.json")]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["verify", "--config", str(bad)]) == 2

    @pytest.mark.parametrize("command", ["verify", "spectrum", "convergence"])
    @pytest.mark.parametrize("config,message", [
        (grid_config(spectrum={**grid_config()["spectrum"],
                               "domain": {"shape": "rectangle", "a": 1.0, "h": 0.125}}), "'b'"),
        ({"spectrum": {"type": "box", "count": 10}}, "'lengths'"),
        ({"spectrum": {"type": "disk", "count": 10}}, "'radius'"),
        (grid_config(spectrum={**grid_config()["spectrum"],
                               "domain": {"shape": "rectangle", "a": 1.0, "b": 1.0}}), "'h'"),
        (grid_config(spectrum={**grid_config()["spectrum"], "gauge": {"kind": "uniform"}}),
         "'B'"),
        ([grid_config()], "JSON object"),
        (grid_config(spectrum={**grid_config()["spectrum"], "domain": 0.125}), "'domain'"),
        (grid_config(spectrum={**grid_config()["spectrum"], "gauge": "uniform"}), "'gauge'"),
        (grid_config(spectrum={**grid_config()["spectrum"], "solver": 3}), "'solver'"),
        (grid_config(eigenfunction=True), "'eigenfunction'"),
        (grid_config(slack=1), "'slack'"),
        (grid_config(spectrum={**grid_config()["spectrum"],
                               "gauge": {"kind": "linear_gauge_shift", "chi_coeffs": 5}}),
         "'gauge.chi_coeffs'"),
        (grid_config(spectrum={**grid_config()["spectrum"],
                               "gauge": {"kind": "linear_gauge_shift", "chi_coeffs": [0.1]}}),
         "'gauge.chi_coeffs'"),
        (grid_config(spectrum={**grid_config()["spectrum"],
                               "potential": {"kind": "radial_quadratic", "a": 1.0, "center": 5}}),
         "'potential.center'"),
        (grid_config(spectrum={**grid_config()["spectrum"],
                               "potential": {"kind": "radial_quadratic", "a": 1.0,
                                             "center": ["0.5", "0.5"]}}), "'potential.center'"),
        (grid_config(spectrum={**grid_config()["spectrum"],
                               "potential": {"kind": "radial_quadratic", "a": 1.0,
                                             "center": [float("nan"), 0.5]}}),
         "'potential.center'"),
        ({"spectrum": {"type": "box", "lengths": 5, "count": 10}}, "'spectrum.lengths'"),
        ({"spectrum": {"type": "box", "lengths": [1.0, "1.0"], "count": 10}},
         "'spectrum.lengths'"),
        (grid_config(reference={"type": "box", "lengths": 5}), "'reference.lengths'"),
        (grid_config(eigenfunction={"ode": "no"}), "'eigenfunction.ode'"),
        (grid_config(eigenfunction={"chiti": 1}), "'eigenfunction.chiti'"),
        (grid_config(eigenfunction={"comparison": None}), "'eigenfunction.comparison'"),
        (grid_config(eigenfunction={"p": -1}), "'eigenfunction.p'"),
        (grid_config(eigenfunction={"p": 0}), "'eigenfunction.p'"),
        (grid_config(eigenfunction={"p": "x"}), "'eigenfunction.p'"),
        (grid_config(eigenfunction={"p": True}), "'eigenfunction.p'"),
        (grid_config(eigenfunction={"p": float("inf")}), "'eigenfunction.p'"),
        (grid_config(reference=[1.0]), "'reference'"),
        (grid_config(reference={}), "'reference' needs the key 'type'"),
        (grid_config(reference={"type": "annulus"}), "'reference.type'"),
        (grid_config(reference={"type": "disk"}), "'radius'"),
        (grid_config(reference={"type": "disk", "radius": -1.0}), "'reference.radius'"),
        (grid_config(reference={"type": "disk", "radius": True}), "'reference.radius'"),
        (grid_config(reference={"type": "box"}), "'lengths'"),
        (grid_config(reference={"type": "box", "lengths": [1.0, -1.0]}), "'reference.lengths'"),
        (grid_config(k=True), "'solver.k'"),
        (grid_config(k=6.9), "'solver.k'"),
        (grid_config(k=0), "'solver.k'"),
        ({"spectrum": {"type": "box", "lengths": [1.0, 1.0], "count": 7.9}},
         "'spectrum.count'"),
        ({"spectrum": {"type": "disk", "radius": 1.0, "count": True}}, "'spectrum.count'"),
        ({"spectrum": {"type": "disk", "radius": "1.0", "count": 10}}, "'spectrum.radius'"),
        (grid_config(B=True), "'gauge.B'"),
        (grid_config(spectrum={**grid_config()["spectrum"],
                               "gauge": {"kind": "uniform", "B": float("nan")}}), "'gauge.B'"),
        (grid_config(spectrum={**grid_config()["spectrum"],
                               "gauge": {"kind": "linear_gauge_shift", "B": "5"}}), "'gauge.B'"),
        (grid_config(h="0.125"), "'domain.h'"),
        (grid_config(h=True), "'domain.h'"),
        (grid_config(h=0), "'domain.h'"),
        (grid_config(spectrum={**grid_config()["spectrum"],
                               "solver": {"k": 6, "tol": "1e-10"}}), "'solver.tol'"),
        (grid_config(spectrum={**grid_config()["spectrum"],
                               "domain": {"shape": "rectangle", "a": True, "b": 1.0,
                                          "h": 0.125}}), "'domain.a'"),
        (grid_config(spectrum={**grid_config()["spectrum"],
                               "domain": {"shape": "disk", "radius": "1", "h": 0.125}}),
         "'domain.radius'"),
        (grid_config(spectrum={**grid_config()["spectrum"],
                               "potential": {"kind": "constant", "c": "2"}}), "'potential.c'"),
        (grid_config(spectrum={**grid_config()["spectrum"],
                               "potential": {"kind": "radial_quadratic", "a": "1"}}),
         "'potential.a'"),
        (grid_config(spectrum={**grid_config()["spectrum"], "gauge": {"B": 5}}),
         "does not read the key 'B'"),
        (grid_config(spectrum={**grid_config()["spectrum"], "gauge": {"kind": "none", "B": 5}}),
         "does not read the key 'B'"),
        (grid_config(spectrum={**grid_config()["spectrum"], "potential": {"c": 50}}),
         "does not read the key 'c'"),
        (grid_config(spectrum={**grid_config()["spectrum"],
                               "domain": {"shape": "rectangle", "a": 1.0, "b": 1.0, "h": 0.125,
                                          "radius": 2.0}}), "does not read the key 'radius'"),
        (grid_config(spectrum={**grid_config()["spectrum"],
                               "solver": {"k": 6, "tol": 1e-10, "maxiter": 5}}),
         "does not read the key 'maxiter'"),
        # a list or an object cannot even be looked up among the shape kinds
        *[(grid_config(spectrum={**grid_config()["spectrum"],
                                 "domain": {"shape": shape, "a": 1.0, "b": 1.0, "h": 0.125}}),
           "'domain.shape'") for shape in ([], {}, True, 1.5)],
        # pi^2 / L^2, L^2 or |Omega| overflowed or underflowed, and escaped as an
        # OverflowError or a ZeroDivisionError
        ({"spectrum": {"type": "box", "lengths": [1e300, 1.0], "count": 10}},
         "'spectrum.lengths'"),
        (grid_config(reference={"type": "box", "lengths": [1e300, 1.0]}), "'reference.lengths'"),
        ({"spectrum": {"type": "box", "lengths": [1e-70] * 5, "count": 10}},
         "'spectrum.lengths'"),
        ({"spectrum": {"type": "disk", "radius": 1e300, "count": 10}}, "'spectrum.radius'"),
        (grid_config(reference={"type": "disk", "radius": 1e-300}), "'reference.radius'"),
        # numpy was asked for 8.88 PiB
        (grid_config(h=1e-8), "'domain.h'"),
        # 1/h^2 = 1e202 squared overflowed in the half-size complement, whose factor
        # then escaped as SuperLU's RuntimeError
        (grid_config(spectrum={**grid_config()["spectrum"],
                               "domain": {"shape": "rectangle", "a": 1e-100, "b": 1e-100,
                                          "h": 1e-101}}), "'domain.h'"),
        (grid_config(spectrum={**grid_config()["spectrum"],
                               "domain": {"shape": "disk", "radius": 1e-60, "h": 0.125}}),
         "'domain.radius'"),
        (grid_config(spectrum={**grid_config()["spectrum"],
                               "potential": {"kind": "constant", "c": -1.0}}), "'potential.c'"),
        (grid_config(spectrum={**grid_config()["spectrum"],
                               "potential": {"kind": "radial_quadratic", "a": -0.5}}),
         "'potential.a'"),
        # the residual's squared norm overflowed: "eigenpair 0 residual inf", exit 3
        (grid_config(spectrum={**grid_config()["spectrum"],
                               "potential": {"kind": "constant", "c": 1e200}}), "'potential.c'"),
        (grid_config(spectrum={**grid_config()["spectrum"],
                               "potential": {"kind": "radial_quadratic", "a": 1e200}}),
         "'potential.a'"),
        # a centre beyond 1e50: a * |x - center|^2 overflowed, and the infinite diagonal
        # ended in ARPACK's "Starting vector is zero", a traceback with exit 1; at a = 0
        # it was 0 * inf, refused as a potential that is not finite
        (grid_config(spectrum={**grid_config()["spectrum"],
                               "potential": {"kind": "radial_quadratic", "a": 1.0,
                                             "center": [1e200, 0.0]}}),
         "'potential.center'"),
        (grid_config(spectrum={**grid_config()["spectrum"],
                               "potential": {"kind": "radial_quadratic", "a": 0.0,
                                             "center": [1e200, 0.0]}}),
         "'potential.center'"),
        # refused by the eigensolver only, after the grid was built
        (grid_config(spectrum={**grid_config()["spectrum"], "solver": {"k": 6, "tol": 1e-3}}),
         "'solver.tol' must be a number in [1e-12, 1e-4]"),
        # an exact spectrum has no computed eigenfunctions: the block was dropped
        ({"spectrum": {"type": "box", "lengths": [1.0, 1.0], "count": 10}, "eigenfunction": {}},
         "'eigenfunction'"),
        ({"spectrum": {"type": "disk", "radius": 1.0, "count": 10},
          "eigenfunction": {"ode": True}}, "'eigenfunction'"),
    ], ids=["rectangle-b", "box-lengths", "disk-radius", "domain-h", "gauge-B", "list",
            "domain-number", "gauge-string", "solver-number", "eigenfunction-bool", "slack",
            "chi-number", "chi-short", "center-number", "center-strings", "center-nan",
            "lengths-number", "lengths-string", "reference-lengths-number", "ode-string",
            "chiti-number", "comparison-null", "p-negative", "p-zero", "p-string", "p-bool",
            "p-inf", "reference-list", "reference-empty", "reference-annulus",
            "reference-disk-radius", "reference-radius-negative", "reference-radius-bool",
            "reference-box-lengths", "reference-lengths-negative", "k-bool", "k-float",
            "k-zero", "count-float", "count-bool", "radius-string", "B-bool", "B-nan",
            "B-string", "h-string", "h-bool", "h-zero", "tol-string", "rectangle-a-bool",
            "grid-disk-radius-string", "constant-c-string", "quadratic-a-string",
            "gauge-B-without-kind", "gauge-none-with-B", "potential-c-without-kind",
            "rectangle-radius", "solver-maxiter", "shape-list", "shape-object", "shape-bool",
            "shape-number", "box-lengths-huge", "reference-box-lengths-huge", "box5-lengths-tiny",
            "disk-radius-huge", "reference-disk-radius-tiny", "h-tiny", "rectangle-a-tiny",
            "grid-disk-radius-tiny", "constant-c-negative", "quadratic-a-negative",
            "constant-c-huge", "quadratic-a-huge", "center-far", "center-far-a-zero", "tol-wide", "box-eigenfunction",
            "disk-eigenfunction"])
    def test_malformed_config_exit_two(self, tmp_path, capsys, command, config, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert cli.main([command, "--config", str(cfg_path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "spectrum", "convergence"])
    @pytest.mark.parametrize("config,block,key", [
        (grid_config(chekcs=[{"name": "li-yau", "ks": [1]}]), "the config", "chekcs"),
        ({"spectrum": {"type": "box", "lengths": [1.0, 1.0], "radius": 1.0, "count": 10}},
         "'spectrum'", "radius"),
        ({"spectrum": {"type": "disk", "radius": 1.0, "lengths": [1.0, 1.0], "count": 10}},
         "'spectrum'", "lengths"),
        # misspelt, the gauge was left out and the square solved at B = 0
        (grid_config(spectrum={("guage" if key == "gauge" else key): value
                               for key, value in grid_config(B=5.0)["spectrum"].items()}),
         "'spectrum'", "guage"),
        *[(grid_config(spectrum={**grid_config()["spectrum"], "domain": {**domain, "h": 0.125}}),
           "'domain'", key) for domain, key in (
            ({"shape": "rectangle", "a": 1.0, "b": 1.0, "cut": 0.5}, "cut"),
            ({"shape": "disk", "radius": 1.0, "a": 1.0}, "a"),
            ({"shape": "lshape", "a": 1.0, "b": 1.0, "cut": 0.5, "r_inner": 0.1}, "r_inner"),
            ({"shape": "annulus", "r_inner": 0.5, "r_outer": 1.0, "radius": 1.0}, "radius"),
            ({"shape": "mask_file", "path": "mask.csv", "a": 1.0}, "a"))],
        *[(grid_config(spectrum={**grid_config()["spectrum"], "gauge": gauge}), "'gauge'", key)
          for gauge, key in (({"kind": "none", "chi_coeffs": [1.0, 1.0]}, "chi_coeffs"),
                             ({"kind": "uniform", "B": 5.0, "chi_coeffs": [1.0, 1.0]},
                              "chi_coeffs"),
                             ({"kind": "linear_gauge_shift", "B": 5.0, "center": [0.0, 0.0]},
                              "center"))],
        *[(grid_config(spectrum={**grid_config()["spectrum"], "potential": potential}),
           "'potential'", key)
          for potential, key in (({"kind": "zero", "a": 1.0}, "a"),
                                 ({"kind": "constant", "c": 1.0, "a": 1.0}, "a"),
                                 ({"kind": "radial_quadratic", "a": 1.0, "c": 1.0}, "c"),
                                 ({"kind": "grid_file", "path": "v.csv", "center": [0, 0]},
                                  "center"))],
        (grid_config(spectrum={**grid_config()["spectrum"],
                               "solver": {"k": 6, "tol": 1e-10, "sigma": 0.0}}), "'solver'",
         "sigma"),
        (grid_config(eigenfunction={"chiti": True, "odee": True}), "'eigenfunction'", "odee"),
        (grid_config(reference={"type": "box", "lengths": [1.0, 1.0], "count": 40}),
         "'reference'", "count"),
        (grid_config(reference={"type": "disk", "radius": 1.0, "count": 40}), "'reference'",
         "count"),
        (grid_config(checks=[{"name": "yang", "ks": [1]}, {"name": "li-yau", "kss": [1]}]),
         "'checks[1]'", "kss"),
    ], ids=["top-chekcs", "box-radius", "disk-lengths", "grid-guage", "rectangle-cut",
            "disk-a", "lshape-r_inner", "annulus-radius", "mask_file-a", "none-chi_coeffs",
            "uniform-chi_coeffs", "linear_gauge_shift-center", "zero-a", "constant-a",
            "radial_quadratic-c", "grid_file-center", "solver-sigma", "eigenfunction-odee",
            "reference-box-count", "reference-disk-count", "check-kss"])
    def test_unknown_key_exit_two(self, tmp_path, capsys, command, config, block, key):
        # every block refuses a key it does not read, naming the block and the key
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert cli.main([command, "--config", str(cfg_path)]) == 2
        assert f"{block} does not read the key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,h", [
        (["verify"], 1e-8), (["convergence", "--levels", "7"], 1 / 64),
        (["convergence", "--levels", "5000"], 1 / 8),
    ], ids=["verify", "convergence-finest-level", "many-levels"])
    def test_grid_beyond_the_node_limit_refused_before_the_build(self, tmp_path, capsys,
                                                                monkeypatch, argv, h):
        # a convergence study is checked at its finest level, h / 2^(levels - 1)
        def build(*args):
            raise AssertionError("built a grid beyond the node limit")

        monkeypatch.setattr(harness, "build_domain", build)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(grid_config(h=h)))
        assert cli.main([argv[0], "--config", str(cfg_path), *argv[1:]]) == 2
        err = capsys.readouterr().err
        assert f"'domain.h' gives more than {harness.MAX_GRID_NODES} grid nodes" in err

    def test_node_limit_is_on_the_bounding_box(self):
        # the unit square's bounding box has (1/h + 1)^2 nodes: 998001 at h = 1/998
        assert harness.MAX_GRID_NODES == 10**6
        harness.parse_config(grid_config(h=1 / 998))
        harness.parse_config(grid_config(h=1 / 499), levels=2)
        with pytest.raises(ms.InputDataError, match=r"^'domain.h' gives more than 1000000 "
                                                    r"grid nodes at h = 0\.001$"):
            harness.parse_config(grid_config(h=1 / 1000))
        with pytest.raises(ms.InputDataError, match=r"at h = 0\.001$"):
            harness.parse_config(grid_config(h=1 / 500), levels=2)

    @pytest.mark.parametrize("command", ["verify", "spectrum", "convergence"])
    @pytest.mark.parametrize("checks,message", [
        (["li-yau"], "'checks[0]'"),
        ({"name": "li-yau", "ks": [1]}, "'checks'"),
        ([{"name": "li-yau", "ks": 5}], "'checks[0].ks'"),
        ([{"name": "li-yau", "ks": [1.5]}], "'checks[0].ks'"),
        ([{"name": "berezin-li-yau", "lambdas": ["60"]}], "'checks[0].lambdas'"),
        ([{"name": "berezin-li-yau", "lambda_indices": [True]}], "'checks[0].lambda_indices'"),
        ([{"name": "berezin-li-yau", "lambda_indices": [0]}], "'checks[0].lambda_indices'"),
        ([{"name": "berezin-li-yau", "ks": [5]}], "does not read the key 'ks'"),
        ([{"name": "li-yau", "lambdas": [100.0]}], "does not read the key 'lambdas'"),
        ([{"name": "yang", "ks": [1], "lambda_indices": [2]}],
         "does not read the key 'lambda_indices'"),
        ([{"name": "li-yau", "ks": [1], "k": 2}], "does not read the key 'k'"),
        ([{"name": "li-yau"}], "needs a value under 'ks'"),
        ([{"name": "ratio-bounds", "ks": []}], "needs a value under 'ks'"),
        ([{"name": "riesz-mean-lower", "lambdas": [], "lambda_indices": []}],
         "needs a value under 'lambdas' or 'lambda_indices'"),
    ], ids=["entry-string", "checks-object", "ks-number", "ks-float", "lambdas-string",
            "lambda-indices-bool", "lambda-indices-zero", "bly-ks", "li-yau-lambdas",
            "yang-lambda-indices", "unread-key", "no-values", "empty-ks", "empty-lambdas"])
    def test_malformed_checks_exit_two(self, tmp_path, capsys, command, checks, message):
        # `spectrum` runs no checks, but every command parses the whole config
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(grid_config(checks=checks)))
        assert cli.main([command, "--config", str(cfg_path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "spectrum", "convergence"])
    @pytest.mark.parametrize("config,length", [
        (grid_config(k=3, checks=[{"name": "yang", "ks": [1]},
                                  {"name": "berezin-li-yau", "lambda_indices": [2, 5]}]), 3),
        (box_config(spectrum={"type": "box", "lengths": [1.0, 1.0], "count": 40},
                    checks=[{"name": "riesz-mean-lower", "lambda_indices": [41]}]), 40),
    ], ids=["grid", "box"])
    def test_lambda_index_beyond_the_spectrum_refused_before_the_solve(
            self, tmp_path, capsys, monkeypatch, command, config, length):
        # the spectrum's length is the solver's k or the analytic count
        def solve(*args):
            raise AssertionError("solved before the lambda indices were checked")

        # verify and spectrum solve through build_spectrum, convergence through
        # lowest_eigenpairs
        monkeypatch.setattr(harness, "build_spectrum", solve)
        monkeypatch.setattr(harness, "lowest_eigenpairs", solve)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        index = config["checks"][-1]["lambda_indices"][-1]
        assert cli.main([command, "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == \
            f"error: lambda index {index} exceeds computed spectrum length {length}\n"

    def test_empty_checks_list_is_valid(self, tmp_path, capsys):
        # convergence configs carry no checks; verify then has nothing to fail
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(box_config(checks=[])))
        assert cli.main(["verify", "--config", str(cfg_path)]) == 0
        assert capsys.readouterr().out == "overall: pass\n"

    @pytest.mark.parametrize("solver,message", [
        ({"k": 6, "tol": 1e-3}, "'solver.tol' must be a number in [1e-12, 1e-4]"),
        ({"k": 60, "tol": 1e-10}, "got k = 60"),
    ], ids=["tol", "k-above-n"])
    def test_convergence_bad_solver_settings_exit_two(self, tmp_path, capsys, solver, message):
        # a solver setting the operator cannot meet is a configuration error
        # (as in verify and spectrum), not a failed refinement level
        cfg = grid_config(h=1 / 8)
        cfg["spectrum"]["solver"] = solver
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main(["convergence", "--config", str(cfg_path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "spectrum", "convergence"])
    @pytest.mark.parametrize("extra,message", [
        ({"slack": {"c_tol": 1e9}}, "'slack'"),
        ({"eigenfunction": {"comparison": True, "tol": 0.05}},
         "'eigenfunction' does not read the key 'tol'"),
    ], ids=["slack", "eigenfunction-tol"])
    def test_slack_knobs_rejected(self, tmp_path, capsys, command, extra, message):
        # a key that used to rescale a verdict's slack is refused, not ignored
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(grid_config(**extra)))
        assert cli.main([command, "--config", str(cfg_path)]) == 2
        assert message in capsys.readouterr().err

    def test_spectrum_command_builds_only_the_spectrum(self, tmp_path, capsys, monkeypatch):
        def no_constants(*args, **kwargs):
            raise AssertionError("spectrum built the constants table")

        monkeypatch.setattr(harness, "constants_table", no_constants)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(grid_config(
            k=4, eigenfunction={"chiti": True, "comparison": True, "ode": True})))
        assert cli.main(["spectrum", "--config", str(cfg_path)]) == 0
        values = [float(x) for x in capsys.readouterr().out.split()]
        assert len(values) == 4 and values[0] == pytest.approx(2 * np.pi**2, rel=1e-2)

    def test_ratio_bounds_beyond_float_range(self, tmp_path, capsys):
        # (1 + 4/d)^k overflows a float at k = 1000, d = 2
        cfg = {"spectrum": {"type": "disk", "radius": 1.0, "count": 2000},
               "checks": [{"name": "ratio-bounds", "ks": [1000]}]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_path = tmp_path / "report.json"
        assert cli.main(["verify", "--config", str(cfg_path), "--out", str(out_path)]) == 0
        checks = json.loads(out_path.read_text())["checks"]
        assert [c["name"] for c in checks] == ["ratio-direct", "ratio-via-sum", "ratio-ppw"]
        assert all(c["applicable"] and c["passed"] for c in checks[:2])
        assert not checks[2]["applicable"] and "note" in checks[2]["context"]

    def test_ground_state_check_on_analytic_spectrum_exit_two(self, tmp_path, capsys):
        cfg = {"spectrum": {"type": "box", "lengths": [1.0, 1.0], "count": 50},
               "checks": [{"name": "ground-state-riesz-lower", "lambdas": [100.0]}]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main(["verify", "--config", str(cfg_path)]) == 2

    def test_report_booleans_are_json_booleans(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(box_config()))
        out_path = tmp_path / "report.json"
        assert cli.main(["verify", "--config", str(cfg_path), "--out", str(out_path)]) == 0
        report = json.loads(out_path.read_text())
        assert report["checks"][0]["passed"] is True

    def test_double_eigenvalue_reported_twice(self, tmp_path, capsys):
        # lambda_3 = lambda_2 on the B = 0 square; a skipped copy would shift
        # every value from the third on without failing any check
        cfg = {"spectrum": {"type": "grid",
                            "domain": {"shape": "rectangle", "a": 1, "b": 1, "h": 0.015625},
                            "gauge": {"kind": "none"}, "potential": {"kind": "zero"},
                            "solver": {"k": 4, "tol": 1e-10}},
               "checks": [{"name": "li-yau", "ks": [3, 4]}]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_path = tmp_path / "report.json"
        assert cli.main(["verify", "--config", str(cfg_path), "--out", str(out_path)]) == 0
        values = json.loads(out_path.read_text())["spectrum"]["values"]
        assert values[2] == pytest.approx(values[1], rel=1e-10)

    def test_fine_zero_field_square_meets_residual_gate(self, tmp_path, capsys):
        # n = 65025; solved in complex arithmetic, eigenpair 11 left a residual
        # of 1.2e-8, above the gate, though every value was right
        h, c = 0.00390625, 2.0
        cfg = {"spectrum": {"type": "grid",
                            "domain": {"shape": "rectangle", "a": 1, "b": 1, "h": h},
                            "gauge": {"kind": "none"}, "potential": {"kind": "constant", "c": c},
                            "solver": {"k": 12, "tol": 1e-10}},
               "checks": [{"name": "li-yau", "ks": [12]}]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_path = tmp_path / "report.json"
        assert cli.main(["verify", "--config", str(cfg_path), "--out", str(out_path)]) == 0
        values = json.loads(out_path.read_text())["spectrum"]["values"]
        s = np.sin(np.arange(1, 256) * np.pi * h / 2) ** 2
        exact = np.sort((4 / h**2) * (s[:, None] + s[None, :]), axis=None)[:12] + c
        assert values == pytest.approx(exact, rel=1e-10)

    def test_ghost_eigenvalue_exit_three(self, tmp_path, capsys, duplicating_solver):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(grid_config()))
        assert cli.main(["verify", "--config", str(cfg_path)]) == 3

    def test_violation_exit_code(self):
        # true inequalities never fail, so exercise the code path directly
        assert cli._report_exit_code({"overall_pass": False, "check_errors": []}) == 1
        assert cli._report_exit_code({"overall_pass": True, "check_errors": [{}]}) == 3
        assert cli._report_exit_code({"overall_pass": True, "check_errors": []}) == 0
