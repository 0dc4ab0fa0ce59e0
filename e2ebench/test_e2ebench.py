"""Tests of the benchmark's own code. Not part of the repository's test run:

    python3 -m pytest -q e2ebench
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.linalg as la

import checks
import oracles
import run
import stats
import tracing
from workloads import Command

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("n_cells, shift", [(6, 0.0), (9, 2.5)])
def test_square_spectrum_matches_dense_solve(n_cells, shift):
    H = oracles.peierls_matrix(oracles.grid_nodes(n_cells), 1.0 / n_cells, 0.0)
    dense = la.eigvalsh(H + shift * np.eye(len(H)))
    assert np.allclose(oracles.square_discrete_spectrum(n_cells, len(H), shift), dense,
                       rtol=1e-12)


def test_peierls_matrix_is_hermitian_and_field_raises_ground_state():
    nodes = oracles.grid_nodes(10, 4)
    assert len(nodes) == 9 * 9 - 4 * 4
    H = oracles.peierls_matrix(nodes, 0.1, 7.0)
    assert np.array_equal(H, H.conj().T)
    assert (oracles.peierls_spectrum(nodes, 0.1, 7.0, 1)[0]
            > oracles.peierls_spectrum(nodes, 0.1, 0.0, 1)[0])


def test_fock_darwin_levels_known_values():
    assert np.allclose(oracles.fock_darwin_levels(1.0, 0.0, 10), [2, 4, 4, 6, 6, 6, 8, 8, 8, 8])
    r = math.sqrt(2.0)  # a = 1, B = 2: w = sqrt(2)
    first = [2 * r, 4 * r - 2, 6 * r - 4, 8 * r - 6, 10 * r - 8, 12 * r - 10, 4 * r + 2,
             14 * r - 12]
    assert np.allclose(oracles.fock_darwin_levels(1.0, 2.0, 8), first)


def test_fock_darwin_levels_weak_confinement_lowest_landau_level():
    # a -> 0 packs the m >= 0 states of the lowest Landau level close together
    w = math.sqrt(0.01 + 1.0)
    m = np.arange(30)
    assert np.allclose(oracles.fock_darwin_levels(0.01, 2.0, 30), 2 * w * (m + 1) - 2 * m)


def test_disk_spectrum_against_mpmath():
    vals = oracles.disk_spectrum(2.0, 40)
    assert np.all(np.diff(vals) >= 0)
    assert vals[0] == pytest.approx(float(mpmath.besseljzero(0, 1)) ** 2 / 4, rel=1e-13)
    # j_{1,1} is the first zero of order >= 1 and comes twice
    assert vals[1] == vals[2] == pytest.approx(float(mpmath.besseljzero(1, 1)) ** 2 / 4,
                                               rel=1e-13)


def test_box_spectrum_against_brute_force():
    m = np.arange(1, 30)
    brute = np.sort((np.pi**2 * (m[:, None, None] ** 2 + m[None, :, None] ** 2 / 4
                                 + m[None, None, :] ** 2 / 9)).ravel())
    assert np.allclose(oracles.box_spectrum([1.0, 2.0, 3.0], 500), brute[:500], rtol=1e-14)


def test_summary_median_and_quartiles():
    s = stats.summary(range(1, 11))
    assert (s["median"], s["q1"], s["q3"], s["n"]) == (5.5, 2.75, 8.25, 10)
    assert stats.summary([4.0]) == {"median": 4.0, "q1": 4.0, "q3": 4.0, "n": 1}
    with pytest.raises(ValueError):
        stats.summary([])


def test_tracer_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    inner = tracer.wrap(lambda: None, "specfun.bessel_zero")
    outer = tracer.wrap(lambda: [inner() for _ in range(3)], "analytic.spectrum",
                        lambda out, args: len(out))
    with tracer.command("c"):
        outer()
    names, starts, ends, parents = zip(*[s[:4] for s in tracer.spans])
    assert names == ("command:c", "analytic.spectrum") + ("specfun.bessel_zero",) * 3
    assert parents == (-1, 0, 1, 1, 1)
    summary = tracer.summary()
    own = (ends[1] - starts[1]) - sum(ends[i] - starts[i] for i in (2, 3, 4))
    assert summary["analytic.spectrum_s"] == pytest.approx(own)
    assert summary["analytic.eigenvalues"] == 3
    assert summary["specfun.bessel_zero_calls"] == 3


@pytest.fixture(scope="module")
def box_run(tmp_path_factory):
    """A real magspec verify run on an analytic square, and its Command."""
    tmp = tmp_path_factory.mktemp("box")
    config = {"spectrum": {"type": "box", "lengths": [1.0, 1.0], "count": 60},
              "checks": [{"name": "li-yau", "ks": [1, 30]},
                         {"name": "ratio-bounds", "ks": [5]}]}
    cmd = Command("box", "verify", str(tmp / "box.config.json"), str(tmp / "box.report.json"),
                  config, {"values": oracles.box_spectrum([1.0, 1.0], 60), "rtol": 1e-10})
    Path(cmd.config_path).write_text(json.dumps(config))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-m", "magspec.cli", *cmd.argv()], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return cmd, json.loads(Path(cmd.report_path).read_text())


def _record(exit_code=0, error=None):
    return {"exit": exit_code, "error": error, "stdout": ""}


def _rewrite(cmd, report):
    Path(cmd.report_path).write_text(json.dumps(report))


def test_right_report_passes(box_run):
    cmd, report = box_run
    _rewrite(cmd, report)
    assert run.command_problems(cmd, _record()) == ([], True)


def test_wrong_eigenvalue_counts_as_failed(box_run):
    cmd, report = box_run
    bad = json.loads(json.dumps(report))
    bad["spectrum"]["values"][7] *= 1 + 1e-6
    _rewrite(cmd, bad)
    found, in_output = run.command_problems(cmd, _record())
    assert in_output and any("value 8" in p for p in found)


def test_fail_verdict_counts_as_failed(box_run):
    cmd, report = box_run
    bad = json.loads(json.dumps(report))
    bad["checks"][1]["passed"] = False
    _rewrite(cmd, bad)
    found, in_output = run.command_problems(cmd, _record())
    assert in_output and any("FAILS" in p for p in found)


def test_missing_verdict_counts_as_failed(box_run):
    cmd, report = box_run
    bad = json.loads(json.dumps(report))
    del bad["checks"][0]
    _rewrite(cmd, bad)
    assert run.command_problems(cmd, _record())[0]


def test_exit_code_and_crash_count_as_failed(box_run):
    cmd, report = box_run
    _rewrite(cmd, report)
    assert run.command_problems(cmd, _record(exit_code=1)) != ([], True)
    found, in_output = run.command_problems(cmd, _record(error="Traceback\nOverflowError: x"))
    assert found == ["OverflowError: x"] and not in_output


def test_expected_verdicts_follow_the_config():
    config = {"checks": [{"name": "ratio-bounds", "ks": [1, 2]},
                         {"name": "berezin-li-yau", "lambdas": [9.0], "lambda_indices": [3]}],
              "eigenfunction": {"chiti": True, "ode": True}}
    assert checks.expected_verdicts(config) == sorted(
        ["ratio-direct", "ratio-via-sum", "ratio-ppw"] * 2 + ["berezin-li-yau"] * 2
        + ["chiti-sup-bound", "heat-kernel-sup-bound", "ball-inclusion", "profile-domination",
           "rearrangement-slope"])


def test_cluster_orders_sum_near_crossings():
    h = 1.0 / 2 ** np.arange(3)
    # two branches that swap order between levels, and one isolated eigenvalue
    a, b = 10 + 1.0 * h**2, 10.05 - 0.8 * h**2
    values = np.column_stack([np.full(3, 1.0) + h**2, np.minimum(a, b), np.maximum(a, b),
                              np.full(3, 30.0) + h**2])
    groups, orders = checks.cluster_orders(values)
    assert groups == [[0], [1, 2]]
    assert np.allclose(np.concatenate(orders), 2.0)
    ref = np.array([1.0, 10.0, 10.05, 30.0])
    groups, orders = checks.cluster_orders(values, ref)
    assert np.allclose(np.concatenate(orders), 2.0)
