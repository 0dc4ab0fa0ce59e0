"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line with its stated tolerance; run with
``pytest -v`` (one line per criterion) or ``-s`` to see the printed lines.
"""

import json
import math

import numpy as np
import pytest

import magspec as ms
from conftest import legendre_transform_riesz, z_lp_norm
from magspec import harness


def _report(num: int, label: str, ok: bool) -> None:
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}) failed"


# ---------------------------------------------------------------------------
# shared heavy computations

@pytest.fixture(scope="module")
def magnetic_h64():
    """Unit square, uniform B = 5, h = 1/64, lowest 20 eigenpairs."""
    dom = ms.build_domain(ms.Rectangle(1.0, 1.0), 1 / 64)
    op = ms.assemble(dom, ms.GaugeSpec(5.0), ms.PotentialSpec())
    spec, vectors = ms.lowest_eigenpairs(op, 20)
    return dom, op, spec, vectors


@pytest.fixture(scope="module")
def disk_ground_h128():
    """Unit disk ground state at h = 1/128."""
    dom = ms.build_domain(ms.Disk(1.0), 1 / 128)
    op = ms.assemble(dom, ms.GaugeSpec(), ms.PotentialSpec())
    spec, vectors = ms.lowest_eigenpairs(op, 1)
    return dom, spec, vectors[0]


def _all_bound_checks(spec, lambdas, ks):
    """Every inequality in the bounds module on one spectrum, each paired with
    the scale its slack is taken from here."""
    checks = []
    for lam in lambdas:
        scale = lam ** (1 + spec.d / 2)
        checks.append((ms.check_berezin_li_yau(spec, lam), scale * spec.measure))
        checks.append((ms.check_riesz_lower(spec, lam), scale / spec.values[0] ** (spec.d / 2)))
    for k in ks:
        scale_k = float(spec.values[min(k, len(spec) - 1)])
        checks.append((ms.check_li_yau(spec, k), float(spec.values[:k].sum())))
        checks.append((ms.check_shifted_sum_upper(spec, k),
                       spec.values[0] * k ** (1 + 2 / spec.d)))
        if k <= len(spec) - 1:
            checks.extend((c, scale_k) for c in ms.check_ratio_bounds(spec, k))
            checks.append((ms.check_yang(spec, k), scale_k**2 * k))
            checks.extend((c, scale_k) for c in ms.check_yang_corollaries(spec, k))
    return checks


def _all_hold(checks, slack_fn) -> bool:
    """Every applicable margin is >= -slack_fn(scale)."""
    return all(not c.applicable or c.margin >= -slack_fn(scale) for c, scale in checks)


# ---------------------------------------------------------------------------
# criteria

def test_criterion_1_constants_suite():
    """Constant identities for d = 2..10 plus an independent oracle value."""
    mp = pytest.importorskip("mpmath")
    ok = True
    for d in range(2, 11):
        t = ms.constants_table(d, p_list=(2.0,))
        # closed forms tie the ratio constant to the sharp sup-norm constant
        identity = (2 * math.pi) ** d / t.ball_volume * t.chiti_closed**2
        ok &= abs(identity - t.ratio_constant) <= 1e-9 * t.ratio_constant
        # independent quadrature route for the p = 2 constant
        ok &= abs(t.chiti_p[2.0] - t.chiti_closed) <= 1e-8 * t.chiti_closed
        # the sharp constant is dominated by the heat-kernel constant
        ok &= t.chiti_closed <= (math.e / (d * math.pi)) ** (d / 4) * (1 + 1e-12)
    # half-integer-order zeros are multiples of pi
    ok &= all(abs(ms.bessel_zero(0.5, m) - m * math.pi) <= 1e-10 for m in range(1, 8))
    # high-precision oracle for the d = 2 ratio constant
    mp.mp.dps = 40
    j = mp.besseljzero(0, 1)
    h2_oracle = float(4 / (j**2 * mp.besselj(1, j) ** 2))
    ok &= abs(h2_oracle - 2.566) < 1e-3  # sanity on the magnitude
    ok &= abs(ms.constants_table(2).ratio_constant - h2_oracle) <= 1e-6 * h2_oracle
    _report(1, "constants suite, rel. 1e-9/1e-8/1e-10/1e-6", ok)


def test_criterion_2_analytic_inequality_suite():
    """Every bounds-module check on box and disk spectra, slack 1e-10 * scale."""
    spectra = [
        (ms.box_spectrum([1.0, 1.0], 250), 1.0),
        (ms.box_spectrum([2.0, 0.7], 250), 1.4),
        (ms.box_spectrum([1.0, 1.0, 1.0], 250), 1.0),
        (ms.box_spectrum([1.0, 2.0, 3.0], 250), 6.0),
        (ms.box_spectrum([1.0, 1.0, 1.0, 1.0], 250), 1.0),
        (ms.box_spectrum([1.0, 1.0, 1.0, 1.0, 1.0], 250), 1.0),
        (ms.box_spectrum([2.0, 1.0, 1.0, 1.0, 0.5], 250), 1.0),
        (ms.disk_spectrum(1.0, 250), math.pi),
        (ms.disk_spectrum(2.0, 250), 4 * math.pi),
    ]
    ok = True
    total = 0
    for spec, measure in spectra:
        lam1, lam_max = float(spec.values[0]), float(spec.values[-1])
        lambdas = np.linspace(1.2 * lam1, 0.98 * lam_max, 7)
        ks = [1, 2, 5, 20, 100, 200]
        ok &= spec.measure == pytest.approx(measure, rel=1e-14)
        checks = _all_bound_checks(spec, lambdas, ks)
        total += len(checks)
        ok &= _all_hold(checks, lambda s: ms.ANALYTIC_SLACK_RTOL * abs(s))
    assert total > 400
    _report(2, "analytic suite d=2..5 + disks, slack 1e-10*scale", ok)


def test_criterion_3_ratio_witnesses(square_spectrum, disk_unit_spectrum):
    """lambda_2/lambda_1 <= 3 with the documented margins."""
    sq = square_spectrum.values[1] / square_spectrum.values[0]
    dk = disk_unit_spectrum.values[1] / disk_unit_spectrum.values[0]
    ok = abs(sq - 2.5) < 1e-12 and sq <= 3.0
    ok &= abs(dk - 2.5387) < 2e-4 and dk <= 3.0 and (3.0 - dk) >= 0.46
    _report(3, "ratio witnesses 2.5 and 2.5387 <= 3, margin >= 0.46", ok)


def test_criterion_4_legendre_duality(square_spectrum, disk_unit_spectrum,
                                      magnetic_h64):
    """Transform vs brute-force sup over a 1e4-point lambda grid, 1e-9."""
    _, _, mag_spec, _ = magnetic_h64
    ok = True
    for spec in (square_spectrum, disk_unit_spectrum, mag_spec):
        n_spec = min(len(spec), 200)
        lam_max = float(spec.values[n_spec - 1])
        # 1e4 grid points, seeded with the eigenvalues where the sup is attained
        vals = spec.values[spec.values <= lam_max]
        grid = np.union1d(np.linspace(0.0, lam_max, 10**4 - vals.size), vals)
        assert grid.size <= 10**4
        riesz = np.array([ms.riesz_mean(spec, lam) for lam in grid])
        p_values = [p for p in (0.5, 1.0, 3.0, 17.5, 60.0) if p < n_spec - 1]
        for p in p_values + [n_spec - 1.25]:
            exact = legendre_transform_riesz(spec, p)
            brute = float(np.max(p * grid - riesz))
            ok &= abs(exact - brute) <= 1e-9 * max(1.0, abs(exact))
    _report(4, "Legendre duality to 1e-9 on 1e4-point grids", ok)


def test_criterion_5_discretization_convergence():
    """Observed order 2.0 +/- 0.2 for lambda_1..10; sparse vs dense to 1e-8."""
    cfg = {
        "name": "square-convergence",
        "spectrum": {
            "type": "grid",
            "domain": {"shape": "rectangle", "a": 1.0, "b": 1.0, "h": 1 / 32},
            "solver": {"k": 10, "tol": 1e-10},
        },
        "checks": [],
        "reference": {"type": "box", "lengths": [1.0, 1.0]},
    }
    report = harness.convergence_study(cfg, levels=3)
    orders = np.asarray(report["observed_orders"])  # shape (2, 10)
    ok = orders.shape == (2, 10) and bool(np.all(np.abs(orders - 2.0) <= 0.2))

    # dual-route solver agreement: the dense oracle against the Lanczos solve
    dom = ms.build_domain(ms.Rectangle(1.0, 1.0), 1 / 40)
    op = ms.assemble(dom, ms.GaugeSpec(3.0), ms.PotentialSpec())
    from magspec.eigensolve import _solve_dense, _solve_sparse, _split
    dense, _ = _solve_dense(op, 10)
    sparse, _ = _solve_sparse(op, _split(op), 10, tol=1e-12)
    ok &= bool(np.max(np.abs(dense - sparse) / dense) <= 1e-8)
    _report(5, "convergence order 2.0+/-0.2; Lanczos vs dense 1e-8", ok)


def test_criterion_6_magnetic_suite(magnetic_h64, square_ground_state_h64):
    """B = 5, h = 1/64, k = 20: gauge invariance, diamagnetism, all bounds."""
    dom, op, spec, _ = magnetic_h64
    h = dom.h
    ok = True

    # spectrum invariant under a deterministic non-trivial gauge shift
    rng = np.random.default_rng(42)
    chi = rng.normal(size=op.n)
    shifted = ms.gauge_shift(op, chi)
    spec2, _ = ms.lowest_eigenpairs(shifted, 20)
    ok &= bool(np.max(np.abs(spec2.values - spec.values) / spec.values) <= 1e-9)

    # diamagnetic inequality against the non-magnetic ground state
    _, spec0, _ = square_ground_state_h64
    ok &= spec.values[0] >= spec0.values[0] - 1e-10

    # the full inequality battery at discrete slack
    lam1, lam_max = float(spec.values[0]), float(spec.values[-1])
    lambdas = np.linspace(1.2 * lam1, 0.98 * lam_max, 5)
    ok &= spec.measure == dom.n * dom.h**2 and spec.h == h
    checks = _all_bound_checks(spec, lambdas, [1, 2, 5, 10, 19])
    ok &= _all_hold(checks, lambda s: ms.discrete_slack(h, s))
    _report(6, "magnetic suite: gauge 1e-9, diamagnetic, bounds at 10*h^2", ok)


def test_criterion_7_eigenfunction_suite(disk_ground_h128, square_ground_state_h64,
                                         magnetic_h64):
    """Sharp sup-norm equality on the disk, strictness on the square,
    profile domination, and ball-measure inclusion."""
    ok = True

    # disk ground state: the sharp p = 2 bound is an equality within 2%
    _, spec_d, _ = disk_ground_h128
    chk = ms.chiti_check(spec_d, p=2.0)[0]
    ok &= abs(chk.lhs / chk.rhs - 1.0) <= 0.02

    # same equality through the analytic profile and quadrature, to 1e-6
    lam_ball = float(ms.bessel_zero(0.0, 1)) ** 2
    t = ms.constants_table(2, p_list=(2.0,))
    analytic_ratio = ms.z_profile(lam_ball, 2, 0.0) / (
        t.chiti_p[2.0] * lam_ball**0.5 * z_lp_norm(lam_ball, 2, 2.0))
    ok &= abs(analytic_ratio - 1.0) <= 1e-6

    # the square is strictly sub-extremal (p = 1 route)
    _, spec_s, _ = square_ground_state_h64
    chk_s = ms.chiti_check(spec_s, p=1.0)[0]
    ok &= chk_s.lhs / chk_s.rhs <= 0.99

    # profile domination and ball inclusion for square and magnetic square
    _, _, spec_m, _ = magnetic_h64
    for spec in (spec_s, spec_m, spec_d):
        inclusion, domination = ms.comparison_check(spec)
        ok &= domination.passed
        ok &= inclusion.lhs <= spec.measure + inclusion.slack
    _report(7, "eigenfunction suite: disk 1+/-2% and 1+/-1e-6, square <= 0.99, "
               "domination 2%, |S| <= measure", ok)


def test_criterion_8_weyl_sanity():
    """lambda_k / (4 pi k) in [0.95, 1.15] and decreasing on the unit square."""
    spec = ms.box_spectrum([1.0, 1.0], 1000)
    ratios = [float(spec.values[k - 1]) / (4 * math.pi * k) for k in (100, 300, 1000)]
    ok = 0.95 <= ratios[-1] <= 1.15
    ok &= ratios[0] >= ratios[1] >= ratios[2]
    _report(8, "Weyl ratio in [0.95, 1.15], decreasing", ok)


def test_criterion_9_determinism(tmp_path):
    """Two verify runs produce byte-identical reports modulo timing."""
    cfg = {
        "name": "determinism",
        "spectrum": {
            "type": "grid",
            "domain": {"shape": "rectangle", "a": 1.0, "b": 1.0, "h": 1 / 32},
            "gauge": {"kind": "uniform", "B": 2.0},
            "solver": {"k": 6, "tol": 1e-10},
        },
        "checks": [{"name": "ratio-bounds", "ks": [1, 3]},
                   {"name": "yang", "ks": [2]}],
        "eigenfunction": {"chiti": True, "comparison": True, "ode": True},
    }
    blobs = []
    for _ in range(2):
        report = harness.strip_timing(harness.run_scenario(cfg))
        blobs.append(json.dumps(report, sort_keys=True).encode())
    ok = blobs[0] == blobs[1]
    _report(9, "byte-identical verify reports modulo timing", ok)
