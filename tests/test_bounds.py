import dataclasses
import inspect
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

import magspec as ms
from conftest import legendre_transform_riesz
from magspec import bounds


def _toy_spectrum(values, d=2, h=None, measure=1.0):
    return ms.Spectrum(d=d, values=np.asarray(values, dtype=float), h=h, measure=measure)


class TestRieszMean:
    def test_small_example(self):
        spec = _toy_spectrum([1.0, 2.0, 3.0])
        assert ms.riesz_mean(spec, 2.5) == pytest.approx(2.0, abs=1e-15)

    def test_zero_below_ground_state(self):
        spec = _toy_spectrum([1.0, 2.0])
        assert ms.riesz_mean(spec, 0.5) == 0.0

    def test_truncation_guard(self):
        spec = _toy_spectrum([1.0, 2.0, 3.0])
        with pytest.raises(ms.TruncationError):
            ms.riesz_mean(spec, 3.5)

    def test_rejects_negative_parameter(self):
        with pytest.raises(ValueError):
            ms.riesz_mean(_toy_spectrum([1.0]), -1.0)


class TestLegendreTransform:
    def test_small_example(self):
        spec = _toy_spectrum([1.0, 2.0, 3.0])
        assert legendre_transform_riesz(spec, 1.5) == pytest.approx(2.0, abs=1e-15)

    def test_integer_argument(self):
        spec = _toy_spectrum([1.0, 2.0, 3.0])
        assert legendre_transform_riesz(spec, 2.0) == pytest.approx(3.0, abs=1e-15)

    def test_truncation_guard(self):
        spec = _toy_spectrum([1.0, 2.0])
        with pytest.raises(ms.TruncationError):
            legendre_transform_riesz(spec, 2.5)

    def test_brute_force_duality(self, square_spectrum):
        # L(p) = sup_lam (p lam - R(lam)): the transform must dominate the
        # affine family and touch it at the supremum
        lams = np.linspace(0.0, float(square_spectrum.values[150]), 2000)
        riesz = np.array([ms.riesz_mean(square_spectrum, lam) for lam in lams])
        for p in (0.5, 1.0, 3.7, 10.0, 50.0):
            duality_gap = legendre_transform_riesz(square_spectrum, p) \
                - np.max(p * lams - riesz)
            assert duality_gap >= -1e-12
            # the grid sup undershoots by at most one grid step times the
            # slope mismatch, which is bounded by p + counting function
            assert duality_gap <= (p + 151) * (lams[1] - lams[0])

    def test_riesz_mean_is_convex(self, square_spectrum):
        lams = np.linspace(0.0, float(square_spectrum.values[100]), 500)
        riesz = np.array([ms.riesz_mean(square_spectrum, lam) for lam in lams])
        second = np.diff(riesz, 2)
        assert np.min(second) >= -1e-10


class TestBerezinLiYau:
    def test_square_holds_at_many_levels(self, square_spectrum):
        for lam in (5 * np.pi**2, 100.0, 500.0, 2000.0):
            chk = ms.check_berezin_li_yau(square_spectrum, lam)
            assert chk.passed and chk.margin >= 0

    def test_worked_value(self, square_spectrum):
        lam = 5 * np.pi**2
        chk = ms.check_berezin_li_yau(square_spectrum, lam)
        assert chk.lhs == pytest.approx(3 * np.pi**2, rel=1e-12)
        # (2/(d+2)) v_d (2 pi)^{-d} |Omega| lam^2 = lam^2/(8 pi) = 96.89 at d = 2
        assert chk.rhs == pytest.approx(lam**2 / (8 * np.pi), rel=1e-12)
        assert chk.rhs == pytest.approx(96.89, abs=5e-3)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_li_yau_is_its_legendre_transform(self, d):
        # the Li-Yau bound on sum_{j<=k} lambda_j is sup_lam (k lam - rhs(lam)),
        # rhs the Berezin-Li-Yau bound on the Riesz mean, here maximised
        # numerically; eigenvalues far above every lam keep the Riesz mean 0
        spec = _toy_spectrum(np.full(400, 1e12), d=d, measure=0.7)

        for k in (1, 7, 50, 400):
            best = optimize.minimize_scalar(
                lambda lam: ms.check_berezin_li_yau(spec, lam).rhs - k * lam,
                bounds=(0.0, 1e6), method="bounded", options={"xatol": 1e-8})
            assert ms.check_li_yau(spec, k).lhs == pytest.approx(-best.fun, rel=1e-9)


class TestLiYau:
    def test_square_holds(self, square_spectrum):
        for k in (1, 5, 50, 200):
            chk = ms.check_li_yau(square_spectrum, k)
            assert chk.passed and chk.margin >= 0

    def test_ground_state_value(self, square_spectrum):
        chk = ms.check_li_yau(square_spectrum, 1)
        assert chk.lhs == pytest.approx(2 * np.pi, rel=1e-12)
        assert chk.rhs == pytest.approx(2 * np.pi**2, rel=1e-12)


def assert_approaches_from_below(trend, limit, tol):
    """Each point of the trend lies below the limit, closer than the one
    before, and the last within tol of it."""
    gaps = limit - np.asarray(trend)
    assert np.all(gaps > 0), (trend, limit)
    assert np.all(np.diff(gaps) < 0), (trend, limit)
    assert gaps[-1] < tol, (trend, limit)


class TestTwoTermWeyl:
    """On exact spectra both sharp bounds are off by the boundary term of the
    two-term Weyl law, so each margin, rescaled, tends to a constant fixed by
    |dOmega| and |Omega|.  A constant of either bound off by a factor 1.001
    moves the last point by k^(1/d) / 1000 or sqrt(lambda) / 1000, well past
    each tolerance."""

    @pytest.mark.parametrize("make,ks,limit,tol", [
        (lambda: ms.box_spectrum([1.0, 1.0], 10**5), [10**2, 10**3, 10**4, 10**5],
         (2 / 3) * 4 / math.sqrt(math.pi), 0.01),
        (lambda: ms.disk_spectrum(1.0, 10**4), [10**2, 10**3, 10**4], 4 / 3, 0.02),
        # d = 3: (5/6) b a^(-2/3), a = v_3 |Omega| / (8 pi^3), b = |dOmega| / (16 pi)
        (lambda: ms.box_spectrum([1.0, 1.2, 0.9], 10**5), [10**3, 10**4, 10**5],
         (5 / 6) * (6.36 / (16 * math.pi)) * (4 * math.pi / 3 * 1.08 / (8 * math.pi**3))
         ** (-2 / 3), 0.04),
    ], ids=["square", "disk", "box3"])
    def test_li_yau_margin(self, make, ks, limit, tol):
        # k^(1/d) times the relative margin; in d = 2 the limit is
        # (2/3) |dOmega| / sqrt(pi |Omega|)
        spec = make()
        trend = [k ** (1 / spec.d) * ms.check_li_yau(spec, k).relative_margin for k in ks]
        assert_approaches_from_below(trend, limit, tol)

    @pytest.mark.parametrize("make,lams,limit", [
        (lambda: ms.box_spectrum([1.0, 1.0], 10**5), [1.26e3, 1.26e4, 1.26e5, 1.26e6], 16 / 3),
        (lambda: ms.disk_spectrum(1.0, 10**4), [4e1, 4e2, 4e3, 4e4], 8 / 3),
    ], ids=["square", "disk"])
    def test_berezin_li_yau_remainder(self, make, lams, limit):
        # (1 - R(lambda) / rhs) sqrt(lambda) tends to (4/3) |dOmega| / |Omega|
        spec = make()
        trend = []
        for lam in lams:
            chk = ms.check_berezin_li_yau(spec, lam)
            trend.append((1 - chk.lhs / chk.rhs) * math.sqrt(lam))
        assert_approaches_from_below(trend, limit, 0.01)


class TestRieszLower:
    def test_square_worked_value(self, square_spectrum):
        lam = 5 * np.pi**2
        chk = ms.check_riesz_lower(square_spectrum, lam)
        assert chk.passed
        assert chk.lhs == pytest.approx(8.653, rel=1e-3)
        assert chk.rhs == pytest.approx(3 * np.pi**2, rel=1e-12)

    def test_disk_holds(self, disk_unit_spectrum):
        lam1 = disk_unit_spectrum.values[0]
        for lam in (1.5 * lam1, 3 * lam1, 10 * lam1):
            chk = ms.check_riesz_lower(disk_unit_spectrum, lam)
            assert chk.passed and chk.margin >= 0

    def test_sup_norm_substitution_matches_closed_form(self, square_spectrum):
        # substituting the extremal sup-norm C_d(2) lambda_1^{d/4} into the
        # ground-state form must reproduce the H_d-form bound exactly
        d = 2
        table = ms.constants_table(d)
        lam1 = float(square_spectrum.values[0])
        lam = 5 * np.pi**2
        sup = table.chiti_closed * lam1 ** (d / 4)
        a = ms.check_sup_norm_riesz_lower(
            dataclasses.replace(square_spectrum, ground_state=np.array([sup])), lam)
        b = ms.check_riesz_lower(square_spectrum, lam)
        assert a.lhs == pytest.approx(b.lhs, rel=1e-9)


class TestShiftedSumUpper:
    def test_square_holds(self, square_spectrum):
        for k in (1, 2, 10, 100):
            chk = ms.check_shifted_sum_upper(square_spectrum, k)
            assert chk.passed and chk.margin >= 0

    def test_k2_worked_value(self, square_spectrum):
        chk = ms.check_shifted_sum_upper(square_spectrum, 2)
        assert chk.lhs == pytest.approx(3 * np.pi**2, rel=1e-12)
        assert chk.rhs == pytest.approx(101.3, rel=1e-2)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_is_the_legendre_transform_of_riesz_lower(self, d):
        # the shifted-sum bound on sum_{j<=k} (lambda_j - lambda_1) is
        # sup_lam (k (lam - lambda_1) - lhs(lam)), lhs the Riesz-mean lower
        # bound, here maximised numerically; both read only lambda_1
        lam1 = 3.7
        spec = _toy_spectrum(np.r_[lam1, np.full(399, 1e12)], d=d)

        for k in (1, 7, 50, 400):
            best = optimize.minimize_scalar(
                lambda lam: ms.check_riesz_lower(spec, lam).lhs - k * (lam - lam1),
                bounds=(lam1, 1e6), method="bounded", options={"xatol": 1e-8})
            assert ms.check_shifted_sum_upper(spec, k).rhs == pytest.approx(
                -best.fun, rel=1e-9)


class TestRatioBounds:
    def test_toy_witness(self):
        spec = _toy_spectrum([1.0, 2.5])
        checks = ms.check_ratio_bounds(spec, 1)
        by_name = {c.name: c for c in checks}
        assert by_name["ratio-ppw"].rhs == pytest.approx(3.0, rel=1e-12)
        assert by_name["ratio-ppw"].margin == pytest.approx(0.5, rel=1e-12)
        assert all(c.passed for c in checks)

    def test_square_many_indices(self, square_spectrum):
        for k in (1, 2, 5, 20):
            assert all(c.passed for c in ms.check_ratio_bounds(square_spectrum, k))

    def test_known_rhs_values_at_k1(self):
        spec = _toy_spectrum([1.0, 2.0])
        by_name = {c.name: c for c in ms.check_ratio_bounds(spec, 1)}
        hd = ms.constants_table(2).ratio_constant
        assert by_name["ratio-direct"].rhs == pytest.approx(1 + 2 * hd, rel=1e-12)
        assert by_name["ratio-via-sum"].rhs == pytest.approx(3 * (1 + hd / 2), rel=1e-12)


class TestYang:
    def test_square_holds(self, square_spectrum):
        for k in (1, 3, 10, 50):
            assert ms.check_yang(square_spectrum, k).passed

    def test_disk_holds(self, disk_unit_spectrum):
        for k in (1, 5, 20):
            assert ms.check_yang(disk_unit_spectrum, k).passed

    def test_corollaries_square(self, square_spectrum):
        for k in (1, 4, 25):
            for chk in ms.check_yang_corollaries(square_spectrum, k):
                assert chk.passed

    def test_hile_protter_not_applicable_on_closed_gap(self, square_spectrum):
        # lambda_2 = lambda_3 on the square, so at k = 2 the top gap closes
        checks = ms.check_yang_corollaries(square_spectrum, 2)
        hp = next(c for c in checks if c.name == "hile-protter")
        assert not hp.applicable
        assert hp.passed  # not-applicable never counts as a failure

    def test_hile_protter_value(self):
        spec = _toy_spectrum([1.0, 3.0])
        hp = next(c for c in ms.check_yang_corollaries(spec, 1)
                  if c.name == "hile-protter")
        assert hp.rhs == pytest.approx(0.5, rel=1e-12)
        assert hp.lhs == pytest.approx(0.5, rel=1e-12)


class TestSlackPolicy:
    def test_discrete_slack_floor_and_growth(self):
        assert ms.discrete_slack(1e-6, 1.0) == 1e-8
        assert ms.discrete_slack(0.1, 100.0) == pytest.approx(10.0)

    def test_tolerance_pass_flagged(self):
        spec = _toy_spectrum([1.0, 3.0000001], h=0.01)
        # ratio-ppw misses by 1e-7; h = 0.01 gives a slack of 10 h^2 lambda_2 = 3e-4
        chk = ms.check_ratio_bounds(spec, 1)[2]
        assert chk.passed and chk.tolerance_pass

    def test_slack_is_derived_not_passed(self):
        # every check reads h, |Omega|, d and the ground state from its spectrum
        # and takes no slack, so a spectrum cannot be paired with another grid's
        # slack or another solve's sup norm
        names = [n for n in bounds.__all__ if n.startswith("check_")]
        assert len(names) == 8
        for name in names:
            params = list(inspect.signature(getattr(bounds, name)).parameters)
            assert params in (["spec", "k"], ["spec", "lam"]), name

    def test_sup_norm_check_needs_a_ground_state(self, square_spectrum):
        with pytest.raises(ValueError, match="needs a grid spectrum with its ground state"):
            ms.check_sup_norm_riesz_lower(square_spectrum, 50.0)

    def test_grid_spectrum_carries_its_slack(self, magnetic_square_op):
        # no h is passed: each check on a grid spectrum takes discrete_slack(spec.h, scale)
        _, op = magnetic_square_op
        spec, _ = ms.lowest_eigenpairs(op, 6)
        assert spec.h == op.h == 1 / 16 and spec.measure == op.measure
        vals, slack = spec.values, lambda scale: ms.discrete_slack(spec.h, scale)
        lam = float(vals[3])
        bly = ms.check_berezin_li_yau(spec, lam)
        assert bly.slack == slack(bly.rhs)
        assert ms.check_li_yau(spec, 4).slack == slack(float(vals[:4].sum()))
        assert ms.check_riesz_lower(spec, lam).slack == slack(lam**2 / vals[0])
        assert ms.check_shifted_sum_upper(spec, 4).slack == slack(vals[0] * 4**2)
        assert {c.slack for c in ms.check_ratio_bounds(spec, 3)} == {slack(vals[3])}
        assert ms.check_yang(spec, 3).slack == slack(float(vals[3]) ** 2 * 3)
        assert {c.slack for c in ms.check_yang_corollaries(spec, 3)} == {slack(vals[3])}
        with_sup_2 = dataclasses.replace(spec, ground_state=np.array([0.5, -2.0]))
        assert ms.check_sup_norm_riesz_lower(with_sup_2, lam).slack == slack(lam**2 / 4.0)
        # the same values as an exact spectrum take the relative slack 1e-10
        exact = dataclasses.replace(spec, h=None)
        assert ms.check_yang(exact, 3).slack == ms.ANALYTIC_SLACK_RTOL * (float(vals[3]) ** 2 * 3)


@pytest.mark.parametrize("h,source", [(None, "analytic"), (1 / 256, "discrete(h=0.00390625)"),
                                      (1 / 40, "discrete(h=0.025)"), (0.1, "discrete(h=0.1)"),
                                      (1 / 3, "discrete(h=0.333333333333)")])
def test_source_text(h, source):
    assert _toy_spectrum([1.0], h=h).source == source


@pytest.mark.parametrize("check,top,note", [
    (ms.check_li_yau, 4, ""),
    (ms.check_shifted_sum_upper, 4, ""),
    (ms.check_ratio_bounds, 3, " for lambda_(k+1)"),
    (ms.check_yang, 3, " for lambda_(k+1)"),
    (ms.check_yang_corollaries, 3, " for lambda_(k+1)"),
], ids=["li-yau", "shifted-sum-upper", "ratio-bounds", "yang", "yang-corollaries"])
def test_k_range(check, top, note):
    # k indexes lambda_k, or lambda_(k+1) where the check reads the next value
    spec = _toy_spectrum([1.0, 2.0, 3.0, 4.0])
    check(spec, top)
    for k in (0, top + 1):
        with pytest.raises(ValueError, match=rf"^need 1 <= k <= {top}{re.escape(note)}, "
                                             rf"got {k}$"):
            check(spec, k)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.1, max_value=100.0), min_size=2, max_size=12),
       st.integers(min_value=1, max_value=11))
def test_yang_scale_invariance(raw, k):
    values = np.sort(np.asarray(raw))
    k = min(k, len(values) - 1)
    spec = _toy_spectrum(values)
    spec2 = _toy_spectrum(values * 7.0)
    a = ms.check_yang(spec, k)
    b = ms.check_yang(spec2, k)
    # the Yang expression is homogeneous of degree 2 in the spectrum
    assert b.lhs == pytest.approx(49.0 * a.lhs, rel=1e-10, abs=1e-9)
