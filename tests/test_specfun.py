import collections
import math

import mpmath
import numpy as np
import pytest
from scipy import special

from magspec import specfun
from magspec.errors import NumericalError
from magspec.specfun import bessel_zero, constants_table, radial_bessel_integral, unit_ball_volume

mpmath.mp.dps = 40


def mp_j(order, x):
    return float(mpmath.besselj(mpmath.mpf(order), mpmath.mpf(x)))


class TestBesselJ:
    # every J_nu of the constants and the ball profile is special.jv
    @pytest.mark.parametrize("order", [0, 0.5, 1, 1.5, 2, 3.5, 5, 7.5, 10])
    def test_matches_high_precision_oracle(self, order):
        for x in np.linspace(0.0, 50.0, 101):
            assert special.jv(order, x) == pytest.approx(mp_j(order, x), abs=1e-12)

    def test_half_integer_vanishes_at_pi(self):
        assert abs(special.jv(0.5, math.pi)) < 1e-15

    def test_value_at_origin(self):
        assert special.jv(0, 0.0) == 1.0
        assert special.jv(1, 0.0) == 0.0

    def test_at_first_zero_of_j0(self):
        x = 2.404825557695773
        assert special.jv(1, x) == pytest.approx(mp_j(1, x), abs=1e-13)
        assert special.jv(1, x) == pytest.approx(0.5191475, abs=1e-7)

    def test_vectorized(self):
        out = special.jv(0, [0.0, 1.0])
        assert out.shape == (2,)


class TestBesselZero:
    def test_half_integer_zeros_are_multiples_of_pi(self):
        for m in (1, 2, 3, 7):
            assert bessel_zero(0.5, m) == pytest.approx(m * math.pi, abs=1e-10)

    @pytest.mark.parametrize("order,m", [(0, 1), (0, 5), (1, 1), (1, 3), (2.5, 2), (5, 4)])
    def test_matches_oracle(self, order, m):
        exact = float(mpmath.besseljzero(mpmath.mpf(order), m))
        assert bessel_zero(order, m) == pytest.approx(exact, abs=1e-10)

    def test_known_values(self):
        assert bessel_zero(0, 1) == pytest.approx(2.4048255577, abs=1e-9)
        assert bessel_zero(1, 1) == pytest.approx(3.8317059702, abs=1e-9)

    def test_increasing_in_m(self):
        zeros = [bessel_zero(1.5, m) for m in range(1, 12)]
        assert all(a < b for a, b in zip(zeros, zeros[1:]))

    def test_interlacing(self):
        for two_nu in range(0, 11):
            nu = two_nu / 2.0
            for m in range(1, 10):
                assert bessel_zero(nu, m) < bessel_zero(nu + 0.5, m) < bessel_zero(nu, m + 1)

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            bessel_zero(0, 0)

    def test_zero_beyond_first_search_bound(self):
        # j_{300,1} ~ 312.6 lies above the first bound tried, order + pi
        exact = float(mpmath.besseljzero(mpmath.mpf(300), 1))
        assert bessel_zero(300, 1) == pytest.approx(exact, abs=1e-10)


class TestBesselZeros:
    @pytest.mark.parametrize("order", [0, 0.5, 1, 2.5, 7.5, 50, 150, 300])
    def test_every_zero_below_bound(self, order):
        x_max = order + 40.0
        exact = []
        while not exact or exact[-1] <= x_max:
            exact.append(float(mpmath.besseljzero(mpmath.mpf(order), len(exact) + 1)))
        zeros = specfun.bessel_zero_ladder(order, order, x_max)[0]
        assert zeros.size == len(exact) - 1
        assert zeros == pytest.approx(exact[:-1], abs=1e-10)

    def test_empty_below_first_zero(self):
        assert specfun.bessel_zero_ladder(10, 10, 5.0)[0].size == 0


class TestBesselZeroLadder:
    def test_integer_ladder_matches_scipy(self, jn_zeros_to_210):
        # orders 0..210 up to X = 210, as for the largest disk (count 10^4)
        ladder = specfun.bessel_zero_ladder(0, 210, 210.0)
        assert len(ladder) == 211
        for n, (zeros, exact) in enumerate(zip(ladder, jn_zeros_to_210)):
            exact = exact[exact <= 210]
            assert zeros.size == exact.size, n
            assert np.all(np.abs(zeros - exact) <= 1e-13 * exact), n

    def test_half_integer_ladder_is_its_single_orders(self):
        ladder = specfun.bessel_zero_ladder(0.5, 30.5, 100.0)
        assert len(ladder) == 31
        for i, zeros in enumerate(ladder):
            single = specfun.bessel_zero_ladder(0.5 + i, 0.5 + i, 100.0)[0]
            assert zeros.size == single.size > 0
            assert zeros == pytest.approx(single, rel=1e-14)
        assert ladder[0] == pytest.approx(math.pi * np.arange(1, 32), rel=1e-14)

    def test_sub_ladder(self):
        ladder = specfun.bessel_zero_ladder(3, 5, 30.0)
        assert len(ladder) == 3
        for zeros, order in zip(ladder, (3, 4, 5)):
            assert zeros == pytest.approx(special.jn_zeros(order, zeros.size), rel=1e-13)
            assert special.jn_zeros(order, zeros.size + 1)[-1] > 30.0

    def test_direct_check_catches_a_wrong_recurrence(self, monkeypatch):
        # the closing Newton step through special.jv sees a J_nu off by 1e-6
        jv = special.jv
        monkeypatch.setattr(specfun.special, "jv", lambda nu, x: jv(nu, x) + 1e-6)
        with pytest.raises(NumericalError, match="special.jv"):
            specfun.bessel_zero_ladder(0, 0, 50.0)
        with pytest.raises(NumericalError, match="special.jv"):
            specfun.bessel_zero_ladder(0, 40, 60.0)

    def test_rejects_bad_orders(self):
        with pytest.raises(ValueError):
            specfun.bessel_zero_ladder(0, 2.5, 10.0)
        with pytest.raises(ValueError):
            specfun.bessel_zero_ladder(3, 1, 10.0)
        with pytest.raises(ValueError):
            specfun.bessel_zero_ladder(0, specfun.MAX_ORDER + 1, 10.0)


class TestConstantsTable:
    @pytest.mark.parametrize("d", range(2, 11))
    def test_invariants(self, d):
        t = constants_table(d, p_list=(1.0, 2.0))
        assert t.ball_volume > 0 and t.ratio_constant > 0
        assert t.chiti_closed > 0 and t.heat_kernel > 0
        assert all(v > 0 for v in t.chiti_p.values())
        # quadrature route agrees with the closed form at p=2
        assert abs(t.chiti_p[2.0] - t.chiti_closed) <= 1e-8 * t.chiti_closed
        # H_d = (2 pi)^d v_d^{-1} C_d(2)^2
        hd = (2 * math.pi) ** d / t.ball_volume * t.chiti_closed**2
        assert abs(hd - t.ratio_constant) <= 1e-9 * t.ratio_constant
        # the sharp constant never exceeds the heat-kernel one
        assert t.chiti_closed <= t.heat_kernel

    @pytest.mark.parametrize("d", range(2, 11))
    def test_cached_constants_are_the_table(self, d):
        # each cached constant, bit for bit, against the table's field and
        # against its formula written out
        t = constants_table(d, p_list=(1.0, 2.0, 3.7))
        nu = (d - 2) / 2.0
        j1 = bessel_zero(nu, 1)
        assert specfun.ratio_constant(d) == t.ratio_constant \
            == 2.0 * d / (j1**2 * float(special.jv(d / 2.0, j1)) ** 2)
        assert specfun.heat_kernel_constant(d) == t.heat_kernel \
            == (math.e / (d * math.pi)) ** (d / 4)
        for p in (1.0, 2.0, 3.7):
            quadrature = (specfun.sphere_area(d) * radial_bessel_integral(d, p)) ** (-1.0 / p) \
                / (2.0**nu * math.gamma(d / 2))
            assert specfun.chiti_constant(d, p) == t.chiti_p[p] == quadrature

    def test_ball_volumes(self):
        assert constants_table(2).ball_volume == pytest.approx(math.pi, rel=1e-14)
        assert constants_table(3).ball_volume == pytest.approx(4 * math.pi / 3, rel=1e-14)

    def test_d2_values_against_oracle(self):
        j0 = mpmath.besseljzero(0, 1)
        h2 = float(4 / (j0**2 * mpmath.besselj(1, j0) ** 2))
        t = constants_table(2)
        assert t.ratio_constant == pytest.approx(h2, abs=1e-10)
        assert t.ratio_constant == pytest.approx(2.566, abs=1e-3)
        assert t.chiti_closed == pytest.approx(0.4519, abs=1e-4)
        assert t.heat_kernel == pytest.approx(math.sqrt(math.e / (2 * math.pi)), rel=1e-14)
        assert t.heat_kernel == pytest.approx(0.6577, abs=1e-4)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            constants_table(1)
        with pytest.raises(ValueError):
            constants_table(11)
        with pytest.raises(ValueError):
            constants_table(2, p_list=(0.0,))

    def test_rules_built_once_per_process(self, monkeypatch):
        built = collections.Counter()
        roots_jacobi = special.roots_jacobi

        def counting(n, alpha, beta):
            built[n, alpha] += 1
            return roots_jacobi(n, alpha, beta)

        monkeypatch.setattr(specfun.special, "roots_jacobi", counting)
        specfun._jacobi_rule.cache_clear()
        specfun.chiti_constant.cache_clear()
        for _ in range(3):
            for d in (2, 3, 7):
                constants_table(d, p_list=(1.0, 2.0, 3.7))
        assert set(built) == {(n, p) for n in (40, 80) for p in (1.0, 2.0, 3.7)}
        assert max(built.values()) == 1

    def test_first_zero_found_once_per_order(self, monkeypatch):
        searched = collections.Counter()
        ladder = specfun.bessel_zero_ladder

        def counting(low, high, x_max):
            searched[low, x_max] += 1
            return ladder(low, high, x_max)

        monkeypatch.setattr(specfun, "bessel_zero_ladder", counting)
        specfun.bessel_zero.cache_clear()
        for _ in range(3):
            for d in (2, 3, 7):
                constants_table(d, p_list=(1.0, 2.0))
        assert {order for order, _ in searched} == {0.0, 0.5, 2.5}
        assert max(searched.values()) == 1

    def test_cached_rule_is_read_only_and_exact(self):
        x, w = specfun._jacobi_rule(40, 2.5)
        assert not x.flags.writeable and not w.flags.writeable
        x0, w0 = special.roots_jacobi(40, 2.5, 0.0)
        assert np.array_equal(x, x0) and np.array_equal(w, w0)

    def test_unit_ball_volume_formula(self):
        for d in range(2, 11):
            assert unit_ball_volume(d) == pytest.approx(
                math.pi ** (d / 2) / math.gamma(1 + d / 2), rel=1e-14
            )


def mp_radial_integral(d, p, panels=4):
    """I_d(p) by mpmath on equal panels of [0, j1].  The integrand is scaled to
    1 at r = 0, as mpmath's tolerance is absolute and I_d(p) can be tiny."""
    with mpmath.workdps(30):
        nu = mpmath.mpf(d - 2) / 2
        j1 = mpmath.besseljzero(nu, 1)
        c = 2**nu * mpmath.gamma(nu + 1)  # J_nu(r) / r^nu -> 1/c as r -> 0
        val = mpmath.quad(lambda r: max(c * mpmath.besselj(nu, r) / r**nu, 0) ** p * r ** (d - 1),
                          mpmath.linspace(0, j1, panels + 1))
        return float(val / c**p)


class TestRadialBesselIntegral:
    @pytest.mark.parametrize("d", range(2, 11))
    def test_closed_forms(self, d):
        # int_0^j1 J_nu r^(nu+1) dr = j1^(nu+1) J_{nu+1}(j1);
        # int_0^j1 J_nu^2 r dr = j1^2/2 J_{nu+1}(j1)^2, as J_nu(j1) = 0
        with mpmath.workdps(30):
            nu = mpmath.mpf(d - 2) / 2
            j1 = mpmath.besseljzero(nu, 1)
            i1 = float(j1 ** (nu + 1) * mpmath.besselj(nu + 1, j1))
            i2 = float(j1**2 / 2 * mpmath.besselj(nu + 1, j1) ** 2)
        assert radial_bessel_integral(d, 1.0) == pytest.approx(i1, rel=1e-13)
        assert radial_bessel_integral(d, 2.0) == pytest.approx(i2, rel=1e-13)

    @pytest.mark.parametrize("p", [0.05, 0.5, 3.7, 10.0])
    @pytest.mark.parametrize("d", range(2, 11))
    def test_matches_mpmath(self, d, p):
        assert radial_bessel_integral(d, p) == pytest.approx(mp_radial_integral(d, p), rel=1e-13)

    def test_reference_is_panel_independent(self):
        # the scaled mpmath reference does not move with the panel count
        # (unscaled, at d = 7 and p = 50 it moved by 1e-7)
        a, b = mp_radial_integral(7, 50.0, panels=4), mp_radial_integral(7, 50.0, panels=16)
        assert a == pytest.approx(b, rel=1e-15)
        assert radial_bessel_integral(7, 50.0) == pytest.approx(b, rel=1e-12)

    @pytest.mark.parametrize("d, p", [(8, 200.0), (9, 150.0), (10, 200.0), (2, 2000.0)])
    def test_underflow_is_a_typed_failure(self, d, p):
        # the integral underflows (d >= 8) or the rule's weights overflow (p = 2000)
        with pytest.raises(NumericalError, match="did not reach tolerance"):
            radial_bessel_integral(d, p)
        with pytest.raises(NumericalError):
            constants_table(d, p_list=(p,))

    @pytest.mark.parametrize("d", [2, 6, 7])
    def test_large_exponent_without_underflow(self, d):
        # terms are scaled so that none underflows before the integral does
        assert radial_bessel_integral(d, 200.0) == pytest.approx(mp_radial_integral(d, 200.0),
                                                                 rel=1e-11)
