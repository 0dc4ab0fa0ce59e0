import inspect
import math

import numpy as np
import pytest
from scipy import special

import magspec as ms
from magspec import eigfn


def _spectrum_of(u, lam, cell_area):
    """A one-value grid spectrum whose ground state is the grid function u."""
    return ms.Spectrum(d=2, values=[lam], measure=u.size * cell_area,
                       h=math.sqrt(cell_area), ground_state=u)


class TestNorms:
    def test_constant_vector(self):
        rep = ms.norms(np.full(16, 2.0), h=0.5, p_list=(1.0, 2.0))
        assert rep.sup_norm == 2.0
        assert rep.lp[1.0] == pytest.approx(8.0)
        assert rep.lp[2.0] == pytest.approx(4.0)

    def test_complex_moduli(self):
        v = np.array([3 + 4j, 0.0])
        rep = ms.norms(v, h=1.0)
        assert rep.sup_norm == pytest.approx(5.0)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            ms.norms(np.zeros(3), h=1.0)


class TestRearrangement:
    def test_sorted_and_equimeasurable(self):
        v = np.array([1.0, -3.0, 2.0, 0.5])
        s, u = ms.decreasing_rearrangement(v, h=0.5)
        assert np.array_equal(u, [3.0, 2.0, 1.0, 0.5])
        assert s[0] == pytest.approx(0.25)
        # distribution functions of v and its rearrangement agree at any level
        for t in (0.0, 0.7, 1.5, 2.5):
            assert np.count_nonzero(np.abs(v) > t) == np.count_nonzero(u > t)


class TestZProfile:
    def test_value_at_origin(self):
        # d = 2: nu = 0 and J_0(0) = 1
        assert ms.z_profile(4.0, 2, 0.0) == pytest.approx(1.0)

    def test_vanishes_at_ball_boundary(self):
        lam = 9.0
        r_ball = ms.bessel_zero(0.0, 1) / 3.0
        assert ms.z_profile(lam, 2, r_ball) == 0.0
        assert ms.z_profile(lam, 2, 2 * r_ball) == 0.0

    def test_matches_bessel_inside(self):
        lam = 2.0
        r = 0.3
        assert ms.z_profile(lam, 2, r) == pytest.approx(
            special.jv(0.0, math.sqrt(lam) * r), rel=1e-14)

    def test_three_dimensional_origin_limit(self):
        # nu = 1/2: limit is lam^{1/4} 2^{-1/2} / Gamma(3/2)
        lam = 5.0
        expected = lam**0.25 / (math.sqrt(2.0) * math.gamma(1.5))
        assert ms.z_profile(lam, 3, 0.0) == pytest.approx(expected, rel=1e-13)
        r_small = np.array([1e-8, 1e-6])
        vals = ms.z_profile(lam, 3, r_small)
        assert vals == pytest.approx(expected, rel=1e-6)


class TestZNorm:
    def test_l2_closed_form_d2(self):
        # d = 2: ||z||_2^2 = pi j_{0,1}^2 J_1(j_{0,1})^2 / lam
        lam = 7.0
        j01 = ms.bessel_zero(0.0, 1)
        expected = math.sqrt(math.pi / lam) * j01 * abs(special.jv(1.0, j01))
        assert ms.z_lp_norm(lam, 2, 2.0) == pytest.approx(expected, rel=1e-10)

    def test_scaling_in_lambda(self):
        # z_lam(r) = z_1(sqrt(lam) r) up to the nu power; L_p norm scales as
        # lam^{(nu p - d) / (2p)} relative amplitude lam^{nu/2}
        d, p = 2, 1.0
        a = ms.z_lp_norm(1.0, d, p)
        b = ms.z_lp_norm(4.0, d, p)
        assert b == pytest.approx(a * 4.0 ** (-d / (2 * p)), rel=1e-10)

    def test_extremal_chiti_ratio_is_exact(self):
        # on the ball itself the sharp sup bound is an identity:
        # z(0) = C_d(p) lam^{d/2p} ||z||_p
        for d in (2, 3):
            for p in (1.0, 2.0):
                lam = float(ms.bessel_zero((d - 2) / 2.0, 1)) ** 2
                table = ms.constants_table(d, p_list=(p,))
                rhs = table.chiti_p[p] * lam ** (d / (2 * p)) * ms.z_lp_norm(lam, d, p)
                assert ms.z_profile(lam, d, 0.0) == pytest.approx(rhs, rel=1e-9)


    @pytest.mark.parametrize("d, p", [(2, 1.0), (3, 3.7), (5, 0.5)])
    def test_matches_direct_integral(self, d, p):
        # ||z||_p^p = |S^(d-1)| int_0^R z(r)^p r^(d-1) dr over the ball of radius R
        import mpmath
        lam = 3.3
        with mpmath.workdps(30):
            nu = mpmath.mpf(d - 2) / 2
            radius = mpmath.besseljzero(nu, 1) / mpmath.sqrt(lam)
            val = mpmath.quad(lambda r: max(mpmath.besselj(nu, mpmath.sqrt(lam) * r), 0) ** p
                              * r ** (d - 1 - nu * p), mpmath.linspace(0, radius, 5))
            expected = float((ms.specfun.sphere_area(d) * val) ** (1 / mpmath.mpf(p)))
        assert ms.z_lp_norm(lam, d, p) == pytest.approx(expected, rel=1e-12)

    def test_rejects_nonpositive_eigenvalue(self):
        with pytest.raises(ValueError):
            ms.z_lp_norm(0.0, 2, 2.0)
        with pytest.raises(ValueError):
            ms.z_lp_norm(-1.0, 2, 2.0)


class TestChitiCheck:
    def test_square_ground_state(self, square_ground_state_h64):
        _, spec, _ = square_ground_state_h64
        checks = ms.chiti_check(spec)
        by_name = {c.name: c for c in checks}
        assert by_name["chiti-sup-bound"].passed
        assert by_name["heat-kernel-sup-bound"].passed
        # the square is not a ball, so the sharp bound is strict; at p = 2 the
        # square is close to extremal (ratio ~ 0.996), at p = 1 comfortably so
        ratio2 = by_name["chiti-sup-bound"].lhs / by_name["chiti-sup-bound"].rhs
        assert ratio2 < 0.9999
        chk1 = ms.chiti_check(spec, p=1.0)[0]
        assert chk1.lhs / chk1.rhs <= 0.99

    def test_heat_kernel_weaker_than_sharp_at_p2(self, square_ground_state_h64):
        _, spec, _ = square_ground_state_h64
        sharp, heat = ms.chiti_check(spec)
        assert heat.rhs >= sharp.rhs


class TestComparisonCheck:
    def test_square_ground_state(self, square_ground_state_h64):
        dom, spec, _ = square_ground_state_h64
        lam = float(spec.values[0])
        inclusion, domination = ms.comparison_check(spec)
        assert (inclusion.name, domination.name) == ("ball-inclusion", "profile-domination")
        assert inclusion.passed and domination.passed
        assert inclusion.lhs <= dom.n * dom.h**2 + inclusion.slack
        z0 = float(ms.z_profile(lam, 2, 0.0))
        assert domination.slack == domination.context["tol"] == 0.02 * z0

    def test_analytic_disk_profile_is_extremal(self):
        # feed the exact ball profile back in: domination is an equality
        lam = float(ms.bessel_zero(0.0, 1)) ** 2  # unit disk, measure pi
        h = 1 / 256
        dom = ms.build_domain(ms.Disk(1.0), h)
        r = np.hypot(dom.points[:, 0], dom.points[:, 1])
        spec = ms.Spectrum(d=2, values=[lam], measure=dom.n * h**2, h=h,
                           ground_state=ms.z_profile(lam, 2, r))
        inclusion, domination = ms.comparison_check(spec)
        assert inclusion.passed
        # within a quarter of the fixed slack 0.02 z(0)
        assert domination.margin >= -0.005 * float(ms.z_profile(lam, 2, 0.0))


class TestRearrangementOde:
    def test_exact_profile_has_no_violations(self):
        # the exact ball profile as a ground state whose cells have area pi / 20000
        lam = float(ms.bessel_zero(0.0, 1)) ** 2
        s = np.arange(1, 20001) * (math.pi / 20000)
        u = ms.z_profile(lam, 2, np.sqrt(s / math.pi))
        chk = ms.rearrangement_ode_check(_spectrum_of(u, lam, cell_area=math.pi / 20000))
        assert chk.applicable and chk.diagnostic and chk.passed
        assert chk.context["violating_fraction"] == 0.0

    def test_square_ground_state(self, square_ground_state_h64):
        _, spec, _ = square_ground_state_h64
        chk = ms.rearrangement_ode_check(spec)
        assert chk.passed
        assert chk.context["violating_fraction"] <= 0.05

    def test_constant_profile_not_applicable(self):
        chk = ms.rearrangement_ode_check(_spectrum_of(np.ones(100), 10.0, cell_area=0.01))
        assert not chk.applicable
        assert chk.passed

    def test_tiny_profile_not_applicable(self):
        chk = ms.rearrangement_ode_check(
            _spectrum_of(np.array([4.0, 3.0, 2.0, 1.0]), 10.0, cell_area=0.1))
        assert not chk.applicable


class TestChecksReadTheSpectrum:
    def test_signatures(self):
        # lambda_1, omega, h, d and |Omega| come from the spectrum, never the caller
        for name, params in [("chiti_check", ["spec", "p"]), ("comparison_check", ["spec"]),
                             ("rearrangement_ode_check", ["spec"])]:
            assert list(inspect.signature(getattr(eigfn, name)).parameters) == params

    @pytest.mark.parametrize("check", [ms.chiti_check, ms.comparison_check,
                                       ms.rearrangement_ode_check],
                             ids=["chiti", "comparison", "ode"])
    def test_spectrum_without_ground_state_refused(self, check, square_spectrum):
        with pytest.raises(ValueError, match="needs a grid spectrum with its ground state"):
            check(square_spectrum)
