import math

import numpy as np
import pytest
from scipy import special

import magspec as ms
from conftest import degeneracy_flags


class TestBoxSpectrum:
    def test_unit_square_lowest_levels(self, square_spectrum):
        expected = np.pi**2 * np.array([2, 5, 5, 8, 10, 10, 13, 13, 17, 17, 18])
        assert square_spectrum.values[:11] == pytest.approx(expected, rel=1e-12)

    def test_riesz_mean_worked_value(self, square_spectrum):
        val = ms.riesz_mean(square_spectrum, 5 * np.pi**2)
        assert val == pytest.approx(3 * np.pi**2, rel=1e-12)

    def test_three_dimensional_box(self):
        spec = ms.box_spectrum([1.0, 1.0, 1.0], 10)
        assert spec.d == 3
        assert spec.values[0] == pytest.approx(3 * np.pi**2, rel=1e-12)
        assert np.all(degeneracy_flags(spec.values)[1:4])

    def test_anisotropic_box(self):
        spec = ms.box_spectrum([2.0, 1.0], 6)
        expected = np.pi**2 * np.array([1.25, 2.0, 3.25, 4.25, 5.0, 5.0])
        assert spec.values == pytest.approx(expected, rel=1e-12)

    def test_weyl_asymptotics(self):
        spec = ms.box_spectrum([1.0, 1.0], 5000)
        k = np.arange(1, 5001)
        ratio = spec.values / (4 * np.pi * k)
        assert 0.9 < ratio[-1] < 1.2

    @pytest.mark.parametrize("lengths,count", [
        ([1.0, 1.7], 3000), ([1.0, 1.2, 0.9], 100_000), ([0.6, 1.0, 1.4, 2.1], 20_000),
        ([1.0, 1.3, 0.8, 1.1, 0.5], 10_000), ([1.0] * 5, 100_000), ([0.05, 3.0], 500)])
    def test_matches_full_lattice_sum(self, lengths, count):
        # the whole meshgrid sum, added axis by axis in order, holds every value
        # up to the largest returned one, bit for bit
        spec = ms.box_spectrum(lengths, count)
        cap = 1.01 * spec.values[-1]
        grids = np.meshgrid(*[np.arange(1, int(L * math.sqrt(cap) / math.pi) + 1)
                              for L in lengths], indexing="ij", sparse=True)
        full = sum((math.pi**2 / L**2) * g.astype(float) ** 2 for L, g in zip(lengths, grids))
        assert np.array_equal(spec.values, np.sort(np.ravel(full))[:count])

    def test_rejects_bad_input(self):
        with pytest.raises(ms.InputDataError):
            ms.box_spectrum([1.0, -1.0], 5)
        with pytest.raises(ms.InputDataError):
            ms.box_spectrum([1.0], 5)
        with pytest.raises(ms.InputDataError):
            ms.box_spectrum([1.0, 1.0], 0)


class TestDiskSpectrum:
    def test_ground_state_is_squared_bessel_zero(self, disk_unit_spectrum):
        j01 = ms.bessel_zero(0.0, 1)
        assert disk_unit_spectrum.values[0] == pytest.approx(j01**2, rel=1e-12)

    def test_second_level_doubly_degenerate(self, disk_unit_spectrum):
        j11 = ms.bessel_zero(1.0, 1)
        assert disk_unit_spectrum.values[1] == pytest.approx(j11**2, rel=1e-12)
        assert disk_unit_spectrum.values[2] == pytest.approx(j11**2, rel=1e-12)
        assert np.all(degeneracy_flags(disk_unit_spectrum.values)[1:3])

    def test_scaling_with_radius(self, disk_unit_spectrum):
        spec2 = ms.disk_spectrum(2.0, 50)
        assert spec2.values == pytest.approx(disk_unit_spectrum.values[:50] / 4.0,
                                             rel=1e-12)

    def test_ppw_ratio(self, disk_unit_spectrum):
        ratio = disk_unit_spectrum.values[1] / disk_unit_spectrum.values[0]
        assert ratio == pytest.approx(2.5387, abs=2e-4)

    def test_measure_attached(self, disk_unit_spectrum):
        assert disk_unit_spectrum.measure == pytest.approx(np.pi, rel=1e-12)

    def test_matches_scipy_bessel_zeros(self):
        # every j_{n,m} <= 100: orders n < 100 since j_{n,1} > n, and j_{n,35} > 100
        zeros = [special.jn_zeros(n, 35) for n in range(100)]
        assert min(z[-1] for z in zeros) > 100
        exact = np.sort(np.concatenate([np.repeat(z[z <= 100] ** 2, 1 if n == 0 else 2)
                                        for n, z in enumerate(zeros)]))
        assert exact.size >= 2000
        assert ms.disk_spectrum(1.0, 2000).values == pytest.approx(exact[:2000], rel=1e-12)

    def test_largest_disk_matches_scipy_bessel_zeros(self, jn_zeros_to_210):
        exact = np.sort(np.concatenate([np.repeat(z[z <= 210] ** 2, 1 if n == 0 else 2)
                                        for n, z in enumerate(jn_zeros_to_210)]))
        assert exact.size >= 10**4
        values = ms.disk_spectrum(1.0, 10**4).values
        assert values.size == 10**4
        assert np.max(np.abs(values - exact[:10**4]) / exact[:10**4]) <= 1e-12

    def test_rejects_bad_input(self):
        with pytest.raises(ms.InputDataError):
            ms.disk_spectrum(0.0, 5)
        with pytest.raises(ms.InputDataError):
            ms.disk_spectrum(1.0, 100001)
