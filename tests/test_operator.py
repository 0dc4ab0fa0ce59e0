import numpy as np
import pytest

import magspec as ms
from magspec.errors import InputDataError


def spectrum_of(op, k=6):
    spec, _ = ms.lowest_eigenpairs(op, k)
    return spec.values


class TestAssemble:
    def test_single_node_operator(self):
        dom = ms.build_domain(ms.Rectangle(1.0, 1.0), 0.5)
        assert dom.n == 1
        op = ms.assemble(dom, ms.GaugeSpec(), ms.PotentialSpec())
        assert op.matrix.toarray() == pytest.approx(np.array([[16.0]]))
        assert op.matrix @ np.array([1.0]) == pytest.approx(np.array([16.0]))

    def test_hermitian(self, magnetic_square_op):
        _, op = magnetic_square_op
        # max |H - H*| over stored entries
        assert abs(op.matrix - op.matrix.getH()).max() == 0.0

    def test_diagonal_real_and_bounded_below(self, magnetic_square_op):
        _, op = magnetic_square_op
        diag = op.matrix.diagonal()
        assert np.abs(diag.imag).max() == 0.0
        assert (diag.real >= 4.0 / op.h**2 - 1e-12).all()

    def test_matches_real_assembly_without_gauge(self, small_square_op):
        dom, op = small_square_op
        # independent real five-point assembly
        n = dom.n
        h = dom.h
        import scipy.sparse as sp
        rows, cols, data = [], [], []
        for k in range(n):
            rows.append(k); cols.append(k); data.append(4.0 / h**2)
        ii, jj = np.nonzero(dom.mask)
        for di, dj in ((1, 0), (0, 1)):
            i2, j2 = ii + di, jj + dj
            ok = (i2 < dom.dims[0]) & (j2 < dom.dims[1])
            ok[ok] &= dom.mask[i2[ok], j2[ok]]
            p, q = dom.index[ii[ok], jj[ok]], dom.index[i2[ok], j2[ok]]
            for a, b in zip(p, q):
                rows += [a, b]; cols += [b, a]; data += [-1.0 / h**2] * 2
        ref = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
        assert abs(op.matrix - ref).max() < 1e-14

    @pytest.mark.parametrize("gauge,pot,dtype", [
        (ms.GaugeSpec(), ms.PotentialSpec(), np.float64),
        (ms.GaugeSpec(), ms.PotentialSpec(c=2.0), np.float64),
        (ms.GaugeSpec(), ms.PotentialSpec(a=1.0, center=(0.5, 0.5)), np.float64),
        (ms.GaugeSpec(0.0), ms.PotentialSpec(), np.float64),
        (ms.GaugeSpec(5.0), ms.PotentialSpec(), np.complex128),
        (ms.GaugeSpec(chi_coeffs=(0.3, -0.2, 0.1)), ms.PotentialSpec(), np.complex128),
    ], ids=["none-zero", "none-constant", "none-radial", "uniform-B0", "uniform-B5",
            "shift-B0"])
    def test_dtype_follows_link_phases(self, gauge, pot, dtype):
        # real symmetric exactly when every Peierls phase is zero
        dom = ms.build_domain(ms.Rectangle(1.0, 1.0), 1 / 16)
        assert ms.assemble(dom, gauge, pot).matrix.dtype == dtype

    @pytest.mark.parametrize("shape,h", [
        (ms.LShape(1.0, 1.0, 0.5), 1 / 16),
        (ms.Annulus(0.3, 1.0), 0.1),
    ], ids=["lshape", "annulus"])
    def test_every_link_joins_two_colours(self, shape, h):
        dom = ms.build_domain(shape, h)
        op = ms.assemble(dom, ms.GaugeSpec(5.0), ms.PotentialSpec())
        ii, jj = np.nonzero(dom.mask)
        np.testing.assert_array_equal(op.colour, (ii + jj) % 2)
        coo = op.matrix.tocoo()
        off = coo.row != coo.col
        assert off.any() and np.all(op.colour[coo.row[off]] != op.colour[coo.col[off]])
        assert ms.gauge_shift(op, np.ones(op.n)).colour is op.colour

    def test_constant_potential_shifts_spectrum(self, small_square_op):
        dom, op0 = small_square_op
        opc = ms.assemble(dom, ms.GaugeSpec(), ms.PotentialSpec(c=7.0))
        v0 = spectrum_of(op0)
        vc = spectrum_of(opc)
        assert vc == pytest.approx(v0 + 7.0, abs=1e-9)

    def test_negative_grid_potential_rejected(self, tmp_path):
        # an inf node left NaN residuals that passed the residual gate (exit 0), a nan
        # node a singular factor (exit 3)
        dom = ms.build_domain(ms.Rectangle(1.0, 1.0), 0.25)
        p = tmp_path / "pot.csv"
        for value in (-1.0, np.inf, np.nan):
            arr = np.ones((5, 5))
            arr[2, 2] = value
            np.savetxt(p, arr, delimiter=",")
            with pytest.raises(InputDataError, match="not finite and non-negative"):
                ms.assemble(dom, ms.GaugeSpec(), ms.PotentialSpec(path=str(p)))


class TestApply:
    def test_quadratic_form_real_nonnegative(self, magnetic_square_op):
        _, op = magnetic_square_op
        gen = np.random.default_rng(42)
        norm_h = abs(op.matrix).sum(axis=1).max()  # infinity-norm bound
        for _ in range(20):
            v = gen.standard_normal(op.n) + 1j * gen.standard_normal(op.n)
            q = np.vdot(v, op.matrix @ v)
            assert abs(q.imag) <= 1e-12 * np.vdot(v, v).real * norm_h
            assert q.real >= 0


class TestGaugeInvariance:
    def test_zero_and_constant_chi_identity(self, magnetic_square_op):
        _, op = magnetic_square_op
        coupling_scale = 1.0 / op.h**2
        for chi in (np.zeros(op.n), np.full(op.n, 1.234)):
            shifted = ms.gauge_shift(op, chi)
            assert abs(shifted.matrix - op.matrix).max() < 1e-14 * coupling_scale

    def test_random_chi_preserves_spectrum(self, magnetic_square_op):
        _, op = magnetic_square_op
        chi = np.random.default_rng(7).uniform(-np.pi, np.pi, op.n)
        shifted = ms.gauge_shift(op, chi)
        v0, v1 = spectrum_of(op), spectrum_of(shifted)
        assert np.max(np.abs(v1 - v0) / v0) < 1e-9

    @pytest.mark.parametrize("pot", [ms.PotentialSpec(),
                                     ms.PotentialSpec(a=3.0, center=(0.4, 0.6))],
                             ids=["constant", "radial"])
    def test_diagonal_kept_bit_for_bit(self, pot):
        # |exp(i chi)|^2 is 1 only up to rounding; the product's diagonal is
        # replaced by the original one, in the same sparsity structure
        op = ms.assemble(ms.build_domain(ms.Rectangle(1.0, 1.0), 1 / 64),
                         ms.GaugeSpec(5.0), pot)
        shifted = ms.gauge_shift(op, np.random.default_rng(1).normal(scale=10.0, size=op.n))
        assert np.array_equal(shifted.matrix.diagonal(), op.matrix.diagonal())
        assert np.array_equal(shifted.matrix.indptr, op.matrix.indptr)
        assert np.array_equal(shifted.matrix.indices, op.matrix.indices)

    def test_chi_length_mismatch(self, magnetic_square_op):
        _, op = magnetic_square_op
        with pytest.raises(ValueError):
            ms.gauge_shift(op, np.zeros(op.n - 1))

    def test_uniform_field_in_two_gauges(self):
        dom = ms.build_domain(ms.Rectangle(1.0, 1.0), 1 / 16)
        b = 3.0
        sym = ms.assemble(dom, ms.GaugeSpec(b), ms.PotentialSpec())
        # same field in a Landau-type gauge: symmetric plus grad(b/2 * x * y)
        landau = ms.assemble(dom, ms.GaugeSpec(b, (0.0, 0.0, b / 2)), ms.PotentialSpec())
        v0, v1 = spectrum_of(sym), spectrum_of(landau)
        assert np.max(np.abs(v1 - v0) / v0) < 1e-9


class TestDiamagnetic:
    @pytest.mark.parametrize("b", [1.0, 5.0, 10.0])
    def test_ground_state_not_lowered(self, b):
        dom = ms.build_domain(ms.Rectangle(1.0, 1.0), 1 / 16)
        pot = ms.PotentialSpec(a=1.0, center=(0.5, 0.5))
        lam_free = spectrum_of(ms.assemble(dom, ms.GaugeSpec(), pot), 1)[0]
        lam_mag = spectrum_of(ms.assemble(dom, ms.GaugeSpec(b), pot), 1)[0]
        assert lam_mag >= lam_free - 1e-10
