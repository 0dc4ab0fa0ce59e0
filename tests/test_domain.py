import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import magspec as ms
from magspec.errors import InputDataError


class TestBuildDomain:
    def test_unit_square_node_count(self):
        dom = ms.build_domain(ms.Rectangle(1.0, 1.0), 1 / 64)
        assert dom.n == 63 * 63 == 3969
        assert dom.n * dom.h**2 == pytest.approx(3969 / 4096)

    def test_empty_interior_raises(self):
        with pytest.raises(ValueError):
            ms.build_domain(ms.Rectangle(1.0, 1.0), 2.0)

    def test_bad_spacing_raises(self):
        with pytest.raises(ValueError):
            ms.build_domain(ms.Rectangle(1.0, 1.0), 0.0)

    def test_disk_measure_converges(self):
        errs = []
        for h in (1 / 16, 1 / 32, 1 / 64):
            dom = ms.build_domain(ms.Disk(1.0), h)
            errs.append(abs(dom.n * dom.h**2 - math.pi))
        assert errs[-1] <= 0.05 * math.pi
        assert errs[0] > errs[2]

    def test_lshape_measure(self):
        dom = ms.build_domain(ms.LShape(1.0, 1.0, 0.5), 1 / 64)
        assert dom.n * dom.h**2 == pytest.approx(0.75, abs=0.05)

    def test_annulus_measure(self):
        dom = ms.build_domain(ms.Annulus(0.5, 1.0), 1 / 64)
        assert dom.n * dom.h**2 == pytest.approx(math.pi * 0.75, abs=0.15)

    def test_interior_nodes_strictly_inside(self):
        dom = ms.build_domain(ms.Disk(1.0), 1 / 32)
        r = np.hypot(dom.points[:, 0], dom.points[:, 1])
        assert (r < 1.0).all()
        assert not dom.mask[0, :].any() and not dom.mask[:, -1].any()

    def test_deterministic(self):
        a = ms.build_domain(ms.Rectangle(1.0, 2.0), 1 / 16)
        b = ms.build_domain(ms.Rectangle(1.0, 2.0), 1 / 16)
        assert np.array_equal(a.mask, b.mask) and np.array_equal(a.points, b.points)

    def test_mask_file_roundtrip(self, tmp_path):
        p = tmp_path / "mask.csv"
        rows = ["0,0,0,0", "0,1,1,0", "0,1,0,0", "0,0,0,0"]
        p.write_text("\n".join(rows) + "\n")
        dom = ms.build_domain(ms.MaskFile(str(p)), 0.5)
        assert dom.n == 3
        assert dom.n * dom.h**2 == pytest.approx(3 * 0.25)

    def test_mask_file_border_rejected(self, tmp_path):
        p = tmp_path / "mask.csv"
        p.write_text("1,0\n0,0\n")
        with pytest.raises(InputDataError):
            ms.build_domain(ms.MaskFile(str(p)), 0.5)

    def test_mask_file_nonbinary_rejected(self, tmp_path):
        p = tmp_path / "mask.csv"
        p.write_text("0,0,0\n0,2,0\n0,0,0\n")
        with pytest.raises(InputDataError):
            ms.build_domain(ms.MaskFile(str(p)), 0.5)

    def test_mask_file_missing(self):
        with pytest.raises(InputDataError):
            ms.build_domain(ms.MaskFile("/nonexistent/mask.csv"), 0.5)


def plaquette_phase(g, x, y, h):
    """Sum of the link phases around the plaquette with lower-left corner (x, y),
    counterclockwise: each edge by its midpoint and unit step."""
    return (g.link_phase(x + h / 2, y, 1, 0, h) + g.link_phase(x + h, y + h / 2, 0, 1, h)
            + g.link_phase(x + h / 2, y + h, -1, 0, h) + g.link_phase(x, y + h / 2, 0, -1, h))


class TestLinkPhase:
    def test_no_gauge_is_zero(self):
        assert ms.GaugeSpec().link_phase(0.3, 0.45, 0, 1, 0.1) == 0.0

    def test_symmetric_gauge_vanishes_on_x_axis(self):
        g = ms.GaugeSpec(5.0)
        # horizontal edges centered on the x-axis: A_x = -(B/2) y = 0 there
        x = np.linspace(-1.0, 1.0, 9)
        assert np.all(g.link_phase(x, np.zeros_like(x), 1, 0, 0.1) == 0.0)

    @given(st.floats(-10, 10), st.floats(-10, 10), st.floats(-5, 5),
           st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2))
    @settings(max_examples=50, deadline=None)
    def test_antisymmetry(self, x, y, b, c0, c1, c2):
        # the reversed edge has the same midpoint and the opposite step
        g = ms.GaugeSpec(b, (c0, c1, c2))
        for di, dj in ((1, 0), (0, 1)):
            assert g.link_phase(x, y, di, dj, 0.25) == -g.link_phase(x, y, -di, -dj, 0.25)

    @given(st.floats(-3, 3), st.floats(-3, 3), st.floats(-8, 8),
           st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2))
    @settings(max_examples=50, deadline=None)
    def test_plaquette_flux_exact(self, x, y, b, c0, c1, c2):
        # Stokes: the midpoint rule is exact for a linear gauge potential,
        # so the phase around any plaquette equals B h^2 in every gauge
        h = 0.125
        for g in (ms.GaugeSpec(b), ms.GaugeSpec(b, (c0, c1, c2))):
            assert plaquette_phase(g, x, y, h) == pytest.approx(b * h**2, abs=1e-12, rel=1e-12)

    def test_plaquette_flux_location_independent(self):
        g = ms.GaugeSpec(3.0)
        h = 1 / 32
        x0, y0 = np.array([0.0, 0.5, -1.0]), np.array([0.0, 0.25, 2.0])
        assert plaquette_phase(g, x0, y0, h) == pytest.approx(3.0 * h**2, rel=1e-12)

    def test_assembled_couplings_carry_the_phases(self):
        # every stored off-diagonal entry of the operator is -exp(-i theta)/h^2
        # with theta the link phase of its edge
        h = 1 / 8
        g = ms.GaugeSpec(5.0, (0.3, -0.2, 0.7))
        dom = ms.build_domain(ms.LShape(1.0, 1.0, 0.5), h)
        mat = ms.assemble(dom, g, ms.PotentialSpec()).matrix.tocoo()
        off = mat.row != mat.col
        p, q = dom.points[mat.row[off]], dom.points[mat.col[off]]
        step = np.rint((q - p) / h).astype(int)
        assert set(map(tuple, step)) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
        theta = g.link_phase(*(0.5 * (p + q)).T, step[:, 0], step[:, 1], h)
        np.testing.assert_allclose(mat.data[off], -np.exp(-1j * theta) / h**2,
                                   rtol=0, atol=1e-12 / h**2)


class TestPotentials:
    def test_zero_and_constant(self):
        dom = ms.build_domain(ms.Disk(1.0), 1 / 8)
        np.testing.assert_array_equal(ms.PotentialSpec().sample_on(dom), np.zeros(dom.n))
        np.testing.assert_array_equal(ms.PotentialSpec(c=3.0).sample_on(dom), np.full(dom.n, 3.0))

    def test_radial_quadratic(self):
        dom = ms.build_domain(ms.Disk(1.0), 1 / 8)
        x, y = dom.points.T
        x0, y0 = 0.25, -0.5
        pot = ms.PotentialSpec(a=2.0, center=(x0, y0))
        np.testing.assert_array_equal(pot.sample_on(dom), 2.0 * ((x - x0)**2 + (y - y0)**2))
        # the node (0.5, 0) lies at distance 1/2 from the origin
        at = dom.index[12, 8]
        assert ms.PotentialSpec(a=2.0).sample_on(dom)[at] == pytest.approx(0.5)

    def test_negative_parameters_rejected(self):
        # the records take any number; the operator refuses a V that is negative somewhere
        dom = ms.build_domain(ms.Rectangle(1.0, 1.0), 0.25)
        with pytest.raises(InputDataError):
            ms.assemble(dom, ms.GaugeSpec(), ms.PotentialSpec(c=-1.0))
        with pytest.raises(InputDataError):
            ms.assemble(dom, ms.GaugeSpec(), ms.PotentialSpec(a=-2.0))

    def test_grid_file(self, tmp_path):
        dom = ms.build_domain(ms.Rectangle(1.0, 1.0), 0.25)
        p = tmp_path / "pot.csv"
        arr = np.arange(25, dtype=float).reshape(5, 5)
        np.savetxt(p, arr, delimiter=",")
        pot = ms.PotentialSpec(path=str(p))
        vals = pot.sample_on(dom)
        assert vals.shape == (dom.n,)
        # node (0.25, 0.5) is column 1, row 2
        assert vals[dom.index[1, 2]] == arr[2, 1]

    def test_grid_file_shape_mismatch_rejected(self, tmp_path):
        dom = ms.build_domain(ms.Rectangle(1.0, 1.0), 0.25)
        p = tmp_path / "pot.csv"
        np.savetxt(p, np.ones((4, 4)), delimiter=",")
        with pytest.raises(InputDataError):
            ms.PotentialSpec(path=str(p)).sample_on(dom)

    def test_samples_nonnegative_on_domain(self):
        dom = ms.build_domain(ms.Disk(1.0), 1 / 16)
        pot = ms.PotentialSpec(a=1.5, center=(0.2, -0.1))
        assert (pot.sample_on(dom) >= 0).all()
