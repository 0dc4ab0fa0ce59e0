import numpy as np
import pytest
import scipy.sparse as sp

import magspec as ms
from magspec import eigensolve
from conftest import degeneracy_flags


class TestStripOracle:
    def test_one_node_wide_strip_matches_closed_form(self):
        # a strip one interior row tall reduces to the 1-D chain; its
        # eigenvalues are the 1-D Dirichlet values plus the transverse 2/h^2
        h = 1 / 16
        dom = ms.build_domain(ms.Rectangle(1.0, 1.5 * h), h)
        n = dom.n
        assert n == 15
        op = ms.assemble(dom, ms.GaugeSpec(), ms.PotentialSpec())
        spec, _ = ms.lowest_eigenpairs(op, n)
        m = np.arange(1, n + 1)
        exact = 2.0 / h**2 + (4.0 / h**2) * np.sin(m * np.pi * h / 2.0) ** 2
        assert np.max(np.abs(spec.values - exact) / exact) < 1e-10


class TestLowestEigenpairs:
    def test_square_eigenvalues_near_analytic(self, small_square_op):
        _, op = small_square_op
        spec, _ = ms.lowest_eigenpairs(op, 4)
        exact = np.pi**2 * np.array([2.0, 5.0, 5.0, 8.0])
        assert np.max(np.abs(spec.values - exact) / exact) < 0.02

    def test_sorted_with_residuals(self, magnetic_square_op):
        _, op = magnetic_square_op
        spec, _ = ms.lowest_eigenpairs(op, 8, tol=1e-10)
        assert np.all(np.diff(spec.values) >= 0)
        assert all(r <= 1e-9 for r in spec.residuals)

    def test_vectors_h_normalized_and_orthogonal(self, magnetic_square_op):
        _, op = magnetic_square_op
        _, vectors = ms.lowest_eigenpairs(op, 6)
        vecs = vectors.T
        gram = vecs.conj().T @ vecs * op.h**2
        assert np.max(np.abs(gram - np.eye(6))) < 1e-8

    @pytest.mark.parametrize("fixture", ["small_square_op", "magnetic_square_op"])
    def test_vectors_are_the_normalized_solve_as_rows(self, fixture, request, monkeypatch):
        # row j is column j of the lifted solve scaled to unit norm with cell
        # weight h^2, bit for bit
        _, op = request.getfixturevalue(fixture)
        lifted, lift = [], eigensolve._Split.lift

        def record_lift(split, xb, vals):
            lifted.append(lift(split, xb, vals))
            return lifted[-1]

        monkeypatch.setattr(eigensolve._Split, "lift", record_lift)
        _, vectors = ms.lowest_eigenpairs(op, 6)
        [x] = lifted
        assert vectors.shape == (6, op.n) and vectors.dtype == op.matrix.dtype
        for j, v in enumerate(vectors):
            assert np.array_equal(v, x[:, j] / (np.linalg.norm(x[:, j]) * op.h))
            assert np.linalg.norm(v) * op.h == pytest.approx(1.0, abs=1e-14)

    def test_degeneracy_flags_on_square(self, small_square_op):
        _, op = small_square_op
        spec, _ = ms.lowest_eigenpairs(op, 3)
        np.testing.assert_array_equal(degeneracy_flags(spec.values),
                                      [False, True, True])

    def test_constant_shift(self, small_square_op):
        dom, op0 = small_square_op
        opc = ms.assemble(dom, ms.GaugeSpec(), ms.PotentialSpec(c=3.5))
        v0, _ = ms.lowest_eigenpairs(op0, 5)
        vc, _ = ms.lowest_eigenpairs(opc, 5)
        assert vc.values == pytest.approx(v0.values + 3.5, abs=1e-9)

    def test_deterministic(self, magnetic_square_op):
        _, op = magnetic_square_op
        s1, v1 = ms.lowest_eigenpairs(op, 5)
        s2, v2 = ms.lowest_eigenpairs(op, 5)
        assert np.array_equal(s1.values, s2.values)
        assert all(np.array_equal(a, b) for a, b in zip(v1, v2))

    def test_rejects_bad_arguments(self, small_square_op):
        _, op = small_square_op
        with pytest.raises(ValueError):
            ms.lowest_eigenpairs(op, 0)
        with pytest.raises(ValueError):
            ms.lowest_eigenpairs(op, op.n + 1)
        with pytest.raises(ValueError):
            ms.lowest_eigenpairs(op, 2, tol=1e-2)

    def test_nan_residual_fails_the_gate(self):
        # an infinite diagonal entry, which assemble refuses, leaves NaN residuals;
        # "res > tol" is False for NaN, so the gate once passed them
        dom = ms.build_domain(ms.Rectangle(1.0, 1.0), 1 / 8)
        op = ms.assemble(dom, ms.GaugeSpec(), ms.PotentialSpec())
        mat = op.matrix.copy()
        mat[dom.n // 2, dom.n // 2] = np.inf
        with pytest.raises(ms.NumericalError, match="residual nan"):
            ms.lowest_eigenpairs(ms.MagneticOperator(matrix=mat, h=op.h, colour=op.colour), 4)

    def test_real_and_complex_arithmetic_agree(self, small_square_op):
        # a gauge shift makes the B = 0 matrix complex without changing its spectrum
        _, op = small_square_op
        shifted = ms.gauge_shift(op, np.random.default_rng(3).uniform(-np.pi, np.pi, op.n))
        assert op.matrix.dtype == np.float64 and shifted.matrix.dtype == np.complex128
        real, _ = ms.lowest_eigenpairs(op, 8)
        cplx, _ = ms.lowest_eigenpairs(shifted, 8)
        assert np.max(np.abs(cplx.values - real.values) / real.values) < 1e-10

    def test_dense_and_sparse_paths_agree(self):
        # n = 1521: the dense oracle against the Lanczos solve on one operator
        dom = ms.build_domain(ms.Rectangle(1.0, 1.0), 1 / 40)
        op = ms.assemble(dom, ms.GaugeSpec(2.0), ms.PotentialSpec())
        k = 6
        dense_vals, _ = eigensolve._solve_dense(op, k)
        sparse_vals, _ = eigensolve._solve_sparse(op, eigensolve._split(op), k, tol=1e-12)
        assert np.max(np.abs(dense_vals - sparse_vals) / dense_vals) < 1e-8


def exact_square_spectrum(h, k):
    """k lowest eigenvalues of the five-point Dirichlet Laplacian on the unit square."""
    s = np.sin(np.arange(1, round(1 / h)) * np.pi * h / 2.0) ** 2
    return np.sort((4.0 / h**2) * (s[:, None] + s[None, :]), axis=None)[:k]


class TestCompleteness:
    @pytest.mark.parametrize("k", [3, 4])
    def test_double_eigenvalue_kept_on_fine_square(self, k):
        # lambda_2 = lambda_3; a single Lanczos solve returns only one copy here
        h = 1 / 64
        dom = ms.build_domain(ms.Rectangle(1.0, 1.0), h)
        op = ms.assemble(dom, ms.GaugeSpec(), ms.PotentialSpec())
        spec, _ = ms.lowest_eigenpairs(op, k)
        assert spec.values == pytest.approx(exact_square_spectrum(h, k), rel=1e-8)

    def test_skipped_copy_widens_the_solve(self, small_square_op, monkeypatch):
        _, op = small_square_op
        requests = []

        def drop_copy(op, split, m, tol, start):
            # the first solve leaves out lambda_3 = lambda_2
            requests.append(m)
            vals, vecs = eigensolve._solve_dense(op, m + 1)
            keep = [0, 1] + list(range(3, m + 1)) if len(requests) == 1 else list(range(m))
            return vals[keep], vecs[:, keep]

        monkeypatch.setattr(eigensolve, "_solve_sparse", drop_copy)
        spec, _ = ms.lowest_eigenpairs(op, 3)
        assert requests == [3, 6]
        assert spec.values == pytest.approx(exact_square_spectrum(1 / 16, 3), rel=1e-10)

    def test_duplicated_value_raises(self, small_square_op, duplicating_solver):
        _, op = small_square_op
        with pytest.raises(ms.NumericalError):
            ms.lowest_eigenpairs(op, 3)

    def test_inertia_count_matches_exact_spectrum(self, small_square_op):
        _, op = small_square_op
        exact = exact_square_spectrum(1 / 16, 20)
        for j in (0, 1, 3, 10, 19):
            below = eigensolve._count_below(eigensolve._split(op), exact[j] * (1 - 1e-6))
            assert below == np.searchsorted(exact, exact[j])

    def test_inertia_count_on_complex_matrix(self, small_square_op):
        _, op = small_square_op
        shifted = ms.gauge_shift(op, np.random.default_rng(5).uniform(-np.pi, np.pi, op.n))
        assert shifted.matrix.dtype == np.complex128
        exact = exact_square_spectrum(1 / 16, 20)
        for j in (0, 1, 3, 10, 19):
            below = eigensolve._count_below(eigensolve._split(shifted), exact[j] * (1 - 1e-6))
            assert below == np.searchsorted(exact, exact[j])


    def test_singular_factor_is_a_numerical_error(self):
        # SuperLU's RuntimeError read as a violation (exit 1) with a traceback
        with pytest.raises(ms.NumericalError, match="exactly singular"):
            eigensolve._factor(sp.csc_matrix((3, 3)))


class TestSpectrumType:
    def test_grid_spectrum_holds_its_ground_state(self, small_square_op):
        # a copy of the first eigenvector, so that the spectrum keeps no other
        # vector alive; exact spectra have none
        _, op = small_square_op
        spec, vectors = ms.lowest_eigenpairs(op, 3)
        assert np.array_equal(spec.ground_state, vectors[0])
        assert not np.shares_memory(spec.ground_state, vectors)
        assert ms.box_spectrum([1.0, 1.0], 3).ground_state is None

    def test_grid_spectrum_holds_its_residuals(self, small_square_op):
        # each value's residual, recomputed from its row; exact spectra have none
        _, op = small_square_op
        spec, vectors = ms.lowest_eigenpairs(op, 3)
        assert spec.residuals.shape == (3,)
        for v, lam, res in zip(vectors, spec.values, spec.residuals):
            assert res == np.linalg.norm(op.matrix @ v - lam * v) / (np.linalg.norm(v) * lam)
        assert ms.box_spectrum([1.0, 1.0], 3).residuals.shape == (0,)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            ms.Spectrum(d=2, values=np.array([2.0, 1.0]), measure=1.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ms.Spectrum(d=2, values=np.array([0.0, 1.0]), measure=1.0)


def lowest_values(shape, h, gauge, k=12):
    op = ms.assemble(ms.build_domain(shape, h), gauge, ms.PotentialSpec())
    return ms.lowest_eigenpairs(op, k)[0].values


class TestFluxSymmetries:
    """The field enters only through the link phases, so only the plaquette
    flux B h^2 modulo 2 pi and its sign-free spectrum matter."""

    @pytest.mark.parametrize("shape,h", [
        (ms.LShape(1.0, 1.0, 0.5), 1 / 16),
        (ms.Annulus(0.3, 1.0), 0.05),
    ], ids=["lshape-h16", "annulus-h0.05"])
    @pytest.mark.parametrize("b", [5.0, 37.0])
    def test_flux_reversed_and_shifted_by_2pi(self, shape, h, b):
        # -B is the complex conjugate operator; 2 pi/h^2 - B has plaquette flux
        # 2 pi - B h^2, the flux of -B modulo 2 pi (also around the annulus' hole,
        # which the lattice fills with plaquettes)
        ref = lowest_values(shape, h, ms.GaugeSpec(b))
        for other in (-b, 2 * np.pi / h**2 - b):
            vals = lowest_values(shape, h, ms.GaugeSpec(other))
            assert np.max(np.abs(vals - ref) / ref) < 1e-12


def pi_flux_square_spectrum(n):
    """Spectrum of the five-point operator on the unit square at h = 1/n with
    flux pi per plaquette.  Squared, the hopping part is the sum of the 1-D
    squares, so each pair (i, j) gives (4 -/+ 2 sqrt(cos^2(i pi/n) + cos^2(j pi/n)))/h^2;
    (i, j) and (n - i, j) give the same pair, so every value is listed twice."""
    c2 = np.cos(np.arange(1, n) * np.pi / n) ** 2
    root = 2 * np.sqrt(c2[:, None] + c2[None, :]).ravel()
    return (np.sort(np.concatenate([4 - root, 4 + root])) * n**2)[::2]


class TestPiFluxSquare:
    def test_all_values_at_n16(self):
        n = 16
        op = ms.assemble(ms.build_domain(ms.Rectangle(1.0, 1.0), 1 / n),
                         ms.GaugeSpec(np.pi * n**2), ms.PotentialSpec())
        vals = ms.lowest_eigenpairs(op, op.n)[0].values
        exact = pi_flux_square_spectrum(n)
        assert vals.shape == exact.shape
        assert np.max(np.abs(vals - exact) / exact) < 1e-12

    @pytest.mark.parametrize("n", [16, 64])
    def test_lowest_values(self, n):
        vals = lowest_values(ms.Rectangle(1.0, 1.0), 1 / n, ms.GaugeSpec(np.pi * n**2))
        exact = pi_flux_square_spectrum(n)[:12]
        assert np.max(np.abs(vals - exact) / exact) < 1e-12


@pytest.fixture
def factored_sizes(monkeypatch):
    """The order of every matrix the solver factors, in call order."""
    sizes = []
    factor = eigensolve._factor

    def record(a):
        sizes.append(a.shape[0])
        return factor(a)

    monkeypatch.setattr(eigensolve, "_factor", record)
    return sizes


def assert_matches_dense(op, vals, vecs):
    """Values against dense eigh of the full matrix, and each vector an
    eigenvector of the full matrix."""
    dense = op.matrix.toarray()
    exact = np.linalg.eigvalsh(dense)[:len(vals)]
    assert np.max(np.abs(vals - exact) / exact) < 1e-12
    res = np.linalg.norm(dense @ vecs - vecs * vals, axis=0) / (vals * np.linalg.norm(vecs, axis=0))
    assert np.all(res < 1e-9)


def assert_pairs_match_dense(op, spec, vectors):
    assert_matches_dense(op, spec.values, vectors.T)


class TestHalfSizeSolve:
    """A constant diagonal and two colours: the solve runs on S = alpha I - B^H B / alpha
    over the smaller colour class and lifts back to the full grid.  The inertia
    count factors the smaller class for every diagonal."""

    @pytest.mark.parametrize("shape,h,gauge,pot,classes", [
        (ms.LShape(1.0, 1.0, 0.5), 1 / 16, ms.GaugeSpec(5.0, (0.7, -0.3, 0.2)),
         ms.PotentialSpec(), [80, 81]),
        (ms.Annulus(0.3, 1.0), 0.1, ms.GaugeSpec(), ms.PotentialSpec(c=3.0),
         [136, 142]),
    ], ids=["lshape-h16-B5-shifted", "annulus-h0.1-c3"])
    def test_matches_dense(self, shape, h, gauge, pot, classes, factored_sizes):
        op = ms.assemble(ms.build_domain(shape, h), gauge, pot)
        assert sorted(np.bincount(op.colour)) == classes
        # the solve itself on the kept class, lifted here, then through the
        # inertia count and the residual gate
        split = eigensolve._split(op)
        vals, xb = eigensolve._solve_sparse(op, split, 12, 1e-10)
        assert xb.shape == (classes[0], 12)
        assert_matches_dense(op, vals, split.lift(xb, vals))
        assert_pairs_match_dense(op, *ms.lowest_eigenpairs(op, 12))
        assert factored_sizes and set(factored_sizes) == {classes[0]}

    def test_pi_flux_resolve_on_half_grid(self, factored_sizes, monkeypatch):
        # lambda_1 is double: the first solve at k = 8 skips copies and the
        # inertia count sends it round again, both times on the half grid and
        # both on the one colour split of the call
        n = 16
        op = ms.assemble(ms.build_domain(ms.Rectangle(1.0, 1.0), 1 / n),
                         ms.GaugeSpec(np.pi * n**2), ms.PotentialSpec())
        splits, requests, used = [], [], []
        split, solve, count = eigensolve._split, eigensolve._solve_sparse, eigensolve._count_below

        def record_split(op):
            splits.append(split(op))
            return splits[-1]

        def record_solve(op, split, m, tol, start):
            requests.append(m)
            used.append(split)
            return solve(op, split, m, tol, start)

        def record_count(split, sigma):
            used.append(split)
            return count(split, sigma)

        monkeypatch.setattr(eigensolve, "_split", record_split)
        monkeypatch.setattr(eigensolve, "_solve_sparse", record_solve)
        monkeypatch.setattr(eigensolve, "_count_below", record_count)
        spec, vectors = ms.lowest_eigenpairs(op, 8)
        assert requests == [8, 16]
        assert len(splits) == 1 and len(used) == 4
        assert all(s is splits[0] for s in used)
        assert_pairs_match_dense(op, spec, vectors)
        exact = pi_flux_square_spectrum(n)[:8]
        assert np.max(np.abs(spec.values - exact) / exact) < 1e-12
        assert set(factored_sizes) == {np.bincount(op.colour).min()}

    def test_certify_before_lifting(self, monkeypatch):
        # the count rejects the request at k = 8, whose vectors are never lifted;
        # once it accepts the request at 16, only the 8 wanted vectors are
        # lifted to the full grid, once
        n = 16
        op = ms.assemble(ms.build_domain(ms.Rectangle(1.0, 1.0), 1 / n),
                         ms.GaugeSpec(np.pi * n**2), ms.PotentialSpec())
        events = []
        count, lift = eigensolve._count_below, eigensolve._Split.lift

        def record_count(*args):
            events.append("count")
            return count(*args)

        def record_lift(split, xb, vals):
            events.append(("lift", xb.shape[1]))
            return lift(split, xb, vals)

        monkeypatch.setattr(eigensolve, "_count_below", record_count)
        monkeypatch.setattr(eigensolve._Split, "lift", record_lift)
        spec, vectors = ms.lowest_eigenpairs(op, 8)
        assert events == ["count", "count", ("lift", 8)]
        assert_pairs_match_dense(op, spec, vectors)

    @pytest.mark.parametrize("shape,h,gauge,pot", [
        (ms.Rectangle(1.0, 1.0), 1 / 16, ms.GaugeSpec(), ms.PotentialSpec(c=2.5)),
        (ms.Rectangle(1.0, 1.0), 1 / 16, ms.GaugeSpec(37.0), ms.PotentialSpec(c=2.5)),
        (ms.Disk(1.0), 0.1, ms.GaugeSpec(2.0), ms.PotentialSpec(a=1.0)),
        (ms.LShape(1.0, 1.0, 0.5), 1 / 16, ms.GaugeSpec(), ms.PotentialSpec()),
    ], ids=["real", "complex", "radial-disk", "lshape-B0"])
    def test_count_below_matches_dense(self, shape, h, gauge, pot, factored_sizes):
        # squares with c = 2.5: exact doubles at B = 0, pairs 1e-4 apart at
        # B = 37; sigma just below and above each cluster and halfway between
        # neighbours, inside those close pairs too, over the whole spectrum up
        # to 2 alpha; the disk's diagonal is not constant
        op = ms.assemble(ms.build_domain(shape, h), gauge, pot)
        split = eigensolve._split(op)
        exact = np.linalg.eigvalsh(op.matrix.toarray())
        clusters = exact[np.r_[True, np.diff(exact) > 1e-8 * exact[1:]]]
        sigmas = np.concatenate([clusters * (1 - 1e-6), clusters * (1 + 1e-6),
                                 (clusters[:-1] + clusters[1:]) / 2])
        assert sigmas.max() > split.d_other.max()
        for sigma in sigmas:
            assert eigensolve._count_below(split, sigma) == np.count_nonzero(exact < sigma)
        assert set(factored_sizes) == {np.bincount(op.colour).min()}

    def test_count_at_or_above_alpha_on_half_grid(self, small_square_op, factored_sizes):
        _, op = small_square_op
        alpha = 4 * 16**2
        exact = np.linalg.eigvalsh(op.matrix.toarray())
        # alpha itself is an eigenvalue (i + j = 16), so step just past it
        for sigma in (alpha * (1 + 1e-6), alpha * 1.3):
            assert (eigensolve._count_below(eigensolve._split(op), sigma)
                    == np.count_nonzero(exact < sigma))
        kept = np.bincount(op.colour).min()
        assert factored_sizes == [kept, kept]

    def test_count_at_a_diagonal_entry(self, factored_sizes):
        # sigma equal to an entry of D_o leaves D_o - sigma I singular, so the
        # count eliminates the kept class instead; on the disk centred at a node
        # the two colours share no diagonal value (i + j and i^2 + j^2 have one
        # parity), so H - sigma I itself, with its zero pivots, is never factored
        op = ms.assemble(ms.build_domain(ms.Disk(1.0), 0.1), ms.GaugeSpec(2.0),
                         ms.PotentialSpec(a=1.0))
        split = eigensolve._split(op)
        exact = np.linalg.eigvalsh(op.matrix.toarray())
        sigmas = np.unique(split.d_other)
        assert sigmas.size > 10 and not np.intersect1d(sigmas, split.d_kept).size
        for sigma in sigmas:
            assert eigensolve._count_below(split, sigma) == np.count_nonzero(exact < sigma)
        assert factored_sizes == [split.other.size] * sigmas.size

    def test_count_on_both_diagonal_blocks_refuses(self, factored_sizes):
        # a constant diagonal puts alpha on both blocks, so neither class can be
        # eliminated and H - alpha I has a zero diagonal: the count refuses, naming
        # sigma, before it factors anything.  15 x 16 nodes: equal classes, and
        # alpha is no eigenvalue
        op = ms.assemble(ms.build_domain(ms.Rectangle(1.0, 17 / 16), 1 / 16),
                         ms.GaugeSpec(37.0), ms.PotentialSpec(c=2.5))
        assert np.bincount(op.colour).tolist() == [120, 120]
        with pytest.raises(ms.NumericalError, match="sigma = 1026.5"):
            eigensolve._count_below(eigensolve._split(op), 4 * 16**2 + 2.5)
        assert factored_sizes == []

    def test_split_refuses_a_wrong_colouring(self, small_square_op):
        # one colour for every node: the links no longer join the two classes,
        # and the count's formula would not hold
        _, op = small_square_op
        wrong = ms.MagneticOperator(matrix=op.matrix, h=op.h, colour=np.zeros(op.n, np.int8))
        with pytest.raises(ValueError):
            ms.lowest_eigenpairs(wrong, 4)

    @pytest.mark.parametrize("k", [9, 22], ids=["above-half-alpha", "reaching-alpha"])
    def test_upper_values_fall_back(self, k, factored_sizes):
        # at h = 1/8, alpha = 256: lambda_9 = 137.7 > alpha / 2, where the lift
        # would more than double the error of x_b; alpha is a 7-fold eigenvalue
        # (i + j = 8), so only 21 values lie below it and lambda_22 = alpha,
        # which S cannot carry
        h = 1 / 8
        op = ms.assemble(ms.build_domain(ms.Rectangle(1.0, 1.0), h), ms.GaugeSpec(),
                         ms.PotentialSpec())
        kept = np.bincount(op.colour).min()
        assert k < kept - 1
        spec, vectors = ms.lowest_eigenpairs(op, k)
        assert spec.values[-1] >= 2 / h**2
        assert_pairs_match_dense(op, spec, vectors)
        # the half-size attempt, then the full-size solve
        assert factored_sizes[:2] == [kept, op.n]

    @pytest.mark.parametrize("make", ["radial-disk", "gauge-shifted-disk"])
    def test_full_size_otherwise(self, make, factored_sizes):
        # a non-constant diagonal, which a gauge shift keeps: the Lanczos solve
        # runs at full size, and each inertia count after it on the smaller class
        op = ms.assemble(ms.build_domain(ms.Disk(1.0), 0.1), ms.GaugeSpec(2.0),
                         ms.PotentialSpec(a=1.0))
        if make == "gauge-shifted-disk":
            op = ms.gauge_shift(op, np.random.default_rng(7).uniform(-np.pi, np.pi, op.n))
        assert_pairs_match_dense(op, *ms.lowest_eigenpairs(op, 6))
        assert factored_sizes and set(factored_sizes[::2]) == {op.n}
        assert set(factored_sizes[1::2]) == {np.bincount(op.colour).min()}

    def test_gauge_shifted_square_on_half_grid(self, factored_sizes):
        # gauge_shift keeps the constant diagonal exactly, so the conjugated
        # square is still alpha I + [[0, B], [B^H, 0]] and solves on one colour
        square = ms.assemble(ms.build_domain(ms.Rectangle(1.0, 1.0), 1 / 16),
                             ms.GaugeSpec(), ms.PotentialSpec())
        op = ms.gauge_shift(square, np.random.default_rng(7).uniform(-np.pi, np.pi, square.n))
        assert op.colour is square.colour
        assert_pairs_match_dense(op, *ms.lowest_eigenpairs(op, 6))
        assert factored_sizes and set(factored_sizes) == {np.bincount(op.colour).min()}
