"""Lowest eigenpairs of the discrete operator, deterministically.

Every grid goes through Lanczos iteration in inverse mode: the operator is
positive definite, so its sparse factorization turns the smallest
eigenvalues into the dominant ones and convergence is fast and grid-size
robust.  Lanczos can skip a copy of a degenerate eigenvalue, so an inertia
count (Sylvester's law) certifies that none below the k-th was missed.  The
start vector is fixed unless the caller passes one, so repeated solves give
identical output; a convergence study starts each level from the coarser
level's eigenvectors, interpolated onto the finer grid.  The solve
runs in the matrix's own dtype: real float64 arithmetic when every link phase
is zero, complex otherwise.

Colour split.  Every link joins the two checkerboard colours, so ordered by
colour H = [[D_o, B], [B^H, D_k]], with D_o and D_k diagonal and k the
smaller class.  Each solve splits H once.  The inertia count factors only
the complement of the other class, about n/2 rows, for every potential and
shift (Haynsworth): In(H - sigma I) = #{D_o < sigma} + In(D_k - sigma I -
B^H (D_o - sigma I)^-1 B).  A sigma on D_o swaps the classes; the count
refuses one on both, where H - sigma I has zero pivots.  With a constant
diagonal alpha, the eigenvalues of H below alpha are alpha - sigma_i,
sigma_i the singular values of B, so the solve factors and iterates on the
sigma = 0 complement S = alpha I - B^H B / alpha and maps each eigenvalue s
of S to lambda = alpha s / (alpha + sqrt(alpha (alpha - s))).  The count
needs only the values, so the vectors x_b stay on the kept class until it
agrees; then the k accepted ones are lifted once, by x_o = -B x_b /
(alpha - lambda), and their residuals are measured on H.  Any other
operator, and any request whose values reach alpha / 2, where the lift would
more than double the error of x_b, is solved at full size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import InputDataError, NumericalError
from .operator import MagneticOperator

__all__ = ["Spectrum", "lowest_eigenpairs"]

#: Relative gap below which consecutive eigenvalues are flagged degenerate.
DEGENERACY_RTOL = 1e-6


@dataclass(frozen=True)
class Spectrum:
    """Sorted positive eigenvalues, their domain's measure, and of a grid solve the
    grid spacing h, the unit-L2 (h^2-weighted) ground state and each value's relative
    residual ||H v - lambda v|| / (lambda ||v||) (None, None and empty if exact)."""

    d: int
    values: np.ndarray
    measure: float
    h: float | None = None
    ground_state: np.ndarray | None = field(default=None, repr=False)
    residuals: np.ndarray = ()

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "residuals", np.asarray(self.residuals, dtype=float))
        if values.size and (np.any(np.diff(values) < -1e-12 * np.abs(values[:-1]))
                            or values[0] <= 0):
            raise ValueError("spectrum must be sorted and strictly positive")

    def __len__(self) -> int:
        return self.values.size

    @property
    def source(self) -> str:  # provenance, as reports print it
        return "analytic" if self.h is None else f"discrete(h={self.h:.12g})"


def _start_vector(n: int) -> np.ndarray:
    # the start when the caller gives none: all-ones plus a fixed aperiodic
    # ripple, so the start is never orthogonal to a symmetry sector
    v = 1.0 + 0.01 * np.cos(0.7 * np.arange(n)) + 0.001 * np.sin(0.13 * np.arange(n) ** 2 % (2 * np.pi))
    return v / np.linalg.norm(v)


def _solve_dense(op: MagneticOperator, k: int) -> tuple[np.ndarray, np.ndarray]:
    dense = op.matrix.toarray()
    vals, vecs = la.eigh(dense)
    return vals[:k], vecs[:, :k]


def _factor(a: sp.spmatrix):
    """LU of a Hermitian matrix with a symmetric ordering and diagonal pivots,
    so that U's diagonal is the D of an LDL^H factorization.  A singular matrix
    raises NumericalError (exit 3): SuperLU's own RuntimeError would end the CLI
    in a traceback with exit 1, the violation code."""
    try:
        lu = spla.splu(a.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:  # "Factor is exactly singular"
        raise NumericalError(f"sparse factorization failed: {exc}") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise NumericalError("sparse factorization pivoted off the diagonal")
    return lu


@dataclass(frozen=True)
class _Split:
    """H split by colour: B = H[other, kept], `kept` the smaller class, D_o = diag(d_other),
    D_k = diag(d_kept); alpha is the diagonal's value when it is one constant, else None."""

    kept: np.ndarray
    other: np.ndarray
    coupling: sp.csr_matrix  # B, len(other) x len(kept)
    d_kept: np.ndarray
    d_other: np.ndarray
    alpha: float | None

    def complement(self, sigma: float) -> sp.csc_matrix:
        """The complement D_k - sigma I - B^H (D_o - sigma I)^-1 B; S at sigma = 0."""
        gram = self.coupling.getH() @ sp.diags(1.0 / (sigma - self.d_other)) @ self.coupling
        return (gram + sp.diags(self.d_kept - sigma)).tocsc()

    def swapped(self) -> _Split:
        """The split with the roles of the two classes exchanged."""
        return _Split(self.other, self.kept, self.coupling.getH().tocsr(), self.d_other,
                      self.d_kept, self.alpha)

    def lift(self, xb: np.ndarray, vals: np.ndarray) -> np.ndarray:
        """Eigenvectors of H from those of S on the kept class, unit norm."""
        x = np.empty((self.kept.size + self.other.size, xb.shape[1]), dtype=xb.dtype)
        x[self.kept] = xb
        x[self.other] = self.coupling @ xb
        x[self.other] /= vals - self.alpha
        x /= np.linalg.norm(x, axis=0)
        return x


def _split(op: MagneticOperator) -> _Split:
    """The two-colour split of the operator."""
    diag = op.matrix.diagonal().real
    odd = op.colour.astype(bool)
    kept, other = np.flatnonzero(odd), np.flatnonzero(~odd)
    if kept.size > other.size:
        kept, other = other, kept
    coupling = op.matrix[other][:, kept]
    if op.matrix.nnz != op.n + 2 * coupling.nnz:
        raise ValueError("an off-diagonal entry joins two nodes of one colour")
    alpha = float(diag[0]) if np.all(diag == diag[0]) else None
    return _Split(kept=kept, other=other, coupling=coupling, d_kept=diag[kept],
                  d_other=diag[other], alpha=alpha)


def _count_below(split: _Split, sigma: float) -> int:
    """Number of eigenvalues below sigma, by Sylvester's law and Haynsworth's additivity."""
    if np.any(split.d_other == sigma):  # D_o - sigma I is singular: eliminate the kept class
        split = split.swapped()
        if np.any(split.d_other == sigma):
            raise NumericalError(f"inertia count at sigma = {sigma:.12g}: sigma lies on both "
                                 "diagonal blocks, so no colour class can be eliminated")
    # the complement is freed before U is exported; reading lu.U builds L and U
    lu = _factor(split.complement(sigma))
    return int(np.count_nonzero(split.d_other < sigma) + np.count_nonzero(lu.U.diagonal().real < 0))


def _shift_invert(a: sp.spmatrix, k: int, tol: float, start: np.ndarray | None = None
                  ) -> tuple[np.ndarray, np.ndarray] | None:
    """k smallest eigenpairs of a Hermitian positive-definite matrix, sorted, from
    ``start`` (the fixed start if None); None when ARPACK does not converge, as on
    a cluster too tight to split at this k."""
    lu = _factor(a)
    try:
        vals, vecs = spla.eigsh(
            a,
            k=k,
            sigma=0.0,
            which="LM",
            OPinv=spla.LinearOperator(a.shape, matvec=lu.solve, dtype=a.dtype),
            v0=_start_vector(a.shape[0]) if start is None else start,
            tol=tol,
            maxiter=50 * k,
        )
    except spla.ArpackNoConvergence:
        return None
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


def _solve_sparse(op: MagneticOperator, split: _Split, k: int, tol: float,
                  start: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray] | None:
    """k lowest eigenvalues of H and Ritz vectors on the rows solved for (the kept class
    on the half-size path, see _Split.lift, else all n), or None if ARPACK does not
    converge.  A start vector of length n is restricted to the rows solved for."""
    alpha = split.alpha
    # ARPACK needs k < n - 1 on the kept class too
    if alpha is not None and k < split.kept.size - 1:
        kept_start = None if start is None else start[split.kept]
        if (half := _shift_invert(split.complement(0.0), k, tol, kept_start)) is None:
            return None
        s, xb = half
        # lambda < alpha / 2, i.e. s < 3 alpha / 4: then ||B|| / (alpha - lambda) < 2
        if s[-1] < 0.75 * alpha:
            return alpha * s / (alpha + np.sqrt(alpha * (alpha - s))), xb
    return _shift_invert(op.matrix, k, tol, start)


def lowest_eigenpairs(op: MagneticOperator, k: int, tol: float = 1e-10,
                      start: np.ndarray | None = None) -> tuple[Spectrum, np.ndarray]:
    """The spectrum of the k smallest eigenvalues of the operator, and their
    h^2-normalized eigenvectors as the rows of a k x n array.  ``start``, a vector
    of length n, seeds the Lanczos iteration: one rich in the wanted eigenvectors
    saves iterations, and the inertia count and residual gate hold whatever the start."""
    k = int(k)
    if k < 1 or k > op.n:
        raise InputDataError(f"need 1 <= k <= n = {op.n}, got k = {k}")
    if not 1e-12 <= tol <= 1e-4:
        raise ValueError(f"tolerance must lie in [1e-12, 1e-4], got {tol}")

    # widen m until ARPACK converges and the count below the k-th cluster agrees; m < n - 1
    m, split = k, _split(op)
    while m < op.n - 1:
        if (pairs := _solve_sparse(op, split, m, tol, start)) is not None:
            vals, vecs = pairs
            sigma = vals[k - 1] * (1 - DEGENERACY_RTOL)
            found = int(np.count_nonzero(vals < sigma))
            inertia = _count_below(split, sigma)
            if inertia == found:
                break
            if inertia < found:
                raise NumericalError(f"{found} computed eigenvalues below {sigma:.12g} "
                                     f"but the inertia count is {inertia}")
        m *= 2
    else:
        vals, vecs = _solve_dense(op, k)
    vals, vecs = vals[:k], vecs[:, :k]
    if vecs.shape[0] < op.n:  # the half-size solve: lift only what the count accepted
        vecs = split.lift(vecs, vals)

    vectors, residuals = np.empty((k, op.n), dtype=vecs.dtype), np.empty(k)
    for j in range(k):
        v = vecs[:, j]
        v = v / (np.linalg.norm(v) * op.h)  # unit norm with cell weight h^2
        res = np.linalg.norm(op.matrix @ v - vals[j] * v) / (np.linalg.norm(v) * vals[j])
        # for a Hermitian operator the eigenvalue error is O(residual^2), so
        # this gate is far stricter than any eigenvalue tolerance downstream
        if not res <= max(100 * tol, 1e-8):  # a NaN residual fails too
            raise NumericalError(f"eigenpair {j} residual {res:.2e} exceeds tolerance")
        vectors[j], residuals[j] = v, res

    return Spectrum(d=2, values=vals.copy(), h=op.h, measure=op.measure,
                    ground_state=vectors[0].copy(), residuals=residuals), vectors
