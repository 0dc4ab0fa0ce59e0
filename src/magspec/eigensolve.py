"""Lowest eigenpairs of the discrete operator, deterministically.

Every grid goes through Lanczos iteration in inverse mode: the operator is
positive definite, so its sparse factorization turns the smallest
eigenvalues into the dominant ones and convergence is fast and grid-size
robust.  Lanczos can skip a copy of a degenerate eigenvalue, so an inertia
count (Sylvester's law) certifies that none below the k-th was missed.  The
start vector is fixed, so repeated solves give identical output.  The solve
runs in the matrix's own dtype: real float64 arithmetic when every link phase
is zero, complex otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NumericalError
from .operator import MagneticOperator

__all__ = ["EigenPair", "Spectrum", "lowest_eigenpairs"]

#: Relative gap below which consecutive eigenvalues are flagged degenerate.
DEGENERACY_RTOL = 1e-6


@dataclass(frozen=True)
class EigenPair:
    value: float
    vector: np.ndarray  # unit norm in the h^2-weighted inner product
    residual: float  # ||H v - value * v|| / value


@dataclass(frozen=True)
class Spectrum:
    """Sorted positive eigenvalues with provenance."""

    d: int
    values: np.ndarray
    source: str  # "analytic" or "discrete(h=...)"
    measure: float | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.size and (np.any(np.diff(values) < -1e-12 * np.abs(values[:-1]))
                            or values[0] <= 0):
            raise ValueError("spectrum must be sorted and strictly positive")

    def __len__(self) -> int:
        return self.values.size


def _degeneracy_flags(values: np.ndarray) -> np.ndarray:
    flags = np.zeros(values.size, dtype=bool)
    close = np.diff(values) <= DEGENERACY_RTOL * values[:-1]
    flags[:-1] |= close
    flags[1:] |= close
    return flags


def _start_vector(n: int) -> np.ndarray:
    # all-ones plus a fixed aperiodic ripple, so the start is never orthogonal
    # to a symmetry sector
    v = 1.0 + 0.01 * np.cos(0.7 * np.arange(n)) + 0.001 * np.sin(0.13 * np.arange(n) ** 2 % (2 * np.pi))
    return v / np.linalg.norm(v)


def _solve_dense(op: MagneticOperator, k: int) -> tuple[np.ndarray, np.ndarray]:
    dense = op.matrix.toarray()
    vals, vecs = la.eigh(dense)
    return vals[:k], vecs[:, :k]


def _factor(a: sp.spmatrix):
    """LU of a Hermitian matrix with a symmetric ordering and diagonal pivots,
    so that U's diagonal is the D of an LDL^H factorization."""
    lu = spla.splu(a.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                   options={"SymmetricMode": True})
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise NumericalError("sparse factorization pivoted off the diagonal")
    return lu


def _count_below(op: MagneticOperator, sigma: float) -> int:
    """Number of eigenvalues below sigma, by Sylvester's law of inertia."""
    lu = _factor(op.matrix - sigma * sp.identity(op.n, format="csr"))
    return int(np.count_nonzero(lu.U.diagonal().real < 0))


def _solve_sparse(op: MagneticOperator, k: int, tol: float) -> tuple[np.ndarray, np.ndarray]:
    maxiter = 50 * k
    lu = _factor(op.matrix)
    try:
        vals, vecs = spla.eigsh(
            op.matrix,
            k=k,
            sigma=0.0,
            which="LM",
            OPinv=spla.LinearOperator(op.matrix.shape, matvec=lu.solve, dtype=op.matrix.dtype),
            v0=_start_vector(op.n),
            tol=tol,
            maxiter=maxiter,
        )
    except spla.ArpackNoConvergence as exc:
        raise NumericalError(
            f"eigensolver converged only {len(exc.eigenvalues)} of {k} "
            f"eigenvalues within {maxiter} iterations"
        ) from exc
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


def lowest_eigenpairs(op: MagneticOperator, k: int, tol: float = 1e-10
                      ) -> tuple[Spectrum, list[EigenPair]]:
    """k smallest eigenvalues and h^2-normalized eigenvectors of the operator."""
    k = int(k)
    if k < 1 or k > op.n:
        raise ValueError(f"need 1 <= k <= n = {op.n}, got k = {k}")
    if not 1e-12 <= tol <= 1e-4:
        raise ValueError(f"tolerance must lie in [1e-12, 1e-4], got {tol}")

    # widen m until the inertia count below the k-th cluster agrees; ARPACK needs m < n - 1
    m = k
    while m < op.n - 1:
        vals, vecs = _solve_sparse(op, m, tol)
        sigma = vals[k - 1] * (1 - DEGENERACY_RTOL)
        found = int(np.count_nonzero(vals < sigma))
        inertia = _count_below(op, sigma)
        if inertia == found:
            break
        if inertia < found:
            raise NumericalError(f"{found} computed eigenvalues below {sigma:.12g} "
                                 f"but the inertia count is {inertia}")
        m *= 2
    else:
        vals, vecs = _solve_dense(op, k)
    vals, vecs = vals[:k], vecs[:, :k]

    pairs = []
    for j in range(k):
        v = vecs[:, j]
        v = v / (np.linalg.norm(v) * op.h)  # unit norm with cell weight h^2
        res = np.linalg.norm(op.apply(v) - vals[j] * v) / (np.linalg.norm(v) * vals[j])
        # for a Hermitian operator the eigenvalue error is O(residual^2), so
        # this gate is far stricter than any eigenvalue tolerance downstream
        if res > max(100 * tol, 1e-8):
            raise NumericalError(f"eigenpair {j} residual {res:.2e} exceeds tolerance")
        pairs.append(EigenPair(value=float(vals[j]), vector=v, residual=float(res)))

    spectrum = Spectrum(
        d=2,
        values=vals.copy(),
        source=f"discrete(h={op.h:.12g})",
        measure=op.measure,
    )
    return spectrum, pairs
