"""Discrete magnetic Schrodinger operator on a masked grid.

Five-point stencil with Peierls phases on the links: for interior nodes p, q
at distance h the coupling is -exp(-i theta_pq)/h^2 with theta_pq the phase
``GaugeSpec.link_phase`` of the edge p -> q, and the diagonal is 4/h^2 + V(p).
Exterior nodes are eliminated (Dirichlet condition), which keeps the operator
Hermitian and positive definite for V >= 0.  When every link phase is zero
(no gauge, or B = 0 without a gauge shift) the matrix is real symmetric
float64, otherwise complex128; the dtype is the only difference.

Every link joins a node of checkerboard colour (i + j) mod 2 to one of the
other colour, so with a constant potential the matrix is alpha I plus a
coupling between the two colour classes only.  ``assemble`` records each
node's colour so that the eigensolver can work on one class (see
``eigensolve``); ``gauge_shift`` keeps it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .domain import GaugeSpec, GridDomain, PotentialSpec
from .errors import InputDataError

__all__ = ["MagneticOperator", "assemble", "gauge_shift"]


@dataclass(frozen=True)
class MagneticOperator:
    """Hermitian positive-definite sparse operator on the interior nodes."""

    matrix: sp.csr_matrix  # n x n; float64 when every link phase is 0, else complex128
    h: float
    #: Checkerboard colour (i + j) mod 2 of each interior node.  Every nonzero
    #: off-diagonal entry joins the two colours, so the eigensolver's inertia
    #: count factors one colour class only (about n/2 rows), and so does its
    #: solve when the diagonal is also one constant.
    colour: np.ndarray

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def measure(self) -> float:
        return self.n * self.h**2


def assemble(dom: GridDomain, gauge: GaugeSpec, pot: PotentialSpec) -> MagneticOperator:
    """Assemble the discrete operator for a domain, gauge and potential.  A potential
    that is not finite and non-negative at some interior node is refused."""
    h = dom.h
    n = dom.n
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        v = pot.sample_on(dom)
    if not (np.isfinite(v) & (v >= 0)).all():
        raise InputDataError("potential is not finite and non-negative at some interior node")

    rows = [np.arange(n)]
    cols = [np.arange(n)]
    data = [4.0 / h**2 + v]
    phased = False

    ii, jj = np.nonzero(dom.mask)
    for di, dj in ((1, 0), (0, 1)):
        i2, j2 = ii + di, jj + dj
        ok = (i2 < dom.dims[0]) & (j2 < dom.dims[1])
        ok[ok] &= dom.mask[i2[ok], j2[ok]]
        p = dom.index[ii[ok], jj[ok]]
        q = dom.index[i2[ok], j2[ok]]
        # phase of edge p -> q, taken at its midpoint
        theta = gauge.link_phase(dom.origin[0] + h * (ii[ok] + 0.5 * di),
                                 dom.origin[1] + h * (jj[ok] + 0.5 * dj), di, dj, h)
        phased |= bool(theta.any())
        coupling = -np.exp(-1j * theta) / h**2
        rows.extend([p, q])
        cols.extend([q, p])
        data.extend([coupling, np.conj(coupling)])

    data = np.concatenate(data)
    # zero phases on every link leave a real symmetric matrix
    mat = sp.csr_matrix(
        (data if phased else data.real, (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )
    return MagneticOperator(matrix=mat, h=h, colour=((ii + jj) % 2).astype(np.int8))


def gauge_shift(op: MagneticOperator, chi: np.ndarray) -> MagneticOperator:
    """Conjugate by the diagonal unitary exp(i chi): couplings pick up
    exp(-i(chi_q - chi_p)), the diagonal and the spectrum are unchanged."""
    chi = np.asarray(chi, dtype=float)
    if chi.shape != (op.n,):
        raise ValueError(f"chi of length {chi.shape} does not match operator size {op.n}")
    if not np.all(np.isfinite(chi)):
        raise ValueError("chi must be finite")
    u = np.exp(1j * chi)
    d = sp.diags(u)
    mat = (d @ op.matrix @ sp.diags(np.conj(u))).tocsr()
    mat.setdiag(op.matrix.diagonal())  # exactly: |exp(i chi)|^2 is 1 only up to rounding
    return MagneticOperator(matrix=mat, h=op.h, colour=op.colour)
