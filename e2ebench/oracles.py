"""Reference spectra computed apart from magspec.

Nothing here imports magspec: every value the benchmark compares a report
against is derived from a closed form, from SciPy's own Bessel-zero routine,
or from a dense eigensolve of a matrix assembled in this file.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg as la
from scipy import special


def square_discrete_spectrum(n_cells: int, k: int, shift: float = 0.0) -> np.ndarray:
    """Lowest k eigenvalues of the 5-point Dirichlet Laplacian on the unit
    square with h = 1/n_cells, plus a constant potential `shift`:
    (4/h^2)(sin^2(pi i h/2) + sin^2(pi j h/2)), 1 <= i, j < n_cells."""
    h = 1.0 / n_cells
    s = (4.0 / h**2) * np.sin(np.pi * np.arange(1, n_cells) * h / 2) ** 2
    return np.sort((s[:, None] + s[None, :]).ravel())[:k] + shift


def grid_nodes(n_cells: int, cut_cells: int = 0) -> np.ndarray:
    """Integer coordinates (i, j) of the interior nodes of the unit square
    with h = 1/n_cells; with cut_cells > 0, the closed top-right square of
    side cut_cells*h is removed (an L-shape)."""
    i, j = np.meshgrid(np.arange(1, n_cells), np.arange(1, n_cells), indexing="ij")
    keep = np.ones(i.shape, dtype=bool)
    if cut_cells:
        keep &= ~((i >= n_cells - cut_cells) & (j >= n_cells - cut_cells))
    return np.column_stack([i[keep], j[keep]])


def peierls_matrix(nodes: np.ndarray, h: float, B: float) -> np.ndarray:
    """Dense magnetic 5-point matrix in the symmetric gauge A = (B/2)(-y, x).

    The link from (x, y) to (x+h, y) carries the phase -(B/2) y h, the link
    from (x, y) to (x, y+h) the phase (B/2) x h; any gauge that differs by a
    gradient has the same spectrum.
    """
    n = len(nodes)
    where = {(int(a), int(b)): p for p, (a, b) in enumerate(nodes)}
    H = np.zeros((n, n), dtype=complex)
    H[np.arange(n), np.arange(n)] = 4.0 / h**2
    for p, (a, b) in enumerate(nodes):
        for (da, db), theta in (((1, 0), -0.5 * B * b * h * h), ((0, 1), 0.5 * B * a * h * h)):
            q = where.get((int(a) + da, int(b) + db))
            if q is not None:
                H[p, q] = -np.exp(-1j * theta) / h**2
                H[q, p] = np.conj(H[p, q])
    return H


def peierls_spectrum(nodes: np.ndarray, h: float, B: float, k: int) -> np.ndarray:
    """Lowest k eigenvalues of :func:`peierls_matrix`."""
    return la.eigvalsh(peierls_matrix(nodes, h, B), subset_by_index=(0, k - 1))


def fock_darwin_levels(a: float, B: float, k: int) -> np.ndarray:
    """Lowest k eigenvalues of -Delta + a r^2 in a uniform field B on the
    plane: 2 w (2n + |m| + 1) - B m with w = sqrt(a + B^2/4)."""
    if not a > 0:
        raise ValueError("the levels accumulate unless a > 0")
    w = math.sqrt(a + B * B / 4)
    # a level with n >= top or |m| >= top is at least 2w + min(4w, 2w - |B|) top
    slope = min(4 * w, 2 * w - abs(B))
    top = k
    while True:
        n, m = np.meshgrid(np.arange(top), np.arange(-top + 1, top), indexing="ij")
        levels = np.sort((2 * w * (2 * n + np.abs(m) + 1) - B * m).ravel())[:k]
        if 2 * w + slope * top > levels[-1]:
            return levels
        top *= 2


def disk_spectrum(radius: float, count: int) -> np.ndarray:
    """First `count` Dirichlet eigenvalues (j_{n,m}/R)^2 of the disk, order
    n >= 1 counted twice, from scipy.special.jn_zeros."""
    bound = 2.0 * math.sqrt(count) + 10.0
    while True:
        vals = []
        n = 0
        while True:
            nt = 8
            zeros = special.jn_zeros(n, nt)
            if zeros[0] > bound:
                break
            while zeros[-1] <= bound:
                nt *= 2
                zeros = special.jn_zeros(n, nt)
            zeros = zeros[zeros <= bound]
            vals.extend(np.repeat((zeros / radius) ** 2, 1 if n == 0 else 2))
            n += 1
        if len(vals) >= count:
            return np.sort(vals)[:count]
        bound *= 1.2


def box_spectrum(lengths, count: int) -> np.ndarray:
    """First `count` eigenvalues pi^2 sum (m_i/L_i)^2, m_i >= 1, of a box,
    by enumerating lattice points below a growing cap one axis at a time."""
    inv = [(math.pi / float(L)) ** 2 for L in lengths]
    cap = 2.0 * sum(inv)
    while True:
        partial = np.zeros(1)
        for c in inv:
            m = np.arange(1, int(math.sqrt(cap / c)) + 1)
            partial = (partial[:, None] + c * m[None, :] ** 2).ravel()
            partial = partial[partial <= cap]
        if partial.size >= count:
            return np.sort(partial)[:count]
        cap *= 1.5
