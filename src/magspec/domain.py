"""Masked uniform grids, gauge potentials and electric potentials in 2-D.

A grid domain is the set of lattice nodes strictly inside a shape; Dirichlet
conditions are imposed by treating every node outside the mask as zero.  The
gauge and the potential are plain records, each with one formula; a gauge or
potential kind of a config (see ``harness``) sets some of their fields.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InputDataError

__all__ = [
    "Rectangle",
    "Disk",
    "LShape",
    "Annulus",
    "MaskFile",
    "GridDomain",
    "GaugeSpec",
    "PotentialSpec",
    "build_domain",
]


# ---------------------------------------------------------------------------
# shapes

@dataclass(frozen=True)
class Rectangle:
    a: float
    b: float

    def bounding_box(self):
        return (0.0, 0.0, self.a, self.b)

    def contains(self, x, y):
        return (x > 0) & (x < self.a) & (y > 0) & (y < self.b)


@dataclass(frozen=True)
class Disk:
    radius: float

    def bounding_box(self):
        r = self.radius
        return (-r, -r, r, r)

    def contains(self, x, y):
        return x * x + y * y < self.radius**2


@dataclass(frozen=True)
class LShape:
    """[0,a] x [0,b] with the closed cut x cut square removed at the top-right corner."""

    a: float
    b: float
    cut: float

    def bounding_box(self):
        return (0.0, 0.0, self.a, self.b)

    def contains(self, x, y):
        inside = (x > 0) & (x < self.a) & (y > 0) & (y < self.b)
        in_cut = (x >= self.a - self.cut) & (y >= self.b - self.cut)
        return inside & ~in_cut


@dataclass(frozen=True)
class Annulus:
    r_inner: float
    r_outer: float

    def bounding_box(self):
        r = self.r_outer
        return (-r, -r, r, r)

    def contains(self, x, y):
        rr = x * x + y * y
        return (rr > self.r_inner**2) & (rr < self.r_outer**2)


@dataclass(frozen=True)
class MaskFile:
    """CSV of 0/1 rows, row-major: row i is the grid line y = i*h, column j is x = j*h."""

    path: str


Shape = Rectangle | Disk | LShape | Annulus | MaskFile


# ---------------------------------------------------------------------------
# grid domain

@dataclass(frozen=True)
class GridDomain:
    """Uniform grid restricted to the interior of a shape.

    ``mask[ix, iy]`` flags interior nodes; ``index[ix, iy]`` is the interior
    numbering (-1 outside).  Node (ix, iy) sits at
    (origin[0] + ix*h, origin[1] + iy*h).
    """

    h: float
    dims: tuple[int, int]
    origin: tuple[float, float]
    mask: np.ndarray
    index: np.ndarray
    points: np.ndarray  # (n, 2) coordinates of interior nodes

    @property
    def n(self) -> int:
        return self.points.shape[0]


#: Most nodes a grid may have: the bounding box of a shape, or the rows x columns
#: of a mask or potential file.  A magnetic-grid pass peaks at 207 MB with 65025
#: nodes, about 3.2 kB a node, so a grid at the limit needs about 3.2 GB.
MAX_GRID_NODES = 10**6


def _load_csv_array(path: str) -> np.ndarray:
    """A CSV grid file as an array, refused once it holds more than MAX_GRID_NODES values."""
    p = Path(path)
    if not p.is_file():
        raise InputDataError(f"file not found: {path}")
    rows, count = [], 0
    try:
        with p.open(newline="") as fh:
            for row in filter(None, csv.reader(fh)):
                count += len(row)
                if count > MAX_GRID_NODES:
                    break
                rows.append([float(c) for c in row])
    except ValueError as exc:  # a cell that is no number, or bytes that are no text
        raise InputDataError(str(exc)) from exc
    if count > MAX_GRID_NODES:
        raise InputDataError(f"CSV grid {path} holds more than {MAX_GRID_NODES} values")
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise InputDataError(f"ragged or empty CSV grid: {path}")
    return np.asarray(rows, dtype=float)


def build_domain(shape: Shape, h: float) -> GridDomain:
    """Grid the bounding box of a shape and keep the strictly interior nodes."""
    if not (h > 0):
        raise ValueError(f"grid spacing must be positive, got {h}")

    if isinstance(shape, MaskFile):
        arr = _load_csv_array(shape.path)
        if not np.isin(arr, (0.0, 1.0)).all():
            raise InputDataError(f"mask file must contain only 0/1 entries: {shape.path}")
        # rows are y-lines, columns x-positions
        mask = arr.T.astype(bool)
        if mask[0, :].any() or mask[-1, :].any() or mask[:, 0].any() or mask[:, -1].any():
            raise InputDataError("mask file marks nodes on the bounding-box border as interior")
        nx, ny = mask.shape
        origin = (0.0, 0.0)
    else:
        x0, y0, x1, y1 = shape.bounding_box()
        nx = int(np.floor((x1 - x0) / h + 1e-9)) + 1
        ny = int(np.floor((y1 - y0) / h + 1e-9)) + 1
        xs = x0 + h * np.arange(nx)
        ys = y0 + h * np.arange(ny)
        mask = shape.contains(xs[:, None], ys[None, :])
        origin = (x0, y0)

    n = int(mask.sum())
    if n == 0:
        raise InputDataError(f"no interior node for {shape!r} at spacing h={h}")

    index = -np.ones(mask.shape, dtype=np.int64)
    ii, jj = np.nonzero(mask)
    index[ii, jj] = np.arange(n)
    points = np.column_stack([origin[0] + h * ii, origin[1] + h * jj])
    return GridDomain(h=float(h), dims=(mask.shape[0], mask.shape[1]), origin=origin,
                      mask=mask, index=index, points=points)


# ---------------------------------------------------------------------------
# gauge potentials

@dataclass(frozen=True)
class GaugeSpec:
    """Magnetic gauge potential A = (B/2)(-y, x) + grad chi, chi = c0*x + c1*y + c2*x*y.

    The symmetric gauge carries the uniform field B; grad chi carries no field,
    so ``chi_coeffs`` re-express the same field in another gauge.  The defaults
    give A = 0.
    """

    B: float = 0.0
    chi_coeffs: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def link_phase(self, x, y, di: int, dj: int, h: float):
        """Peierls phase of the lattice edge with midpoint (x, y) and unit step
        (di, dj) on the grid of spacing h: the midpoint rule A(x, y) . (di, dj) h.
        It is exact for these linear potentials, so the phases around a plaquette
        add up to its flux B h^2, and the reversed edge has the negated phase."""
        c0, c1, c2 = self.chi_coeffs
        ax = -0.5 * self.B * y + c0 + c2 * y
        ay = 0.5 * self.B * x + c1 + c2 * x
        return (ax * di + ay * dj) * h


# ---------------------------------------------------------------------------
# electric potentials

@dataclass(frozen=True)
class PotentialSpec:
    """Electric potential V = c + a |x - center|^2, or with ``path`` the values of a
    CSV grid file (rows are y-lines, as in mask files).  The defaults give V = 0.
    ``assemble`` refuses a V that is not finite and non-negative."""

    c: float = 0.0
    a: float = 0.0
    center: tuple[float, float] = (0.0, 0.0)
    path: str | None = None

    def sample_on(self, dom: GridDomain) -> np.ndarray:
        """Potential values at all interior nodes of a domain."""
        if self.path is None:
            x, y = dom.points.T
            return self.c + self.a * ((x - self.center[0]) ** 2 + (y - self.center[1]) ** 2)
        vals = _load_csv_array(self.path).T
        if vals.shape != dom.dims:
            raise InputDataError(
                f"potential grid {vals.shape} does not match domain grid {dom.dims}"
            )
        ii, jj = np.nonzero(dom.mask)
        return vals[ii, jj]
