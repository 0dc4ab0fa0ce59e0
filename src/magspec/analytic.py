"""Exact Dirichlet Laplacian spectra for boxes and disks."""

from __future__ import annotations

import math

import numpy as np

from .eigensolve import Spectrum
from .errors import InputDataError, NumericalError
from .specfun import bessel_zero_ladder, unit_ball_volume

__all__ = ["box_spectrum", "disk_spectrum"]

_MAX_BOX_COUNT = 10**6
_MAX_DISK_COUNT = 10**4
_MAX_ENUMERATION = 5 * 10**7


def box_spectrum(lengths, count: int) -> Spectrum:
    """First eigenvalues pi^2 sum_i (m_i/L_i)^2, m_i >= 1, with multiplicity."""
    lengths = [float(L) for L in lengths]
    d = len(lengths)
    if not 2 <= d <= 5:
        raise InputDataError(f"box dimension must lie in [2, 5], got {d}")
    if any(L <= 0 for L in lengths):
        raise InputDataError(f"box lengths must be positive, got {lengths}")
    count = int(count)
    if not 1 <= count <= _MAX_BOX_COUNT:
        raise InputDataError(f"count must lie in [1, {_MAX_BOX_COUNT}], got {count}")

    measure = math.prod(lengths)
    # initial cap from the Weyl growth rate, grown until enough modes fit
    base = math.pi**2 * sum(1 / L**2 for L in lengths)
    cap = base + 4 * math.pi**2 * unit_ball_volume(d) ** (-2 / d) * measure ** (-2 / d) \
        * (count ** (2 / d) + d)
    while True:
        ranges = [int(math.floor(L * math.sqrt(cap) / math.pi)) for L in lengths]
        total = math.prod(max(r, 1) for r in ranges)
        if total > _MAX_ENUMERATION:
            raise NumericalError(f"box enumeration bound {total} exceeds the supported size")
        if all(r >= 1 for r in ranges):
            # sums over one more axis at a time, added in axis order; every term
            # is positive, so a partial sum above cap only grows and is dropped
            vals = np.zeros(1)
            for L, r in zip(lengths, ranges):
                terms = (math.pi**2 / L**2) * np.arange(1, r + 1, dtype=float) ** 2
                vals = np.add.outer(vals, terms)
                vals = vals[vals <= cap]
            if vals.size >= count:
                vals.sort()
                return Spectrum(d=d, values=vals[:count], measure=measure)
        cap *= 1.5


def disk_spectrum(R: float, count: int) -> Spectrum:
    """First eigenvalues (j_{n,m}/R)^2 of the disk, angular order n >= 1 doubled."""
    R = float(R)
    if R <= 0:
        raise InputDataError(f"disk radius must be positive, got {R}")
    count = int(count)
    if not 1 <= count <= _MAX_DISK_COUNT:
        raise InputDataError(f"count must lie in [1, {_MAX_DISK_COUNT}], got {count}")

    # zeros j <= X number about X^2/4 with multiplicity
    X = 2.0 * math.sqrt(count) + 10.0
    while True:
        # j_{n,1} > n: no order above X has a zero below X
        zeros = bessel_zero_ladder(0, int(X), X)
        vals = np.sort(np.concatenate([np.repeat((z / R) ** 2, 1 if n == 0 else 2)
                                       for n, z in enumerate(zeros)]))
        if vals.size >= count:
            return Spectrum(d=2, values=vals[:count], measure=math.pi * R**2)
        X *= 1.2
