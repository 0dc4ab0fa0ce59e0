"""Bessel functions, their positive zeros, and the explicit spectral constants.

All constants are expressed through the Bessel function of order
``nu = (d-2)/2`` and its first positive zero.  Supported orders are the
non-negative integers and half-integers up to :data:`MAX_ORDER`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate, special

from .errors import NumericalError

__all__ = [
    "MAX_ORDER",
    "MIN_DIM",
    "MAX_DIM",
    "ConstantsTable",
    "bessel_j",
    "bessel_zero",
    "unit_ball_volume",
    "sphere_area",
    "constants_table",
]

#: Largest supported Bessel order (disk spectra need high integer orders).
MAX_ORDER = 300.0

#: Supported ambient dimensions for the constants table.
MIN_DIM = 2
MAX_DIM = 10

_SCAN_STEP = 0.5
_ZERO_XTOL = 1e-14


def _check_order(order: float) -> float:
    order = float(order)
    if not math.isfinite(order) or order < 0:
        raise ValueError(f"Bessel order must be a finite non-negative real, got {order}")
    if abs(2 * order - round(2 * order)) > 1e-12:
        raise ValueError(f"only integer and half-integer orders are supported, got {order}")
    if order > MAX_ORDER:
        raise ValueError(f"order {order} exceeds the supported maximum {MAX_ORDER}")
    return order


def bessel_j(order: float, x):
    """Evaluate J_order at x >= 0 (scalar or array).

    Orders are restricted to the integer/half-integer grid up to
    :data:`MAX_ORDER`; values are accurate to about 1e-12 absolute on [0, 50].
    """
    order = _check_order(order)
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("argument of bessel_j must be finite")
    if np.any(x < 0):
        raise ValueError("argument of bessel_j must be non-negative")
    out = special.jv(order, x)
    if out.ndim == 0:
        return float(out)
    return out


def _bessel_j_prime(order: float, x: float) -> float:
    if order == 0:
        return -special.jv(1, x)
    return 0.5 * (special.jv(order - 1, x) - special.jv(order + 1, x))


# zeros found so far, per order; extended on demand
_zeros_cache: dict[float, list[float]] = {}


def bessel_zero(order: float, m: int) -> float:
    """m-th positive zero of J_order, accurate to better than 1e-10."""
    order = _check_order(order)
    m = int(m)
    if m < 1:
        raise ValueError(f"zero index must be >= 1, got {m}")
    zeros = _zeros_cache.setdefault(order, [])
    while len(zeros) < m:
        _extend_zeros(order, zeros, m)
    return zeros[m - 1]


def _extend_zeros(order: float, zeros: list[float], m: int) -> None:
    # Zeros of J_nu exceed nu and are asymptotically pi-spaced, so a 0.5-step
    # sign scan cannot skip one.
    start = zeros[-1] if zeros else max(order, 1e-8)
    needed = m - len(zeros)
    span = _SCAN_STEP * max(8, int(math.pi / _SCAN_STEP * (needed + 4)))
    grid = np.arange(start, start + span + _SCAN_STEP, _SCAN_STEP)
    vals = special.jv(order, grid)
    sign_change = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    if sign_change.size == 0:
        raise NumericalError(
            f"no sign change of J_{order} found on [{grid[0]:.3g}, {grid[-1]:.3g}]"
        )
    from scipy.optimize import brentq

    for i in sign_change:
        root = brentq(lambda x: special.jv(order, x), grid[i], grid[i + 1], xtol=_ZERO_XTOL)
        # two Newton polish steps
        for _ in range(2):
            d = _bessel_j_prime(order, root)
            if d != 0.0:
                root -= special.jv(order, root) / d
        if not zeros or root > zeros[-1] + 1e-9:
            zeros.append(float(root))
        if len(zeros) >= m:
            return


def unit_ball_volume(d: int) -> float:
    """Volume of the unit ball in d dimensions."""
    return math.pi ** (d / 2) / math.gamma(1 + d / 2)


def sphere_area(d: int) -> float:
    """Surface area of the unit sphere in d dimensions."""
    return d * unit_ball_volume(d)


@dataclass(frozen=True)
class ConstantsTable:
    """All explicit constants of the eigenvalue bounds in dimension d.

    ``chiti_p`` maps p > 0 to the sharp sup-norm constant obtained by
    quadrature; ``chiti_closed`` is its closed form at p = 2 and
    ``heat_kernel`` the non-sharp constant (e/(d pi))^{d/4}.
    """

    d: int
    ball_volume: float
    ratio_constant: float  # H_d, entering the lambda_1-normalized sum bounds
    chiti_closed: float
    heat_kernel: float
    chiti_p: dict[float, float] = field(default_factory=dict)


def _chiti_quadrature(d: int, p: float) -> float:
    """C_d(p) by adaptive quadrature of the radial Bessel integral."""
    nu = (d - 2) / 2.0
    j1 = bessel_zero(nu, 1)
    gam = math.gamma(nu + 1)

    def integrand(r: float) -> float:
        # (J_nu(r) / r^nu)^p * r^(d-1); the factor has a finite r->0 limit
        if r == 0.0:
            return 0.0 if d > 1 else (2.0**-nu / gam) ** p
        return (special.jv(nu, r) / r**nu) ** p * r ** (d - 1)

    val, err = integrate.quad(integrand, 0.0, j1, epsabs=0.0, epsrel=1e-12, limit=200)
    if not math.isfinite(val) or val <= 0 or err > 1e-9 * abs(val):
        raise NumericalError(
            f"quadrature for C_{d}({p}) did not reach tolerance (value {val}, error {err})"
        )
    norm = 2.0 ** (p * nu) * math.gamma(d / 2) ** p * sphere_area(d) * val
    return norm ** (-1.0 / p)


def constants_table(d: int, p_list: tuple[float, ...] | list[float] = (1.0, 2.0)) -> ConstantsTable:
    """Compute the full constants table for dimension d (2 <= d <= 10)."""
    d = int(d)
    if not MIN_DIM <= d <= MAX_DIM:
        raise ValueError(f"dimension must be in [{MIN_DIM}, {MAX_DIM}], got {d}")
    for p in p_list:
        if not (float(p) > 0):
            raise ValueError(f"Chiti exponent p must be positive, got {p}")

    nu = (d - 2) / 2.0
    j1 = bessel_zero(nu, 1)
    jd2 = bessel_j(d / 2.0, j1)
    v_d = unit_ball_volume(d)
    ratio_c = 2.0 * d / (j1**2 * jd2**2)
    chiti_closed = (math.pi ** (d / 2) * 2.0 ** (d - 2) * math.gamma(d / 2) * j1**2 * jd2**2) ** -0.5
    heat = (math.e / (d * math.pi)) ** (d / 4)
    chiti_p = {float(p): _chiti_quadrature(d, float(p)) for p in p_list}
    return ConstantsTable(
        d=d,
        ball_volume=v_d,
        ratio_constant=ratio_c,
        chiti_closed=chiti_closed,
        heat_kernel=heat,
        chiti_p=chiti_p,
    )
