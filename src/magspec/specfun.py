"""Bessel functions, their positive zeros, and the explicit spectral constants.

All constants are expressed through the Bessel function of order
``nu = (d-2)/2`` and its first positive zero.  The zeros of one order below a
bound come from one sign scan refined by vectorized Newton steps; nothing is
cached.  Supported orders are the integers and half-integers in [0, MAX_ORDER].

The sharp sup-norm constants C_d(p) and the L_p norms of the radial ball
profile both rest on one radial Bessel integral, :func:`radial_bessel_integral`.
Its integrand vanishes like (j1 - r)^p at the first zero j1, so a fixed
Gauss-Jacobi rule with that weight integrates the analytic remainder to
rounding; the rule at twice the nodes must agree, or NumericalError is raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .errors import NumericalError

__all__ = [
    "MAX_ORDER",
    "MIN_DIM",
    "MAX_DIM",
    "ConstantsTable",
    "bessel_j",
    "bessel_zero",
    "bessel_zeros",
    "radial_bessel_integral",
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
_MAX_NEWTON = 20
#: Nodes of the Gauss-Jacobi rule; the check uses twice as many.
_GAUSS_NODES = 40
#: Largest relative difference accepted between the two rules.
_GAUSS_RTOL = 1e-10


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


def bessel_zeros(order: float, x_max: float) -> np.ndarray:
    """Every positive zero of J_order up to x_max, ascending, accurate to better than 1e-10."""
    order = _check_order(order)
    # Zeros of J_nu exceed nu and lie more than 2 apart, so each cell of a
    # 0.5-step grid from nu brackets at most one zero.
    grid = np.arange(max(order, 1e-8), x_max + _SCAN_STEP, _SCAN_STEP)
    vals = special.jv(order, grid)
    cell = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    lo, hi, f_lo, f_hi = grid[cell], grid[cell + 1], vals[cell], vals[cell + 1]
    x = lo - f_lo * (hi - lo) / (f_hi - f_lo)  # regula falsi
    for _ in range(_MAX_NEWTON):
        f = special.jv(order, x)
        step = f / (special.jv(order - 1, x) - order * f / x)
        x = x - step
        if np.any((x < lo) | (x > hi)):
            raise NumericalError(f"Newton iteration for the zeros of J_{order} left its bracket")
        if np.all(np.abs(step) <= _ZERO_XTOL * x):
            return x[x <= x_max]
    raise NumericalError(f"Newton iteration for the zeros of J_{order} did not converge")


def bessel_zero(order: float, m: int) -> float:
    """m-th positive zero of J_order, accurate to better than 1e-10."""
    order = _check_order(order)
    m = int(m)
    if m < 1:
        raise ValueError(f"zero index must be >= 1, got {m}")
    x_max = order + math.pi * m
    while (zeros := bessel_zeros(order, x_max)).size < m:
        x_max *= 2
    return float(zeros[m - 1])


def unit_ball_volume(d: int) -> float:
    """Volume of the unit ball in d dimensions."""
    return math.pi ** (d / 2) / math.gamma(1 + d / 2)


def sphere_area(d: int) -> float:
    """Surface area of the unit sphere in d dimensions."""
    return d * unit_ball_volume(d)


@dataclass(frozen=True)
class ConstantsTable:
    """All explicit constants of the eigenvalue bounds in dimension d.

    ``chiti_p`` maps p > 0 to the sharp sup-norm constant C_d(p), computed
    from :func:`radial_bessel_integral`; ``chiti_closed`` is its closed form
    at p = 2 and ``heat_kernel`` the non-sharp constant (e/(d pi))^{d/4}.
    """

    d: int
    ball_volume: float
    ratio_constant: float  # H_d, entering the lambda_1-normalized sum bounds
    chiti_closed: float
    heat_kernel: float
    chiti_p: dict[float, float] = field(default_factory=dict)


def radial_bessel_integral(d: int, p: float) -> float:
    """I_d(p) = int_0^j1 (J_nu(r) / r^nu)^p r^(d-1) dr with nu = (d-2)/2 and j1
    the first positive zero of J_nu.

    The integrand is (j1 - r)^p times a factor analytic on [0, j1], so a
    Gauss-Jacobi rule with weight (j1 - r)^p converges geometrically; at
    n = _GAUSS_NODES it is exact to rounding.  The rule at 2n nodes must agree
    to _GAUSS_RTOL.  A disagreement, or a value that is not finite and positive
    (p so large that the integral underflows), raises NumericalError.
    """
    nu = (d - 2) / 2.0
    j1 = bessel_zero(nu, 1)

    def rule(n: int) -> float:
        x, w = special.roots_jacobi(n, p, 0.0)  # weight (1 - x)^p on [-1, 1]
        r = j1 * (1 + x) / 2  # so j1 - r = j1 (1 - x) / 2
        # (J_nu(r)/r^nu)^p = 2^-p (1-x)^p f^p with f >= J_nu(r)/r^nu, so no term
        # underflows before the integrand does; 2^-p goes into the weights
        f = special.jv(nu, r) / r**nu * (2 / (1 - x))
        return j1 / 2 * float(np.dot(w * 2.0**-p, f**p * r ** (d - 1)))

    with np.errstate(over="ignore", invalid="ignore"):
        val, check = rule(_GAUSS_NODES), rule(2 * _GAUSS_NODES)
    if not (math.isfinite(val) and val > 0) or abs(val - check) > _GAUSS_RTOL * val:
        raise NumericalError(
            f"radial Bessel integral I_{d}({p}) did not reach tolerance "
            f"({_GAUSS_NODES} nodes: {val}, {2 * _GAUSS_NODES} nodes: {check})"
        )
    return val


def _chiti_quadrature(d: int, p: float) -> float:
    """C_d(p) = (2^(p nu) Gamma(d/2)^p |S^(d-1)| I_d(p))^(-1/p), with the p-th
    powers taken out of the root so that none can overflow."""
    nu = (d - 2) / 2.0
    root = (sphere_area(d) * radial_bessel_integral(d, p)) ** (-1.0 / p)
    return root / (2.0**nu * math.gamma(d / 2))


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
