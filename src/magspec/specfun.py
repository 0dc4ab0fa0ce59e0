"""Bessel functions, their positive zeros, and the explicit spectral constants.

All constants are expressed through the Bessel function of order
``nu = (d-2)/2`` and its first positive zero.  One routine,
:func:`bessel_zero_ladder`, finds the zeros below a bound of a ladder of
orders nu0, nu0 + 1, ... with nu0 = 0 or 1/2: one table filled by the forward
three-term recurrence brackets them, one vectorized Newton iteration refines
all of them, and a closing Newton step through ``special.jv`` checks them.
:func:`bessel_zero` is a view of it.  Supported orders are the integers and
half-integers in [0, MAX_ORDER].  J_nu itself is ``special.jv`` wherever it
is evaluated.

H_d, C_d(p) and the heat-kernel constant are each one cached function, which
the checks read and :func:`constants_table` collects.
The sharp sup-norm constants C_d(p) and the L_p norms of the radial ball
profile both rest on one radial Bessel integral, :func:`radial_bessel_integral`.
Its integrand vanishes like (j1 - r)^p at the first zero j1, so a fixed
Gauss-Jacobi rule with that weight integrates the analytic remainder to
rounding; the rule at twice the nodes must agree, or NumericalError is raised.
Each rule is built once per process and exponent.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import InputDataError, NumericalError

__all__ = [
    "MAX_ORDER",
    "MIN_DIM",
    "MAX_DIM",
    "ConstantsTable",
    "bessel_zero",
    "bessel_zero_ladder",
    "radial_bessel_integral",
    "unit_ball_volume",
    "sphere_area",
    "ratio_constant",
    "chiti_constant",
    "heat_kernel_constant",
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
#: Largest relative step of the closing Newton step through special.jv.
_CHECK_RTOL = 1e-13
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


def _seeds(nu0: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J_nu0(x) and J_{nu0+1}(x) for nu0 = 0 (j0, j1) or nu0 = 1/2 (elementary forms)."""
    if nu0 == 0:
        return special.j0(x), special.j1(x)
    amp, s = np.sqrt(2 / (np.pi * x)), np.sin(x)
    return amp * s, amp * (s / x - np.cos(x))


def _recurrence(nu0: float, x: np.ndarray, starts):
    """Run J_{nu+1}(x) = (2 nu / x) J_nu(x) - J_{nu-1}(x) forward from nu = nu0.

    Step m = 1, 2, ... moves the points x[starts[m-1]:] from the pair
    (J_{nu0+m-1}, J_{nu0+m}) to (J_{nu0+m}, J_{nu0+m+1}) and leaves the rest.
    Yields the pair of arrays before the first step and after each step.  The
    recurrence is stable while the order stays below x (Gautschi, SIAM Rev. 9
    (1967)), so callers advance only points with x > nu0 + m at step m.
    """
    a, b = _seeds(nu0, x)
    yield a, b
    for m, s in enumerate(starts, 1):
        a[s:], b[s:] = b[s:], 2 * (nu0 + m) / x[s:] * b[s:] - a[s:]
        yield a, b


def bessel_zero_ladder(low: float, high: float, x_max: float) -> list[np.ndarray]:
    """Every positive zero up to x_max of J_nu for nu = low, low + 1, ..., high:
    one ascending array per order, accurate to better than 1e-10.

    One table of J_nu on a 0.5-step grid, filled by forward recurrence from
    nu0 = low mod 1 in the cells above nu, brackets every zero; one vectorized
    Newton iteration, evaluated by the same recurrence, refines the zeros of
    all orders at once.  A closing Newton step through special.jv checks the
    result: if it moves a zero by more than _CHECK_RTOL relative, NumericalError.
    """
    low, high = _check_order(low), _check_order(high)
    if high < low or (high - low) % 1:
        raise ValueError(f"orders must step by one from {low} to {high}")
    what = f"the zeros of J_{low}" + (f"..J_{high}" if high > low else "")
    nu0 = low % 1
    first, top = int(low - nu0), int(high - nu0)
    # Zeros of J_nu exceed nu and lie more than 2 apart, so each cell of the
    # grid above nu brackets at most one zero.
    grid = _SCAN_STEP * np.arange(1, math.floor(x_max / _SCAN_STEP) + 2)
    above = np.searchsorted(grid, nu0 + np.arange(top + 1), side="right")
    table = np.zeros((top - first + 1, grid.size))  # 0 where x <= nu: no sign change
    for m, (row, _) in enumerate(_recurrence(nu0, grid, above[1:])):
        if m >= first:
            table[m - first, above[m]:] = row[above[m]:]
    k, cell = np.nonzero(table[:, :-1] * table[:, 1:] < 0)  # by order, then by x
    lo, hi, f_lo, f_hi = grid[cell], grid[cell + 1], table[k, cell], table[k, cell + 1]
    x = lo - f_lo * (hi - lo) / (f_hi - f_lo)  # regula falsi
    k += first
    nu = nu0 + k
    starts = np.searchsorted(k, np.arange(1, top + 1))  # zeros of order >= nu0 + m
    for _ in range(_MAX_NEWTON):
        *_, (f, g) = _recurrence(nu0, x, starts)  # J_nu(x), J_{nu+1}(x)
        slope = nu * f / x - g
        step = f / slope
        x = x - step
        if np.any((x < lo) | (x > hi)):
            raise NumericalError(f"Newton iteration for {what} left its bracket")
        if np.all(np.abs(step) <= _ZERO_XTOL * x):
            break
    else:
        raise NumericalError(f"Newton iteration for {what} did not converge")
    step = special.jv(nu, x) / slope
    if np.any(np.abs(step) > _CHECK_RTOL * x):
        worst = float(np.max(np.abs(step) / x))
        raise NumericalError(f"{what} by recurrence are off by {worst:.2e} relative "
                             f"from special.jv")
    x = x - step
    keep = x <= x_max
    return np.split(x[keep], np.searchsorted(k[keep], np.arange(first + 1, top + 1)))


@functools.lru_cache(maxsize=None)
def bessel_zero(order: float, m: int) -> float:
    """m-th positive zero of J_order, accurate to better than 1e-10; cached per (order, m)."""
    order = _check_order(order)
    m = int(m)
    if m < 1:
        raise ValueError(f"zero index must be >= 1, got {m}")
    x_max = order + math.pi * m
    while (zeros := bessel_zero_ladder(order, order, x_max)[0]).size < m:
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
    """The explicit constants of dimension d, as reports print them: ``chiti_p`` maps
    p to :func:`chiti_constant`, and ``chiti_closed`` is its closed form at p = 2."""

    d: int
    ball_volume: float
    ratio_constant: float  # H_d, entering the lambda_1-normalized sum bounds
    chiti_closed: float
    heat_kernel: float
    chiti_p: dict[float, float]


@functools.lru_cache(maxsize=None)
def _jacobi_rule(n: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of the n-node Gauss-Jacobi rule with weight
    (1 - x)^p on [-1, 1]."""
    rule = special.roots_jacobi(n, p, 0.0)
    for a in rule:
        a.flags.writeable = False
    return rule


def radial_bessel_integral(d: int, p: float) -> float:
    """I_d(p) = int_0^j1 (J_nu(r) / r^nu)^p r^(d-1) dr with nu = (d-2)/2 and j1
    the first positive zero of J_nu.

    The integrand is (j1 - r)^p times a factor analytic on [0, j1], so a
    Gauss-Jacobi rule with weight (j1 - r)^p converges geometrically; at
    n = _GAUSS_NODES it is exact to rounding.  The rule at 2n nodes must agree
    to _GAUSS_RTOL.  A disagreement, a value that is not finite and positive
    (p so large that the integral underflows), or p so large that scipy cannot
    build the rule (above about 1e154) raises NumericalError.
    """
    nu = (d - 2) / 2.0
    j1 = bessel_zero(nu, 1)

    def rule(n: int) -> float:
        x, w = _jacobi_rule(n, p)
        r = j1 * (1 + x) / 2  # so j1 - r = j1 (1 - x) / 2
        # (J_nu(r)/r^nu)^p = 2^-p (1-x)^p f^p with f >= J_nu(r)/r^nu, so no term
        # underflows before the integrand does; 2^-p goes into the weights
        f = special.jv(nu, r) / r**nu * (2 / (1 - x))
        return j1 / 2 * float(np.dot(w * 2.0**-p, f**p * r ** (d - 1)))

    try:
        with np.errstate(over="ignore", invalid="ignore"):
            val, check = rule(_GAUSS_NODES), rule(2 * _GAUSS_NODES)
    except ValueError as exc:  # roots_jacobi overflows above p ~ 1e154
        raise NumericalError(f"radial Bessel integral I_{d}({p}) did not reach tolerance "
                             f"(no Gauss-Jacobi rule: {exc})") from exc
    if not (math.isfinite(val) and val > 0) or abs(val - check) > _GAUSS_RTOL * val:
        raise NumericalError(
            f"radial Bessel integral I_{d}({p}) did not reach tolerance "
            f"({_GAUSS_NODES} nodes: {val}, {2 * _GAUSS_NODES} nodes: {check})"
        )
    return val


def _dimension(d: int) -> int:
    d = int(d)
    if not MIN_DIM <= d <= MAX_DIM:
        raise InputDataError(f"dimension must be in [{MIN_DIM}, {MAX_DIM}], got {d}")
    return d


@functools.lru_cache(maxsize=None)
def ratio_constant(d: int) -> float:
    """H_d = 2d / (j1^2 J_{d/2}(j1)^2), j1 the first zero of J_{(d-2)/2}; cached per d."""
    d = _dimension(d)
    j1 = bessel_zero((d - 2) / 2.0, 1)
    return 2.0 * d / (j1**2 * float(special.jv(d / 2.0, j1)) ** 2)


@functools.lru_cache(maxsize=None)
def chiti_constant(d: int, p: float) -> float:
    """The sharp sup-norm constant C_d(p) = (2^(p nu) Gamma(d/2)^p |S^(d-1)| I_d(p))^(-1/p),
    nu = (d-2)/2, with the p-th powers taken out of the root against overflow; cached per (d, p).
    A value below the normal float range (at small p, C_2(p) is 0.0 below p ~ 0.0039)
    raises NumericalError."""
    if not 0 < float(p) < math.inf:
        raise InputDataError(f"Chiti exponent p must be a finite positive number, got {p}")
    d, p = _dimension(d), float(p)
    nu = (d - 2) / 2.0
    root = (sphere_area(d) * radial_bessel_integral(d, p)) ** (-1.0 / p)
    c_p = root / (2.0**nu * math.gamma(d / 2))
    if c_p < sys.float_info.min:
        raise NumericalError(f"Chiti constant C_{d}({p}) did not reach tolerance: {c_p} lies "
                             "below the normal float range")
    return c_p


@functools.lru_cache(maxsize=None)
def heat_kernel_constant(d: int) -> float:
    """The non-sharp sup-norm constant (e/(d pi))^{d/4}; cached per d."""
    d = _dimension(d)
    return (math.e / (d * math.pi)) ** (d / 4)


def constants_table(d: int, p_list: tuple[float, ...] | list[float] = (1.0, 2.0)) -> ConstantsTable:
    """The constants table for dimension d (2 <= d <= 10), C_d(p) for each p in p_list."""
    d = _dimension(d)
    j1 = bessel_zero((d - 2) / 2.0, 1)
    jd2 = float(special.jv(d / 2.0, j1))
    chiti_closed = (math.pi ** (d / 2) * 2.0 ** (d - 2) * math.gamma(d / 2) * j1**2 * jd2**2) ** -0.5
    return ConstantsTable(
        d=d,
        ball_volume=unit_ball_volume(d),
        ratio_constant=ratio_constant(d),
        chiti_closed=chiti_closed,
        heat_kernel=heat_kernel_constant(d),
        chiti_p={float(p): chiti_constant(d, p) for p in p_list},
    )
