"""Eigenfunction analysis: rearrangement, the radial ball profile, and
sup-norm bounds.

The decreasing rearrangement of a grid function is taken in set-measure
coordinates: sort the moduli, attach cell areas.  This is exactly
equimeasurable with the original function, with no radial binning error.
``decreasing_rearrangement`` takes any grid function and its spacing h.
The checks take a grid spectrum and read lambda_1, its ground state omega,
h, d and |Omega| from it; on a spectrum without a ground state they raise
ValueError.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from .bounds import BoundCheck, _ground_state, _make_check
from .eigensolve import Spectrum
from .specfun import bessel_zero, chiti_constant, heat_kernel_constant, unit_ball_volume

__all__ = [
    "decreasing_rearrangement",
    "z_profile",
    "chiti_check",
    "comparison_check",
    "rearrangement_ode_check",
]


def decreasing_rearrangement(omega: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """The non-increasing profile u of |omega| over the set-measure coordinate s,
    as arrays (s, u): u[i] is the value on the cell (s[i] - h^2, s[i]]."""
    u = np.sort(np.abs(np.asarray(omega)))[::-1]
    return h**2 * np.arange(1, u.size + 1), u.astype(float)


def z_profile(lam: float, d: int, r) -> np.ndarray | float:
    """Radial ground-state profile r^{-(d-2)/2} J_{(d-2)/2}(sqrt(lam) r) of the
    ball whose lowest Dirichlet eigenvalue is lam; zero outside that ball."""
    if lam <= 0:
        raise ValueError(f"eigenvalue must be positive, got {lam}")
    nu = (d - 2) / 2.0
    r = np.asarray(r, dtype=float)
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    if (r < 0).any():
        raise ValueError("radius must be non-negative")
    r_ball = bessel_zero(nu, 1) / math.sqrt(lam)
    out = np.zeros_like(r)
    inside = r < r_ball
    pos = inside & (r > 0)
    out[pos] = r[pos] ** -nu * special.jv(nu, math.sqrt(lam) * r[pos])
    # r -> 0 limit of r^-nu J_nu(sqrt(lam) r)
    out[inside & (r == 0)] = lam ** (nu / 2) * 2.0**-nu / math.gamma(d / 2)
    return float(out[0]) if scalar else out


def chiti_check(spec: Spectrum, p: float = 2.0) -> list[BoundCheck]:
    """Sharp and heat-kernel sup-norm bounds for the ground state omega of spec, lam = lambda_1:
    ||omega||_inf <= C_d(p) lam^{d/2p} ||omega||_p  and
    ||omega||_inf <= (e/(d pi))^{d/4} lam^{d/4} ||omega||_2, both with zero slack.
    The L_p norms weigh each node by the cell area h^2.  A grid spacing h <= 0
    and a zero ground state raise ValueError."""
    p, lam, d, h = float(p), float(spec.values[0]), spec.d, spec.h
    c_p, heat = chiti_constant(d, p), heat_kernel_constant(d)
    mod = np.abs(_ground_state(spec))
    if h <= 0:
        raise ValueError(f"grid spacing must be positive, got {h}")
    sup = float(mod.max(initial=0.0))
    if sup == 0.0:
        raise ValueError("cannot take norms of the zero vector")
    norm_p, norm_2 = (float((np.sum(mod ** q) * h**2) ** (1.0 / q)) for q in (p, 2.0))
    ctx = {"lambda": lam, "d": d, "p": p, "sup_norm": sup}
    rhs_sharp = c_p * lam ** (d / (2 * p)) * norm_p
    rhs_heat = heat * lam ** (d / 4) * norm_2
    return [_make_check("chiti-sup-bound", sup, rhs_sharp, 0.0, ctx),
            _make_check("heat-kernel-sup-bound", sup, rhs_heat, 0.0, ctx)]


#: Slack of profile domination, relative to the profile's sup norm z(0).
DOMINATION_RTOL = 0.02


def comparison_check(spec: Spectrum) -> list[BoundCheck]:
    """Check that the ball with lowest Dirichlet eigenvalue lam = lambda_1 fits in
    the equal-measure ball of the domain (``ball-inclusion``, whose lhs is that
    ball's measure), and that the rearranged ground state dominates the radial
    profile on that ball after matching sup norms (``profile-domination``)."""
    omega = _ground_state(spec)
    lam, d, h, measure = float(spec.values[0]), spec.d, spec.h, spec.measure
    nu = (d - 2) / 2.0
    v_d = unit_ball_volume(d)
    r_ball = bessel_zero(nu, 1) / math.sqrt(lam)
    ball_measure = v_d * r_ball**d

    # one boundary layer of cells around the larger ball
    inclusion_slack = 10.0 * h * max(measure, ball_measure) ** ((d - 1) / d)
    inclusion = _make_check("ball-inclusion", ball_measure, measure, inclusion_slack,
                            {"lambda": lam, "d": d, "h": h})

    s, u = decreasing_rearrangement(omega, h)
    z0 = float(z_profile(lam, d, 0.0))
    scale = z0 / u[0]
    in_ball = s <= ball_measure
    v_vals = z_profile(lam, d, (s[in_ball] / v_d) ** (1.0 / d))
    gap = scale * u[in_ball] - v_vals
    min_margin = float(gap.min()) if gap.size else 0.0
    slack = DOMINATION_RTOL * z0
    domination = _make_check("profile-domination", -min_margin, 0.0, slack,
                             {"lambda": lam, "d": d, "nodes_compared": int(gap.size), "tol": slack})
    return [inclusion, domination]


def rearrangement_ode_check(spec: Spectrum) -> BoundCheck:
    """Diagnostic check of the rearrangement slope inequality
    -u'(s) <= d^{-2} v_d^{-2/d} lam s^{-2+2/d} int_0^s u(t) dt
    for the decreasing rearrangement u of the ground state of spec, lam = lambda_1.

    Slopes are differenced over a window of cells and compared against the
    bound at the window midpoint with a trapezoid-consistent integral.
    Differentiating a sorted grid profile amplifies O(h) interface noise, so
    the window is n/100 cells (at least one), the relative slack is
    max(1e-6, 40 h), and up to 5% of the windows may violate the bound; this
    is a flagged diagnostic, not a hard gate.
    """
    lam, d = float(spec.values[0]), spec.d
    s, u = decreasing_rearrangement(_ground_state(spec), spec.h)
    n = s.size
    ctx = {"lambda": lam, "d": d, "nodes": int(n)}
    if n < 10:
        return _make_check("rearrangement-slope", math.nan, math.nan, 0.0,
                           {**ctx, "note": "fewer than 10 profile nodes"},
                           applicable=False, diagnostic=True)
    if u[-1] > 0.5 * u[0]:
        # an eigenfunction profile decays to zero at the domain measure
        return _make_check("rearrangement-slope", math.nan, math.nan, 0.0,
                           {**ctx, "note": "profile does not decay; not an eigenfunction"},
                           applicable=False, diagnostic=True)
    v_d = unit_ball_volume(d)
    cell = float(s[0])
    window = max(1, n // 100)
    slack_rtol = max(1e-6, 40.0 * math.sqrt(cell))

    trap = np.cumsum(u) * cell + (u[0] - u) * cell / 2  # int_0^{s_j} u, trapezoid
    idx = np.arange(0, n - window)
    slopes = (u[idx] - u[idx + window]) / (window * cell)
    s_mid = 0.5 * (s[idx] + s[idx + window])
    integral_mid = np.interp(s_mid, s, trap)
    rhs = d**-2 * v_d ** (-2 / d) * lam * s_mid ** (-2 + 2 / d) * integral_mid
    violations = slopes > rhs * (1 + slack_rtol) + 1e-12
    fraction = float(np.count_nonzero(violations)) / slopes.size
    return _make_check("rearrangement-slope", fraction, 0.05, 0.0,
                       {**ctx, "violating_fraction": fraction, "window": int(window),
                        "slack_rtol": float(slack_rtol)}, diagnostic=True)
