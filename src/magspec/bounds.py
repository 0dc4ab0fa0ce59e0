"""Eigenvalue inequality checks with signed margins.

Every check states its inequality as lhs <= rhs and returns a
:class:`BoundCheck` whose margin is rhs - lhs, so a non-negative margin means
the inequality holds.  A margin in (-slack, 0) still passes, flagged as a
tolerance pass.  A check takes a spectrum and its parameter k or lambda, and
reads everything else from the spectrum: d, |Omega|, the grid spacing h and,
for the sup-norm bound, the ground state.  It computes its own slack from the
size of its inequality: ``discrete_slack(spec.h, scale)`` on a grid spectrum,
which absorbs the discretization error, and ``ANALYTIC_SLACK_RTOL * |scale|``
on an exact one (``spec.h`` None).  ``harness.CHECKS`` maps each config check
name to its call.

Berezin--Li--Yau bounds the Riesz mean by the Weyl term,
sum_j (lambda - lambda_j)_+ <= (2/(d+2)) v_d (2 pi)^{-d} |Omega| lambda^{1+d/2},
with v_d the volume of the unit ball.  Li--Yau is its Legendre transform,
sum_{j<=k} lambda_j >= 4 pi^2 (d/(d+2)) (v_d |Omega|)^{-2/d} k^{1+2/d}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .eigensolve import Spectrum
from .errors import TruncationError
from .specfun import ratio_constant, unit_ball_volume

__all__ = [
    "BoundCheck",
    "riesz_mean",
    "check_berezin_li_yau",
    "check_li_yau",
    "check_riesz_lower",
    "check_shifted_sum_upper",
    "check_ratio_bounds",
    "check_yang",
    "check_yang_corollaries",
    "check_sup_norm_riesz_lower",
    "ANALYTIC_SLACK_RTOL",
    "discrete_slack",
]

#: Relative slack applied to checks on exact (analytic) spectra.
ANALYTIC_SLACK_RTOL = 1e-10

_TINY = 1e-300


def discrete_slack(h: float, scale: float) -> float:
    """Slack for checks on grid spectra: discretization error is O(h^2)."""
    return max(1e-8, 10.0 * h**2 * abs(scale))


def _slack(spec: Spectrum, scale: float) -> float:
    """Slack of a check of size ``scale`` on spec: on its grid, or exact when spec.h is None."""
    return ANALYTIC_SLACK_RTOL * abs(scale) if spec.h is None else discrete_slack(spec.h, scale)


def _ground_state(spec: Spectrum) -> np.ndarray:
    """The unit-L2 ground state of a grid spectrum; a ValueError on one without it."""
    if spec.ground_state is None:
        raise ValueError("this check needs a grid spectrum with its ground state")
    return spec.ground_state


def _checked_k(spec: Spectrum, k, plus_one: bool = False) -> int:
    """k as an int, checked to index lambda_k of spec or, with ``plus_one``, lambda_(k+1)."""
    k, top = int(k), len(spec) - plus_one
    if not 1 <= k <= top:
        raise ValueError(f"need 1 <= k <= {top}{' for lambda_(k+1)' if plus_one else ''}, "
                         f"got {k}")
    return k


@dataclass(frozen=True)
class BoundCheck:
    """One inequality verdict; pass iff margin >= -slack."""

    name: str
    lhs: float
    rhs: float
    margin: float
    relative_margin: float
    slack: float
    passed: bool
    tolerance_pass: bool = False
    applicable: bool = True
    diagnostic: bool = False
    context: dict = field(default_factory=dict)


def _make_check(name: str, lhs: float, rhs: float, slack: float, context: dict,
                applicable: bool = True, diagnostic: bool = False) -> BoundCheck:
    """The verdict on lhs <= rhs, whose margin is rhs - lhs."""
    margin = rhs - lhs
    scale = max(abs(lhs), abs(rhs), _TINY)
    return BoundCheck(name=name, lhs=float(lhs), rhs=float(rhs), margin=float(margin),
                      relative_margin=float(margin / scale), slack=float(slack),
                      passed=bool(applicable is False or margin >= -slack),
                      tolerance_pass=bool(applicable and -slack <= margin < 0),
                      applicable=applicable, diagnostic=diagnostic, context=context)


def riesz_mean(spec: Spectrum, lam: float) -> float:
    """Sum of (lam - lambda_j)_+ over the available eigenvalues."""
    if len(spec) == 0:
        raise ValueError("spectrum is empty")
    lam = float(lam)
    if lam < 0:
        raise ValueError(f"spectral parameter must be >= 0, got {lam}")
    if spec.values[-1] < lam:
        raise TruncationError(
            f"spectrum reaches only {spec.values[-1]:.6g} < lambda = {lam:.6g}; "
            "the Riesz mean would be undercounted"
        )
    return float(np.maximum(lam - spec.values, 0.0).sum())


def check_berezin_li_yau(spec: Spectrum, lam: float) -> BoundCheck:
    """Riesz mean <= (2/(d+2)) v_d (2 pi)^{-d} |Omega| lambda^{1+d/2}."""
    d, measure = spec.d, spec.measure
    lhs = riesz_mean(spec, lam)
    rhs = 2.0 / (d + 2) * unit_ball_volume(d) / (2 * math.pi) ** d * measure \
        * lam ** (1 + d / 2)
    return _make_check("berezin-li-yau", lhs, rhs, _slack(spec, rhs),
                       {"lambda": lam, "d": d, "measure": measure})


def check_li_yau(spec: Spectrum, k: int) -> BoundCheck:
    """sum_{j<=k} lambda_j >= (4 pi^2 d/(d+2)) v_d^{-2/d} |Omega|^{-2/d} k^{1+2/d}."""
    d, measure = spec.d, spec.measure
    k = _checked_k(spec, k)
    lhs = (4 * math.pi**2 * d / (d + 2)) * unit_ball_volume(d) ** (-2 / d) \
        * measure ** (-2 / d) * k ** (1 + 2 / d)
    rhs = float(spec.values[:k].sum())
    return _make_check("li-yau", lhs, rhs, _slack(spec, rhs), {"k": k, "d": d, "measure": measure})


def check_riesz_lower(spec: Spectrum, lam: float) -> BoundCheck:
    """Riesz mean >= (2/(d+2)) H_d^{-1} lambda_1^{-d/2} (lambda-lambda_1)_+^{1+d/2}."""
    d = spec.d
    hd = ratio_constant(d)
    lam1 = float(spec.values[0])
    rhs = riesz_mean(spec, lam)
    lhs = (2.0 / (d + 2)) / hd * lam1 ** (-d / 2) \
        * max(lam - lam1, 0.0) ** (1 + d / 2)
    return _make_check("riesz-mean-lower", lhs, rhs,
                       _slack(spec, lam ** (1 + d / 2) / lam1 ** (d / 2)),
                       {"lambda": lam, "d": d, "lambda_1": lam1, "H_d": hd})


def check_shifted_sum_upper(spec: Spectrum, k: int) -> BoundCheck:
    """sum_{j<=k}(lambda_j - lambda_1) <= (d/(d+2)) H_d^{2/d} lambda_1 k^{1+2/d}."""
    d = spec.d
    k = _checked_k(spec, k)
    hd = ratio_constant(d)
    lam1 = float(spec.values[0])
    lhs = float((spec.values[:k] - lam1).sum())
    rhs = (d / (d + 2)) * hd ** (2 / d) * lam1 * k ** (1 + 2 / d)
    return _make_check("shifted-sum-upper", lhs, rhs, _slack(spec, lam1 * k ** (1 + 2 / d)),
                       {"k": k, "d": d, "lambda_1": lam1, "H_d": hd})


def check_ratio_bounds(spec: Spectrum, k: int) -> list[BoundCheck]:
    """The three explicit upper bounds on lambda_{k+1}/lambda_1."""
    d = spec.d
    k = _checked_k(spec, k, plus_one=True)
    hd = ratio_constant(d)
    lam1 = float(spec.values[0])
    lhs = float(spec.values[k])
    slack = _slack(spec, lhs)
    ctx = {"k": k, "d": d, "lambda_1": lam1, "H_d": hd}
    rhs_direct = lam1 * (1 + (1 + d / 2) ** (2 / d) * hd ** (2 / d) * k ** (2 / d))
    rhs_sum = lam1 * (1 + 4 / d) * (1 + d / (d + 2) * hd ** (2 / d) * k ** (2 / d))
    try:
        rhs_ppw = lam1 * (1 + 4 / d) ** k
    except OverflowError:
        rhs_ppw = math.inf
    if math.isfinite(rhs_ppw):
        ppw = _make_check("ratio-ppw", lhs, rhs_ppw, slack, ctx)
    else:
        ppw = _make_check("ratio-ppw", math.nan, math.nan, slack,
                          {**ctx, "note": "(1+4/d)^k lambda_1 exceeds the float range"},
                          applicable=False)
    return [_make_check("ratio-direct", lhs, rhs_direct, slack, ctx),
            _make_check("ratio-via-sum", lhs, rhs_sum, slack, ctx), ppw]


def check_yang(spec: Spectrum, k: int) -> BoundCheck:
    """sum_{j<=k} (lambda_{k+1}-lambda_j)(lambda_{k+1}-(1+4/d) lambda_j) <= 0."""
    d = spec.d
    k = _checked_k(spec, k, plus_one=True)
    lam = spec.values[: k + 1]
    lhs = float(((lam[k] - lam[:k]) * (lam[k] - (1 + 4 / d) * lam[:k])).sum())
    return _make_check("yang", lhs, 0.0, _slack(spec, float(lam[k]) ** 2 * k),
                       {"k": k, "d": d, "lambda_1": float(lam[0])})


def check_yang_corollaries(spec: Spectrum, k: int) -> list[BoundCheck]:
    """Second Yang, Hile-Protter and Payne-Polya-Weinberger consequences.

    Hile-Protter divides by the gaps lambda_{k+1} - lambda_j; when the top gap
    closes within tolerance the check is reported not-applicable rather than
    evaluated with a near-zero denominator.
    """
    d = spec.d
    k = _checked_k(spec, k, plus_one=True)
    lam = spec.values[: k + 1]
    mean = float(lam[:k].mean())
    slack = _slack(spec, lam[k])
    ctx = {"k": k, "d": d, "lambda_1": float(lam[0])}

    y = _make_check("yang-second", float(lam[k]), (1 + 4 / d) * mean, slack, ctx)

    gaps = lam[k] - lam[:k]
    degenerate = gaps[-1] <= 1e-8 * lam[k]
    if degenerate:
        hp = _make_check("hile-protter", math.nan, math.nan, slack,
                         {**ctx, "note": "top gap degenerate"}, applicable=False)
    else:
        hp_lhs = d / 4.0
        hp_rhs = float((lam[:k] / gaps).mean())
        hp = _make_check("hile-protter", hp_lhs, hp_rhs, slack, ctx)

    ppw = _make_check("ppw-gap", float(lam[k] - lam[k - 1]), (4 / d) * mean, slack, ctx)
    return [y, hp, ppw]


def check_sup_norm_riesz_lower(spec: Spectrum, lam: float) -> BoundCheck:
    """Riesz mean >= (2 v_d/((d+2)(2 pi)^d)) ||omega||_inf^{-2} (lambda-lambda_1)_+^{1+d/2},
    with omega the unit-L2 ground state of spec."""
    d = spec.d
    sup_norm_omega = float(np.abs(_ground_state(spec)).max())
    lam1 = float(spec.values[0])
    rhs = riesz_mean(spec, lam)
    lhs = (2 * unit_ball_volume(d) / ((d + 2) * (2 * math.pi) ** d)) \
        * sup_norm_omega**-2 * max(lam - lam1, 0.0) ** (1 + d / 2)
    return _make_check("ground-state-riesz-lower", lhs, rhs,
                       _slack(spec, lam ** (1 + d / 2) / sup_norm_omega**2),
                       {"lambda": lam, "d": d, "lambda_1": lam1, "sup_norm": sup_norm_omega})
