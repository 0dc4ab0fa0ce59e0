"""Numerical toolkit for eigenvalue inequalities of magnetic Schrodinger
operators: explicit constants, exact and discretized Dirichlet spectra, and
inequality checks with quantified margins."""

from .analytic import box_spectrum, disk_spectrum
from .bounds import (
    ANALYTIC_SLACK_RTOL,
    BoundCheck,
    discrete_slack,
    check_berezin_li_yau,
    check_li_yau,
    check_ratio_bounds,
    check_riesz_lower,
    check_shifted_sum_upper,
    check_sup_norm_riesz_lower,
    check_yang,
    check_yang_corollaries,
    legendre_transform_riesz,
    riesz_mean,
)
from .domain import (
    Annulus,
    Disk,
    GaugeSpec,
    GridDomain,
    LShape,
    MaskFile,
    PotentialSpec,
    Rectangle,
    build_domain,
)
from .eigensolve import Spectrum, lowest_eigenpairs
from .eigfn import (
    NormReport,
    chiti_check,
    comparison_check,
    decreasing_rearrangement,
    norms,
    rearrangement_ode_check,
    z_lp_norm,
    z_profile,
)
from .errors import InputDataError, NumericalError, TruncationError
from .harness import convergence_study, run_scenario
from .operator import MagneticOperator, assemble, gauge_shift
from .specfun import ConstantsTable, bessel_zero, constants_table, unit_ball_volume

__version__ = "0.1.0"
