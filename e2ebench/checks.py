"""Output checks: does a magspec report say what it must?

`problems(cmd, config, report)` returns a list of readable problems, empty when the
report is right. A command whose report has any problem counts as failed.
"""

from __future__ import annotations

import numpy as np

from workloads import FD_C, Command

#: Eigenvalues closer than this relative gap are treated as one cluster.
CLUSTER_GAP = 0.02

_VERDICTS = {
    "berezin-li-yau": ["berezin-li-yau"],
    "li-yau": ["li-yau"],
    "riesz-mean-lower": ["riesz-mean-lower"],
    "shifted-sum-upper": ["shifted-sum-upper"],
    "ratio-bounds": ["ratio-direct", "ratio-via-sum", "ratio-ppw"],
    "yang": ["yang"],
    "yang-corollaries": ["yang-second", "hile-protter", "ppw-gap"],
    "ground-state-riesz-lower": ["ground-state-riesz-lower"],
}


def expected_verdicts(config: dict) -> list[str]:
    """The sorted verdict names a verify report of `config` must carry."""
    names = []
    for chk in config.get("checks", []):
        count = sum(len(chk.get(key, [])) for key in ("ks", "lambdas", "lambda_indices"))
        names += _VERDICTS[chk["name"]] * count
    eig = config.get("eigenfunction")
    if eig:
        names += ["chiti-sup-bound", "heat-kernel-sup-bound"] if eig.get("chiti", True) else []
        names += ["ball-inclusion", "profile-domination"] if eig.get("comparison", True) else []
        names += ["rearrangement-slope"] if eig.get("ode", False) else []
    return sorted(names)


def _compare(label: str, got, want, rtol: float) -> list[str]:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{label}: {got.size} values, expected {want.size}"]
    err = np.abs(got - want) / np.abs(want)
    if not err.max() <= rtol:
        j = int(np.argmax(err))
        return [f"{label}: value {j + 1} is {got[j]:.17g}, expected {want[j]:.17g} "
                f"(relative error {err[j]:.2e} > {rtol:.0e})"]
    return []


def _verify_problems(cmd: Command, config: dict, report: dict) -> list[str]:
    out = []
    if report.get("check_errors"):
        out.append(f"check errors: {report['check_errors']}")
    verdicts = report.get("checks", [])
    names = sorted(c["name"] for c in verdicts)
    if names != expected_verdicts(config):
        out.append(f"verdicts {names} differ from the configured checks")
    for c in verdicts:
        if c["applicable"] and not c["passed"]:
            out.append(f"{c['name']} FAILS with margin {c['margin']:+.3e} {c.get('context')}")
    if not report.get("overall_pass"):
        out.append("overall verdict is FAIL")

    values = np.asarray(report["spectrum"]["values"], dtype=float)
    exp = cmd.expect
    if "values" in exp:
        out += _compare("eigenvalues", values, exp["values"], exp["rtol"])
    if "continuum" in exp:
        levels = np.asarray(exp["continuum"])
        bound = FD_C * exp["h"] ** 2 * levels**2
        if values.shape != levels.shape:
            out.append(f"{values.size} eigenvalues, expected {levels.size}")
        elif np.any(np.abs(values - levels) > bound):
            j = int(np.argmax(np.abs(values - levels) - bound))
            out.append(f"eigenvalue {j + 1} is {values[j]:.17g}, continuum level "
                       f"{levels[j]:.17g} is farther than {bound[j]:.3e}")
    if "lambda1_floor" in exp and not values[0] >= exp["lambda1_floor"]:
        out.append(f"lambda_1 = {values[0]:.17g} is below the zero-field "
                   f"lambda_1 = {exp['lambda1_floor']:.17g}")
    return out


def cluster_orders(values: np.ndarray, reference=None, rel_gap: float = CLUSTER_GAP):
    """Observed convergence orders of eigenvalue clusters over refinement
    levels (rows of `values`, h halving from row to row).

    Eigenvalues closer than `rel_gap` on any level form one cluster, and a
    cluster's order is taken from the sum of its members: the sorted
    eigenvalues of a near-crossing are not smooth in h, their sum is. The
    cluster holding the last eigenvalue is left out, since its partners may
    lie beyond the computed ones. Orders come from the errors against
    `reference` when given, else from differences of successive levels.
    """
    gaps = np.diff(values, axis=1) / values[:, :-1]
    cuts = np.nonzero(gaps.min(axis=0) >= rel_gap)[0] + 1
    groups = [g.tolist() for g in np.split(np.arange(values.shape[1]), cuts)][:-1]
    orders = []
    for g in groups:
        sums = values[:, g].sum(axis=1)
        if reference is not None:
            err = np.abs(sums - np.asarray(reference, dtype=float)[g].sum())
        else:
            err = np.abs(np.diff(sums))
        with np.errstate(divide="ignore", invalid="ignore"):
            orders.append(np.log2(err[:-1] / err[1:]))
    return groups, orders


def _convergence_problems(cmd: Command, report: dict) -> list[str]:
    exp = cmd.expect
    out = []
    if report.get("failures"):
        out.append(f"level failures: {report['failures']}")
    levels = report.get("levels", [])
    if len(levels) != exp["levels"]:
        out.append(f"{len(levels)} levels, expected {exp['levels']}")
    for i, want in exp["level_values"].items():
        if i < len(levels):
            out += _compare(f"level {i}", levels[i]["values"], want, exp["rtol"])
    lo, hi = exp["orders"]
    values = np.array([level["values"] for level in levels], dtype=float)
    reference = report.get("reference_values")
    groups, orders = cluster_orders(values, reference)
    if not groups:
        out.append("no eigenvalue cluster to take an order from")
    for group, order in zip(groups, orders):
        if not np.all((order >= lo) & (order <= hi)):
            out.append(f"eigenvalues {[j + 1 for j in group]}: observed orders "
                       f"{np.round(order, 3).tolist()} leave [{lo}, {hi}]")
    # the report's own per-eigenvalue orders, where an eigenvalue stands alone
    single = [g[0] for g in groups if len(g) == 1]
    reported = np.asarray(report.get("observed_orders", []), dtype=float)
    if reported.ndim != 2 or reported.shape[1] != values.shape[1]:
        out.append(f"observed orders of shape {reported.shape}")
    elif not np.all((reported[:, single] >= lo) & (reported[:, single] <= hi)):
        out.append(f"reported orders {np.round(reported[:, single], 3).tolist()} of eigenvalues "
                   f"{[j + 1 for j in single]} leave [{lo}, {hi}]")
    return out


def problems(cmd: Command, config: dict, report: dict) -> list[str]:
    """Everything wrong with the report of `cmd`, run on `config`."""
    try:
        if cmd.subcommand == "convergence":
            return _convergence_problems(cmd, report)
        return _verify_problems(cmd, config, report)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed report: {type(exc).__name__}: {exc}"]
