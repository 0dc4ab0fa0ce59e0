"""Scenario runner: configuration, verification reports, convergence studies.

A scenario is described by a JSON-friendly dict: a spectrum source (analytic
box/disk, or a grid operator to solve), a list of checks with parameters, and
optional eigenfunction analyses.  Reports are deterministic: re-running a
scenario reproduces every field except the ``timing`` block.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import analytic, bounds, eigfn
from .domain import Annulus, Disk, GaugeSpec, LShape, MaskFile, PotentialSpec, Rectangle, \
    build_domain
from .eigensolve import EigenPair, Spectrum, lowest_eigenpairs
from .errors import InputDataError, NumericalError, TruncationError
from .operator import assemble
from .specfun import ConstantsTable, constants_table

__all__ = [
    "parse_shape",
    "parse_gauge",
    "parse_potential",
    "validate_config",
    "run_scenario",
    "convergence_study",
    "write_report",
    "write_spectrum_csv",
    "strip_timing",
]

_COMPACT_RESOLVENT_NOTE = (
    "discrete spectra are finite by construction; the compact-resolvent "
    "assumption of the continuum problem needs no separate check"
)


# ---------------------------------------------------------------------------
# config parsing

def _required(block: dict, where: str, *keys: str) -> list:
    """The values of ``keys`` in a config block, or an InputDataError naming a missing one."""
    for key in keys:
        if key not in block:
            raise InputDataError(f"{where} needs the key {key!r}")
    return [block[key] for key in keys]


def parse_shape(d: dict):
    kind = d.get("shape")
    if kind == "rectangle":
        return Rectangle(*map(float, _required(d, kind, "a", "b")))
    if kind == "disk":
        return Disk(*map(float, _required(d, kind, "radius")))
    if kind == "lshape":
        return LShape(*map(float, _required(d, kind, "a", "b", "cut")))
    if kind == "annulus":
        return Annulus(*map(float, _required(d, kind, "r_inner", "r_outer")))
    if kind == "mask_file":
        return MaskFile(*map(str, _required(d, kind, "path")))
    raise InputDataError(f"unknown shape kind {kind!r}")


def parse_gauge(d: dict | None) -> GaugeSpec:
    if not d or d.get("kind", "none") == "none":
        return GaugeSpec.none()
    kind = d["kind"]
    if kind == "uniform":
        return GaugeSpec.uniform(*map(float, _required(d, "uniform gauge", "B")))
    if kind == "linear_gauge_shift":
        c = d.get("chi_coeffs", (0.0, 0.0, 0.0))
        return GaugeSpec.linear_gauge_shift(*[float(x) for x in c], B=float(d.get("B", 0.0)))
    raise InputDataError(f"unknown gauge kind {kind!r}")


def parse_potential(d: dict | None) -> PotentialSpec:
    if not d or d.get("kind", "zero") == "zero":
        return PotentialSpec.zero()
    kind = d["kind"]
    if kind == "constant":
        return PotentialSpec.constant(*map(float, _required(d, kind, "c")))
    if kind == "radial_quadratic":
        (a,) = _required(d, kind, "a")
        return PotentialSpec.radial_quadratic(float(a), d.get("center", (0.0, 0.0)))
    if kind == "grid_file":
        return PotentialSpec.grid_file(*map(str, _required(d, kind, "path")))
    raise InputDataError(f"unknown potential kind {kind!r}")


def _object(block: dict, key: str) -> dict:
    """The JSON object under ``key`` ({} when absent), or an InputDataError naming the key."""
    value = block.get(key, {})
    if not isinstance(value, dict):
        raise InputDataError(f"{key!r} must be a JSON object, got {value!r}")
    return value


def _finite(x) -> bool:
    """Whether x is a finite number; a boolean is not one."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) \
        and abs(x) <= sys.float_info.max


def _positive_int(value, key: str) -> None:
    """Reject a value of ``key`` that is not an integer >= 1; a boolean is not one."""
    if not (isinstance(value, int) and not isinstance(value, bool) and value >= 1):
        raise InputDataError(f"{key!r} must be an integer >= 1, got {value!r}")


def _positive_number(value, key: str) -> None:
    """Reject a value of ``key`` that is not a finite number > 0."""
    if not (_finite(value) and value > 0):
        raise InputDataError(f"{key!r} must be a finite positive number, got {value!r}")


def _number_list(block: dict, key: str, sizes: range) -> None:
    """Reject a value under ``key`` that is not a list of finite numbers of a size in ``sizes``."""
    if key not in block:
        return
    value = block[key]
    if not isinstance(value, list) or len(value) not in sizes or not all(map(_finite, value)):
        count = sizes.start if len(sizes) == 1 else f"{sizes.start} to {sizes[-1]}"
        raise InputDataError(f"{key!r} must be a list of {count} finite numbers, got {value!r}")


#: Check parameter key -> (accepted element types, smallest accepted value).
_CHECK_PARAMS = {"ks": (int, 1), "lambda_indices": (int, 1), "lambdas": ((int, float), 0)}


def validate_config(config: dict) -> None:
    """Reject a malformed config before any work, naming the offending key."""
    if "slack" in config:
        raise InputDataError("config key 'slack' is not supported: slacks are fixed")
    spec_src = config.get("spectrum")
    if not isinstance(spec_src, dict) or spec_src.get("type") not in ("box", "disk", "grid"):
        raise InputDataError("config needs a 'spectrum' block of type box, disk or grid")
    eig = _object(config, "eigenfunction")
    if "tol" in eig:
        raise InputDataError("config key 'eigenfunction.tol' is not supported: slacks are fixed")
    for key in ("chiti", "comparison", "ode"):
        if not isinstance(eig.get(key, False), bool):
            raise InputDataError(f"'eigenfunction.{key}' must be true or false, got {eig[key]!r}")
    _positive_number(eig.get("p", 2.0), "eigenfunction.p")
    if "reference" in config:
        _validate_reference(_object(config, "reference"))
    checks = config.get("checks", [])
    if not isinstance(checks, list):
        raise InputDataError(f"'checks' must be a list, got {checks!r}")
    for chk in checks:
        if not isinstance(chk, dict):
            raise InputDataError(f"each entry of 'checks' must be a JSON object, got {chk!r}")
        name = chk.get("name")
        if not isinstance(name, str) or name not in bounds.CHECKS:
            raise InputDataError(f"unknown check {name!r}")
        if name == "ground-state-riesz-lower" and spec_src["type"] != "grid":
            raise InputDataError("ground-state-riesz-lower needs a grid scenario with "
                                 "computed eigenfunctions")
        for key, (types, low) in _CHECK_PARAMS.items():
            values = chk.get(key, [])
            if not isinstance(values, list) or not all(
                    isinstance(x, types) and not isinstance(x, bool) and x >= low for x in values):
                wanted = "integers" if types is int else "numbers"
                raise InputDataError(f"check {name!r} key {key!r} must be a list of {wanted} "
                                     f">= {low}, got {values!r}")
    kind = spec_src["type"]
    if kind == "grid":
        _required(spec_src, "grid spectrum", "domain")
        _required(_object(spec_src, "domain"), "grid domain", "h")
        if _object(spec_src, "gauge").get("kind") == "linear_gauge_shift":
            _number_list(spec_src["gauge"], "chi_coeffs", range(2, 4))
        if _object(spec_src, "potential").get("kind") == "radial_quadratic":
            _number_list(spec_src["potential"], "center", range(2, 3))
        B = _object(spec_src, "gauge").get("B", 0.0)
        if not _finite(B):
            raise InputDataError(f"'gauge.B' must be a finite number, got {B!r}")
        _positive_int(_object(spec_src, "solver").get("k", 10), "solver.k")
    else:
        _required(spec_src, f"{kind} spectrum", "count", "lengths" if kind == "box" else "radius")
        _positive_int(spec_src["count"], "count")
        if kind == "box":
            _number_list(spec_src, "lengths", range(2, 6))
        else:
            _positive_number(spec_src["radius"], "radius")


def _validate_reference(ref: dict) -> None:
    """Reject a convergence reference that ``_analytic_spectrum`` could not build."""
    kind = ref.get("type")
    if kind == "box":
        _required(ref, "box reference", "lengths")
        _number_list(ref, "lengths", range(2, 6))
        if min(ref["lengths"]) <= 0:
            raise InputDataError(f"'reference.lengths' must be positive, got {ref['lengths']!r}")
    elif kind == "disk":
        _positive_number(*_required(ref, "disk reference", "radius"), "reference.radius")
    else:
        raise InputDataError(f"'reference.type' must be box or disk, got {kind!r}")


# ---------------------------------------------------------------------------
# spectrum construction

def _analytic_spectrum(src: dict, count: int) -> Spectrum:
    """The exact spectrum of a validated ``box`` or ``disk`` block."""
    if src["type"] == "box":
        return analytic.box_spectrum(src["lengths"], count)
    return analytic.disk_spectrum(src["radius"], count)


def _build_spectrum(config: dict) -> tuple[Spectrum, list[EigenPair], float]:
    src = config["spectrum"]
    t0 = time.perf_counter()
    if src["type"] != "grid":
        return _analytic_spectrum(src, int(src["count"])), [], time.perf_counter() - t0
    dom = build_domain(parse_shape(src["domain"]), float(src["domain"]["h"]))
    gauge = parse_gauge(src.get("gauge"))
    pot = parse_potential(src.get("potential"))
    op = assemble(dom, gauge, pot)
    solver = src.get("solver", {})
    spec, pairs = lowest_eigenpairs(op, int(solver.get("k", 10)),
                                    float(solver.get("tol", 1e-10)))
    return spec, pairs, time.perf_counter() - t0


def _resolve_lambdas(chk: dict, spec: Spectrum) -> list[float]:
    lams = [float(x) for x in chk.get("lambdas", [])]
    for j in chk.get("lambda_indices", []):
        j = int(j)
        if not 1 <= j <= len(spec):
            raise TruncationError(f"lambda index {j} exceeds computed spectrum length {len(spec)}")
        lams.append(float(spec.values[j - 1]))
    return lams


def _run_checks(config: dict, spec: Spectrum, pairs: list[EigenPair], h: float | None,
                table: ConstantsTable) -> tuple[list, list]:
    results = []
    errors = []
    sup = float(np.abs(pairs[0].vector).max()) if pairs else None
    for chk in config.get("checks", []):
        name = chk["name"]
        param, run = bounds.CHECKS[name]
        if param == "ks":
            params = [("k", k) for k in chk.get("ks", [])]
        else:
            params = [("lambda", lam) for lam in _resolve_lambdas(chk, spec)]
        for key, x in params:
            try:
                out = run(spec, x, h=h, table=table, sup=sup)
            except (TruncationError, ValueError, NumericalError) as exc:
                errors.append({"check": name, "error": type(exc).__name__, "message": str(exc),
                               key: x})
                continue
            results.extend(out if isinstance(out, list) else [out])
    return results, errors


def _run_eigenfunction(config: dict, spec: Spectrum, pairs: list[EigenPair], h: float | None,
                       table: ConstantsTable) -> tuple[dict, list]:
    cfg = config.get("eigenfunction")
    out: dict = {}
    checks = []
    if not cfg or not pairs:
        return out, checks
    ground = pairs[0]
    omega = ground.vector
    lam = ground.value
    rep = eigfn.norms(omega, h, p_list=(1.0, 2.0))
    out["norms"] = {"sup_norm": rep.sup_norm, "lp": {str(p): v for p, v in rep.lp.items()},
                    "l2_normalized": rep.l2_normalized}
    out["ground_state_degenerate"] = bool(spec.degeneracy_flags[0]) if len(spec) else False
    if cfg.get("chiti", True):
        checks.extend(eigfn.chiti_check(omega, h, lam, spec.d, p=float(cfg.get("p", 2.0)),
                                        table=table))
    if cfg.get("comparison", True):
        verdict = eigfn.comparison_check(omega, h, lam, spec.d, spec.measure)
        checks.extend([verdict.inclusion, verdict.domination])
        out["ball_measure"] = verdict.ball_measure
    if cfg.get("ode", False):
        profile = eigfn.decreasing_rearrangement(omega, h)
        checks.append(eigfn.rearrangement_ode_check(profile, lam, spec.d))
    return out, checks


# ---------------------------------------------------------------------------
# report plumbing

def _jsonable(obj):
    if isinstance(obj, (np.bool_, bool)):  # before int: bool is an int subclass
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if obj is None or isinstance(obj, str):
        return obj
    return str(obj)


def run_scenario(config: dict) -> dict:
    """Execute one scenario: build the spectrum, run every configured check,
    and return a JSON-ready report."""
    validate_config(config)
    t_start = time.perf_counter()
    spec, pairs, t_solve = _build_spectrum(config)
    table = constants_table(spec.d, p_list=(1.0, 2.0))
    src = config["spectrum"]
    h = float(src["domain"]["h"]) if src["type"] == "grid" else None
    check_results, errors = _run_checks(config, spec, pairs, h, table)
    eig_out, eig_checks = _run_eigenfunction(config, spec, pairs, h, table)
    check_results = check_results + eig_checks

    hard = [c for c in check_results if c.applicable and not c.diagnostic]
    overall = all(c.passed for c in hard)
    return {
        "config": _jsonable(config),
        "constants": _jsonable(table),
        "notes": [_COMPACT_RESOLVENT_NOTE] if spec.source != "analytic" else [],
        "spectrum": {
            "d": spec.d,
            "source": spec.source,
            "measure": _jsonable(spec.measure),
            "values": _jsonable(spec.values),
            "degeneracy_flags": _jsonable(spec.degeneracy_flags),
            "residuals": [_jsonable(p.residual) for p in pairs],
        },
        "checks": [_jsonable(c) for c in check_results],
        "check_errors": _jsonable(errors),
        "eigenfunction": _jsonable(eig_out),
        "overall_pass": bool(overall),
        "timing": {
            "solve_seconds": t_solve,
            "total_seconds": time.perf_counter() - t_start,
        },
    }


def convergence_study(config: dict, levels: int) -> dict:
    """Re-run a grid scenario at h, h/2, h/4, ... and report observed
    convergence orders of the lowest eigenvalues."""
    validate_config(config)
    levels = int(levels)
    if levels < 2:
        raise InputDataError(f"need at least 2 refinement levels, got {levels}")
    src = config["spectrum"]
    if src["type"] != "grid":
        raise InputDataError("convergence studies need a grid scenario; analytic spectra are exact")

    h0 = float(src["domain"]["h"])
    k = int(src.get("solver", {}).get("k", 10))
    level_values = []
    failures = []
    t0 = time.perf_counter()
    for level in range(levels):
        cfg = {"spectrum": {**src, "domain": {**src["domain"], "h": h0 / 2**level}}}
        try:
            spec, _, _ = _build_spectrum(cfg)
            level_values.append(spec.values[:k])
        except InputDataError:  # a malformed config, not a failure of this level
            raise
        except (NumericalError, ValueError) as exc:
            failures.append({"level": level, "h": h0 / 2**level,
                             "error": type(exc).__name__, "message": str(exc)})
            break

    report: dict = {
        "config": _jsonable(config),
        "levels": [{"h": h0 / 2**i, "values": _jsonable(v)} for i, v in enumerate(level_values)],
        "failures": failures,
        "timing": {"total_seconds": time.perf_counter() - t0},
    }

    ref = config.get("reference")
    if ref and len(level_values) >= 2:
        exact = _analytic_spectrum(ref, max(4 * k, 50)).values[:k]
        report["reference_values"] = _jsonable(exact)
        # errors against the reference
        errors = [np.abs(v - exact) for v in level_values]
    else:
        # differences of successive levels
        errors = [np.abs(a - b) for a, b in zip(level_values, level_values[1:])]
    with np.errstate(divide="ignore", invalid="ignore"):
        orders = [np.log2(e0 / e1) for e0, e1 in zip(errors, errors[1:])]
    report["observed_orders"] = [_jsonable(o) for o in orders]

    if len(level_values) >= 2:
        fine, coarse = level_values[-1], level_values[-2]
        report["richardson_extrapolated"] = _jsonable(fine + (fine - coarse) / 3.0)
    return report


def strip_timing(report: dict) -> dict:
    """Copy of a report with all timing fields removed (for determinism tests)."""
    out = json.loads(json.dumps(report, sort_keys=True))
    out.pop("timing", None)
    return out


#: Element types of a list that the C JSON encoder renders in one call.
_SCALAR_TYPES = {float, int, bool, str, type(None)}


def _indented_json(obj, indent: str = "") -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` at nesting ``indent``.

    CPython's C encoder runs only without ``indent``, so containers are laid
    out here and each list of scalars goes through one C-encoder call whose
    item separator carries the newline and indent.
    """
    inner = indent + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (f"{json.dumps(k if isinstance(k, str) else json.dumps(k))}: "
                 f"{_indented_json(v, inner)}" for k, v in sorted(obj.items()))
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if set(map(type, obj)) <= _SCALAR_TYPES:
            body = json.dumps(obj, separators=(",\n" + inner, ": "))[1:-1]
        else:
            body = (",\n" + inner).join(_indented_json(x, inner) for x in obj)
        return "[\n" + inner + body + "\n" + indent + "]"
    return json.dumps(obj)


def write_report(report: dict, path: str | Path | None) -> None:
    """Write a report as sorted, indented JSON to path, or to stdout when path is None.

    The text is byte for byte ``json.dumps(report, sort_keys=True, indent=2)``
    plus a newline."""
    text = _indented_json(report) + "\n"
    if path is None:
        print(text, end="")
    else:
        Path(path).write_text(text)


def write_spectrum_csv(values, path: str | Path | None) -> None:
    """One eigenvalue per line, to path, or to stdout when path is None."""
    values = tuple(values)
    text = ("%.17g\n" * len(values)) % values
    if path is None:
        print(text, end="")
    else:
        Path(path).write_text(text)
