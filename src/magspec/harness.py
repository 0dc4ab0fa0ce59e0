"""Scenario runner: configuration, verification reports, convergence studies.

A scenario is described by a JSON-friendly dict: a spectrum source (analytic
box/disk, or a grid operator to solve), a list of checks with parameters, and
an optional ``eigenfunction`` block whose flags select the ground-state checks.
``parse_config`` reads and checks every key once; later steps read only its
``Scenario``, and reports echo the raw dict.  ``CHECKS`` is the one table of
check calls, and ``_run_checks`` the one runner of every verdict.  Reports are
deterministic: re-running a scenario reproduces every field except the
``timing`` block.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import orjson

from . import analytic, bounds, eigfn
from .domain import MAX_GRID_NODES, Annulus, Disk, GaugeSpec, LShape, MaskFile, PotentialSpec, \
    Rectangle, Shape, build_domain
from .eigensolve import Spectrum, lowest_eigenpairs
from .errors import InputDataError, NumericalError, TruncationError
from .operator import assemble
from .specfun import constants_table

__all__ = [
    "CHECKS",
    "parse_config",
    "build_spectrum",
    "run_scenario",
    "convergence_study",
    "write_report",
    "write_spectrum_csv",
    "check_writable",
    "strip_timing",
]

_COMPACT_RESOLVENT_NOTE = (
    "discrete spectra are finite by construction; the compact-resolvent "
    "assumption of the continuum problem needs no separate check"
)


# ---------------------------------------------------------------------------
# config parsing

@dataclass(frozen=True)
class Exact:
    """A box or disk block: a spectrum of ``count`` values, or a convergence reference."""

    kind: str
    size: tuple[float, ...] | float  # box lengths or disk radius
    count: int | None = None

    def spectrum(self, count: int) -> Spectrum:
        if self.kind == "box":
            return analytic.box_spectrum(self.size, count)
        return analytic.disk_spectrum(self.size, count)


@dataclass(frozen=True)
class Grid:
    """A grid block: the operator to assemble and the solver settings."""

    shape: Shape
    h: float
    gauge: GaugeSpec
    potential: PotentialSpec
    k: int
    tol: float


@dataclass(frozen=True)
class Scenario:
    """A parsed config; each check is (name, its parameters, lambda indices)."""

    spectrum: Exact | Grid
    checks: list[tuple[str, tuple, tuple]]
    reference: Exact | None


#: Kind of number -> (test on a finite number, how a message names it).
_NUMBERS = {
    "real": (lambda x: True, "a finite number"),
    "positive": (lambda x: x > 0, "a finite positive number"),
    "nonnegative": (lambda x: x >= 0, "a finite number >= 0"),
    "count": (lambda x: isinstance(x, int) and x >= 1, "an integer >= 1"),
    # a box length or disk radius: (pi / L)^2, L^2 and the product of up to
    # five lengths then stay normal floats
    "length": (lambda x: 1e-50 <= x <= 1e50, "a number in [1e-50, 1e50]"),
    # a point, such as a potential's center: then 0 * |x - center|^2 is 0
    "coordinate": (lambda x: abs(x) <= 1e50, "a number in [-1e50, 1e50]"),
    # a potential's c or a: for c the residual ||H v - lambda v|| <= 2 (8 / h^2 + c) / h
    # of a unit (h^2-weighted) v stays below 2e151 at every h >= 1e-50, far from 1e154,
    # where the square in its norm overflows (as at c = 1e200)
    "coefficient": (lambda x: 0 <= x <= 1e100, "a number in [0, 1e100]"),
    "tolerance": (lambda x: 1e-12 <= x <= 1e-4, "a number in [1e-12, 1e-4]"),
}
_ANY_LENGTH = range(sys.maxsize)


def _number(value, key: str, kind: str = "real", sizes: range | None = None):
    """``value`` as a float (an int for a "count"), or with ``sizes`` a tuple of
    them whose length lies in ``sizes``; else an InputDataError naming ``key``."""
    test, what = _NUMBERS[kind]
    if sizes is not None:
        if not isinstance(value, list) or len(value) not in sizes:
            count = "" if sizes is _ANY_LENGTH else f"{sizes.start} to {sizes[-1]} "
            raise InputDataError(f"{key!r} must be a list of {count}values, each {what}, "
                                 f"got {value!r}")
        return tuple(_number(x, key, kind) for x in value)
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not abs(value) <= sys.float_info.max or not test(value):
        raise InputDataError(f"{key!r} must be {what}, got {value!r}")
    return value if kind == "count" else float(value)


#: Kind of a value that is no number -> its type and how a message names it.
_TYPES = {"bool": (bool, "true or false"), "str": (str, "a string")}


class _Choice(dict):
    """The kind of the key that picks the rest of a block's table: a spectrum's
    ``type``, a domain's ``shape``, a gauge's or potential's ``kind``, a check's
    ``name``.  Maps each value to (build, the keys it adds); the key reads as
    build(**their values), or with a build of None keeps its value and theirs."""


def _read(block, name: str, table: dict) -> dict:
    """The values of config block ``name`` ("" for the whole config) by its key table.

    A table maps each key to (kind, default); a default of ... marks a required
    key, one of None a key that may be absent.  A kind is a ``_NUMBERS`` kind,
    (such a kind, sizes) for a list of numbers, a ``_TYPES`` kind, a table for a
    nested block, [table] for a list of blocks, or a ``_Choice``.  A key is named
    'block.key' after the key its block sits under.  An InputDataError refuses a
    block that is not a JSON object, a missing key, a malformed value and a key
    the table does not list, and names it.
    """
    label = repr(name) if name else "the config"
    if not isinstance(block, dict):
        raise InputDataError(f"{label} must be a JSON object, got {block!r}")
    entries, values, builds = list(table.items()), {}, []
    for key, (kind, default) in entries:  # a choice appends the keys it adds
        if key not in block and default is ...:
            raise InputDataError(f"{label} needs the key {key!r}")
        value, where = block.get(key, default), f"{name}.{key}" if name else key
        if isinstance(kind, _Choice):
            if not isinstance(value, str) or value not in kind:
                raise InputDataError(f"{where!r} must be one of {', '.join(kind)}, "
                                     f"got {value!r}")
            builds.append((key, *kind[value]))
            entries += kind[value][1].items()
        elif key in block or default is not None:
            value = _value(value, key, where, kind)
        values[key] = value
    for key in block:
        if key not in values:
            raise InputDataError(f"{label} does not read the key {key!r}")
    for key, build, keys in builds:
        if build:
            values[key] = build(**{k: values.pop(k) for k in keys})
    return values


def _value(value, key: str, where: str, kind):
    """``value`` of ``key``, named ``where``, read as ``kind`` (see ``_read``)."""
    if isinstance(kind, dict):
        return _read(value, key, kind)
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise InputDataError(f"{where!r} must be a list, got {value!r}")
        return [_read(x, f"{key}[{i}]", kind[0]) for i, x in enumerate(value)]
    if kind in _TYPES:
        cls, what = _TYPES[kind]
        if not isinstance(value, cls):
            raise InputDataError(f"{where!r} must be {what}, got {value!r}")
        return value
    return _number(value, where, *kind) if isinstance(kind, tuple) else _number(value, where, kind)


# the key tables; each builds what the rest of the run reads
_LENGTH = ("length", ...)  # a required length
_BOX = {"lengths": (("length", range(2, 6)), ...)}
_DISK = {"radius": _LENGTH}
_DOMAIN = {"shape": (_Choice(
    rectangle=(Rectangle, {"a": _LENGTH, "b": _LENGTH}),
    disk=(Disk, {"radius": _LENGTH}),
    lshape=(LShape, {"a": _LENGTH, "b": _LENGTH, "cut": _LENGTH}),
    annulus=(Annulus, {"r_inner": _LENGTH, "r_outer": _LENGTH}),
    mask_file=(MaskFile, {"path": ("str", ...)})), ...), "h": _LENGTH}
_GAUGE = {"kind": (_Choice(
    none=(GaugeSpec, {}),
    uniform=(GaugeSpec, {"B": ("real", ...)}),
    linear_gauge_shift=(lambda B, chi_coeffs: GaugeSpec(B, (*chi_coeffs, 0.0)[:3]),
                        {"B": ("real", 0.0),
                         "chi_coeffs": (("real", range(2, 4)), [0.0, 0.0, 0.0])})), "none")}
_POTENTIAL = {"kind": (_Choice(
    zero=(PotentialSpec, {}),
    constant=(PotentialSpec, {"c": ("coefficient", ...)}),
    radial_quadratic=(PotentialSpec, {"a": ("coefficient", ...),
                                      "center": (("coordinate", range(2, 3)), [0.0, 0.0])}),
    grid_file=(PotentialSpec, {"path": ("str", ...)})), "zero")}
_GRID = {"domain": (_DOMAIN, ...), "gauge": (_GAUGE, {}), "potential": (_POTENTIAL, {}),
         "solver": ({"k": ("count", 10), "tol": ("tolerance", 1e-10)}, {})}
_SPECTRUM = {"type": (_Choice(
    box=(lambda lengths, count: Exact("box", lengths, count), {**_BOX, "count": ("count", ...)}),
    disk=(lambda radius, count: Exact("disk", radius, count), {**_DISK, "count": ("count", ...)}),
    grid=(lambda domain, gauge, potential, solver: Grid(
        gauge=gauge["kind"], potential=potential["kind"], **domain, **solver), _GRID)), ...)}
_REFERENCE = {"type": (_Choice(box=(lambda lengths: Exact("box", lengths), _BOX),
                               disk=(lambda radius: Exact("disk", radius), _DISK)), ...)}
#: Check name -> (the key an error record names its parameter by, check call).
#: The key is "k", "lambda", "p", or None for a check without a parameter, and
#: ``run(spec, x)`` evaluates the check at parameter x (None without one).  The
#: calls look each check function up in its module when they run, so a wrapper
#: installed on ``bounds`` or ``eigfn`` sees every call.  A ``checks`` entry
#: names a "k" or "lambda" check; the ``eigenfunction`` block selects the rest.
CHECKS: dict[str, tuple] = {
    "berezin-li-yau": ("lambda", lambda spec, lam: bounds.check_berezin_li_yau(spec, lam)),
    "li-yau": ("k", lambda spec, k: bounds.check_li_yau(spec, k)),
    "riesz-mean-lower": ("lambda", lambda spec, lam: bounds.check_riesz_lower(spec, lam)),
    "shifted-sum-upper": ("k", lambda spec, k: bounds.check_shifted_sum_upper(spec, k)),
    "ratio-bounds": ("k", lambda spec, k: bounds.check_ratio_bounds(spec, k)),
    "yang": ("k", lambda spec, k: bounds.check_yang(spec, k)),
    "yang-corollaries": ("k", lambda spec, k: bounds.check_yang_corollaries(spec, k)),
    "ground-state-riesz-lower": ("lambda",
                                 lambda spec, lam: bounds.check_sup_norm_riesz_lower(spec, lam)),
    "chiti-sup-bound": ("p", lambda spec, p: eigfn.chiti_check(spec, p)),
    "ball-comparison": (None, lambda spec, _: eigfn.comparison_check(spec)),
    "rearrangement-slope": (None, lambda spec, _: eigfn.rearrangement_ode_check(spec)),
}
#: A check entry reads the key of its parameters; a lambda check also reads lambda_indices.
_CHECK_KEYS = {"k": {"ks": (("count", _ANY_LENGTH), [])},
               "lambda": {"lambdas": (("nonnegative", _ANY_LENGTH), []),
                          "lambda_indices": (("count", _ANY_LENGTH), [])}}
_CHECK = {"name": (_Choice({name: (None, _CHECK_KEYS[key])
                            for name, (key, _) in CHECKS.items() if key in _CHECK_KEYS}), ...)}
_EIGENFUNCTION = {"chiti": ("bool", True), "comparison": ("bool", True), "ode": ("bool", False),
                  "p": ("positive", 2.0)}
_CONFIG = {"name": ("str", None), "spectrum": (_SPECTRUM, ...), "checks": ([_CHECK], []),
           "eigenfunction": (_EIGENFUNCTION, None), "reference": (_REFERENCE, None)}


def _check(entry: dict, spectrum: Exact | Grid) -> tuple[str, tuple, tuple]:
    """A read check entry, with its lambda indices checked against the spectrum's length."""
    name, keys = entry["name"], [key for key in entry if key != "name"]
    if name == "ground-state-riesz-lower" and isinstance(spectrum, Exact):
        raise InputDataError(f"{name} needs a grid scenario with computed eigenfunctions")
    values, indices = entry[keys[0]], entry.get("lambda_indices", ())
    if not values + indices:
        raise InputDataError(f"a {name} check needs a value under "
                             f"{' or '.join(map(repr, keys))}")
    length = spectrum.count if isinstance(spectrum, Exact) else spectrum.k
    if indices and max(indices) > length:
        raise InputDataError(f"lambda index {max(indices)} exceeds computed spectrum "
                             f"length {length}")
    return name, values, indices


def parse_config(config: dict, levels: int = 1) -> Scenario:
    """Read, check and convert every key of a config once, or name a malformed one.
    A grid is refused when its finest level h / 2^(levels - 1) of ``levels``
    convergence levels has more than MAX_GRID_NODES bounding-box nodes (a mask
    file is limited when it is read), and for two or more levels when it reads
    a mask file or a potential grid file, which fix the grid to one h."""
    top = _read(config, "", _CONFIG)
    spectrum, reference = top["spectrum"]["type"], top["reference"]
    if isinstance(spectrum, Grid) and not isinstance(spectrum.shape, MaskFile):
        x0, y0, x1, y1 = spectrum.shape.bounding_box()
        finest = spectrum.h * 0.5 ** (levels - 1)  # 0.0 for very many levels
        if not finest or ((x1 - x0) / finest + 1) * ((y1 - y0) / finest + 1) > MAX_GRID_NODES:
            raise InputDataError(f"'domain.h' gives more than {MAX_GRID_NODES} grid nodes "
                                 f"at h = {finest:.6g}")
    if isinstance(spectrum, Grid) and levels >= 2:  # each level must grid the same problem
        if isinstance(spectrum.shape, MaskFile):
            raise InputDataError("'domain.shape' mask_file cannot be refined: its nodes are "
                                 "fixed, so halving h would shrink the domain")
        if spectrum.potential.path is not None:
            raise InputDataError("'potential.kind' grid_file cannot be refined: its values "
                                 "fit the grid of one h only")
    eig = top["eigenfunction"]
    if eig is not None and isinstance(spectrum, Exact):
        raise InputDataError("an 'eigenfunction' block needs a grid spectrum: a box or "
                             "disk spectrum has no computed eigenfunctions")
    checks = [_check(entry, spectrum) for entry in top["checks"]]
    if eig is not None:  # its flags select the ground-state checks, run after the listed ones
        checks += [(name, values, ()) for flag, name, values in [
            ("chiti", "chiti-sup-bound", (eig["p"],)), ("comparison", "ball-comparison", (None,)),
            ("ode", "rearrangement-slope", (None,))] if eig[flag]]
    return Scenario(spectrum, checks, reference and reference["type"])


# ---------------------------------------------------------------------------
# spectrum construction

def build_spectrum(source: Exact | Grid) -> Spectrum:
    """The spectrum of a parsed ``spectrum`` block."""
    if isinstance(source, Exact):
        return source.spectrum(source.count)
    op = assemble(build_domain(source.shape, source.h), source.gauge, source.potential)
    return lowest_eigenpairs(op, source.k, source.tol)[0]


def _run_checks(checks: list, spec: Spectrum) -> tuple[list, list]:
    """The verdicts of every parsed check on spec, in order, and an error record for
    each evaluation that raised, naming the check and its parameter."""
    results, errors = [], []
    for name, values, indices in checks:
        key, run = CHECKS[name]
        for x in values + tuple(float(spec.values[j - 1]) for j in indices):
            try:
                out = run(spec, x)
            except (TruncationError, ValueError, NumericalError, OverflowError) as exc:
                error = {"check": name, "error": type(exc).__name__, "message": str(exc)}
                errors.append(error if key is None else {**error, key: x})
                continue
            results.extend(out if isinstance(out, list) else [out])
    return results, errors


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
    raise TypeError(f"a {type(obj).__name__} cannot be written to a report")


def run_scenario(config: dict) -> dict:
    """Execute one scenario: build the spectrum, run every configured check,
    and return a JSON-ready report."""
    scenario = parse_config(config)
    t_start = time.perf_counter()
    spec = build_spectrum(scenario.spectrum)
    t_solve = time.perf_counter() - t_start
    check_results, errors = _run_checks(scenario.checks, spec)
    hard = [c for c in check_results if c.applicable and not c.diagnostic]
    return _jsonable({
        "config": config,
        "constants": constants_table(spec.d, p_list=(1.0, 2.0)),
        "notes": [_COMPACT_RESOLVENT_NOTE] if spec.h is not None else [],
        "spectrum": {"d": spec.d, "source": spec.source, "measure": spec.measure,
                     "values": spec.values, "residuals": spec.residuals},
        "checks": check_results,
        "check_errors": errors,
        "overall_pass": all(c.passed for c in hard),
        "timing": {
            "solve_seconds": t_solve,
            "total_seconds": time.perf_counter() - t_start,
        },
    })


def convergence_study(config: dict, levels: int) -> dict:
    """Re-run a grid scenario at h, h/2, h/4, ... and report observed
    convergence orders of the lowest eigenvalues.  Each level after the first
    starts its Lanczos solve from the previous level's eigenvectors, summed and
    interpolated onto the finer grid."""
    levels = int(levels)
    if levels < 2:
        raise InputDataError(f"need at least 2 refinement levels, got {levels}")
    scenario = parse_config(config, levels)
    grid = scenario.spectrum
    if not isinstance(grid, Grid):
        raise InputDataError("convergence studies need a grid scenario; analytic spectra are exact")

    level_values, level_seconds, failures = [], [], []
    coarse = None  # the last level's summed eigenvectors on its whole grid, 0 outside the mask
    t0 = time.perf_counter()
    for level in range(levels):
        t_level, h = time.perf_counter(), grid.h / 2**level
        try:
            dom = build_domain(grid.shape, h)
            op, mask = assemble(dom, grid.gauge, grid.potential), dom.mask
            del dom  # its points and index are not needed during the solve
            start = None if coarse is None else _prolong(coarse, mask)
            coarse = None
            spec, vectors = lowest_eigenpairs(op, grid.k, grid.tol, start)
        except NumericalError as exc:  # a ValueError is a bad config, not a failed level
            failures.append({"level": level, "h": h,
                             "error": type(exc).__name__, "message": str(exc)})
            break
        level_values.append(spec.values[:grid.k])
        coarse = np.zeros(mask.shape, dtype=vectors.dtype)
        coarse[mask] = vectors.sum(axis=0)
        del op, mask, start, spec, vectors  # only the coarse array outlives its level
        level_seconds.append(time.perf_counter() - t_level)

    report: dict = {
        "config": config,
        "levels": [{"h": grid.h / 2**i, "values": v} for i, v in enumerate(level_values)],
        "failures": failures,
        "timing": {"total_seconds": time.perf_counter() - t0, "level_seconds": level_seconds},
    }

    if scenario.reference and len(level_values) >= 2:
        exact = scenario.reference.spectrum(grid.k).values
        report["reference_values"] = exact
        # errors against the reference
        errors = [np.abs(v - exact) for v in level_values]
    else:
        # differences of successive levels
        errors = [np.abs(a - b) for a, b in zip(level_values, level_values[1:])]
    with np.errstate(divide="ignore", invalid="ignore"):
        orders = [np.log2(e0 / e1) for e0, e1 in zip(errors, errors[1:])]
    report["observed_orders"] = orders
    return _jsonable(report)


def _prolong(coarse: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of a grid array onto the interior nodes ``mask`` of the
    grid of half its spacing over the same box, in ``np.nonzero(mask)`` order.  Fine
    node (i, j) lies at coarse (i/2, j/2), so it averages its <= 4 coarse neighbours;
    they are clipped to the array where the fine grid has one more row or column."""
    ii, jj = np.nonzero(mask)
    i0, j0 = ii // 2, jj // 2
    i1 = np.minimum(i0 + ii % 2, coarse.shape[0] - 1)
    j1 = np.minimum(j0 + jj % 2, coarse.shape[1] - 1)
    return 0.25 * (coarse[i0, j0] + coarse[i1, j0] + coarse[i0, j1] + coarse[i1, j1])


def strip_timing(report: dict) -> dict:
    """Copy of a report with all timing fields removed (for determinism tests)."""
    out = json.loads(json.dumps(report, sort_keys=True))
    out.pop("timing", None)
    return out


#: Element types of a list that is encoded in slices.
_SCALAR_TYPES = {float, int, bool, str, type(None)}
#: Items per encoder call or CSV block: the most a writer holds as text at once.
_SLICE = 2048
#: A float is written by orjson exactly as by ``repr`` when it is 0 or its
#: magnitude lies in [low, high); outside, the exponent forms differ.
_REPR_RANGE = (1e-4, 1e16)


def _slices(items):
    """Successive slices of at most ``_SLICE`` items of a list, tuple or array."""
    return (items[i:i + _SLICE] for i in range(0, len(items), _SLICE))


def _write_json(obj, write, indent: str = "") -> None:
    """Write ``json.dumps(obj, sort_keys=True, indent=2)`` at nesting ``indent``, piece by piece.

    CPython's C encoder runs only without ``indent``, so containers are laid
    out here and each list of scalars is encoded in slices whose item
    separator carries the newline and indent (``_encode_slice``).
    """
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(obj, dict):
        if not obj:
            write("{}")
            return
        write("{\n" + inner)
        for i, (k, v) in enumerate(sorted(obj.items())):
            write(f"{sep if i else ''}{json.dumps(k if isinstance(k, str) else json.dumps(k))}: ")
            _write_json(v, write, inner)
        write("\n" + indent + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            write("[]")
            return
        write("[\n" + inner)
        kinds = set(map(type, obj))
        if kinds <= _SCALAR_TYPES:
            for i, chunk in enumerate(_slices(obj)):
                write((sep if i else "") + _encode_slice(chunk, kinds, sep))
        else:
            for i, x in enumerate(obj):
                if i:
                    write(sep)
                _write_json(x, write, inner)
        write("\n" + indent + "]")
    else:
        write(json.dumps(obj))


def _encode_slice(chunk: list | tuple, kinds: set, sep: str) -> str:
    """The items of ``json.dumps(chunk)`` joined by ``sep``; ``kinds`` are the
    element types of the whole list the slice was cut from.

    A slice of a list of booleans, or of a list of floats whose slice is all
    0 or in ``_REPR_RANGE`` in magnitude, goes through orjson, whose text for
    them is ``repr``'s; its compact commas become ``sep``, as no such item
    holds a comma. Any other slice (NaN, infinities, tiny or huge floats,
    ints, strings, None, mixed types) goes through the C encoder.
    """
    if kinds == {bool} or kinds == {float} and _in_repr_range(chunk):
        return orjson.dumps(chunk).decode()[1:-1].replace(",", sep)
    return json.dumps(chunk, separators=(sep, ": "))[1:-1]


def _in_repr_range(floats: list | tuple) -> bool:
    a = np.abs(np.fromiter(floats, float, len(floats)))
    low, high = _REPR_RANGE
    return bool(np.all((a == 0) | ((a >= low) & (a < high))))


def write_report(report: dict, path: str | Path | None) -> None:
    """Write a report as sorted, indented JSON to path, or to stdout when path is None.

    The text is byte for byte ``json.dumps(report, sort_keys=True, indent=2)``
    plus a newline. It is written as it is encoded, so neither the whole text
    nor that of a whole list is ever held. A value JSON cannot encode raises
    TypeError and leaves any earlier file at path as it was (on stdout, the
    text before it stays written)."""
    with _writer(path) as write:
        _write_json(report, write)
        write("\n")


def write_spectrum_csv(values, path: str | Path | None) -> None:
    """One eigenvalue per line (``%.17g``), to path, or to stdout when path is None."""
    with _writer(path) as write:
        for chunk in _slices(values):
            write(("%.17g\n" * len(chunk)) % tuple(chunk))


def check_writable(path: str | Path | None) -> None:
    """Raise the InputDataError that writing a report or CSV to path would raise,
    before the work that makes it: open and remove the temporary file the write
    would go through.  Stdout and an existing path that is no regular file (a
    pipe is not opened here: that would block) pass, unless it is a directory."""
    files = _files(path)
    if files is not None:
        _open(files[1], path).close()
        files[1].unlink()
    elif path is not None and Path(path).is_dir():
        _open(Path(path), path)  # raises: a directory cannot be opened for writing


def _files(path: str | Path | None) -> tuple[Path, Path] | None:
    """The file a write to path replaces (a symlink followed) and the temporary file
    beside it that the write goes through; None for stdout or for a path that
    exists but is no regular file, which is written directly."""
    if path is None or Path(path).exists() and not Path(path).is_file():
        return None
    try:
        target = Path(path).resolve()
    except ValueError as exc:  # a NUL byte in the path
        raise InputDataError(str(exc)) from exc
    return target, target.with_name(f".{target.name}.{os.getpid()}.tmp")


@contextlib.contextmanager
def _writer(path: str | Path | None):
    """The ``write`` of stdout or, with a path, of a temporary file beside it that
    replaces path when the block ends and is removed if the block raises.  A
    path that exists but is no regular file, such as a pipe or /dev/stdout, is
    written directly; a symlink is followed to the file it names.  A file that
    cannot be opened raises InputDataError naming path as given."""
    if path is None:
        yield sys.stdout.write
        return
    files = _files(path)
    if files is None:
        with _open(Path(path), path) as f:
            yield f.write
        return
    target, tmp = files
    f = _open(tmp, path)
    try:
        with f:
            yield f.write
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _open(path: Path, given: str | Path):
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise InputDataError(f"cannot write {given}: {exc.strerror}") from exc
