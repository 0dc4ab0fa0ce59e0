"""The three workloads: the magspec commands of one pass and what each
report must contain.

A seed picks the field strength, the gauge-shift coefficients, the potential
coefficient and the check indices from fixed ranges on which every verdict
holds. Grid sizes do not depend on the seed, so neither does the work in a
pass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles

WORKLOADS = ("magnetic-grid", "zero-field-grid", "analytic")

DEMO_CONFIG = "demos/configs/unit_square_analytic.json"

#: Fock-Darwin and oscillator levels must lie within FD_C h^2 lambda^2 of the
#: continuum; the 5-point error measured up to h = 0.1 is below 0.09 h^2 lambda^2.
FD_C = 0.2
#: Dense and sparse solves of the same matrix agree far closer than this.
DENSE_RTOL = 1e-8
#: Observed convergence orders of the 5-point stencil must lie in this range.
ORDER_RANGE = (1.9, 2.1)


@dataclass(frozen=True)
class Command:
    """One magspec invocation of a pass.

    `config` is written to `config_path` during the pass's set-up; a command
    with `config` None reads a config file of the repository. `expect` says
    what its report must hold (see checks.py).
    """

    name: str
    subcommand: str
    config_path: str
    report_path: str
    config: dict | None
    expect: dict

    def argv(self) -> list[str]:
        argv = [self.subcommand, "--config", self.config_path, "--out", self.report_path]
        if self.subcommand == "convergence":
            argv += ["--levels", str(self.expect["levels"])]
        return argv


def _pick(rng, lo, hi, count):
    """`count` distinct sorted integers from [lo, hi]."""
    return sorted(int(x) for x in rng.choice(np.arange(lo, hi + 1), size=count, replace=False))


def _checks(rng, k: int, per: int, grid: bool) -> list[dict]:
    """A full check list on a spectrum of k values; `per` indices per check.

    Ratio-bound indices stay below 600: (1 + 4/d)^k overflows a float from
    k = 647 at d = 2.
    """
    kk = min(k - 1, 600)
    checks = [
        {"name": "berezin-li-yau", "lambda_indices": _pick(rng, 2, k, per)},
        {"name": "li-yau", "ks": _pick(rng, 1, k, per)},
        {"name": "riesz-mean-lower", "lambda_indices": _pick(rng, 2, k, per)},
        {"name": "shifted-sum-upper", "ks": _pick(rng, 2, k, per)},
        {"name": "ratio-bounds", "ks": _pick(rng, 1, kk, per)},
        {"name": "yang", "ks": _pick(rng, 1, k - 1, per)},
        {"name": "yang-corollaries", "ks": _pick(rng, 1, k - 1, per)},
    ]
    if grid:
        checks.append({"name": "ground-state-riesz-lower", "lambda_indices": _pick(rng, 2, k, per)})
    return checks


def _grid(domain: dict, gauge: dict, potential: dict, k: int, checks: list[dict],
          eigenfunction: bool) -> dict:
    cfg = {
        "spectrum": {"type": "grid", "domain": domain, "gauge": gauge, "potential": potential,
                     "solver": {"k": k, "tol": 1e-10}},
        "checks": checks,
    }
    if eigenfunction:
        cfg["eigenfunction"] = {"chiti": True, "comparison": True, "ode": True}
    return cfg


def _square(n_cells: int) -> dict:
    return {"shape": "rectangle", "a": 1.0, "b": 1.0, "h": 1.0 / n_cells}


def build(workload: str, seed: int, outdir: str) -> list[Command]:
    """The commands of one pass of `workload` for `seed`, with their
    expectations. Configs and reports live under `outdir`."""
    rng = np.random.default_rng([seed % 2**64, WORKLOADS.index(workload)])
    specs: list[tuple[str, str, dict | None, dict]] = []
    if workload == "magnetic-grid":
        B = float(rng.uniform(4.0, 6.0))
        B_l = float(rng.uniform(3.0, 6.0))
        chi = [float(x) for x in rng.uniform(-1.0, 1.0, size=3)]
        B_fd = float(rng.uniform(1.5, 2.5))
        a_fd = float(rng.uniform(0.75, 1.25))
        uniform = {"kind": "uniform", "B": B}
        zero = {"kind": "zero"}
        dense_square = oracles.peierls_spectrum(oracles.grid_nodes(32), 1 / 32, B, 12)
        specs += [
            ("square-h32", "verify",
             _grid(_square(32), uniform, zero, 12, _checks(rng, 12, 2, True), True),
             {"values": dense_square, "rtol": DENSE_RTOL}),
            ("lshape-h40", "verify",
             _grid({"shape": "lshape", "a": 1.0, "b": 1.0, "cut": 0.5, "h": 1 / 40},
                   {"kind": "linear_gauge_shift", "B": B_l, "chi_coeffs": chi}, zero, 12,
                   _checks(rng, 12, 2, True), True),
             {"values": oracles.peierls_spectrum(oracles.grid_nodes(40, 20), 1 / 40, B_l, 12),
              "rtol": DENSE_RTOL}),
            ("fock-darwin-h0.1", "verify",
             _grid({"shape": "disk", "radius": 6.0, "h": 0.1}, {"kind": "uniform", "B": B_fd},
                   {"kind": "radial_quadratic", "a": a_fd}, 8, _checks(rng, 8, 2, True), True),
             {"continuum": oracles.fock_darwin_levels(a_fd, B_fd, 8), "h": 0.1}),
            ("square-h256", "verify",
             _grid(_square(256), uniform, zero, 12, _checks(rng, 12, 2, True), True),
             {"lambda1_floor": float(oracles.square_discrete_spectrum(256, 1)[0])}),
            ("square-h32-convergence", "convergence",
             _grid(_square(32), uniform, zero, 12, [], False),
             {"levels": 3, "level_values": {0: dense_square}, "rtol": DENSE_RTOL,
              "orders": ORDER_RANGE}),
        ]
    elif workload == "zero-field-grid":
        c = float(rng.uniform(0.0, 5.0))
        a_ho = float(rng.uniform(0.75, 1.25))
        none = {"kind": "none"}
        const = {"kind": "constant", "c": c}
        conv = _grid(_square(64), none, {"kind": "zero"}, 12, [], False)
        conv["reference"] = {"type": "box", "lengths": [1.0, 1.0]}
        specs += [
            ("square-h32", "verify",
             _grid(_square(32), none, const, 12, _checks(rng, 12, 2, True), True),
             {"values": oracles.square_discrete_spectrum(32, 12, c), "rtol": DENSE_RTOL}),
            ("square-h128", "verify",
             _grid(_square(128), none, const, 12, _checks(rng, 12, 2, True), True),
             {"values": oracles.square_discrete_spectrum(128, 12, c), "rtol": DENSE_RTOL}),
            ("oscillator-h0.1", "verify",
             _grid({"shape": "disk", "radius": 6.0, "h": 0.1}, none,
                   {"kind": "radial_quadratic", "a": a_ho}, 10, _checks(rng, 10, 2, True), True),
             {"continuum": oracles.fock_darwin_levels(a_ho, 0.0, 10), "h": 0.1}),
            ("square-h64-convergence", "convergence", conv,
             {"levels": 3, "rtol": DENSE_RTOL, "orders": ORDER_RANGE,
              "level_values": {i: oracles.square_discrete_spectrum(64 * 2**i, 12)
                               for i in range(3)}}),
        ]
    elif workload == "analytic":
        for name, source, count in (
            ("disk-2000", {"type": "disk", "radius": 1.0}, 2000),
            ("disk-5000", {"type": "disk", "radius": 1.0}, 5000),
            ("box3-1e5", {"type": "box", "lengths": [1.0, 1.2, 0.9]}, 100000),
            ("box5-1e5", {"type": "box", "lengths": [1.0, 1.0, 1.0, 1.0, 1.0]}, 100000),
        ):
            cfg = {"spectrum": {**source, "count": count},
                   "checks": _checks(rng, count, 3, False)}
            specs.append((name, "verify", cfg, {"values": _analytic_values(cfg), "rtol": 1e-10}))
        demo = json.loads(Path(DEMO_CONFIG).read_text())
        specs.append(("demo-square", "verify", None,
                      {"values": _analytic_values(demo), "rtol": 1e-10}))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")

    commands = []
    for name, sub, cfg, expect in specs:
        config_path = f"{outdir}/{name}.config.json" if cfg is not None else DEMO_CONFIG
        commands.append(Command(name, sub, config_path, f"{outdir}/{name}.report.json", cfg,
                                expect))
    return commands


def _analytic_values(cfg: dict) -> np.ndarray:
    src = cfg["spectrum"]
    if src["type"] == "disk":
        return oracles.disk_spectrum(float(src["radius"]), int(src["count"]))
    return oracles.box_spectrum(src["lengths"], int(src["count"]))
