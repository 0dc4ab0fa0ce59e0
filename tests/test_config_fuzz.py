"""Mutated configs end in an exit code, never a traceback.

Each example takes a demo config on a coarse grid and changes one or two of
its entries: a value of another type, a deleted key or an unknown key. It
runs the result through ``cli.main``, which must return 0-3 and raise
nothing, and return 1 (a violation) only when the report's ``overall_pass``
is false.  A config that still holds an added key must be refused (exit 2):
every block refuses a key it does not read.

The arguments of ``constants`` are fuzzed too: any dimension near the
supported range and any float exponent end in 0 or 3 where both are valid,
and in 2 otherwise.
"""

import copy
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from magspec import cli

CONFIG_DIR = Path(__file__).resolve().parents[1] / "demos" / "configs"


def _coarse(config: dict) -> dict:
    """The config with a grid spectrum at h = 1/8 (49 interior nodes on the unit square)."""
    if config["spectrum"]["type"] == "grid":
        config["spectrum"]["domain"]["h"] = 0.125
    return config


CONFIGS = [_coarse(json.loads(p.read_text())) for p in sorted(CONFIG_DIR.glob("*.json"))]
#: A grid config shaped like the benchmark's: a gauge and a potential with every key,
#: an eigenfunction block with the ODE check and a convergence reference.
CONFIGS.append({
    "spectrum": {"type": "grid",
                 "domain": {"shape": "lshape", "a": 1.0, "b": 1.0, "cut": 0.5, "h": 0.125},
                 "gauge": {"kind": "linear_gauge_shift", "B": 4.0, "chi_coeffs": [0.3, -0.2, 0.1]},
                 "potential": {"kind": "radial_quadratic", "a": 1.0, "center": [0.25, 0.25]},
                 "solver": {"k": 6, "tol": 1e-10}},
    "checks": [{"name": "li-yau", "ks": [1, 6]}, {"name": "berezin-li-yau", "lambda_indices": [4]},
               {"name": "ground-state-riesz-lower", "lambda_indices": [4]}],
    "eigenfunction": {"chiti": True, "comparison": True, "ode": True},
    "reference": {"type": "box", "lengths": [1.0, 1.0]},
})

#: Substitutes: every JSON type, and numbers from -1 to 1e300 with NaN and infinities.
VALUES = [None, True, False, "x", "1.0", [], {}, [1.0], [1.0, 2.0, 3.0], {"kind": "x"},
          -1, 0, 1, 2, 40, 10**8, -1.0, 1e-300, 1e-8, 0.5, 7.0, 1e8, 1e300,
          float("nan"), float("inf"), float("-inf")]
#: A substitute of its own, so that a later mutation cannot change VALUES.
VALUE = st.sampled_from(VALUES).map(copy.deepcopy)


def _paths(node, prefix=()):
    """Paths (tuples of keys and indices) to every entry below node."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _parent(config, path):
    for key in path[:-1]:
        config = config[key]
    return config


@st.composite
def mutated(draw):
    """A command and a demo config with one or two entries changed."""
    config = copy.deepcopy(draw(st.sampled_from(CONFIGS)))
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_paths(config))))
        parent, action = _parent(config, path), draw(st.sampled_from(["set", "delete", "add"]))
        if action == "delete" and isinstance(parent, dict):
            del parent[path[-1]]
        elif action == "add" and isinstance(parent[path[-1]], dict):
            parent[path[-1]]["unknown"] = draw(VALUE)
        else:
            parent[path[-1]] = draw(VALUE)
    return draw(st.sampled_from(["verify", "spectrum", "convergence"])), config


def _holds_added_key(node) -> bool:
    if isinstance(node, dict):
        return "unknown" in node or any(map(_holds_added_key, node.values()))
    return isinstance(node, list) and any(map(_holds_added_key, node))


def _run(command: str, config: dict) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp, "cfg.json"), Path(tmp, "out")
        cfg.write_text(json.dumps(config))
        argv = [command, "--config", str(cfg), "--out", str(out)]
        code = cli.main(argv + (["--levels", "2"] if command == "convergence" else []))
        assert code in (0, 1, 2, 3)
        assert code == 2 or not _holds_added_key(config)
        if code == 1:
            assert command == "verify" and not json.loads(out.read_text())["overall_pass"]


@settings(max_examples=250, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated())
@example(("spectrum", {"spectrum": {"type": "grid",
                                    "domain": {"shape": [], "h": 0.125}}}))
@example(("verify", {**CONFIGS[0], "unknown": None}))
def test_mutated_config_ends_in_an_exit_code(case):
    _run(*case)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(-3, 14), st.floats())
@example(2, 1e200)
def test_constants_arguments_end_in_an_exit_code(d, p):
    # the "=" form: argparse reads "--p -1e+16" as an option
    code = cli.main(["constants", f"--dim={d}", f"--p={p!r}"])
    assert code in ((0, 3) if 2 <= d <= 10 and 0 < p < float("inf") else (2,))
