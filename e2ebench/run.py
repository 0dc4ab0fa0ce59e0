"""End-to-end benchmark of magspec commands.

    python3 e2ebench/run.py --workload magnetic-grid --seed 1 --seconds 40 --trace 0

Run from the root of the repository. The driver builds the workload's
commands from the seed, then runs passes one at a time, each in a fresh
interpreter (passrun.py), as long as the next pass is likely to end within
--seconds. After each pass it reads every report back and checks it against
spectra computed apart from magspec (oracles.py, checks.py). The last line
of stdout is one JSON object: commands attempted and failed, whether every
report was right, and the metrics: with --trace 0 the end-to-end ones, with
--trace 1 the per-layer ones from passes run under tracing.py. Details of
each run go to e2ebench/out/.
"""

from __future__ import annotations

import os
import time

_STARTED = time.monotonic()
# One BLAS thread. On a 2-core VM shared with other tenants, two threads
# gave a wider run-to-run spread for about the same pass time.
_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = _THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = "e2ebench/out"

#: Set-up time is the median of at least this many interpreter starts a run.
MIN_SETUPS = 5
#: A pass still running this long after the driver started is killed.
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "longest_cmd_s": "s", "peak_rss_mb": "MB"}


def _log(msg: str) -> None:
    print(f"e2ebench: {msg}", file=sys.stderr, flush=True)


def _spawn(plan: dict) -> dict | None:
    """Run passrun.py on `plan`; its result with `setup_s` added, or None if
    the interpreter crashed or outlived the run limit."""
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "passrun.py")], cwd=ROOT,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(json.dumps(plan),
                                     timeout=max(1.0, _STARTED + RUN_LIMIT_S - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        _log("pass killed at the run time limit")
        return None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        _log(f"pass interpreter exited with code {proc.returncode}")
        return None
    result = json.loads(lines[-1])
    result["setup_s"] = result["setup_done"] - spawned
    return result


def command_problems(cmd, record: dict) -> tuple[list[str], bool]:
    """Problems of one command run, and whether they lie in its output
    (a report that came out wrong) rather than in a crash or exit code."""
    if record["error"]:
        return [record["error"].strip().splitlines()[-1]], False
    if record["exit"] != 0:
        return [f"exit code {record['exit']}: {record['stdout'][-500:]}"], False
    try:
        report = json.loads(Path(cmd.report_path).read_text())
        config = cmd.config if cmd.config is not None else json.loads(
            Path(cmd.config_path).read_text())
    except (OSError, ValueError) as exc:
        return [f"report unreadable: {exc}"], True
    return checks.problems(cmd, config, report), True


def _metric(name: str, value: float) -> dict:
    if name in END_TO_END_UNITS:
        unit = END_TO_END_UNITS[name]
    elif name.endswith("_s"):
        unit = "s"
    elif name.endswith("_bytes"):
        unit = "bytes"
    else:
        unit = "count"
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "magspec" / "__init__.py").is_file():
        _log(f"no magspec sources under {ROOT / 'src'}; run from a checkout of the repository")
        return 2
    os.chdir(ROOT)
    outdir = f"{OUT}/{args.workload}"
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    commands = workloads.build(args.workload, args.seed, outdir)
    plan = {"trace": bool(args.trace), "trace_path": f"{outdir}/trace.json",
            "commands": [{"name": c.name, "argv": c.argv(), "config_path": c.config_path,
                          "config": c.config} for c in commands]}

    passes, setups, problems, rounds = [], [], [], []
    attempted = failed = 0
    wrong_output = False
    start = time.monotonic()
    # whole passes until the next one would likely end after --seconds
    while not rounds or time.monotonic() - start + statistics.median(rounds) <= args.seconds:
        round_start = time.monotonic()
        for cmd in commands:
            for suffix in (".json", ".csv"):
                Path(cmd.report_path).with_suffix(suffix).unlink(missing_ok=True)
        result = _spawn(plan)
        attempted += len(commands)
        if result is None:
            failed += len(commands)
            break
        passes.append(result)
        setups.append(result["setup_s"])
        for cmd, record in zip(commands, result["commands"]):
            found, in_output = command_problems(cmd, record)
            del record["stdout"]
            if found:
                failed += 1
                wrong_output |= in_output
                problems.append({"pass": len(passes), "command": cmd.name, "problems": found})
                _log(f"pass {len(passes)} {cmd.name} FAILED: {'; '.join(found)}")
        _log(f"pass {len(passes)}: setup {result['setup_s']:.3f} s, "
             f"commands {result['pass_s']:.3f} s")
        rounds.append(time.monotonic() - round_start)
    if not passes:
        _log("no pass completed")
        return 1

    if args.trace:
        samples = {name: [p["layers"][name] for p in passes] for name in passes[0]["layers"]}
        samples["trace.pass_s"] = [p["pass_s"] for p in passes]
    else:
        setup_only = {**plan, "setup_only": True}
        while len(setups) < MIN_SETUPS:
            extra = _spawn(setup_only)
            if extra is None:
                break
            setups.append(extra["setup_s"])
        samples = {
            "setup_s": setups,
            "pass_s": [p["pass_s"] for p in passes],
            "longest_cmd_s": [max(c["seconds"] for c in p["commands"]) for p in passes],
            "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        }
    summaries = {name: stats.summary(values) for name, values in samples.items()}

    out = {"correct": not wrong_output, "attempted": attempted, "failed": failed,
           "metrics": {name: _metric(name, s["median"]) for name, s in summaries.items()}}
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "blas_threads": int(_THREADS), "summaries": summaries,
              "setups": setups, "passes": passes, "problems": problems, **out}
    Path(f"{OUT}/result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
