"""One pass of a workload, in the fresh interpreter the driver starts.

The plan arrives as JSON on stdin: the commands (argv, config path, config)
and whether to trace. The pass imports magspec from src/, writes the
configs, stamps the end of its set-up on the monotonic clock, then runs each
command through `magspec.cli.main(argv)` and prints one JSON line of
timings. Run from the root of the repository.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def main() -> None:
    plan = json.loads(sys.stdin.read())
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from magspec import cli

    for cmd in plan["commands"]:
        if cmd["config"] is not None:
            with open(cmd["config_path"], "w") as fh:
                json.dump(cmd["config"], fh, indent=2)
    result = {"setup_done": time.monotonic()}
    if plan.get("setup_only"):
        print(json.dumps(result))
        return

    tracer = None
    if plan["trace"]:
        import tracing

        tracer = tracing.install()
    commands = []
    pass_start = time.perf_counter()
    for cmd in plan["commands"]:
        out = io.StringIO()
        scope = tracer.command(cmd["name"]) if tracer else contextlib.nullcontext()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), scope:
                code = cli.main(cmd["argv"])
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash fails this command; the pass goes on
            code, error = None, traceback.format_exc()
        seconds = time.perf_counter() - start
        commands.append({"name": cmd["name"], "seconds": seconds, "exit": code,
                         "error": error, "stdout": out.getvalue()[-4000:]})
    result["pass_s"] = time.perf_counter() - pass_start
    result["commands"] = commands
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        result["layers"] = tracer.summary()
        with open(plan["trace_path"], "w") as fh:
            json.dump(tracer.records(), fh)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
