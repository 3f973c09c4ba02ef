"""Runs one ``partitions`` CLI invocation for the ``cli`` workload.

    python3 perfbench/launcher.py --report PATH --spawned NS [--trace] -- ARGS...

It imports ``partitions.cli`` from the checkout's ``src/`` and calls
``partitions.cli.main(ARGS)``, so stdout, stderr and the exit code are the
CLI's own.  ``--spawned`` is the parent's ``time.monotonic_ns()`` just
before it started this process (CLOCK_MONOTONIC is system-wide on Linux),
which gives the start-up time (interpreter plus import).  With ``--trace``
the library calls are traced.  With no ARGS it only imports and reports.

The report (JSON: startup_s, maxrss_kb, trace summary) goes to the
``--report`` file, not to the CLI's streams.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def _option(argv: list[str], flag: str) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else None


def main() -> int:
    own, cli_args = sys.argv[1:], []
    if "--" in own:
        cut = own.index("--")
        own, cli_args = own[:cut], own[cut + 1:]
    report_path = _option(own, "--report")
    spawned = int(_option(own, "--spawned"))

    import partitions.cli

    startup_s = (time.monotonic_ns() - spawned) / 1e9
    tracer = None
    if "--trace" in own:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    code = 0
    try:
        if cli_args:
            code = partitions.cli.main(cli_args)
    except SystemExit as exc:  # argparse usage errors exit through here
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdout.flush()
        report = {
            "startup_s": startup_s,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "trace": tracer.summary() if tracer else None,
        }
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
