#!/usr/bin/env python3
"""Run opass_cli and gate its peak RSS, with every observation sink on or off.

Usage:
    tools/check_peak_rss.py [--no-sinks] --bound-mib N CLI [CLI_ARGS...]

Runs CLI with CLI_ARGS plus all six sink flags (--metrics-out, --trace-out,
--timeline-out, --report-html, --spans-out, --critical-path) writing into a
temporary directory, then reads the child's peak resident set size
(ru_maxrss of the waited-for child, KiB on Linux) and compares it with N MiB.
With --no-sinks, CLI runs with CLI_ARGS alone, so the gate measures a run
that no observer reads.

Exit code 0 when the peak is within the bound, 1 when it exceeds it, 2 on a
usage error or a failed run. Used by the `cli_sinks_peak_rss` (all sinks)
and `cli_iterative_peak_rss` (--no-sinks) ctest entries.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import tempfile

SINK_FLAGS = (
    ("metrics-out", "metrics.json"),
    ("trace-out", "trace.json"),
    ("timeline-out", "timeline.json"),
    ("report-html", "report.html"),
    ("spans-out", "spans.json"),
    ("critical-path", "critical_path.json"),
)


def main(argv: list[str]) -> int:
    args = argv[1:]
    sinks = not (args and args[0] == "--no-sinks")
    if not sinks:
        args = args[1:]
    if len(args) < 3 or args[0] != "--bound-mib":
        print(__doc__, file=sys.stderr)
        return 2
    try:
        bound_mib = float(args[1])
    except ValueError:
        print(f"check_peak_rss: bad bound '{args[1]}'", file=sys.stderr)
        return 2
    flags = SINK_FLAGS if sinks else ()
    with tempfile.TemporaryDirectory() as out:
        cmd = args[2:] + [f"--{flag}={os.path.join(out, name)}" for flag, name in flags]
        run = subprocess.run(cmd, stdout=subprocess.DEVNULL)
        if run.returncode != 0:
            print(f"check_peak_rss: exit code {run.returncode}: {' '.join(cmd)}")
            return 2
        sink_bytes = sum(os.path.getsize(os.path.join(out, name)) for _, name in flags)
    peak_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    verdict = "ok" if peak_mib <= bound_mib else "over the bound"
    print(f"check_peak_rss: peak RSS {peak_mib:.1f} MiB, bound {bound_mib:.1f} MiB, "
          f"sinks {sink_bytes / 1e6:.1f} MB: {verdict}")
    return 0 if peak_mib <= bound_mib else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
