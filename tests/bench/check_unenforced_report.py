#!/usr/bin/env python3
"""A bench report that enforced no gate must not pass.

    python3 tests/bench/check_unenforced_report.py <bench_scale binary>

Runs bench_scale with MASSF_SCALE_MAX_NODES=500, below its smallest scale,
so it measures nothing and records no enforced gate. The run must exit 1
and write "passed": false, and check_reports.py must reject the file.
Exits 77 (ctest: skipped) when bench::Report refuses a build with
assertions on.
"""

import json
import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from check_reports import problems  # noqa: E402

SKIP = 77


def main():
    binary = sys.argv[1]
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "BENCH_scale.json")
        env = dict(os.environ, MASSF_SCALE_MAX_NODES="500")
        run = subprocess.run([binary, path], env=env, capture_output=True,
                             text=True)
        if "refusing to record" in run.stderr:
            print("skipped: %s" % run.stderr.strip())
            return SKIP
        found = []
        if run.returncode != 1:
            found.append("exit status %d, want 1" % run.returncode)
        try:
            with open(path) as f:
                report = json.load(f)
        except (OSError, ValueError) as error:
            report = None
            found.append("cannot load the report: %s" % error)
        if report is not None:
            if report.get("passed") is not False:
                found.append("passed is %r, want false"
                             % report.get("passed"))
            if "no gate is enforced" not in problems("scale", report):
                found.append("check_reports.py accepts a report with no "
                             "enforced gate")
    for problem in found:
        print(problem)
    if not found:
        print("ok: a run with no enforced gate fails")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
