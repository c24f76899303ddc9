#!/usr/bin/env python3
"""Check the committed result files of the gated benches.

    python3 tests/bench/check_reports.py [repo-root]

Each BENCH_<name>.json written through bench::Report (bench/common.hpp)
must have exactly the top-level keys bench, context, run_config, results,
gates and passed; every gate must carry name, value, threshold, enforced,
passed and reason with their JSON types; at least one gate must be
enforced (a run that enforced none checked nothing); the top-level passed
must equal the conjunction of the enforced gates; and the context must say
a Release build on at least one CPU. Exits 1 and names every problem
otherwise.
"""

import json
import numbers
import os
import sys

GATED = ["ablations", "kernel", "lb", "paper", "rebalance", "scale"]
TOP_LEVEL = ["bench", "context", "run_config", "results", "gates", "passed"]


def is_number(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


GATE_FIELDS = {
    "name": lambda v: isinstance(v, str) and v != "",
    "value": is_number,
    "threshold": is_number,
    "enforced": lambda v: isinstance(v, bool),
    "passed": lambda v: isinstance(v, bool),
    "reason": lambda v: isinstance(v, str) and v != "",
}


def problems(name, report):
    """Every way `report` (parsed BENCH_<name>.json) breaks the schema."""
    if not isinstance(report, dict):
        return ["not a JSON object"]
    found = []
    if list(report) != TOP_LEVEL:
        found.append("top-level keys %s, want %s" % (list(report), TOP_LEVEL))
    if report.get("bench") != name:
        found.append("bench is %r, want %r" % (report.get("bench"), name))
    context = report.get("context")
    if not isinstance(context, dict):
        found.append("context is not an object")
    else:
        if context.get("build_type") != "Release":
            found.append("context.build_type is %r, want 'Release'"
                         % context.get("build_type"))
        cpus = context.get("num_cpus")
        if not (isinstance(cpus, int) and not isinstance(cpus, bool)
                and cpus >= 1):
            found.append("context.num_cpus is %r, want an integer >= 1"
                         % (cpus,))
    for key in ("run_config", "results"):
        if key in report and not isinstance(report[key], dict):
            found.append("%s is not an object" % key)
    gates = report.get("gates")
    if not isinstance(gates, list) or not gates:
        found.append("gates is not a non-empty list")
        return found
    well_formed = True
    for i, gate in enumerate(gates):
        if not isinstance(gate, dict) or sorted(gate) != sorted(GATE_FIELDS):
            found.append("gate %d has fields %s, want %s"
                         % (i, sorted(gate) if isinstance(gate, dict)
                            else gate, sorted(GATE_FIELDS)))
            well_formed = False
            continue
        for field, valid in GATE_FIELDS.items():
            if not valid(gate[field]):
                found.append("gate %d (%s): bad %s %r"
                             % (i, gate.get("name"), field, gate[field]))
                well_formed = False
    if well_formed:
        enforced = [g for g in gates if g["enforced"]]
        if not enforced:
            found.append("no gate is enforced")
        want = bool(enforced) and all(g["passed"] for g in enforced)
        if report.get("passed") is not want:
            found.append("passed is %r, but the enforced gates say %r"
                         % (report.get("passed"), want))
    return found


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    failed = False
    for name in GATED:
        path = os.path.join(root, "BENCH_%s.json" % name)
        try:
            with open(path) as f:
                found = problems(name, json.load(f))
        except (OSError, ValueError) as error:
            found = ["cannot load: %s" % error]
        for problem in found:
            print("%s: %s" % (path, problem))
        if not found:
            print("%s: ok" % path)
        failed = failed or bool(found)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
