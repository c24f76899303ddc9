#!/usr/bin/env python3
"""Self-test for massf-check, driven by ctest (label "lint").

Every fixture is a src/-shaped mini-tree under fixtures/, so each rule's
directory scope applies exactly as in the real tree. Its name says what it
proves ('-' in a rule name becomes '_'):

    trip_<rule>[__<variant>]/   must produce findings for <rule> (exit 1)
    allow_<rule>[__<variant>]/  must be clean (exit 0): suppressions and
                                sanctioned shapes for the same rule

Each is checked with --root <fixture> --only <rule>. Every rule that
--list-rules prints must have at least one fixture of each kind, so a rule
cannot land untested. Whole-program fixtures span several files, because
the cycle, the allocation and the taint each live in a different
translation unit from the code that completes them.

Also checked: the SARIF output of a trip run, the baseline round trip
(--write-baseline silences an identical re-run), and that a root-driven
rule on a tree with no annotated root fails (exit 2) instead of passing.

One section per ctest entry; no argument runs every fixture section:

    check_fixtures.py lint_fixtures       per-file rules' fixtures
    check_fixtures.py analyze_fixtures    whole-program rules' fixtures,
                                          SARIF, baseline, rootless tree
    check_fixtures.py lint_rule_coverage  every rule has both fixture
                                          kinds, every fixture names a rule
    check_fixtures.py analyze_tree        each whole-program rule alone is
                                          clean on the real tree
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
CHECK = os.path.join(REPO, "tools", "massf_check.py")
FIXTURES = os.path.join(HERE, "fixtures")

# Findings a trip tree must report by name, beyond "some finding for the
# rule": a tree that already trips elsewhere would otherwise hide a growth
# call the checker stopped recognizing.
EXPECTED_FINDINGS = {
    "trip_unused_allow": [
        "src/app/pool.cpp:3: [unused-allow] allow(raw-new)",
        "src/des/cleanup.cpp:7: [unused-allow] allow(unchecked-io)",
        "src/emu/dispatch.cpp:12: [unused-allow] allow(hot-path-alloc)",
        "src/emu/flights.cpp:11: [unused-allow] allow(hot-path-alloc)",
    ],
    "trip_hot_path_alloc": [
        "'g_backlog.push_back'",
        "'g_flow_records.try_emplace'",
        "'g_flow_bytes.emplace_hint'",
        "'g_flow_last_seen.insert_or_assign'",
        "'g_flow_index.assign'",
    ],
}


def run(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, CHECK] + args,
                          capture_output=True, text=True, check=False)


def run_tree(root: str, rule: str,
             extra: list[str] | None = None) -> subprocess.CompletedProcess:
    return run(["--root", root, "--only", rule] + (extra or []))


def fail(msg: str) -> None:
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def list_rules() -> dict[str, str]:
    """Rule name -> scope ("file" or "program"), in table order."""
    listed = run(["--list-rules"])
    if listed.returncode != 0:
        fail(f"--list-rules exited {listed.returncode}")
    rules = {line.split()[0]: line.split()[1]
             for line in listed.stdout.splitlines()
             if line and not line.startswith(" ")}
    if not rules:
        fail("no rules registered")
    return rules


def fixture_rule(name: str) -> tuple[str, str]:
    """'trip_lock_cycle__x' -> ('trip', 'lock-cycle')."""
    kind, _, rest = name.partition("_")
    return kind, rest.partition("__")[0].replace("_", "-")


def check_fixtures(rules: dict[str, str], scope: str) -> int:
    checked = 0
    for name in sorted(os.listdir(FIXTURES)):
        kind, rule = fixture_rule(name)
        if rules.get(rule) != scope:
            continue
        proc = run_tree(os.path.join(FIXTURES, name), rule)
        out = proc.stdout + proc.stderr
        checked += 1
        if kind == "allow":
            if proc.returncode != 0:
                fail(f"{name}: expected clean (exit 0), got exit "
                     f"{proc.returncode}\n{out}")
            continue
        if proc.returncode != 1 or f"[{rule}]" not in proc.stdout:
            fail(f"{name}: expected [{rule}] findings (exit 1), got exit "
                 f"{proc.returncode}\n{out}")
        for expected in EXPECTED_FINDINGS.get(name, []):
            if expected not in proc.stdout:
                fail(f"{name}: no finding for {expected}:\n{proc.stdout}")
    return checked


def check_coverage(rules: dict[str, str]) -> int:
    covered: dict[str, set[str]] = {}
    for name in os.listdir(FIXTURES):
        kind, rule = fixture_rule(name)
        if kind not in ("trip", "allow") or rule not in rules:
            fail(f"{name}: fixture names are trip_<rule> or allow_<rule> "
                 f"with a rule from {list(rules)}")
        covered.setdefault(rule, set()).add(kind)
    for rule in rules:
        missing = {"trip", "allow"} - covered.get(rule, set())
        if missing:
            fail(f"rule '{rule}' has no {'/'.join(sorted(missing))} fixture "
                 f"— add tests/lint/fixtures/{{trip,allow}}_"
                 f"{rule.replace('-', '_')}/src/...")
    return len(rules)


def check_outputs(rules: dict[str, str]) -> int:
    checked = 0
    with tempfile.TemporaryDirectory() as tmp:
        # SARIF: a trip run must produce a structurally valid 2.1.0 report
        # with the whole rule table and results pointing into the tree.
        sarif_path = os.path.join(tmp, "out.sarif")
        proc = run_tree(os.path.join(FIXTURES, "trip_lock_cycle"),
                        "lock-cycle", ["--sarif", sarif_path])
        if proc.returncode != 1:
            fail(f"sarif trip run: expected exit 1, got {proc.returncode}")
        with open(sarif_path, encoding="utf-8") as fh:
            sarif = json.load(fh)
        if sarif.get("version") != "2.1.0":
            fail(f"sarif version: {sarif.get('version')!r}")
        runs = sarif.get("runs")
        if not runs or runs[0]["tool"]["driver"]["name"] != "massf-check":
            fail("sarif runs[0].tool.driver.name missing or wrong")
        rule_ids = [r["id"] for r in runs[0]["tool"]["driver"]["rules"]]
        if rule_ids != list(rules):
            fail(f"sarif rule table {rule_ids} != registered {list(rules)}")
        results = runs[0].get("results", [])
        if not results:
            fail("sarif results empty on a trip run")
        for res in results:
            loc = res["locations"][0]["physicalLocation"]
            uri = loc["artifactLocation"]["uri"]
            if res["ruleId"] != "lock-cycle" or not uri.startswith("src/") \
                    or not uri.endswith(".cpp") \
                    or not isinstance(loc["region"]["startLine"], int) \
                    or loc["region"]["startLine"] < 1:
                fail(f"sarif result malformed: {res}")
        checked += 1

        # Baseline round trip: recording a trip tree's findings must
        # silence an identical re-run, and the keys must be line-free.
        tree = os.path.join(tmp, "tree")
        shutil.copytree(os.path.join(FIXTURES, "trip_hot_path_alloc"), tree)
        proc = run_tree(tree, "hot-path-alloc", ["--write-baseline"])
        if proc.returncode != 0:
            fail(f"--write-baseline exited {proc.returncode}\n{proc.stderr}")
        with open(os.path.join(tree, "tools", "massf_check.baseline"),
                  encoding="utf-8") as fh:
            keys = [l for l in fh.read().splitlines()
                    if l and not l.startswith("#")]
        if not keys or any(len(k.split("|")) != 4 for k in keys):
            fail(f"baseline keys malformed: {keys}")
        proc = run_tree(tree, "hot-path-alloc")
        if proc.returncode != 0:
            fail(f"baselined re-run still failed:\n{proc.stdout}"
                 f"{proc.stderr}")
        checked += 1

    # A tree that annotates no hot-path root must fail loudly (exit 2),
    # never pass the vacuous closure.
    proc = run_tree(os.path.join(FIXTURES, "trip_lock_cycle"),
                    "hot-path-alloc")
    if proc.returncode != 2:
        fail(f"rootless tree: expected exit 2, got {proc.returncode}\n"
             f"{proc.stdout}{proc.stderr}")
    checked += 1
    return checked


def check_tree(rules: dict[str, str]) -> int:
    # Each root-driven rule on its own must find its annotated roots in
    # the real tree (else exit 2) and report nothing there.
    program = [rule for rule, scope in rules.items() if scope == "program"]
    for rule in program:
        proc = run_tree(REPO, rule)
        if proc.returncode != 0:
            fail(f"real tree, {rule}: expected clean (exit 0), got exit "
                 f"{proc.returncode}\n{proc.stdout}{proc.stderr}")
    return len(program)


SECTIONS = {
    "lint_fixtures": lambda rules: check_fixtures(rules, "file"),
    "analyze_fixtures": lambda rules: (check_fixtures(rules, "program")
                                       + check_outputs(rules)),
    "lint_rule_coverage": check_coverage,
    "analyze_tree": check_tree,
}


def main() -> None:
    names = sys.argv[1:] or ["lint_fixtures", "analyze_fixtures",
                             "lint_rule_coverage"]
    for name in names:
        if name not in SECTIONS:
            fail(f"unknown section {name!r}; one of {list(SECTIONS)}")
    rules = list_rules()
    checked = sum(SECTIONS[name](rules) for name in names)
    print(f"ok: {checked} checks over {len(rules)} rules ({', '.join(names)})")


if __name__ == "__main__":
    main()
