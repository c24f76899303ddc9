#!/usr/bin/env python3
"""Self-test for massf-analyze: every rule must trip on its seeded fixture
tree and stay quiet on its allow/ counterpart.

Fixtures are *directories* (fixtures/trip_<rule>/, fixtures/allow_<rule>/,
rule name with '-' -> '_'), each a miniature multi-TU program, because the
analyzer's whole point is cross-translation-unit reasoning: the deadlock
cycle, the hot-path allocation, and the hash taint each live in a
different file from the code that completes them.

Also validates the SARIF output (structure + locations against a trip
run), the baseline round-trip (--write-baseline silences a re-run), and
--require-roots (a tree with no annotated roots must fail loudly, not
pass vacuously).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
ANALYZE = os.path.join(REPO, "tools", "massf_analyze.py")
FIXTURES = os.path.join(HERE, "fixtures")

# Findings a trip tree must report by name, beyond "some finding for the
# rule": a tree that already trips elsewhere would otherwise hide a growth
# call the analyzer stopped recognizing.
EXPECTED_FINDINGS = {
    "trip_hot_path_alloc": [
        "'g_backlog.push_back'",
        "'g_flow_records.try_emplace'",
        "'g_flow_bytes.emplace_hint'",
        "'g_flow_last_seen.insert_or_assign'",
    ],
}


def run(extra: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, ANALYZE] + extra,
        capture_output=True, text=True, check=False)


def run_dir(directory: str, rule: str,
            extra: list[str] | None = None) -> subprocess.CompletedProcess:
    return run(["--root", os.path.join(FIXTURES, directory), "--src", ".",
                "--only", rule] + (extra or []))


def fail(msg: str) -> None:
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def list_rules() -> list[str]:
    proc = run(["--list-rules"])
    if proc.returncode != 0:
        fail(f"--list-rules exited {proc.returncode}")
    return [line.split()[0] for line in proc.stdout.splitlines()
            if line and not line.startswith(" ")]


def main() -> None:
    rules = list_rules()
    if not rules:
        fail("no rules registered")
    checked = 0

    for rule in rules:
        stem = rule.replace("-", "_")
        for kind in ("trip", "allow"):
            directory = f"{kind}_{stem}"
            if not os.path.isdir(os.path.join(FIXTURES, directory)):
                fail(f"missing fixture directory fixtures/{directory} "
                     f"for rule '{rule}'")
            proc = run_dir(directory, rule)
            if kind == "trip":
                if proc.returncode != 1:
                    fail(f"{directory}: expected findings (exit 1), got "
                         f"exit {proc.returncode}\n{proc.stdout}"
                         f"{proc.stderr}")
                if f"[{rule}]" not in proc.stdout:
                    fail(f"{directory}: findings do not mention [{rule}]:\n"
                         f"{proc.stdout}")
                for expected in EXPECTED_FINDINGS.get(directory, []):
                    if expected not in proc.stdout:
                        fail(f"{directory}: no finding for {expected}:\n"
                             f"{proc.stdout}")
            else:
                if proc.returncode != 0:
                    fail(f"{directory}: expected clean (exit 0), got "
                         f"exit {proc.returncode}\n{proc.stdout}"
                         f"{proc.stderr}")
            checked += 1

    # SARIF: a trip run must produce a structurally valid 2.1.0 report
    # whose results point into the fixture tree.
    with tempfile.TemporaryDirectory() as tmp:
        sarif_path = os.path.join(tmp, "out.sarif")
        proc = run_dir("trip_lock_cycle", "lock-cycle",
                       ["--sarif", sarif_path])
        if proc.returncode != 1:
            fail(f"sarif trip run: expected exit 1, got {proc.returncode}")
        with open(sarif_path, encoding="utf-8") as fh:
            sarif = json.load(fh)
        if sarif.get("version") != "2.1.0":
            fail(f"sarif version: {sarif.get('version')!r}")
        runs = sarif.get("runs")
        if not runs or runs[0]["tool"]["driver"]["name"] != "massf-analyze":
            fail("sarif runs[0].tool.driver.name missing or wrong")
        rule_ids = {r["id"] for r in runs[0]["tool"]["driver"]["rules"]}
        if set(rules) != rule_ids:
            fail(f"sarif rule table {sorted(rule_ids)} != registered "
                 f"{sorted(rules)}")
        results = runs[0].get("results", [])
        if not results:
            fail("sarif results empty on a trip run")
        for res in results:
            if res["ruleId"] != "lock-cycle":
                fail(f"sarif result ruleId {res['ruleId']!r}")
            loc = res["locations"][0]["physicalLocation"]
            if not loc["artifactLocation"]["uri"].endswith(".cpp"):
                fail(f"sarif location uri {loc['artifactLocation']['uri']!r}")
            if not isinstance(loc["region"]["startLine"], int) \
                    or loc["region"]["startLine"] < 1:
                fail(f"sarif startLine {loc['region']['startLine']!r}")
        checked += 1

        # Baseline round-trip: recording a trip tree's findings must
        # silence an identical re-run, and the keys must be line-free.
        base_path = os.path.join(tmp, "analyze.baseline")
        proc = run_dir("trip_hot_path_alloc", "hot-path-alloc",
                       ["--write-baseline", base_path])
        if proc.returncode != 0:
            fail(f"--write-baseline exited {proc.returncode}")
        with open(base_path, encoding="utf-8") as fh:
            keys = [l for l in fh.read().splitlines()
                    if l and not l.startswith("#")]
        if not keys or any(len(k.split("|")) != 4 for k in keys):
            fail(f"baseline keys malformed: {keys}")
        proc = run_dir("trip_hot_path_alloc", "hot-path-alloc",
                       ["--baseline", base_path])
        if proc.returncode != 0:
            fail(f"baselined re-run still failed:\n{proc.stdout}"
                 f"{proc.stderr}")
        checked += 1

    # --require-roots: a tree annotating no hot-path roots must error (exit
    # 2), never silently pass the vacuous closure.
    proc = run_dir("trip_lock_cycle", "hot-path-alloc", ["--require-roots"])
    if proc.returncode != 2:
        fail(f"--require-roots on a rootless tree: expected exit 2, got "
             f"{proc.returncode}\n{proc.stdout}{proc.stderr}")
    checked += 1

    print(f"ok: {checked} analyze checks, {len(rules)} rules covered")


if __name__ == "__main__":
    main()
