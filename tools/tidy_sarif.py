#!/usr/bin/env python3
"""tidy_sarif: gate clang-tidy output against a baseline, emitting SARIF.

run-clang-tidy's exit code is all-or-nothing and its output is plain text,
so promoting clang-tidy from advisory to gating needs a shim: parse the
warning lines, drop entries recorded in the checked-in baseline
(tools/clang_tidy.baseline), emit the survivors as SARIF 2.1.0 (same
serializer as massf-check, so CI uploads one format), and exit nonzero
only on unbaselined findings.

Baseline keys are `check|path|normalized message` — line-number-free, so
unrelated edits above a baselined finding don't resurrect it.

Usage
-----
    run-clang-tidy -p build ... 2>&1 | tools/tidy_sarif.py \
        --root . --baseline tools/clang_tidy.baseline --sarif out.sarif
    tools/tidy_sarif.py --input tidy.log ...          # from a saved log
    tools/tidy_sarif.py --write-baseline FILE ...     # record current state
"""

from __future__ import annotations

import argparse
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import massf_cpp  # noqa: E402

# /abs/path/file.cpp:12:3: warning: message text [check-name,other-check]
DIAG_RE = re.compile(
    r"^(?P<path>[^\s:][^:]*):(?P<line>\d+):(?P<col>\d+):\s*"
    r"(?P<level>warning|error):\s*(?P<msg>.*?)\s*"
    r"\[(?P<checks>[A-Za-z0-9_.,\-]+)\]\s*$")

# Lines clang-tidy prints that are not diagnostics (progress, suppression
# counts, the "N warnings generated" trailer).
NOISE_RE = re.compile(
    r"^(?:\d+ warnings? generated|Suppressed \d+ warnings|Use -header-filter"
    r"|clang-tidy|Enabled checks|\s*$|note:)")


def normalize(msg: str) -> str:
    return re.sub(r"\s+", " ", msg.strip())


def parse(stream, root: str) -> list[dict]:
    findings = []
    seen = set()
    for line in stream:
        m = DIAG_RE.match(line.rstrip("\n"))
        if not m:
            continue
        path = m.group("path")
        if os.path.isabs(path):
            try:
                path = os.path.relpath(path, root)
            except ValueError:
                pass
        path = path.replace(os.sep, "/")
        check = m.group("checks").split(",")[0]
        finding = {
            "rule": check,
            "level": m.group("level"),
            "message": normalize(m.group("msg")),
            "path": path,
            "line": int(m.group("line")),
        }
        key = (check, path, finding["line"], finding["message"])
        if key in seen:
            continue   # headers repeat across TUs
        seen.add(key)
        findings.append(finding)
    return findings


def baseline_key(f: dict) -> str:
    return f"{f['rule']}|{f['path']}|{f['message']}"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="tidy_sarif", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--input", default=None, metavar="FILE",
                        help="clang-tidy log to parse (default: stdin)")
    parser.add_argument("--root", default=None,
                        help="repository root for path relativization")
    parser.add_argument("--baseline", default=None, metavar="FILE")
    parser.add_argument("--write-baseline", default=None, metavar="FILE")
    parser.add_argument("--sarif", default=None, metavar="FILE")
    args = parser.parse_args(argv)

    root = os.path.abspath(
        args.root
        or os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

    if args.input:
        with open(args.input, encoding="utf-8", errors="replace") as fh:
            findings = parse(fh, root)
    else:
        findings = parse(sys.stdin, root)

    if args.write_baseline:
        with open(args.write_baseline, "w", encoding="utf-8") as fh:
            fh.write("# clang-tidy baseline: audited pre-existing findings."
                     "\n# One key per line: check|path|normalized message."
                     "\n# Regenerate with tools/tidy_sarif.py "
                     "--write-baseline <file>.\n")
            for key in sorted({baseline_key(f) for f in findings}):
                fh.write(key + "\n")
        print(f"tidy_sarif: wrote {len(findings)} finding key(s) to "
              f"{args.write_baseline}")
        return 0

    baseline = massf_cpp.load_baseline(args.baseline) if args.baseline else set()
    fresh = [f for f in findings if baseline_key(f) not in baseline]
    stale = baseline - {baseline_key(f) for f in findings}
    if stale:
        print(f"tidy_sarif: note: {len(stale)} stale baseline entr"
              f"{'y' if len(stale) == 1 else 'ies'} (prune the baseline)",
              file=sys.stderr)

    if args.sarif:
        rule_ids = sorted({f["rule"] for f in fresh})
        rules = [{"id": r, "description": f"clang-tidy check {r}"}
                 for r in rule_ids]
        with open(args.sarif, "w", encoding="utf-8") as fh:
            fh.write(massf_cpp.sarif_report(
                "clang-tidy",
                "https://clang.llvm.org/extra/clang-tidy/",
                rules, fresh))

    for f in fresh:
        print(f"{f['path']}:{f['line']}: [{f['rule']}] {f['message']}")
    suppressed = len(findings) - len(fresh)
    if fresh:
        print(f"tidy_sarif: {len(fresh)} unbaselined clang-tidy finding(s)"
              + (f" ({suppressed} baselined)" if suppressed else ""),
              file=sys.stderr)
        return 1
    if suppressed:
        print(f"tidy_sarif: clean ({suppressed} baselined finding(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
