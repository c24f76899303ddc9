#!/usr/bin/env python3
"""massf-lint: project-invariant static checks no off-the-shelf linter knows.

The emulator's headline guarantee is a bit-identical event history
(history_hash) across synchronization protocols and execution modes. That
property is easy to break silently: iterate a hash-ordered container into
event order, read the wall clock inside the simulation, forget to seed an
RNG, or let two engine threads bounce a shared cache line. Each rule below
encodes one such invariant; DESIGN.md §9 documents what every rule protects.

Rules
-----
  unordered-container  std::unordered_map/set in determinism-critical dirs
                       (hash iteration order can leak into event order)
  unseeded-rng         std::rand/srand/mt19937/random_device outside
                       src/util/rng.hpp (all randomness flows through the
                       seeded massf::Rng)
  wall-clock           system_clock/high_resolution_clock/time()/
                       gettimeofday in src/ (simulation time is modeled;
                       steady_clock is allowed for wall-time measurement)
  atomic-alignment     std::atomic struct/class members must be alignas(64)
                       — or live in an alignas(64) struct — so cross-thread
                       publishing never falsely shares a cache line
  raw-new              raw new/delete in src/des (the only raw ownership
                       left is the audited channel RunNode pool)
  busy-wait            raw poll loops in src/ (empty-body while or
                       std::this_thread::yield spins) outside
                       util/spinwait.hpp — idle waiting goes through
                       SpinWait/WaitSlot/SpinBarrier, which bound the spin
                       and escalate to a futex park
  unchecked-io         fwrite/fread/fclose calls whose return value is
                       discarded in src/ — a short write that nobody checks
                       turns a crash-safe checkpoint into a torn one; check
                       the result (or cast to void on audited cleanup paths)
  quadratic-reserve    same-token X * X capacity requests
                       (.reserve/.resize/.assign) in src/ outside
                       src/routing — an O(n²) allocation silently caps the
                       emulator at ~10⁴ nodes; quadratic state is allowed
                       only in the dense routing tables, which the
                       hierarchical backend replaces at scale

Suppression
-----------
A finding is suppressed by a comment on the same line or the line directly
above it:

    // massf-lint: allow(<rule>[, <rule>...]) — why this site is safe

The allow covers its own line, the next line, and — when the statement it
annotates wraps — every continuation line of that statement (unbalanced
parentheses or a line ending mid-expression extend the coverage).
Suppressions keep audited sites visible: grep for "massf-lint: allow" to
list every exception to the invariants.

Lexing (comments, string literals, raw strings) is shared with
massf-analyze via tools/massf_cpp.py, so text inside any literal — raw
strings spanning lines included — can never trip a rule.

Usage
-----
    tools/massf_lint.py                      # scan the repo (exit 1 on findings)
    tools/massf_lint.py --root DIR           # scan a different tree
    tools/massf_lint.py [--only RULE] [--no-dir-filter] FILE...
    tools/massf_lint.py --list-rules
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass, field

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import massf_cpp  # noqa: E402

SOURCE_EXTENSIONS = massf_cpp.SOURCE_EXTENSIONS

ALLOW_RE = re.compile(r"massf-lint:\s*allow\(([^)]*)\)")


@dataclass
class Rule:
    name: str
    dirs: tuple[str, ...]          # repo-relative roots the rule applies to
    exempt: tuple[str, ...]        # repo-relative paths exempt from the rule
    description: str
    patterns: tuple[re.Pattern, ...] = ()
    skip_includes: bool = True     # ignore matches on #include lines


RULES: dict[str, Rule] = {
    rule.name: rule
    for rule in [
        Rule(
            name="unordered-container",
            dirs=("src/des", "src/emu", "src/routing", "src/fault",
                  "src/topology"),
            exempt=(),
            description=("hash-ordered containers in determinism-critical "
                         "code: iteration order leaks into event order"),
            patterns=(re.compile(r"std::unordered_(?:map|set|multimap|multiset)"),),
        ),
        Rule(
            name="unseeded-rng",
            dirs=("src", "bench", "examples"),
            exempt=("src/util/rng.hpp",),
            description=("randomness outside the seeded massf::Rng breaks "
                         "bit-reproducible experiments"),
            patterns=(
                re.compile(r"std::rand\b"),
                re.compile(r"\bsrand\s*\("),
                re.compile(r"std::(?:mt19937|mt19937_64|minstd_rand0?"
                           r"|default_random_engine|random_device)\b"),
            ),
        ),
        Rule(
            name="wall-clock",
            dirs=("src",),
            exempt=(),
            description=("wall-clock reads inside simulation code make event "
                         "timing machine-dependent; use modeled SimTime, or "
                         "steady_clock for wall-time measurement"),
            patterns=(
                re.compile(r"\bsystem_clock\b"),
                re.compile(r"\bhigh_resolution_clock\b"),
                re.compile(r"\bgettimeofday\s*\("),
                re.compile(r"(?<![\w.:>])time\s*\(\s*(?:NULL|nullptr|0|&|\))"),
                re.compile(r"(?<![\w.:>])(?:localtime|gmtime|mktime)\s*\("),
            ),
        ),
        Rule(
            name="atomic-alignment",
            dirs=("src",),
            exempt=(),
            description=("cross-thread std::atomic members must be "
                         "alignas(64) (directly or via their struct) so "
                         "publishing never falsely shares a cache line"),
        ),
        Rule(
            name="raw-new",
            dirs=("src/des",),
            exempt=(),
            description=("raw new/delete in the kernel outside the audited "
                         "channel RunNode pool"),
            patterns=(
                re.compile(r"\bnew\s+[A-Za-z_(:<]"),
                re.compile(r"\bdelete\s*(?:\[\s*\]\s*)?[A-Za-z_(*]"),
            ),
        ),
        Rule(
            name="busy-wait",
            dirs=("src",),
            exempt=("src/util/spinwait.hpp",),
            description=("raw poll loop (empty-body while or "
                         "std::this_thread::yield spin): burns a core or a "
                         "scheduler quantum per check — wait through "
                         "util/spinwait.hpp's SpinWait/WaitSlot/SpinBarrier"),
            patterns=(
                re.compile(r"std::this_thread::yield\s*\("),
                # Empty-body while on one line ({} or bare ;). Lines opening
                # with `}` (do-while tails) never match.
                re.compile(r"^\s*while\s*\(.*\)\s*(?:\{\s*\}|;)\s*$"),
            ),
        ),
        Rule(
            name="unchecked-io",
            dirs=("src",),
            exempt=(),
            description=("file-I/O result silently discarded: an unchecked "
                         "short fwrite/fread or failed fclose turns a "
                         "crash-safe checkpoint into a torn one — check the "
                         "return value, or cast to void with an allow() on "
                         "audited cleanup paths"),
            # Custom checker (check_unchecked_io): flags a statement that
            # *begins* with the call, so nothing consumes the result.
            # Assignments, conditions, comparisons, explicit (void) casts,
            # and continuation lines of a wrapped condition don't match.
        ),
        Rule(
            name="quadratic-reserve",
            dirs=("src",),
            exempt=("src/routing",),
            description=("same-token X * X capacity request (reserve/resize/"
                         "assign): an O(n²) allocation caps the emulator at "
                         "~10^4 nodes — quadratic state belongs only in the "
                         "dense routing tables (src/routing is exempt), "
                         "which the hierarchical backend supersedes at "
                         "scale"),
            # Custom checker (check_quadratic_reserve): both factors must be
            # the *same* token (modulo a static_cast wrapper), so rectangular
            # rows * cols sizing never trips.
        ),
    ]
}


@dataclass
class Finding:
    path: str
    line: int
    rule: str
    text: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.text.strip()}"


def allowed_rules(raw_lines: list[str],
                  code_lines: list[str]) -> dict[int, set[str]]:
    """Map 1-based line number -> rules suppressed on that line. An allow()
    comment covers its own line, the next line, and every continuation line
    of the statement starting there (massf_cpp.statement_end), so an allow
    on a wrapped declaration covers the whole statement."""
    allowed: dict[int, set[str]] = {}
    for idx, raw in enumerate(raw_lines, start=1):
        for match in ALLOW_RE.finditer(raw):
            rules = {r.strip() for r in match.group(1).split(",") if r.strip()}
            unknown = rules - RULES.keys()
            if unknown:
                raise SystemExit(
                    f"massf-lint: unknown rule(s) {sorted(unknown)} in "
                    f"allow() at line {idx}: choose from {sorted(RULES)}")
            last = massf_cpp.allow_extent(code_lines, idx)
            for covered in range(idx, last + 1):
                allowed.setdefault(covered, set()).update(rules)
    return allowed


@dataclass
class Scope:
    is_struct: bool
    aligned: bool


ATOMIC_MEMBER_RE = re.compile(
    r"^\s*(?:alignas\(\s*(\d+)\s*\)\s*)?(?:mutable\s+)?(?:volatile\s+)?"
    r"std::atomic(?:<|_)")
STRUCT_HEADER_RE = re.compile(r"\b(?:struct|class)\b")
TEMPLATE_PARAMS_RE = re.compile(r"template\s*<[^<>]*>")
ALIGNAS64_RE = re.compile(r"alignas\(\s*64\s*\)")


def check_atomic_alignment(code_lines: list[str]) -> list[tuple[int, str]]:
    """Scope-tracking pass: flag std::atomic members of structs/classes that
    are not alignas(64) themselves and whose struct is not alignas(64)."""
    findings: list[tuple[int, str]] = []
    stack: list[Scope] = []
    header = ""  # declaration text since the last { } or ;
    for idx, line in enumerate(code_lines, start=1):
        innermost = stack[-1] if stack else None
        if (innermost is not None and innermost.is_struct
                and "using" not in line):
            m = ATOMIC_MEMBER_RE.match(line)
            if m:
                member_aligned = m.group(1) == "64"
                if not member_aligned and not innermost.aligned:
                    findings.append((idx, line))
        for ch in line:
            if ch == "{":
                text = TEMPLATE_PARAMS_RE.sub("", header)
                is_struct = (STRUCT_HEADER_RE.search(text) is not None
                             and "enum" not in text)
                stack.append(Scope(is_struct,
                                   ALIGNAS64_RE.search(text) is not None))
                header = ""
            elif ch == "}":
                if stack:
                    stack.pop()
                header = ""
            elif ch == ";":
                header = ""
            else:
                header += ch
    return findings


UNCHECKED_IO_RE = re.compile(r"^\s*(?:std::)?f(?:write|read|close)\s*\(")
# A line ending mid-expression means the call starting the next line
# continues it (its result is consumed) rather than opening a fresh
# discarded-result statement. Shared with allow() continuation scoping.
CONTINUATION_END_RE = massf_cpp.CONTINUATION_END_RE


def check_unchecked_io(code_lines: list[str]) -> list[tuple[int, str]]:
    """Flag fwrite/fread/fclose statements whose result nothing consumes: the
    call opens the statement (previous code line completed one)."""
    findings: list[tuple[int, str]] = []
    prev = ""
    for idx, line in enumerate(code_lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if UNCHECKED_IO_RE.match(line) and not CONTINUATION_END_RE.search(prev):
            findings.append((idx, line))
        prev = stripped
    return findings


# An identifier chain (a, obj.n, net->node_count(), Grid::kSide), optionally
# with empty call parens; anything with real arguments is too complex to
# prove equal and is left alone.
QUADRATIC_TOKEN = r"[A-Za-z_]\w*(?:(?:\.|->|::)[A-Za-z_]\w*)*(?:\(\s*\))?"
QUADRATIC_RESERVE_RE = re.compile(
    r"\.(?:reserve|resize|assign)\s*\(\s*"
    r"(?:static_cast<[^<>]*>\s*\(\s*)?"
    rf"({QUADRATIC_TOKEN})\s*\)?\s*\*\s*"
    r"(?:static_cast<[^<>]*>\s*\(\s*)?"
    rf"({QUADRATIC_TOKEN})")


def check_quadratic_reserve(code_lines: list[str]) -> list[tuple[int, str]]:
    """Flag .reserve/.resize/.assign whose size expression multiplies a token
    by itself (optionally through static_cast): a capacity that is quadratic
    in one dimension."""
    findings: list[tuple[int, str]] = []
    for idx, line in enumerate(code_lines, start=1):
        m = QUADRATIC_RESERVE_RE.search(line)
        if m and m.group(1) == m.group(2):
            findings.append((idx, line))
    return findings


def lint_file(path: str, rel: str, active: list[Rule]) -> list[Finding]:
    with open(path, encoding="utf-8", errors="replace") as fh:
        raw_lines = fh.read().splitlines()
    code_lines = massf_cpp.scrub(raw_lines)
    allowed = allowed_rules(raw_lines, code_lines)
    findings: list[Finding] = []

    for rule in active:
        if rule.name == "atomic-alignment":
            hits = check_atomic_alignment(code_lines)
        elif rule.name == "unchecked-io":
            hits = check_unchecked_io(code_lines)
        elif rule.name == "quadratic-reserve":
            hits = check_quadratic_reserve(code_lines)
        else:
            hits = []
            for idx, line in enumerate(code_lines, start=1):
                if rule.skip_includes and line.lstrip().startswith("#include"):
                    continue
                if any(p.search(line) for p in rule.patterns):
                    hits.append((idx, line))
        for idx, line in hits:
            if rule.name in allowed.get(idx, ()):
                continue
            findings.append(Finding(rel, idx, rule.name, raw_lines[idx - 1]))
    return findings


def rules_for(rel: str, only: str | None, no_dir_filter: bool) -> list[Rule]:
    rel = rel.replace(os.sep, "/")
    active = []
    for rule in RULES.values():
        if only is not None and rule.name != only:
            continue
        if any(rel == e or rel.startswith(e + "/") for e in rule.exempt):
            continue
        if not no_dir_filter and not any(
                rel == d or rel.startswith(d + "/") for d in rule.dirs):
            continue
        active.append(rule)
    return active


def collect_files(root: str) -> list[str]:
    roots = sorted({d.split("/")[0] for rule in RULES.values()
                    for d in rule.dirs})
    files: list[str] = []
    for top in roots:
        base = os.path.join(root, top)
        if not os.path.isdir(base):
            continue
        for dirpath, _dirnames, filenames in os.walk(base):
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTENSIONS):
                    files.append(os.path.join(dirpath, name))
    return sorted(files)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="massf-lint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("files", nargs="*",
                        help="files to lint (default: scan the whole tree)")
    parser.add_argument("--root", default=None,
                        help="repository root (default: the tools/ parent)")
    parser.add_argument("--only", default=None, metavar="RULE",
                        help="run a single rule")
    parser.add_argument("--no-dir-filter", action="store_true",
                        help="apply rules regardless of file location "
                             "(fixture testing)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule table and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES.values():
            print(f"{rule.name:20s} [{', '.join(rule.dirs)}]")
            print(f"{'':20s} {rule.description}")
        return 0

    if args.only is not None and args.only not in RULES:
        parser.error(f"unknown rule '{args.only}'; choose from {sorted(RULES)}")

    root = os.path.abspath(
        args.root
        or os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

    if args.files:
        paths = [os.path.abspath(f) for f in args.files]
    else:
        paths = collect_files(root)

    findings: list[Finding] = []
    for path in paths:
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        active = rules_for(rel, args.only, args.no_dir_filter)
        if not active:
            continue
        findings.extend(lint_file(path, rel, active))

    for finding in findings:
        print(finding.render())
    if findings:
        print(f"massf-lint: {len(findings)} finding(s) in "
              f"{len({f.path for f in findings})} file(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
