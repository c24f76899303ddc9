#!/usr/bin/env python3
"""massf-check: the project's own static checker.

The emulator's headline guarantee is a bit-identical event history
(history_hash) across sync protocols, execution modes and worker counts,
and the paper's TOP/PLACE/PROFILE comparison only means something while it
holds. It is easy to break silently: iterate a hash-ordered container into
event order, read the wall clock, forget to seed an RNG, let two threads
bounce a cache line, take two locks in opposite orders, or allocate on the
packet path. Each rule below encodes one such invariant; DESIGN.md §9
documents what every rule protects. `--list-rules` prints the table.

Per-file rules read one file at a time, line by line:

  unordered-container  std::unordered_* in determinism-critical dirs
  unseeded-rng         std:: engines / rand() outside src/util/rng.hpp
  wall-clock           system_clock, time(), localtime, ... in src/
  atomic-alignment     std::atomic members not alignas(64) (nor their struct)
  raw-new              raw new/delete in src/des
  busy-wait            empty-body while / yield spins outside spinwait.hpp
  unchecked-io         fwrite/fread/fclose statements discarding the result
  quadratic-reserve    X * X capacity requests outside src/routing

Whole-program rules index every src/ file (functions, call edges, lock
scopes, wait/allocation/taint sites) and reason across translation units:

  lock-cycle           cycle in the lock-acquisition graph
  lock-across-wait     lock held across a WaitSlot park / barrier wait
  hot-path-alloc       allocation reachable from a hot-path root
  determinism-taint    nondeterminism reachable from a determinism root

One rule judges the others' exceptions after they ran:

  unused-allow         an allow(<rule>) comment that suppresses nothing

Source comments (inert to the compiler)
---------------------------------------
    // massf-check: allow(<rule>[, <rule>...]) — why this site is safe
    // massf-check: hot-path-root      the next function is a hot-path root
    // massf-check: determinism-root   the next function feeds history_hash
                                       or checkpoint bytes
    // massf-check: wait-point         the next function parks or waits

An allow covers its own line, the rest of its comment block, and every
continuation line of the statement that follows (unbalanced parentheses or
a line ending mid-expression extend it). On a call line it also prunes
lock-across-wait / hot-path-alloc / determinism-taint traversal through
that call (an audited cold branch). grep "massf-check: allow" lists every
exception to the invariants. An allow counts as used only where it hides
a finding, or prunes a call edge whose callees would then yield findings;
one that does neither is itself a finding (unused-allow), so exceptions do
not outlive the code they excused. A root-driven rule fails (exit 2) when the
tree annotates none of its roots, so it can never pass vacuously.

Whole-program model and its limits
----------------------------------
No preprocessing, no template instantiation. Lexing (comments, strings,
raw strings) is shared with tidy_sarif via tools/massf_cpp.py. Function
definitions are found by scope tracking through braces; calls resolve by
qualified tail, then by unqualified name, to *indexed* definitions only.
Virtual calls resolve by method name to every indexed override (sound for
reachability, over-approximate). Calls through std::function or function
pointers resolve to nothing — the hot path is allocation-free precisely
because it avoids type-erased callbacks. Lambda bodies are attributed to
their enclosing function.

Baseline
--------
tools/massf_check.baseline (under --root) suppresses audited findings by
a line-free key `rule|path|function|normalized source text`. It is kept
empty: prefer an in-line allow, which stays next to the code it excuses.

Usage
-----
    tools/massf_check.py                     # check the tree (exit 1 on findings)
    tools/massf_check.py --root DIR          # check another src/-shaped tree
    tools/massf_check.py --only RULE         # one rule (--only unused-allow
                                             runs every rule, reports only
                                             dead allows)
    tools/massf_check.py --sarif FILE        # also write SARIF 2.1.0
    tools/massf_check.py --write-baseline    # record current findings, exit 0
    tools/massf_check.py --list-rules
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import massf_cpp  # noqa: E402
from massf_cpp import Token  # noqa: E402

BASELINE = os.path.join("tools", "massf_check.baseline")

ALLOW_RE = re.compile(r"massf-check:\s*allow\(([^)]*)\)")
ANNOTATION_RE = re.compile(
    r"massf-check:\s*(hot-path-root|determinism-root|wait-point)\b")

# Banned identifiers, defined once: the per-file rules match them line by
# line, the determinism-taint scanner token by token.
UNORDERED_TYPES = frozenset({"unordered_map", "unordered_set",
                             "unordered_multimap", "unordered_multiset"})
WALLCLOCK_IDS = frozenset({"system_clock", "high_resolution_clock",
                           "gettimeofday", "localtime", "gmtime", "mktime"})
RNG_IDS = frozenset({"random_device", "mt19937", "mt19937_64",
                     "minstd_rand", "minstd_rand0", "default_random_engine"})
RNG_CALLS = frozenset({"rand", "srand"})


def fail(message: str) -> None:
    """Exit 2: the tree cannot be checked as asked."""
    print(f"massf-check: {message}", file=sys.stderr)
    raise SystemExit(2)


def words_re(names: frozenset[str], after: str = r"\b") -> re.Pattern:
    alternatives = "|".join(sorted(names, key=lambda n: (-len(n), n)))
    return re.compile(rf"\b(?:{alternatives}){after}")


@dataclass
class Finding:
    rule: str
    path: str
    line: int
    message: str
    text: str                 # scrubbed source line (for the baseline key)
    func: str = ""            # enclosing function (whole-program rules)

    def key(self) -> str:
        norm = re.sub(r"\s+", " ", self.text.strip())
        return f"{self.rule}|{self.path}|{self.func}|{norm}"

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


class SourceFile:
    """One file: raw and scrubbed lines, allow() coverage, annotations."""

    def __init__(self, path: str, rel: str):
        self.rel = rel
        with open(path, encoding="utf-8", errors="replace") as fh:
            self.raw_lines = fh.read().splitlines()
        self.code_lines = massf_cpp.scrub(self.raw_lines)
        # covered line -> rule -> lines of the allow() comments covering it
        self.allows: dict[int, dict[str, list[int]]] = {}
        self.allow_sites: list[tuple[int, str]] = []   # (line, rule)
        self.used: set[tuple[int, str]] = set()      # hid a finding
        self.pruning: set[tuple[int, str]] = set()   # cut a call edge
        self.disabled: tuple[int, str] | None = None  # one allow switched off
        self.annotations: list[tuple[int, str]] = []
        for idx, raw in enumerate(self.raw_lines, start=1):
            for match in ALLOW_RE.finditer(raw):
                rules = {r.strip() for r in match.group(1).split(",")
                         if r.strip()}
                unknown = rules - RULES.keys()
                if unknown:
                    fail(f"unknown rule(s) {sorted(unknown)} in allow() at "
                         f"{rel}:{idx}: choose from {sorted(RULES)}")
                last = massf_cpp.allow_extent(self.code_lines, idx)
                for rule in sorted(rules):
                    self.allow_sites.append((idx, rule))
                    for covered in range(idx, last + 1):
                        self.allows.setdefault(covered, {}).setdefault(
                            rule, []).append(idx)
            note = ANNOTATION_RE.search(raw)
            if note:
                self.annotations.append((idx, note.group(1)))

    @cached_property
    def tokens(self) -> list[Token]:
        return massf_cpp.tokenize(self.code_lines)

    def sites(self, rule: str, line: int) -> list[tuple[int, str]]:
        """The (allow line, rule) entries covering line."""
        return [(site, rule)
                for site in self.allows.get(line, {}).get(rule, ())
                if (site, rule) != self.disabled]

    def covers(self, rule: str, line: int) -> bool:
        return bool(self.sites(rule, line))

    def use(self, rule: str, line: int) -> None:
        """Mark the allow(rule) comments covering line as used."""
        self.used.update(self.sites(rule, line))

    def allowed(self, rule: str, line: int) -> bool:
        """Whether an allow(rule) covers line. Ask only where a True answer
        suppresses something: it marks those allows as used."""
        if not self.covers(rule, line):
            return False
        self.use(rule, line)
        return True


# --------------------------------------------------------------------------
# Per-file checks: code lines -> 1-based line numbers that violate the rule.


def matching(*patterns: re.Pattern) -> Callable[[list[str]], list[int]]:
    """Lines (other than #include lines) where any pattern matches."""
    def check(code_lines: list[str]) -> list[int]:
        return [idx for idx, line in enumerate(code_lines, start=1)
                if not line.lstrip().startswith("#include")
                and any(p.search(line) for p in patterns)]
    return check


ATOMIC_MEMBER_RE = re.compile(
    r"^\s*(?:alignas\(\s*(\d+)\s*\)\s*)?(?:mutable\s+)?(?:volatile\s+)?"
    r"std::atomic(?:<|_)")
STRUCT_HEADER_RE = re.compile(r"\b(?:struct|class)\b")
TEMPLATE_PARAMS_RE = re.compile(r"template\s*<[^<>]*>")
ALIGNAS64_RE = re.compile(r"alignas\(\s*64\s*\)")


def check_atomic_alignment(code_lines: list[str]) -> list[int]:
    """Scope-tracking pass: std::atomic members of structs/classes that are
    not alignas(64) themselves and whose struct is not alignas(64)."""
    hits: list[int] = []
    stack: list[tuple[bool, bool]] = []   # (is_struct, aligned) per brace
    header = ""  # declaration text since the last { } or ;
    for idx, line in enumerate(code_lines, start=1):
        if stack and stack[-1][0] and "using" not in line:
            m = ATOMIC_MEMBER_RE.match(line)
            if m and m.group(1) != "64" and not stack[-1][1]:
                hits.append(idx)
        for ch in line:
            if ch == "{":
                text = TEMPLATE_PARAMS_RE.sub("", header)
                stack.append((STRUCT_HEADER_RE.search(text) is not None
                              and "enum" not in text,
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
    return hits


UNCHECKED_IO_RE = re.compile(r"^\s*(?:std::)?f(?:write|read|close)\s*\(")


def check_unchecked_io(code_lines: list[str]) -> list[int]:
    """fwrite/fread/fclose calls that open a statement (the previous code
    line completed one), so nothing consumes the result. Assignments,
    conditions, (void) casts and continuation lines never match."""
    hits: list[int] = []
    prev = ""
    for idx, line in enumerate(code_lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if UNCHECKED_IO_RE.match(line) \
                and not massf_cpp.CONTINUATION_END_RE.search(prev):
            hits.append(idx)
        prev = stripped
    return hits


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


def check_quadratic_reserve(code_lines: list[str]) -> list[int]:
    """.reserve/.resize/.assign whose size multiplies a token by itself
    (optionally through static_cast); rectangular rows * cols never trips."""
    return [idx for idx, line in enumerate(code_lines, start=1)
            if (m := QUADRATIC_RESERVE_RE.search(line))
            and m.group(1) == m.group(2)]


# --------------------------------------------------------------------------
# Whole-program index

CONTROL_KEYWORDS = frozenset({
    "if", "for", "while", "switch", "catch", "return", "sizeof", "alignof",
    "alignas", "decltype", "noexcept", "static_assert", "throw", "assert",
    "case", "typeid", "delete", "co_await", "co_return", "co_yield",
    "defined", "requires", "new", "else", "do", "goto", "operator",
})
NON_FUNC_NAMES = CONTROL_KEYWORDS | {"MASSF_REQUIRE", "MASSF_CHECK"}

WAIT_NAMES = frozenset({"park", "arrive_and_wait"})
ALLOC_FNS = frozenset({"malloc", "calloc", "realloc", "strdup",
                       "aligned_alloc", "make_unique", "make_shared"})
GROW_FNS = frozenset({"push_back", "emplace_back", "emplace", "insert",
                      "push_front", "emplace_front", "push", "append",
                      "resize", "assign", "try_emplace", "emplace_hint",
                      "insert_or_assign"})
# Ordered std container names: a *local* declaration with one of these
# shadows a same-named unordered variable from elsewhere in the program
# (the global unordered-name set is name-keyed, not type-keyed).
ORDERED_TYPES = frozenset({"vector", "deque", "list", "forward_list", "set",
                           "map", "multiset", "multimap", "array", "string",
                           "span", "queue", "stack", "priority_queue"})
# Member-call names from the std::atomic protocol: resolving `flag.load()`
# to some in-tree `Foo::load` by short name would invent call edges, so
# these never resolve (they also never allocate).
ATOMIC_API = frozenset({"load", "store", "exchange", "fetch_add",
                        "fetch_sub", "fetch_or", "fetch_and", "fetch_xor",
                        "compare_exchange_weak", "compare_exchange_strong",
                        "test_and_set", "notify_one", "notify_all", "wait"})


@dataclass
class CallSite:
    line: int
    name: str          # unqualified callee name
    qual: str          # "A::B" qualifier chain, "" if none / member call
    held: frozenset[str] = frozenset()


@dataclass
class LockAcq:
    line: int
    lock: str
    held_before: frozenset[str] = frozenset()


@dataclass
class SiteList:
    """Per-function fact sheet filled by the body scanner."""
    calls: list[CallSite] = field(default_factory=list)
    acquisitions: list[LockAcq] = field(default_factory=list)
    # (line, wait kind, locks held at the wait — from live MutexLock scopes)
    waits: list[tuple[int, str, frozenset[str]]] = field(default_factory=list)
    allocs: list[tuple[int, str, str]] = field(default_factory=list)
    taints: list[tuple[int, str, str]] = field(default_factory=list)


@dataclass
class Func:
    qname: str                # e.g. massf::des::Impl::execute_event
    short: str                # execute_event
    cls: str                  # enclosing class name ("" at namespace scope)
    path: str                 # repo-relative file
    line: int                 # header line
    requires: frozenset[str] = frozenset()   # MASSF_REQUIRES entry locks
    notes: set[str] = field(default_factory=set)   # root annotations
    sites: SiteList = field(default_factory=SiteList)

    @property
    def tail(self) -> str:
        parts = self.qname.split("::")
        return "::".join(parts[-2:]) if len(parts) >= 2 else self.qname


def match_paren(tokens: list[Token], i_open: int) -> int:
    """Index of the `)` matching tokens[i_open]; len(tokens) if unbalanced."""
    depth = 0
    for i in range(i_open, len(tokens)):
        t = tokens[i].text
        if t == "(":
            depth += 1
        elif t == ")":
            depth -= 1
            if depth == 0:
                return i
    return len(tokens)


def skip_angles(toks: list[Token], i: int) -> int:
    """Skip a `< ... >` template-argument group starting at i, if any."""
    if i >= len(toks) or toks[i].text != "<":
        return i
    depth = 0
    while i < len(toks):
        x = toks[i].text
        if x == "<":
            depth += 1
        elif x == ">":
            depth -= 1
        elif x == ">>":
            depth -= 2
        i += 1
        if depth <= 0:
            break
    return i


def strip_template_header(tokens: list[Token]) -> list[Token]:
    """Drop `template < ... >` prefixes from a declaration header so the
    class/struct keywords inside template parameter lists don't confuse
    classification."""
    out: list[Token] = []
    i = 0
    while i < len(tokens):
        if tokens[i].text == "template" and i + 1 < len(tokens) \
                and tokens[i + 1].text == "<":
            i = skip_angles(tokens, i + 1)
            continue
        out.append(tokens[i])
        i += 1
    return out


def classify_header(header: list[Token]) -> tuple[str, str, frozenset[str]]:
    """Classify the declaration tokens before a `{` at namespace/class
    scope. Returns (kind, name, requires) with kind in
    {namespace, class, function, block}."""
    header = strip_template_header(header)
    texts = [t.text for t in header]

    if "namespace" in texts:
        k = texts.index("namespace")
        name = "::".join(t for t in texts[k + 1:]
                         if t not in ("inline", "::"))
        return "namespace", name, frozenset()

    if "enum" in texts:
        return "block", "", frozenset()

    # Function attempt: first `id (` group that looks like a parameter list.
    requires: set[str] = set()
    i = 0
    while i + 1 < len(header):
        if (header[i].kind == "id" and header[i].text not in NON_FUNC_NAMES
                and header[i + 1].text == "("):
            if header[i].text.startswith("MASSF_") \
                    or header[i].text == "alignas":
                i = match_paren(header, i + 1) + 1   # skip macro argument
                continue
            close = match_paren(header, i + 1)
            if close >= len(header):
                break
            # Name chain: walk back over `id ::` (and `~` for destructors).
            chain = [header[i].text]
            j = i - 1
            while j >= 1 and header[j].text == "::" \
                    and header[j - 1].kind == "id":
                chain.insert(0, header[j - 1].text)
                j -= 2
            if j >= 0 and header[j].text == "~":
                chain[-1] = "~" + chain[-1]
            # Entry locks from MASSF_REQUIRES in the trailer.
            k = close + 1
            while k + 1 < len(header):
                if header[k].text == "MASSF_REQUIRES" \
                        and header[k + 1].text == "(":
                    rclose = match_paren(header, k + 1)
                    args = "".join(t.text for t in header[k + 2:rclose])
                    requires.update(a for a in args.split(",") if a)
                    k = rclose
                k += 1
            return "function", "::".join(chain), frozenset(requires)
        i += 1

    if any(t in ("class", "struct", "union") for t in texts):
        k = next(i for i, t in enumerate(texts)
                 if t in ("class", "struct", "union"))
        name = ""
        j = k + 1
        while j < len(header):
            t = header[j]
            if t.text in ("{", ":"):
                break
            if t.kind == "id":
                if j + 1 < len(header) and header[j + 1].text == "(":
                    j = match_paren(header, j + 1) + 1   # macro/alignas group
                    continue
                if t.text not in ("final", "alignas"):
                    name = t.text
            j += 1
        return "class", name, frozenset()

    return "block", "", frozenset()


class Index:
    """Whole-program symbol/call/lock/allocation index over many files."""

    def __init__(self, files: list[SourceFile]) -> None:
        self.files = {sf.rel: sf for sf in files}
        self.functions: list[Func] = []
        self.by_short: dict[str, list[Func]] = {}
        self.unordered_vars: set[str] = set()
        self.float_vars: set[str] = set()
        self.reserved: set[str] = set()
        # The pre-pass sees every file before any body is analyzed.
        for sf in files:
            self._predeclare(sf.tokens)
        for sf in files:
            self._index_file(sf)
        for f in self.functions:
            self.by_short.setdefault(f.short, []).append(f)

    def _predeclare(self, toks: list[Token]) -> None:
        """Unordered/float variable names and reserve()d receivers, visible
        across TUs."""
        for i, t in enumerate(toks):
            if t.kind != "id":
                continue
            if t.text in UNORDERED_TYPES:
                j = skip_angles(toks, i + 1)
                if j < len(toks) and toks[j].kind == "id":
                    self.unordered_vars.add(toks[j].text)
            elif t.text in ("double", "float"):
                if i + 1 < len(toks) and toks[i + 1].kind == "id":
                    self.float_vars.add(toks[i + 1].text)
            elif t.text == "reserve" and i >= 2 \
                    and toks[i - 1].text in (".", "->") and i + 1 < len(toks) \
                    and toks[i + 1].text == "(":
                self.reserved.add(toks[i - 2].text)

    def _index_file(self, sf: SourceFile) -> None:
        toks = sf.tokens
        scopes: list[tuple[str, str]] = []   # (kind, name)
        header_start = 0
        pending = list(sf.annotations)       # (line, kind), consumed in order
        i = 0
        while i < len(toks):
            t = toks[i]
            if t.text == "{":
                header = toks[header_start:i]
                kind, name, requires = classify_header(header)
                if kind == "function":
                    cls = next((n for k, n in reversed(scopes)
                                if k == "class"), "")
                    # Out-of-class definitions (Kernel::advance) carry the
                    # class in the name chain instead of the scope stack.
                    chain = name.split("::")
                    if len(chain) >= 2 and not cls:
                        cls = chain[-2]
                    prefix = [n for k, n in scopes if n]
                    fn = Func(qname="::".join(prefix + chain),
                              short=chain[-1], cls=cls, path=sf.rel,
                              line=(header[0].line if header else t.line),
                              requires=frozenset(
                                  self._canon(r, cls) for r in requires))
                    while pending and pending[0][0] <= fn.line:
                        fn.notes.add(pending.pop(0)[1])
                    close = self._scan_body(toks, fn, i)
                    self.functions.append(fn)
                    i = close + 1
                    header_start = i
                    continue
                scopes.append((kind, name))
                header_start = i + 1
            elif t.text == "}":
                if scopes:
                    scopes.pop()
                header_start = i + 1
            elif t.text == ";":
                header_start = i + 1
            i += 1

    @staticmethod
    def _canon(expr: str, cls: str) -> str:
        expr = expr.replace(" ", "")
        if cls and re.fullmatch(r"[A-Za-z_]\w*", expr):
            return f"{cls}::{expr}"
        return expr

    def _scan_body(self, toks: list[Token], fn: Func, i_open: int) -> int:
        """Scan tokens from the body-opening brace; returns the index of the
        matching close brace. Fills fn.sites."""
        depth = 0
        lock_stack: list[tuple[int, str]] = []   # (depth, canonical lock)
        shadowed: set[str] = set()   # locals declared with an ordered type
        i = i_open
        n = len(toks)
        while i < n:
            t = toks[i]
            text = t.text
            if text == "{":
                depth += 1
            elif text == "}":
                depth -= 1
                lock_stack = [(d, l) for d, l in lock_stack if d <= depth]
                if depth == 0:
                    return i
            elif t.kind == "id":
                held = fn.requires | frozenset(l for _, l in lock_stack)
                nxt = toks[i + 1].text if i + 1 < n else ""
                prev = toks[i - 1].text if i > i_open else ""
                if text == "MutexLock" and nxt != "(" and i + 2 < n \
                        and toks[i + 1].kind == "id" \
                        and toks[i + 2].text == "(":
                    close = match_paren(toks, i + 2)
                    expr = "".join(x.text for x in toks[i + 3:close])
                    lock = self._canon(expr, fn.cls)
                    fn.sites.acquisitions.append(
                        LockAcq(t.line, lock, held))
                    lock_stack.append((depth, lock))
                    i = close + 1
                    continue
                if text in WALLCLOCK_IDS or text in RNG_IDS:
                    kind = "wall-clock" if text in WALLCLOCK_IDS else "rng"
                    fn.sites.taints.append((t.line, kind, text))
                elif text in UNORDERED_TYPES:
                    pass   # declaration; handled by the pre-pass
                elif text in ORDERED_TYPES:
                    j = skip_angles(toks, i + 1)
                    if j < n and toks[j].kind == "id":
                        shadowed.add(toks[j].text)
                elif text == "new" and prev != "operator":
                    fn.sites.allocs.append((t.line, "new", "new"))
                elif text == "for" and nxt == "(":
                    close = match_paren(toks, i + 1)
                    self._scan_range_for(fn, toks, i + 1, close, shadowed)
                elif nxt == "(":
                    member = prev in (".", "->")
                    if text in WAIT_NAMES and member:
                        fn.sites.waits.append((t.line, text, held))
                    elif text in RNG_CALLS:
                        fn.sites.taints.append((t.line, "rng", text))
                    elif text == "reduce" and prev == "::":
                        fn.sites.taints.append(
                            (t.line, "reduce", "std::reduce"))
                    elif text in ALLOC_FNS:
                        fn.sites.allocs.append((t.line, "call", text))
                    elif member and text in ATOMIC_API:
                        pass   # std::atomic protocol, never an edge
                    elif text in GROW_FNS and member:
                        # Tentative: dropped at rule time when the method
                        # resolves to an in-tree definition (then the call
                        # edge below carries the reachability instead).
                        recv = self._receiver(toks, i - 1, i_open)
                        fn.sites.allocs.append((t.line, "grow",
                                                f"{recv}.{text}" if recv
                                                else text))
                        fn.sites.calls.append(
                            CallSite(t.line, text, "", held))
                    elif text not in NON_FUNC_NAMES \
                            and not text.startswith("MASSF_"):
                        qual = ""
                        if prev == "::":
                            chain = []
                            j = i - 1
                            while j >= 1 and toks[j].text == "::" \
                                    and toks[j - 1].kind == "id":
                                chain.insert(0, toks[j - 1].text)
                                j -= 2
                            qual = "::".join(chain)
                        fn.sites.calls.append(
                            CallSite(t.line, text, qual, held))
            elif text == "+=":
                if i > i_open and toks[i - 1].kind == "id" \
                        and toks[i - 1].text in self.float_vars:
                    fn.sites.taints.append(
                        (t.line, "float-accum", toks[i - 1].text))
            i += 1
        return n - 1

    def _scan_range_for(self, fn: Func, toks: list[Token], i_open: int,
                        i_close: int, shadowed: set[str]) -> None:
        """Range-for over an unordered container is a determinism hazard:
        find a top-level `:` inside the for-parens, inspect the range."""
        depth = 0
        colon = -1
        for j in range(i_open, min(i_close, len(toks))):
            x = toks[j].text
            if x in ("(", "[", "{"):
                depth += 1
            elif x in (")", "]", "}"):
                depth -= 1
            elif x == ":" and depth == 1:
                colon = j
                break
        if colon < 0:
            return
        range_toks = toks[colon + 1:i_close]
        if any(x.kind == "id" and x.text not in shadowed
               and (x.text in self.unordered_vars
                    or x.text in UNORDERED_TYPES) for x in range_toks):
            fn.sites.taints.append(
                (toks[i_open].line, "unordered-iteration",
                 "".join(x.text for x in range_toks[:8])))

    @staticmethod
    def _receiver(toks: list[Token], i_dot: int, floor: int) -> str:
        """Walk the `a.b->c` chain leftwards from the `.`/`->` before a
        growth call; best-effort (stops at any non-chain token)."""
        parts: list[str] = []
        j = i_dot
        while j > floor:
            if toks[j].text in (".", "->", "::"):
                j -= 1
                continue
            if toks[j].kind == "id":
                parts.insert(0, toks[j].text)
                if j - 1 > floor and toks[j - 1].text in (".", "->", "::"):
                    j -= 1
                    continue
            break
        return ".".join(parts)

    def resolve(self, call: CallSite) -> list[Func]:
        cands = self.by_short.get(call.name, [])
        if call.qual:
            tail = f"{call.qual}::{call.name}"
            exact = [f for f in cands if f.qname.endswith(tail)]
            if exact:
                return exact
        return cands

    def file_of(self, fn: Func) -> SourceFile:
        return self.files[fn.path]

    def finding(self, rule: str, fn: Func, line: int,
                message: str) -> Finding:
        return Finding(rule, fn.path, line, message,
                       self.file_of(fn).code_lines[line - 1], fn.tail)


# --------------------------------------------------------------------------
# Whole-program checks: index -> findings (allows already applied).


def propagate_entry_locks(index: Index) -> dict[str, frozenset[str]]:
    """Fixpoint: locks held on entry to each function (MASSF_REQUIRES plus
    locks callers hold at the call site). Keyed by qname."""
    entry: dict[str, frozenset[str]] = {
        f.qname: f.requires for f in index.functions}
    changed = True
    while changed:
        changed = False
        for f in index.functions:
            base = entry[f.qname]
            for call in f.sites.calls:
                incoming = call.held | base
                if not incoming:
                    continue
                for g in index.resolve(call):
                    merged = entry[g.qname] | incoming
                    if merged != entry[g.qname]:
                        entry[g.qname] = merged
                        changed = True
    return entry


def cyclic_nodes(graph: dict[str, set[str]]) -> set[str]:
    """Nodes on at least one directed cycle (Tarjan SCCs of size > 1, plus
    self-loops); iterative, so deep chains cannot overflow the stack."""
    counter = 0
    stack: list[str] = []
    on_stack: set[str] = set()
    idx: dict[str, int] = {}
    low: dict[str, int] = {}
    out: set[str] = set()

    def visit(v: str) -> None:
        nonlocal counter
        idx[v] = low[v] = counter
        counter += 1
        stack.append(v)
        on_stack.add(v)

    for root in sorted(graph):
        if root in idx:
            continue
        visit(root)
        work = [(root, iter(sorted(graph.get(root, ()))))]
        while work:
            node, it = work[-1]
            for w in it:
                if w not in idx:
                    visit(w)
                    work.append((w, iter(sorted(graph.get(w, ())))))
                    break
                if w in on_stack:
                    low[node] = min(low[node], idx[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == idx[node]:
                    scc = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        scc.append(w)
                        if w == node:
                            break
                    if len(scc) > 1 or node in graph.get(node, ()):
                        out.update(scc)
    return out


def check_lock_cycle(index: Index) -> list[Finding]:
    entry = propagate_entry_locks(index)
    # Edge (a, b): b acquired while a held. Keep one witness site per edge.
    edges: dict[tuple[str, str], tuple[Func, int]] = {}
    for f in index.functions:
        sf = index.file_of(f)
        extra = entry[f.qname] - f.requires
        for acq in f.sites.acquisitions:
            held = sorted((acq.held_before | extra) - {acq.lock})
            if not held or sf.allowed("lock-cycle", acq.line):
                continue
            for lock in held:
                edges.setdefault((lock, acq.lock), (f, acq.line))
    graph: dict[str, set[str]] = {}
    for (a, b) in edges:
        graph.setdefault(a, set()).add(b)
        graph.setdefault(b, set())
    in_cycle = cyclic_nodes(graph)
    return [index.finding(
                "lock-cycle", f, line,
                f"lock order cycle: '{b}' acquired while holding '{a}' "
                f"(in {f.tail}); another path acquires them in the "
                f"opposite order — potential deadlock")
            for (a, b), (f, line) in sorted(edges.items())
            if a in in_cycle and b in in_cycle]


def check_lock_across_wait(index: Index) -> list[Finding]:
    rule = "lock-across-wait"
    entry = propagate_entry_locks(index)
    # may_wait fixpoint: direct wait site / wait-point annotation, or any
    # call (not allowed-pruned) to a may-wait function.
    may_wait: dict[str, bool] = {
        f.qname: bool(f.sites.waits) or "wait-point" in f.notes
        for f in index.functions}
    changed = True
    while changed:
        changed = False
        for f in index.functions:
            if may_wait[f.qname]:
                continue
            sf = index.file_of(f)
            if any(any(may_wait[g.qname] for g in index.resolve(call))
                   and not sf.allowed(rule, call.line)
                   for call in f.sites.calls):
                may_wait[f.qname] = True
                changed = True
    findings = []
    for f in index.functions:
        sf = index.file_of(f)
        base = entry[f.qname]
        for line, what, held_local in f.sites.waits:
            held = base | held_local
            if held and not sf.allowed(rule, line):
                findings.append(index.finding(
                    rule, f, line,
                    f"'{what}' while holding {sorted(held)} — a parked "
                    f"thread holding a lock can deadlock its waker"))
        for call in f.sites.calls:
            held = base | call.held
            if not held:
                continue
            g = next((g for g in index.resolve(call) if may_wait[g.qname]),
                     None)
            if g is not None and not sf.allowed(rule, call.line):
                findings.append(index.finding(
                    rule, f, call.line,
                    f"call to '{g.tail}' (which may park/wait) while "
                    f"holding {sorted(held)}"))
    return findings


def reachable(index: Index, root: str, rule: str) -> dict[str, str]:
    """BFS over call edges from the functions annotated `root`; an
    allow(<rule>) on a call line prunes traversal through that call.
    Returns qname -> provenance chain. A tree without the root fails: the
    rule would otherwise pass vacuously. Allows that cut off a callee the
    closure never reaches are recorded in SourceFile.pruning."""
    prov: dict[str, str] = {}
    frontier: list[Func] = []
    for r in index.functions:
        if root in r.notes and r.qname not in prov:
            prov[r.qname] = r.tail
            frontier.append(r)
    if not frontier:
        fail(f"no '// massf-check: {root}' annotation in the checked tree "
             f"— the {rule} rule would pass vacuously")
    pruned: list[tuple[SourceFile, int, list[Func]]] = []
    while frontier:
        f = frontier.pop()
        sf = index.file_of(f)
        for call in f.sites.calls:
            callees = index.resolve(call)
            if sf.covers(rule, call.line):
                pruned.append((sf, call.line, callees))
                continue
            for g in callees:
                if g.qname not in prov:
                    prov[g.qname] = f"{prov[f.qname]} -> {g.tail}"
                    frontier.append(g)
    for sf, line, callees in pruned:
        if any(g.qname not in prov for g in callees):
            sf.pruning.update(sf.sites(rule, line))
    return prov


def check_hot_path_alloc(index: Index) -> list[Finding]:
    rule = "hot-path-alloc"
    prov = reachable(index, "hot-path-root", rule)
    findings = []
    for f in index.functions:
        if f.qname not in prov:
            continue
        sf = index.file_of(f)
        for line, kind, detail in f.sites.allocs:
            if kind == "grow":
                if index.by_short.get(detail.rsplit(".", 1)[-1]):
                    continue   # in-tree method: the call edge covers it
                recv = detail.rsplit(".", 2)[-2] if "." in detail else ""
                if recv and recv in index.reserved:
                    continue   # container is reserve()d somewhere
                what = (f"container growth '{detail}' on a receiver with "
                        f"no reserve() anywhere in the tree")
            elif kind == "new":
                what = "raw 'new'"
            else:
                what = f"allocating call '{detail}'"
            if sf.allowed(rule, line):
                continue
            findings.append(index.finding(
                rule, f, line,
                f"{what} reachable from the hot path [{prov[f.qname]}]"))
    return findings


TAINT_LABELS = {
    "unordered-iteration": "iteration over an unordered container "
                           "(hash order leaks into the event stream)",
    "wall-clock": "wall-clock read",
    "rng": "RNG outside the seeded massf::Rng",
    "reduce": "std::reduce (unordered reduction)",
    "float-accum": "float accumulation (order-sensitive rounding)",
}


def check_determinism_taint(index: Index) -> list[Finding]:
    rule = "determinism-taint"
    prov = reachable(index, "determinism-root", rule)
    findings = []
    for f in index.functions:
        if f.qname not in prov:
            continue
        sf = index.file_of(f)
        has_unordered_iter = any(k == "unordered-iteration"
                                 for _, k, _ in f.sites.taints)
        for line, kind, detail in f.sites.taints:
            if kind == "float-accum" and not has_unordered_iter:
                continue   # ordered accumulation is deterministic
            if sf.allowed(rule, line):
                continue
            findings.append(index.finding(
                rule, f, line,
                f"{TAINT_LABELS[kind]}: '{detail}' on a path into the "
                f"history-hash / checkpoint bytes [{prov[f.qname]}]"))
    return findings


UNUSED_ALLOW = "unused-allow"


def prune_hides_findings(index: Index, sf: SourceFile, site: int,
                         rule: str, baseline: dict[str, set[str]]) -> bool:
    """Re-run `rule` with one pruning allow switched off: the allow is live
    only if the callees it cut off then yield findings."""
    if rule not in baseline:
        baseline[rule] = {f.key() for f in RULES[rule].check(index)}
    marks = [(f, set(f.used), set(f.pruning)) for f in index.files.values()]
    sf.disabled = (site, rule)
    try:
        found = {f.key() for f in RULES[rule].check(index)}
    finally:
        sf.disabled = None
        for f, used, pruning in marks:
            f.used, f.pruning = used, pruning
    return bool(found - baseline[rule])


def check_unused_allows(sources: list[SourceFile], ran: list[Rule],
                        index: Index | None) -> list[Finding]:
    """allow() entries of a rule that ran over their file but hid no
    finding, and whose pruned call edges hide none either: nothing they
    excuse exists any more."""
    names = {r.name for r in ran}
    baseline: dict[str, set[str]] = {}
    findings = []
    for sf in sources:
        if not RULES[UNUSED_ALLOW].applies_to(sf.rel):
            continue
        for line, rule in sf.allow_sites:
            if rule not in names or (line, rule) in sf.used:
                continue
            if (line, rule) in sf.pruning and index is not None and \
                    prune_hides_findings(index, sf, line, rule, baseline):
                continue
            findings.append(Finding(
                UNUSED_ALLOW, sf.rel, line,
                f"allow({rule}) suppresses nothing — delete it",
                sf.code_lines[line - 1]))
    return findings


# --------------------------------------------------------------------------
# The rule table


@dataclass(frozen=True)
class Rule:
    name: str
    scope: str                  # "file" (per line) | "program" (cross-TU)
    dirs: tuple[str, ...]       # repo-relative roots the rule applies to
    description: str
    check: Callable             # file: code lines -> lines; program: index
    exempt: tuple[str, ...] = ()   # repo-relative paths exempt from the rule

    def applies_to(self, rel: str) -> bool:
        def under(bases: tuple[str, ...]) -> bool:
            return any(rel == b or rel.startswith(b + "/") for b in bases)
        return under(self.dirs) and not under(self.exempt)


RULES: dict[str, Rule] = {rule.name: rule for rule in [
    Rule("unordered-container", "file",
         ("src/des", "src/emu", "src/routing", "src/fault", "src/topology"),
         "hash-ordered containers in determinism-critical code: iteration "
         "order leaks into event order",
         matching(words_re(UNORDERED_TYPES))),
    Rule("unseeded-rng", "file", ("src", "bench", "examples"),
         "randomness outside the seeded massf::Rng breaks bit-reproducible "
         "experiments",
         matching(words_re(RNG_IDS), words_re(RNG_CALLS, after=r"\s*\(")),
         exempt=("src/util/rng.hpp",)),
    Rule("wall-clock", "file", ("src",),
         "wall-clock reads inside simulation code make event timing "
         "machine-dependent; use modeled SimTime, or steady_clock for "
         "wall-time measurement",
         matching(words_re(WALLCLOCK_IDS),
                  re.compile(r"(?<![\w.:>])time\s*\(\s*"
                             r"(?:NULL|nullptr|0|&|\))"))),
    Rule("atomic-alignment", "file", ("src",),
         "cross-thread std::atomic members must be alignas(64) (directly "
         "or via their struct) so publishing never falsely shares a cache "
         "line",
         check_atomic_alignment),
    Rule("raw-new", "file", ("src/des",),
         "raw new/delete in the kernel outside the audited channel RunNode "
         "pool",
         matching(re.compile(r"\bnew\s+[A-Za-z_(:<]"),
                  re.compile(r"\bdelete\s*(?:\[\s*\]\s*)?[A-Za-z_(*]"))),
    Rule("busy-wait", "file", ("src",),
         "raw poll loop (empty-body while or std::this_thread::yield "
         "spin): burns a core or a scheduler quantum per check — wait "
         "through util/spinwait.hpp's SpinWait/WaitSlot/SpinBarrier",
         # Empty-body while on one line ({} or bare ;). Lines opening with
         # `}` (do-while tails) never match.
         matching(re.compile(r"std::this_thread::yield\s*\("),
                  re.compile(r"^\s*while\s*\(.*\)\s*(?:\{\s*\}|;)\s*$")),
         exempt=("src/util/spinwait.hpp",)),
    Rule("unchecked-io", "file", ("src",),
         "file-I/O result silently discarded: an unchecked short "
         "fwrite/fread or failed fclose turns a crash-safe checkpoint into "
         "a torn one — check the return value, or cast it to void on "
         "audited cleanup paths",
         check_unchecked_io),
    Rule("quadratic-reserve", "file", ("src",),
         "same-token X * X capacity request (reserve/resize/assign): an "
         "O(n²) allocation caps the emulator at ~10^4 nodes — quadratic "
         "state belongs only in the dense routing tables (src/routing is "
         "exempt), which the hierarchical backend supersedes at scale",
         check_quadratic_reserve, exempt=("src/routing",)),
    Rule("lock-cycle", "program", ("src",),
         "cycle in the static lock-acquisition graph (potential deadlock): "
         "two call paths take the same locks in opposite orders",
         check_lock_cycle),
    Rule("lock-across-wait", "program", ("src",),
         "lock held across a WaitSlot park / SpinBarrier wait: a parked "
         "thread holding a mutex can deadlock its waker",
         check_lock_across_wait),
    Rule("hot-path-alloc", "program", ("src",),
         "allocation or unreserved container growth reachable from a "
         "hot-path root (kernel event dispatch / packet dispatch / outbox "
         "flush / mailbox drain)",
         check_hot_path_alloc),
    Rule("determinism-taint", "program", ("src",),
         "nondeterminism source (unordered iteration, wall-clock, RNG, "
         "unordered float accumulation) on a path reaching the "
         "history-hash accumulator or checkpoint serialization",
         check_determinism_taint),
    Rule(UNUSED_ALLOW, "program", ("src",),
         "allow() comment that hides no finding and prunes no call edge "
         "of the rule it names: a dead exception outlives the code it "
         "excused and would silently cover the next real finding there",
         check_unused_allows),
]}


# --------------------------------------------------------------------------
# Driver


def collect_files(root: str) -> list[tuple[str, str]]:
    """(path, repo-relative path) of every source under any rule's dirs."""
    tops = sorted({d.split("/")[0] for r in RULES.values() for d in r.dirs})
    out = []
    for top in tops:
        for dirpath, _dirs, names in os.walk(os.path.join(root, top)):
            for name in names:
                if name.endswith(massf_cpp.SOURCE_EXTENSIONS):
                    path = os.path.join(dirpath, name)
                    out.append((path, os.path.relpath(path, root)
                                .replace(os.sep, "/")))
    return sorted(out)


def run_checks(root: str, active: list[Rule]) -> list[Finding]:
    """Every finding of the active rules under root, allows applied.
    unused-allow needs every other rule's verdicts, so when it is active
    all rules run and only the active rules' findings are kept."""
    files = collect_files(root)
    if not files:
        fail(f"no sources under {root}")
    judge = RULES[UNUSED_ALLOW] in active
    ran = [r for r in RULES.values()
           if r.name != UNUSED_ALLOW and (judge or r in active)]
    findings: list[Finding] = []
    sources: list[SourceFile] = []
    program: list[SourceFile] = []
    program_rules = [r for r in ran if r.scope == "program"]
    for path, rel in files:
        file_rules = [r for r in ran
                      if r.scope == "file" and r.applies_to(rel)]
        in_program = any(r.applies_to(rel) for r in program_rules)
        if not file_rules and not in_program:
            continue
        sf = SourceFile(path, rel)
        sources.append(sf)
        if in_program:
            program.append(sf)
        for rule in file_rules:
            findings += [Finding(rule.name, rel, idx,
                                 sf.raw_lines[idx - 1].strip(),
                                 sf.code_lines[idx - 1])
                         for idx in rule.check(sf.code_lines)
                         if not sf.allowed(rule.name, idx)]
    index = Index(program) if program_rules else None
    for rule in program_rules:
        findings += rule.check(index)
    if judge:
        findings = [f for f in findings if RULES[f.rule] in active]
        findings += check_unused_allows(sources, ran, index)
    return sorted(findings, key=lambda f: (f.path, f.line, f.rule))


def write_baseline(path: str, findings: list[Finding]) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# massf-check baseline: audited pre-existing findings.\n"
                 "# One key per line: rule|path|function|normalized source "
                 "text.\n"
                 "# Regenerate with tools/massf_check.py --write-baseline.\n")
        for key in sorted({f.key() for f in findings}):
            fh.write(key + "\n")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="massf-check", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=None,
                        help="repository root (default: the tools/ parent)")
    parser.add_argument("--only", default=None, metavar="RULE",
                        choices=sorted(RULES), help="run a single rule")
    parser.add_argument("--sarif", default=None, metavar="FILE",
                        help="also write SARIF 2.1.0 to FILE")
    parser.add_argument("--write-baseline", action="store_true",
                        help=f"write the current findings to {BASELINE} "
                             f"and exit 0")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule table and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES.values():
            print(f"{rule.name:20s} {rule.scope:8s} [{', '.join(rule.dirs)}]")
            print(f"{'':20s} {rule.description}")
        return 0

    root = os.path.abspath(
        args.root
        or os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
    active = [r for r in RULES.values() if args.only in (None, r.name)]
    findings = run_checks(root, active)

    baseline_path = os.path.join(root, BASELINE)
    if args.write_baseline:
        write_baseline(baseline_path, findings)
        print(f"massf-check: wrote {len(findings)} finding key(s) to "
              f"{baseline_path}")
        return 0

    baseline = massf_cpp.load_baseline(baseline_path)
    fresh = [f for f in findings if f.key() not in baseline]
    stale = baseline - {f.key() for f in findings}
    if stale and args.only is None:
        print(f"massf-check: note: {len(stale)} stale baseline entr"
              f"{'y' if len(stale) == 1 else 'ies'} (finding fixed? prune "
              f"the baseline):", file=sys.stderr)
        for key in sorted(stale):
            print(f"  {key}", file=sys.stderr)

    if args.sarif:
        with open(args.sarif, "w", encoding="utf-8") as fh:
            fh.write(massf_cpp.sarif_report(
                "massf-check",
                "https://github.com/massf/massf/blob/main/DESIGN.md",
                [{"id": r.name, "description": r.description}
                 for r in RULES.values()],
                [{"rule": f.rule, "level": "error", "message": f.message,
                  "path": f.path, "line": f.line} for f in fresh]))

    for f in fresh:
        print(f.render())
    suppressed = len(findings) - len(fresh)
    if fresh:
        print(f"massf-check: {len(fresh)} finding(s) in "
              f"{len({f.path for f in fresh})} file(s)"
              + (f" ({suppressed} baselined)" if suppressed else ""),
              file=sys.stderr)
        return 1
    if suppressed:
        print(f"massf-check: clean ({suppressed} baselined finding(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
