#!/usr/bin/env python3
"""massf-analyze: whole-program static analysis for the massf tree.

massf-lint (tools/massf_lint.py) checks per-line invariants; this tool
checks the *cross-translation-unit* properties behind the repo's headline
claims — properties a single-file regex cannot see:

  lock-cycle          The static lock-acquisition graph (util::MutexLock
                      scopes + MASSF_REQUIRES annotations, propagated
                      through the call graph) must be acyclic. A cycle
                      means two call paths take the same locks in opposite
                      orders: a potential deadlock no test run may ever hit.
  lock-across-wait    No lock may be held across a WaitSlot park or a
                      SpinBarrier arrive_and_wait (directly, or through any
                      callee). A parked thread holding a mutex can deadlock
                      the thread that is supposed to wake it.
  hot-path-alloc      From the annotated hot-path roots (kernel event
                      dispatch, packet dispatch, outbox flush / mailbox
                      drain) no reachable code may allocate: new / malloc /
                      make_unique / make_shared, or growth calls
                      (push_back / emplace / insert / resize / ...) on a
                      container that is never reserve()d anywhere in the
                      tree. PR 1's "allocation-free hot path" becomes a
                      build-time invariant instead of a benchmark claim.
  determinism-taint   From the annotated determinism roots (the
                      history-hash accumulator, checkpoint serialization)
                      no reachable code may read nondeterminism into the
                      event stream: unordered-container iteration,
                      wall-clock reads, RNG outside massf::Rng,
                      std::reduce, or float accumulation inside an
                      unordered-container loop.

Source annotations (plain comments, inert to the compiler)
----------------------------------------------------------
    // massf-analyze: hot-path-root          next function is a hot root
    // massf-analyze: determinism-root       next function feeds the hash /
                                             checkpoint bytes
    // massf-analyze: wait-point             next function parks/waits
    // massf-analyze: allow(<rule>) — why    suppress findings on this
                                             statement; on a *call* line it
                                             also prunes hot-path /
                                             determinism traversal through
                                             that call (audited cold branch)

allow() scoping matches massf-lint: the comment covers its own line, the
next line, and every continuation line of the statement that starts there.

Model and its limits (see DESIGN.md §9 for the capability map)
--------------------------------------------------------------
The engine lexes every src/ header and source with the shared tokenizer
(tools/massf_cpp.py) — no preprocessing, no template instantiation — and
builds a whole-program index: function definitions (namespace/class scope
tracked through braces), call edges (resolved by qualified tail, then by
unqualified name, to *indexed* definitions only), lock acquisitions, wait
sites, allocation sites, taint sources. Virtual calls resolve by method
name to every indexed override (sound for reachability, over-approximate).
Calls through std::function/function pointers resolve to nothing — the
hot path is allocation-free precisely because it avoids type-erased
callbacks, and the typed-dispatch refactor (PR 1) is what makes this
analysis possible. Lambda bodies are attributed to their enclosing
function.

Usage
-----
    tools/massf_analyze.py                         # scan src/ (exit 1 on findings)
    tools/massf_analyze.py --root DIR --src REL    # scan another tree
    tools/massf_analyze.py --only RULE
    tools/massf_analyze.py --baseline FILE         # suppress audited findings
    tools/massf_analyze.py --write-baseline FILE   # record current findings
    tools/massf_analyze.py --sarif FILE            # also emit SARIF 2.1.0
    tools/massf_analyze.py --require-roots         # error if no roots annotated
    tools/massf_analyze.py --list-rules
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass, field

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import massf_cpp  # noqa: E402
from massf_cpp import Token  # noqa: E402

RULES: dict[str, str] = {
    "lock-cycle": (
        "cycle in the static lock-acquisition graph (potential deadlock): "
        "two call paths take the same locks in opposite orders"),
    "lock-across-wait": (
        "lock held across a WaitSlot park / SpinBarrier wait: a parked "
        "thread holding a mutex can deadlock its waker"),
    "hot-path-alloc": (
        "allocation or unreserved container growth reachable from a "
        "hot-path root (kernel event dispatch / packet dispatch / outbox "
        "flush / mailbox drain)"),
    "determinism-taint": (
        "nondeterminism source (unordered iteration, wall-clock, RNG, "
        "unordered float accumulation) on a path reaching the history-hash "
        "accumulator or checkpoint serialization"),
}

ALLOW_RE = re.compile(r"massf-analyze:\s*allow\(([^)]*)\)")
ANNOTATION_RE = re.compile(
    r"massf-analyze:\s*(hot-path-root|determinism-root|wait-point)\b")

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
                      "resize", "try_emplace", "emplace_hint",
                      "insert_or_assign"})
WALLCLOCK_IDS = frozenset({"system_clock", "high_resolution_clock",
                           "gettimeofday", "localtime", "gmtime", "mktime"})
RNG_IDS = frozenset({"random_device", "mt19937", "mt19937_64",
                     "minstd_rand", "minstd_rand0", "default_random_engine"})
UNORDERED_TYPES = frozenset({"unordered_map", "unordered_set",
                             "unordered_multimap", "unordered_multiset"})
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
    hot_root: bool = False
    det_root: bool = False
    wait_point: bool = False
    sites: SiteList = field(default_factory=SiteList)

    @property
    def tail(self) -> str:
        parts = self.qname.split("::")
        return "::".join(parts[-2:]) if len(parts) >= 2 else self.qname


@dataclass
class Finding:
    rule: str
    path: str
    line: int
    func: str
    message: str
    text: str                 # scrubbed source line (for the baseline key)

    def key(self) -> str:
        norm = re.sub(r"\s+", " ", self.text.strip())
        return f"{self.rule}|{self.path}|{self.func}|{norm}"

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# --------------------------------------------------------------------------
# Indexing


class FileIndex:
    def __init__(self, path: str, rel: str):
        self.rel = rel
        with open(path, encoding="utf-8", errors="replace") as fh:
            self.raw_lines = fh.read().splitlines()
        self.code_lines = massf_cpp.scrub(self.raw_lines)
        self.tokens = massf_cpp.tokenize(self.code_lines)
        self.allows = self._collect_allows()
        self.annotations = self._collect_annotations()

    def _collect_allows(self) -> dict[int, set[str]]:
        allowed: dict[int, set[str]] = {}
        for idx, raw in enumerate(self.raw_lines, start=1):
            for match in ALLOW_RE.finditer(raw):
                rules = {r.strip() for r in match.group(1).split(",")
                         if r.strip()}
                unknown = rules - RULES.keys()
                if unknown:
                    raise SystemExit(
                        f"massf-analyze: unknown rule(s) {sorted(unknown)} "
                        f"in allow() at {self.rel}:{idx}: choose from "
                        f"{sorted(RULES)}")
                # The allow covers its own line, the rest of its comment
                # block, and every continuation line of the statement that
                # follows.
                last = massf_cpp.allow_extent(self.code_lines, idx)
                for covered in range(idx, last + 1):
                    allowed.setdefault(covered, set()).update(rules)
        return allowed

    def _collect_annotations(self) -> list[tuple[int, str]]:
        notes = []
        for idx, raw in enumerate(self.raw_lines, start=1):
            m = ANNOTATION_RE.search(raw)
            if m:
                notes.append((idx, m.group(1)))
        return notes

    def allowed(self, rule: str, line: int) -> bool:
        return rule in self.allows.get(line, ())


def match_paren(tokens: list[Token], i_open: int,
                open_c: str = "(", close_c: str = ")") -> int:
    """Index of the token matching tokens[i_open] (which must be open_c);
    len(tokens) if unbalanced."""
    depth = 0
    for i in range(i_open, len(tokens)):
        t = tokens[i].text
        if t == open_c:
            depth += 1
        elif t == close_c:
            depth -= 1
            if depth == 0:
                return i
    return len(tokens)


def strip_template_header(tokens: list[Token]) -> list[Token]:
    """Drop `template < ... >` prefixes from a declaration header so the
    class/struct keywords inside template parameter lists don't confuse
    classification."""
    out: list[Token] = []
    i = 0
    while i < len(tokens):
        if tokens[i].text == "template" and i + 1 < len(tokens) \
                and tokens[i + 1].text == "<":
            depth = 0
            j = i + 1
            while j < len(tokens):
                t = tokens[j].text
                if t == "<":
                    depth += 1
                elif t == ">":
                    depth -= 1
                elif t == ">>":
                    depth -= 2
                j += 1
                if depth <= 0:
                    break
            i = j
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
            if t.text in ("{", ":") :
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

    def __init__(self) -> None:
        self.files: dict[str, FileIndex] = {}
        self.functions: list[Func] = []
        self.by_short: dict[str, list[Func]] = {}
        self.unordered_vars: set[str] = set()
        self.float_vars: set[str] = set()
        self.reserved: set[str] = set()

    def add_file(self, path: str, rel: str) -> None:
        fi = FileIndex(path, rel)
        self.files[rel] = fi
        self._predeclare(fi)

    def _predeclare(self, fi: FileIndex) -> None:
        """Global pre-pass: unordered/float variable names and reserve()d
        receivers, visible across TUs before any body is analyzed."""
        toks = fi.tokens
        for i, t in enumerate(toks):
            if t.kind != "id":
                continue
            if t.text in UNORDERED_TYPES:
                j = i + 1
                if j < len(toks) and toks[j].text == "<":
                    depth = 0
                    while j < len(toks):
                        x = toks[j].text
                        if x == "<":
                            depth += 1
                        elif x == ">":
                            depth -= 1
                        elif x == ">>":
                            depth -= 2
                        j += 1
                        if depth <= 0:
                            break
                if j < len(toks) and toks[j].kind == "id":
                    self.unordered_vars.add(toks[j].text)
            elif t.text in ("double", "float"):
                if i + 1 < len(toks) and toks[i + 1].kind == "id":
                    self.float_vars.add(toks[i + 1].text)
            elif t.text == "reserve" and i > 0 \
                    and toks[i - 1].text in (".", "->") and i + 1 < len(toks) \
                    and toks[i + 1].text == "(" and i >= 2:
                self.reserved.add(toks[i - 2].text)

    # -- structure pass ----------------------------------------------------

    def build(self) -> None:
        for fi in self.files.values():
            self._index_file(fi)
        for f in self.functions:
            self.by_short.setdefault(f.short, []).append(f)

    def _index_file(self, fi: FileIndex) -> None:
        toks = fi.tokens
        scopes: list[tuple[str, str]] = []   # (kind, name)
        header_start = 0
        pending = list(fi.annotations)       # (line, kind), consumed in order
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
                    qname = "::".join(prefix + chain)
                    fn = Func(qname=qname, short=chain[-1], cls=cls,
                              path=fi.rel,
                              line=(header[0].line if header else t.line),
                              requires=frozenset(
                                  self._canon(r, cls) for r in requires))
                    while pending and pending[0][0] <= fn.line:
                        note = pending.pop(0)[1]
                        if note == "hot-path-root":
                            fn.hot_root = True
                        elif note == "determinism-root":
                            fn.det_root = True
                        elif note == "wait-point":
                            fn.wait_point = True
                    close = self._scan_body(fi, fn, i)
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

    # -- body pass ---------------------------------------------------------

    def _scan_body(self, fi: FileIndex, fn: Func, i_open: int) -> int:
        """Scan tokens from the body-opening brace; returns the index of the
        matching close brace. Fills fn.sites."""
        toks = fi.tokens
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
                    j = self._skip_angles(toks, i + 1)
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
                    elif text in ("rand", "srand"):
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

    @staticmethod
    def _skip_angles(toks: list[Token], i: int) -> int:
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
        hazardous = any(
            (x.kind == "id" and x.text not in shadowed
             and (x.text in self.unordered_vars
                  or x.text in UNORDERED_TYPES))
            for x in range_toks)
        if hazardous:
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

    # -- resolution --------------------------------------------------------

    def resolve(self, call: CallSite) -> list[Func]:
        cands = self.by_short.get(call.name, [])
        if not cands:
            return []
        if call.qual:
            tail = f"{call.qual}::{call.name}"
            exact = [f for f in cands if f.qname.endswith(tail)]
            if exact:
                return exact
        return cands


# --------------------------------------------------------------------------
# Rules


def fi_of(index: Index, fn: Func) -> FileIndex:
    return index.files[fn.path]


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


def rule_lock_cycle(index: Index) -> list[Finding]:
    entry = propagate_entry_locks(index)
    # Edge (a, b): b acquired while a held. Keep one witness site per edge.
    edges: dict[tuple[str, str], tuple[Func, int]] = {}
    for f in index.functions:
        fi = fi_of(index, f)
        extra = entry[f.qname] - f.requires
        for acq in f.sites.acquisitions:
            if fi.allowed("lock-cycle", acq.line):
                continue
            for held in acq.held_before | extra:
                if held != acq.lock:
                    edges.setdefault((held, acq.lock), (f, acq.line))
    # Cycle detection over the lock digraph.
    graph: dict[str, set[str]] = {}
    for (a, b) in edges:
        graph.setdefault(a, set()).add(b)
        graph.setdefault(b, set())
    in_cycle = cyclic_nodes(graph)
    findings = []
    for (a, b), (f, line) in sorted(edges.items()):
        if a in in_cycle and b in in_cycle:
            fi = fi_of(index, f)
            findings.append(Finding(
                "lock-cycle", f.path, line, f.tail,
                f"lock order cycle: '{b}' acquired while holding '{a}' "
                f"(in {f.tail}); another path acquires them in the "
                f"opposite order — potential deadlock",
                fi.code_lines[line - 1]))
    return findings


def cyclic_nodes(graph: dict[str, set[str]]) -> set[str]:
    """Nodes on at least one directed cycle (Tarjan SCCs of size > 1, plus
    self-loops)."""
    idx_counter = [0]
    stack: list[str] = []
    on_stack: set[str] = set()
    idx: dict[str, int] = {}
    low: dict[str, int] = {}
    out: set[str] = set()

    def strongconnect(v: str) -> None:
        # Iterative Tarjan (fixtures can seed deep chains).
        work = [(v, iter(sorted(graph.get(v, ()))))]
        idx[v] = low[v] = idx_counter[0]
        idx_counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in idx:
                    idx[w] = low[w] = idx_counter[0]
                    idx_counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(graph.get(w, ())))))
                    advanced = True
                    break
                if w in on_stack:
                    low[node] = min(low[node], idx[w])
            if advanced:
                continue
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

    for v in sorted(graph):
        if v not in idx:
            strongconnect(v)
    return out


def rule_lock_across_wait(index: Index) -> list[Finding]:
    entry = propagate_entry_locks(index)
    # may_wait fixpoint: direct wait site / wait-point annotation, or any
    # call (not allowed-pruned) to a may-wait function.
    may_wait: dict[str, bool] = {
        f.qname: bool(f.sites.waits) or f.wait_point
        for f in index.functions}
    changed = True
    while changed:
        changed = False
        for f in index.functions:
            if may_wait[f.qname]:
                continue
            fi = fi_of(index, f)
            for call in f.sites.calls:
                if fi.allowed("lock-across-wait", call.line):
                    continue
                if any(may_wait[g.qname] for g in index.resolve(call)):
                    may_wait[f.qname] = True
                    changed = True
                    break
    findings = []
    for f in index.functions:
        fi = fi_of(index, f)
        base = entry[f.qname]
        for line, what, held_local in f.sites.waits:
            if fi.allowed("lock-across-wait", line):
                continue
            held = base | held_local
            if held:
                findings.append(Finding(
                    "lock-across-wait", f.path, line, f.tail,
                    f"'{what}' while holding {sorted(held)} — a parked "
                    f"thread holding a lock can deadlock its waker",
                    fi.code_lines[line - 1]))
        for call in f.sites.calls:
            if fi.allowed("lock-across-wait", call.line):
                continue
            held = base | call.held
            if not held:
                continue
            for g in index.resolve(call):
                if may_wait[g.qname]:
                    findings.append(Finding(
                        "lock-across-wait", f.path, call.line, f.tail,
                        f"call to '{g.tail}' (which may park/wait) while "
                        f"holding {sorted(held)}",
                        fi.code_lines[call.line - 1]))
                    break
    return findings


def reachable_closure(index: Index, roots: list[Func],
                      rule: str) -> dict[str, str]:
    """BFS over call edges from `roots`; an allow(<rule>) on a call line
    prunes traversal through that call (audited cold branch). Returns
    qname -> provenance chain."""
    prov: dict[str, str] = {}
    frontier: list[Func] = []
    for r in roots:
        if r.qname not in prov:
            prov[r.qname] = r.tail
            frontier.append(r)
    while frontier:
        f = frontier.pop()
        fi = fi_of(index, f)
        for call in f.sites.calls:
            if fi.allowed(rule, call.line):
                continue
            for g in index.resolve(call):
                if g.qname not in prov:
                    prov[g.qname] = f"{prov[f.qname]} -> {g.tail}"
                    frontier.append(g)
    return prov


def rule_hot_path_alloc(index: Index, require_roots: bool) -> list[Finding]:
    roots = [f for f in index.functions if f.hot_root]
    if not roots:
        if require_roots:
            print("massf-analyze: no '// massf-analyze: hot-path-root' "
                  "annotation found in the scanned tree — the "
                  "hot-path-alloc rule would be vacuous (--require-roots)",
                  file=sys.stderr)
            raise SystemExit(2)
        return []
    prov = reachable_closure(index, roots, "hot-path-alloc")
    findings = []
    for f in index.functions:
        if f.qname not in prov:
            continue
        fi = fi_of(index, f)
        for line, kind, detail in f.sites.allocs:
            if fi.allowed("hot-path-alloc", line):
                continue
            if kind == "grow":
                method = detail.rsplit(".", 1)[-1]
                if index.by_short.get(method):
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
            findings.append(Finding(
                "hot-path-alloc", f.path, line, f.tail,
                f"{what} reachable from the hot path "
                f"[{prov[f.qname]}]",
                fi.code_lines[line - 1]))
    return findings


def rule_determinism_taint(index: Index,
                           require_roots: bool) -> list[Finding]:
    roots = [f for f in index.functions if f.det_root]
    if not roots:
        if require_roots:
            print("massf-analyze: no '// massf-analyze: determinism-root' "
                  "annotation found in the scanned tree — the "
                  "determinism-taint rule would be vacuous "
                  "(--require-roots)", file=sys.stderr)
            raise SystemExit(2)
        return []
    prov = reachable_closure(index, roots, "determinism-taint")
    label = {
        "unordered-iteration": "iteration over an unordered container "
                               "(hash order leaks into the event stream)",
        "wall-clock": "wall-clock read",
        "rng": "RNG outside the seeded massf::Rng",
        "reduce": "std::reduce (unordered reduction)",
        "float-accum": "float accumulation (order-sensitive rounding)",
    }
    findings = []
    for f in index.functions:
        if f.qname not in prov:
            continue
        fi = fi_of(index, f)
        has_unordered_iter = any(k == "unordered-iteration"
                                 for _, k, _ in f.sites.taints)
        for line, kind, detail in f.sites.taints:
            if fi.allowed("determinism-taint", line):
                continue
            if kind == "float-accum" and not has_unordered_iter:
                continue   # ordered accumulation is deterministic
            findings.append(Finding(
                "determinism-taint", f.path, line, f.tail,
                f"{label[kind]}: '{detail}' on a path into the "
                f"history-hash / checkpoint bytes [{prov[f.qname]}]",
                fi.code_lines[line - 1]))
    return findings


# --------------------------------------------------------------------------
# Driver


def collect_files(root: str, src_dirs: list[str]) -> list[tuple[str, str]]:
    out = []
    for rel_dir in src_dirs:
        base = os.path.normpath(os.path.join(root, rel_dir))
        if not os.path.isdir(base):
            continue
        for dirpath, _dirs, names in os.walk(base):
            for name in sorted(names):
                if name.endswith(massf_cpp.SOURCE_EXTENSIONS):
                    path = os.path.join(dirpath, name)
                    rel = os.path.relpath(path, root).replace(os.sep, "/")
                    out.append((path, rel))
    return sorted(out)


def load_baseline(path: str) -> set[str]:
    keys: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                keys.add(line)
    return keys


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="massf-analyze", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=None,
                        help="repository root (default: the tools/ parent)")
    parser.add_argument("--src", action="append", default=None,
                        metavar="REL",
                        help="tree(s) under root to analyze (default: src)")
    parser.add_argument("--only", default=None, metavar="RULE")
    parser.add_argument("--baseline", default=None, metavar="FILE",
                        help="suppress findings whose key appears in FILE")
    parser.add_argument("--write-baseline", default=None, metavar="FILE",
                        help="write current finding keys to FILE and exit 0")
    parser.add_argument("--sarif", default=None, metavar="FILE",
                        help="also write SARIF 2.1.0 to FILE")
    parser.add_argument("--require-roots", action="store_true",
                        help="error if the tree annotates no hot-path/"
                             "determinism roots (CI keeps rules non-vacuous)")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for name, desc in RULES.items():
            print(f"{name:20s} [whole-program]")
            print(f"{'':20s} {desc}")
        return 0
    if args.only is not None and args.only not in RULES:
        parser.error(f"unknown rule '{args.only}'; choose from "
                     f"{sorted(RULES)}")

    root = os.path.abspath(
        args.root
        or os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
    src_dirs = args.src or ["src"]

    files = collect_files(root, src_dirs)
    if not files:
        print(f"massf-analyze: no sources under {root} in {src_dirs}",
              file=sys.stderr)
        return 2

    index = Index()
    for path, rel in files:
        index.add_file(path, rel)
    index.build()

    findings: list[Finding] = []
    if args.only in (None, "lock-cycle"):
        findings += rule_lock_cycle(index)
    if args.only in (None, "lock-across-wait"):
        findings += rule_lock_across_wait(index)
    if args.only in (None, "hot-path-alloc"):
        findings += rule_hot_path_alloc(index, args.require_roots)
    if args.only in (None, "determinism-taint"):
        findings += rule_determinism_taint(index, args.require_roots)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))

    if args.write_baseline:
        with open(args.write_baseline, "w", encoding="utf-8") as fh:
            fh.write("# massf-analyze baseline: audited pre-existing "
                     "findings.\n"
                     "# One key per line: rule|path|function|normalized "
                     "source text.\n"
                     "# Regenerate with tools/massf_analyze.py "
                     "--write-baseline <file>.\n")
            for key in sorted({f.key() for f in findings}):
                fh.write(key + "\n")
        print(f"massf-analyze: wrote {len(findings)} finding key(s) to "
              f"{args.write_baseline}")
        return 0

    baseline: set[str] = set()
    if args.baseline and args.baseline != "none":
        baseline = load_baseline(args.baseline)

    fresh = [f for f in findings if f.key() not in baseline]
    stale = baseline - {f.key() for f in findings}
    if stale:
        print(f"massf-analyze: note: {len(stale)} baseline entr"
              f"{'y is' if len(stale) == 1 else 'ies are'} stale (finding "
              f"fixed? prune the baseline):", file=sys.stderr)
        for key in sorted(stale):
            print(f"  {key}", file=sys.stderr)

    if args.sarif:
        rules = [{"id": n, "description": d} for n, d in RULES.items()]
        results = [{"rule": f.rule, "level": "error", "message": f.message,
                    "path": f.path, "line": f.line} for f in fresh]
        with open(args.sarif, "w", encoding="utf-8") as fh:
            fh.write(massf_cpp.sarif_report(
                "massf-analyze",
                "https://github.com/massf/massf/blob/main/DESIGN.md",
                rules, results))

    for f in fresh:
        print(f.render())
    suppressed = len(findings) - len(fresh)
    if fresh:
        print(f"massf-analyze: {len(fresh)} finding(s) in "
              f"{len({f.path for f in fresh})} file(s)"
              + (f" ({suppressed} baselined)" if suppressed else ""),
              file=sys.stderr)
        return 1
    if suppressed:
        print(f"massf-analyze: clean ({suppressed} baselined finding(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
