#!/usr/bin/env python3
"""massf_cpp: the C++ lexing layer under massf-check (and the baseline and
SARIF helpers it shares with tidy_sarif).

Per-file rules and the whole-program index read the same scrubbed lines,
so a rule can never match inside a comment or a literal:

  * scrub(lines)            comment/string/char-literal removal that is
                            raw-string aware (R"delim(...)delim" spanning
                            any number of lines) and preserves the line
                            structure, so findings keep their line numbers
                            and rule regexes can never match inside a
                            comment, a string literal, or a raw string.
  * tokenize(code_lines)    a flat token stream (identifiers / numbers /
                            punctuation, each with its 1-based line) for
                            the whole-program function indexer.
  * statement_end(...)      where the statement covering a line actually
                            ends — the generalized continuation rule that
                            lets an allow() on a declaration cover the
                            whole wrapped statement, not just one line.
  * sarif_report(...)       SARIF 2.1.0 serialization shared by
                            massf-check and tidy_sarif (the clang-tidy
                            gate), so CI consumes one format from every
                            analyzer.
  * load_baseline(path)     the baseline file format both gates share.

Nothing here preprocesses: `#if 0` blocks still lex, macros do not expand.
That is deliberate — the tools are invariant scanners, not compilers, and
conditional code should obey the invariants in every configuration.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass

SOURCE_EXTENSIONS = (".hpp", ".h", ".cpp", ".cc", ".cxx")

_RAW_STRING_OPEN_RE = re.compile(r'R"([^ ()\\\t\v\f\n]{0,16})\(')

# A scrubbed code line ending in one of these is mid-expression: the next
# line continues the same statement (binary operator, open comma, a
# `return` with the value wrapped, ...). Used both by the
# statement-initial unchecked-io checker and by generalized allow()
# scoping.
CONTINUATION_END_RE = re.compile(r"(?:[&|(,=+\-*/%<>!?:]|\breturn)\s*$")


def scrub(raw_lines: list[str]) -> list[str]:
    """Blank out comments, string/char literals, and raw strings while
    preserving line structure. Ordinary string/char literal *contents* are
    dropped (the delimiting quotes stay, so `"x"` scrubs to `""`); raw
    strings scrub to `""` on the opening line and to empty text on their
    continuation lines."""
    out: list[str] = []
    state = "code"          # code | block_comment | raw_string
    raw_close = ""          # `)delim"` that terminates the raw string
    for raw in raw_lines:
        result: list[str] = []
        i, n = 0, len(raw)
        while i < n:
            if state == "block_comment":
                end = raw.find("*/", i)
                if end < 0:
                    i = n
                else:
                    state = "code"
                    i = end + 2
                continue
            if state == "raw_string":
                end = raw.find(raw_close, i)
                if end < 0:
                    i = n
                else:
                    state = "code"
                    i = end + len(raw_close)
                continue
            ch = raw[i]
            nxt = raw[i + 1] if i + 1 < n else ""
            if ch == "/" and nxt == "/":
                break  # line comment: rest of line is gone
            if ch == "/" and nxt == "*":
                state = "block_comment"
                i += 2
                continue
            if ch == "R" and nxt == '"':
                # Raw string literal R"delim( ... )delim" — may span lines;
                # a stray R" that is not a raw-string opener (no `(` within
                # the 16-char delimiter budget) lexes as identifier + string.
                m = _RAW_STRING_OPEN_RE.match(raw, i)
                if m and (i == 0 or not (raw[i - 1].isalnum()
                                         or raw[i - 1] == "_")):
                    result.append('""')
                    raw_close = ")" + m.group(1) + '"'
                    state = "raw_string"
                    i = m.end()
                    continue
            if ch in "\"'":
                quote = ch
                result.append(quote)
                i += 1
                while i < n:
                    if raw[i] == "\\":
                        i += 2
                        continue
                    if raw[i] == quote:
                        i += 1
                        break
                    i += 1
                result.append(quote)
                continue
            result.append(ch)
            i += 1
        out.append("".join(result))
    return out


@dataclass(frozen=True)
class Token:
    kind: str   # "id" | "num" | "punct"
    text: str
    line: int   # 1-based

    def __repr__(self) -> str:  # compact in debug dumps
        return f"{self.text}@{self.line}"


_TOKEN_RE = re.compile(
    r"[A-Za-z_]\w*"                     # identifier / keyword
    r"|\d[\w.+\-]*"                     # number (incl. 1e-6, 0x1f)
    r"|::|->\*?|\.\.\.|<<=|>>=|<=|>=|==|!=|&&|\|\||\+\+|--|\+=|-=|\*=|/=|%="
    r"|&=|\|=|\^=|<<|>>"
    r"|[^\s\w]")                        # any single punctuation char


def tokenize(code_lines: list[str]) -> list[Token]:
    """Flat token stream over scrubbed lines. String literals appear as a
    lone `""`/`''` punct token (their contents were scrubbed)."""
    tokens: list[Token] = []
    for lineno, line in enumerate(code_lines, start=1):
        if line.lstrip().startswith("#"):
            # Preprocessor directives never contribute code tokens; #include
            # paths in particular would lex as operators and identifiers.
            continue
        for m in _TOKEN_RE.finditer(line):
            text = m.group(0)
            if text[0].isdigit():
                kind = "num"
            elif text[0].isalpha() or text[0] == "_":
                kind = "id"
            else:
                kind = "punct"
            tokens.append(Token(kind, text, lineno))
    return tokens


def statement_end(code_lines: list[str], lineno: int, limit: int = 40) -> int:
    """1-based last line of the statement that is open on `lineno`: extends
    while parentheses/brackets stay unbalanced or the line ends
    mid-expression (CONTINUATION_END_RE). Bounded by `limit` lines so a
    pathological file cannot turn one allow() into a whole-file mute."""
    depth = 0
    end = lineno
    for idx in range(lineno, min(lineno + limit, len(code_lines) + 1)):
        line = code_lines[idx - 1]
        depth += line.count("(") + line.count("[")
        depth -= line.count(")") + line.count("]")
        end = idx
        if depth <= 0 and not CONTINUATION_END_RE.search(line.rstrip()):
            break
    return end


def allow_extent(code_lines: list[str], lineno: int,
                 max_skip: int = 5) -> int:
    """1-based last line covered by an allow() comment on `lineno`: skip
    the (scrubbed-empty) remainder of the comment block — at most
    `max_skip` lines, so an allow can't silently leak far down the file —
    then extend through the statement that follows (statement_end)."""
    anchor = lineno + 1
    skipped = 0
    while anchor <= len(code_lines) and skipped < max_skip \
            and not code_lines[anchor - 1].strip():
        anchor += 1
        skipped += 1
    return statement_end(code_lines, anchor)


def sarif_report(tool_name: str, info_uri: str,
                 rules: list[dict], results: list[dict]) -> str:
    """Serialize one SARIF 2.1.0 run.

    rules:   [{"id", "description"}]
    results: [{"rule", "level", "message", "path", "line"}]
             (`path` repo-relative with forward slashes, `line` 1-based)
    """
    rule_ids = [r["id"] for r in rules]
    sarif = {
        "$schema": ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                    "master/Schemata/sarif-schema-2.1.0.json"),
        "version": "2.1.0",
        "runs": [{
            "tool": {
                "driver": {
                    "name": tool_name,
                    "informationUri": info_uri,
                    "rules": [{
                        "id": r["id"],
                        "shortDescription": {"text": r["description"]},
                    } for r in rules],
                }
            },
            "results": [{
                "ruleId": f["rule"],
                "ruleIndex": rule_ids.index(f["rule"])
                             if f["rule"] in rule_ids else -1,
                "level": f.get("level", "error"),
                "message": {"text": f["message"]},
                "locations": [{
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": f["path"],
                            "uriBaseId": "SRCROOT",
                        },
                        "region": {"startLine": max(1, int(f["line"]))},
                    }
                }],
            } for f in results],
            "columnKind": "utf16CodeUnits",
        }],
    }
    return json.dumps(sarif, indent=2, sort_keys=False) + "\n"


def load_baseline(path: str) -> set[str]:
    """Keys of a baseline file: one per line, `#` comments and blank lines
    skipped. A missing file is an empty baseline."""
    if not os.path.exists(path):
        return set()
    with open(path, encoding="utf-8") as fh:
        return {line.strip() for line in fh
                if line.strip() and not line.lstrip().startswith("#")}
