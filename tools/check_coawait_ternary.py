#!/usr/bin/env python3
"""Fails when `co_await` appears inside an operand of a conditional operator.

GCC 12 miscompiles `x = ok ? co_await f() : g()` (DESIGN.md section 5k):
the materialized temporary aliases the awaited child's coroutine frame and
is freed twice. Write the if/else instead. A conditional inside a co_await
*argument* (`co_await f(ok ? a : b)`) is fine and is not flagged.

Usage: python3 tools/check_coawait_ternary.py DIR_OR_FILE...
Scans *.h and *.cc files; prints each violation and exits 1 if any.
"""

import re
import sys
from pathlib import Path

OPEN = "([{"
CLOSE = ")]}"


def blank_comments_and_literals(src):
    """Replaces comments and string/char literals with spaces, keeping newlines."""
    out = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if src.startswith("//", i):
            j = src.find("\n", i)
            j = n if j < 0 else j
        elif src.startswith("/*", i):
            j = src.find("*/", i + 2)
            j = n if j < 0 else j + 2
        elif c == 'R' and src.startswith('R"', i) and (i == 0 or not (src[i - 1].isalnum() or src[i - 1] == "_")):
            k = src.find("(", i + 2)
            delim = src[i + 2:k]
            j = src.find(")" + delim + '"', k)
            j = n if j < 0 else j + len(delim) + 2
        elif c in "\"'":
            j = i + 1
            while j < n and src[j] != c:
                j += 2 if src[j] == "\\" else 1
            j = min(n, j + 1)
        else:
            out.append(c)
            i += 1
            continue
        out.append("".join(ch if ch == "\n" else " " for ch in src[i:j]))
        i = j
    return "".join(out)


def operands_end(code, start):
    """Index where the conditional expression whose `?` ends at `start` ends:
    the first `;` or `,` outside brackets, or an unmatched closing bracket."""
    depth = 0
    for i in range(start, len(code)):
        c = code[i]
        if c in OPEN:
            depth += 1
        elif c in CLOSE:
            if depth == 0:
                return i
            depth -= 1
        elif depth == 0 and c in ";,":
            return i
    return len(code)


def violations(path):
    """Line numbers holding a co_await inside some conditional's operands."""
    code = blank_comments_and_literals(path.read_text(encoding="utf-8", errors="replace"))
    lines = set()
    for m in re.finditer(r"\?", code):
        hit = re.search(r"\bco_await\b", code[m.end():operands_end(code, m.end())])
        if hit:
            lines.add(code.count("\n", 0, m.end() + hit.start()) + 1)
    return sorted(lines)


def main(argv):
    if len(argv) < 2:
        raise SystemExit("usage: check_coawait_ternary.py DIR_OR_FILE...")
    files = []
    for arg in argv[1:]:
        p = Path(arg)
        files.extend(sorted(p.rglob("*.h")) + sorted(p.rglob("*.cc")) if p.is_dir() else [p])
    bad = 0
    for f in files:
        for line in violations(f):
            print(f"{f}:{line}: co_await as a conditional-operator operand (GCC 12 trap; "
                  f"use if/else)")
            bad += 1
    print(f"    checked {len(files)} files: {bad} co_await ternary operand(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
