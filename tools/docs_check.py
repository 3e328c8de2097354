#!/usr/bin/env python3
"""Docs hygiene for the engine's public surface and the docs/ tree.

Three checks, all enforced by CI (and runnable locally from anywhere):

  1. Public-API comment coverage over src/engine/*.hpp,
     src/net/*.hpp, src/obs/*.hpp and src/persist/*.hpp.
     Every *public declaration* — a namespace-scope class / struct /
     enum / using / free function, or a public member function — must
     carry a comment block: the declaration, or the contiguous run of
     single-line declarations it belongs to, is immediately preceded by
     a `//` / `///` comment. Runs let one comment cover a tight group
     of one-line accessors (the established header style); a blank line
     breaks the run, so an uncommented declaration can't hide behind an
     unrelated comment half a screen up.

     Exempt: data members (fields document themselves or ride a section
     comment), `= default` / `= delete` special members, access
     specifiers, braces, preprocessor lines, and anything inside
     function bodies / enums / initializers.

  2. Markdown link integrity over docs/*.md and README.md.
     Every relative link target must exist on disk, and a `#fragment`
     pointing into a markdown file must match one of its heading slugs.

  3. Counter catalog completeness. Every counter in the
     DYNSLD_ENGINE_COUNTERS list (src/engine/stats.hpp) must appear,
     spelled out in backticks, in the counter table of
     docs/OBSERVABILITY.md (the table under its "Counters" heading).

Exit status is the number of problems found (0 == clean).
"""

from __future__ import annotations

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

HEADER_GLOBS = ["src/engine/*.hpp", "src/net/*.hpp", "src/obs/*.hpp",
                "src/persist/*.hpp"]
DOC_FILES = ["README.md", "docs/*.md"]

EXEMPT_DECL = re.compile(r"=\s*(default|delete)\s*;")
FORWARD_DECL = re.compile(r"^\s*(class|struct)\s+\w+\s*;$")
ACCESS = re.compile(r"^\s*(public|private|protected)\s*:\s*$")
TYPE_DECL = re.compile(r"^\s*(template\s*<.*>\s*)?(class|struct|enum|union)\s+\w")
USING_DECL = re.compile(r"^\s*using\s+\w+\s*=")


def strip_comments_and_strings(lines: list[str]) -> list[str]:
    """Blank out comments and string/char literals, preserving line
    structure, so brace counting can't be fooled. Marks comment-only
    lines with a leading '\x01' sentinel."""
    out = []
    in_block = False
    for raw in lines:
        buf = []
        had_code = False
        had_comment = in_block
        i = 0
        while i < len(raw):
            c = raw[i]
            nxt = raw[i + 1] if i + 1 < len(raw) else ""
            if in_block:
                had_comment = True
                if c == "*" and nxt == "/":
                    in_block = False
                    i += 2
                    continue
                i += 1
                continue
            if c == "/" and nxt == "/":
                had_comment = True
                break  # line comment: rest of line gone
            if c == "/" and nxt == "*":
                in_block = True
                i += 2
                continue
            if c in "\"'":
                quote = c
                buf.append(quote)
                i += 1
                while i < len(raw):
                    if raw[i] == "\\":
                        i += 2
                        continue
                    if raw[i] == quote:
                        break
                    i += 1
                buf.append(quote)
                i += 1
                continue
            if not c.isspace():
                had_code = True
            buf.append(c)
            i += 1
        text = "".join(buf).rstrip()
        if not had_code and had_comment:
            out.append("\x01")  # comment-only line
        else:
            out.append(text)
    return out


def is_function_decl(stmt: str) -> bool:
    """A '(' before any '=' or brace-init marks a function (or operator)
    rather than a data member."""
    for ch_i, ch in enumerate(stmt):
        if ch == "(":
            return True
        if ch == "=" or ch == "{":
            return False
    return False


def check_header(path: pathlib.Path) -> list[str]:
    raw = path.read_text().splitlines()
    code = strip_comments_and_strings(raw)
    problems = []

    # Scope stack entries: ('ns',) / ('class', access) / ('other',)
    stack: list[list] = []
    stmt = ""        # statement accumulated since last ; { }
    stmt_line = 0    # line the current statement opened on
    covered = False  # is the current statement covered by a comment/run?
    prev_kind = "none"  # what the previous finished line was:
    #   'comment' | 'covered-decl' | 'code' | 'blank' | 'none'

    def eligible() -> bool:
        if any(s[0] == "other" for s in stack):
            return False
        for s in reversed(stack):
            if s[0] == "class":
                return s[1] == "public"
        return True  # namespace scope

    def classify(opened_stmt: str) -> list:
        if re.search(r"\bnamespace\b", opened_stmt):
            return ["ns"]
        m = re.search(r"\b(class|struct)\b", opened_stmt)
        if m and "enum" not in opened_stmt and not is_function_decl(
                opened_stmt.split("{")[0]):
            default = "public" if m.group(1) == "struct" else "private"
            return ["class", default]
        return ["other"]

    def flag(line_no: int, stmt_text: str) -> None:
        head = " ".join(stmt_text.split())[:70]
        problems.append(f"{path.relative_to(ROOT)}:{line_no}: "
                        f"public declaration lacks a comment block: {head}")

    def finish_decl(line_no: int, stmt_text: str, single_line: bool) -> None:
        nonlocal prev_kind
        s = stmt_text.strip()
        if not s or s.startswith("#"):
            prev_kind = "code"
            return
        if not eligible():
            prev_kind = "code"
            return
        if ACCESS.match(s) or s in ("};", "}", "{"):
            prev_kind = "code"
            return
        if EXEMPT_DECL.search(s) or FORWARD_DECL.match(s):
            prev_kind = "covered-decl"
            return
        is_type = bool(TYPE_DECL.match(s)) or bool(USING_DECL.match(s))
        is_func = is_function_decl(s)
        if not (is_type or is_func):  # data member or friend-less misc
            prev_kind = "code"
            return
        if covered:
            prev_kind = "covered-decl" if single_line else "code"
        else:
            flag(line_no, s)
            prev_kind = "code"

    for idx, line in enumerate(code, start=1):
        if line == "\x01":  # comment-only line
            prev_kind = "comment"
            continue
        if not line.strip():
            if not stmt.strip():
                prev_kind = "blank"
            continue
        if line.lstrip().startswith("#"):
            prev_kind = "code"
            continue
        if not stmt.strip():
            stmt_line = idx
            covered = prev_kind in ("comment", "covered-decl")
        stmt += " " + line
        # Consume the statement character-wise for scope tracking.
        consumed = ""
        for ch in line:
            consumed += ch
            if ch == "{":
                opened = stmt[: stmt.rfind("{") + 1] if "{" in stmt else stmt
                kind = classify(opened)
                if kind[0] == "class" and eligible():
                    # the type header itself is a declaration to check
                    finish_decl(stmt_line, opened.split("{")[0], False)
                stack.append(kind)
                stmt = ""
            elif ch == "}":
                if stack:
                    stack.pop()
                stmt = ""
            elif ch == ";":
                finish_decl(stmt_line, stmt.rstrip(";").strip() + ";",
                            single_line=(stmt_line == idx))
                stmt = ""
            elif ch == ":":
                s = stmt.strip()
                if ACCESS.match(s):
                    for sc in reversed(stack):
                        if sc[0] == "class":
                            sc[1] = s.rstrip(":").strip()
                            break
                    stmt = ""
    return problems


COUNTERS_HPP = "src/engine/stats.hpp"
COUNTERS_DOC = "docs/OBSERVABILITY.md"


def check_counter_catalog() -> list[str]:
    """Every DYNSLD_ENGINE_COUNTERS entry must be named in the counter
    table that follows the doc's "### Counters" heading."""
    hpp = (ROOT / COUNTERS_HPP).read_text()
    m = re.search(r"#define DYNSLD_ENGINE_COUNTERS\(X\)(.*?)\n\s*\n", hpp,
                  re.S)
    if not m:
        return [f"{COUNTERS_HPP}: DYNSLD_ENGINE_COUNTERS list not found"]
    counters = re.findall(r"\bX\((\w+)\)", m.group(1))
    table: list[str] = []
    in_section = False
    for line in (ROOT / COUNTERS_DOC).read_text().splitlines():
        if line.startswith("#"):
            if in_section:
                break
            in_section = line.startswith("### Counters")
        elif in_section and line.startswith("|"):
            table.append(line)
    named = set(re.findall(r"`(\w+)`", "\n".join(table)))
    return [f"{COUNTERS_DOC}: counter table omits engine counter "
            f"`{c}` ({COUNTERS_HPP})" for c in counters if c not in named]


HEADING = re.compile(r"^#{1,6}\s+(.*)$")
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def slugify(heading: str) -> str:
    text = re.sub(r"`([^`]*)`", r"\1", heading.strip().lower())
    text = re.sub(r"[^\w\- ]", "", text)
    return re.sub(r"\s+", "-", text.strip())


def md_slugs(path: pathlib.Path) -> set[str]:
    slugs = set()
    in_fence = False
    for line in path.read_text().splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        m = HEADING.match(line)
        if m:
            slugs.add(slugify(m.group(1)))
    return slugs


def check_links(path: pathlib.Path) -> list[str]:
    problems = []
    in_fence = False
    for line_no, line in enumerate(path.read_text().splitlines(), start=1):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for m in LINK.finditer(line):
            target = m.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            frag = ""
            if "#" in target:
                target, frag = target.split("#", 1)
            dest = path if not target else (path.parent / target).resolve()
            rel = f"{path.relative_to(ROOT)}:{line_no}"
            if target and not dest.exists():
                problems.append(f"{rel}: broken link target: {m.group(1)}")
                continue
            if frag and dest.suffix == ".md":
                if frag not in md_slugs(dest):
                    problems.append(
                        f"{rel}: missing anchor #{frag} in {dest.name}")
    return problems


def main() -> int:
    problems = []
    for pattern in HEADER_GLOBS:
        for hpp in sorted(ROOT.glob(pattern)):
            problems += check_header(hpp)
    for pattern in DOC_FILES:
        for md in sorted(ROOT.glob(pattern)):
            problems += check_links(md)
    problems += check_counter_catalog()
    for p in problems:
        print(p)
    if problems:
        print(f"\ndocs_check: {len(problems)} problem(s)")
    else:
        print("docs_check: clean")
    return min(len(problems), 99)


if __name__ == "__main__":
    sys.exit(main())
