#!/usr/bin/env python3
"""Markdown link checker for the docs tree (stdlib only).

Scans the given markdown files/directories for inline links and verifies
that every relative target resolves to an existing file or directory, so
stale file references fail CI instead of rotting silently.

    python3 scripts/check_md_links.py README.md ROADMAP.md docs

Checked:   [text](relative/path), [text](relative/path#fragment), and
           backticked repo paths such as `src/core/histsim.{h,cc}` or
           `src/service/query_scheduler.cc:324` — a code span whose
           first word starts with src/, tests/, bench/, examples/,
           scripts/, perfbench/ or docs/ must name something under the
           repository root. A `{a,b}` group is expanded, a `:line`
           suffix is dropped, and a `*` glob must match at least once.
Ignored:   http(s)://, mailto:, pure-fragment links (#anchor), and
           anything inside fenced code blocks.
Exit code: 0 when every link resolves, 1 otherwise (broken links are
           listed as file:line: target).
"""

import re
import sys
from pathlib import Path

LINK_RE = re.compile(r"\[[^\]]*\]\(([^()\s]+)\)")
FENCE_RE = re.compile(r"^\s*(```|~~~)")
SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")
CODE_SPAN_RE = re.compile(r"`([^`]+)`")
REPO_DIRS = ("src/", "tests/", "bench/", "examples/", "scripts/",
             "perfbench/", "docs/")
BRACE_RE = re.compile(r"\{([^{}]*)\}")
REPO_ROOT = Path(__file__).resolve().parent.parent


def expand_braces(path):
    """`a.{h,cc}` -> [`a.h`, `a.cc`], recursively for several groups."""
    match = BRACE_RE.search(path)
    if match is None:
        return [path]
    head, tail = path[: match.start()], path[match.end():]
    return [expanded
            for alt in match.group(1).split(",")
            for expanded in expand_braces(head + alt + tail)]


def repo_path_resolves(path):
    if "*" in path:
        return any(REPO_ROOT.glob(path))
    return (REPO_ROOT / path).exists()


def broken_repo_paths(line):
    """Backticked repo paths on `line` that name nothing in the tree."""
    broken = []
    for span in CODE_SPAN_RE.findall(line):
        words = span.split()
        if not words or not words[0].startswith(REPO_DIRS):
            continue
        target = re.sub(r"[:#].*$", "", words[0])
        if not all(repo_path_resolves(p) for p in expand_braces(target)):
            broken.append(span)
    return broken


def iter_markdown_files(roots):
    for root in roots:
        path = Path(root)
        if path.is_dir():
            yield from sorted(path.rglob("*.md"))
        elif path.suffix == ".md":
            yield path
        else:
            sys.stderr.write(f"check_md_links: not markdown: {path}\n")
            sys.exit(2)


def check_file(md_file):
    broken = []
    in_fence = False
    for lineno, line in enumerate(
        md_file.read_text(encoding="utf-8").splitlines(), start=1
    ):
        if FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for target in LINK_RE.findall(line):
            if target.startswith(SKIP_PREFIXES):
                continue
            resolved = (md_file.parent / target.split("#", 1)[0]).resolve()
            if not resolved.exists():
                broken.append(f"{md_file}:{lineno}: {target}")
        for span in broken_repo_paths(line):
            broken.append(f"{md_file}:{lineno}: `{span}`")
    return broken


def main(argv):
    roots = argv or ["README.md", "ROADMAP.md", "docs"]
    broken = []
    checked = 0
    for md_file in iter_markdown_files(roots):
        checked += 1
        broken.extend(check_file(md_file))
    if broken:
        print(f"check_md_links: {len(broken)} broken link(s):")
        for entry in broken:
            print(f"  {entry}")
        return 1
    print(f"check_md_links: OK ({checked} file(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
