#!/usr/bin/env python3
"""Fail on dead links and dead repo paths in README.md / docs/*.md, and on
orphans.

Stdlib only (CI's docs job runs it with a bare python3). Three checks:

1. Dead links: every inline markdown link [text](target) whose target is
   not an absolute URL or in-page anchor must resolve (relative to the
   linking file's directory) to a path that exists inside the repo.
2. Dead code paths: every backticked path that starts with one of the
   repo's source directories (`src/`, `tests/`, `bench/`, `examples/`,
   `scripts/`, `perfbench/`, `docs/`) must exist, relative to the repo
   root. A `:line` suffix is dropped, only the span's first word is read
   (so `scripts/trace_summary.py TRACE.json` checks the script), and a
   glob such as `tests/test_*.cpp` must match at least one path.
3. Orphan docs: every docs/*.md file must be reachable from README.md by
   following relative markdown links between .md files — a doc nobody
   links to is a doc nobody reads, and it silently rots.

Prints one line per problem and exits nonzero if any were found.
"""

import re
import sys
from pathlib import Path

LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")
CODE_SPAN = re.compile(r"`([^`\n]+)`")
FENCE = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)
REPO_DIRS = ("src/", "tests/", "bench/", "examples/", "scripts/",
             "perfbench/", "docs/")
LINE_SUFFIX = re.compile(r"(:\d+(-\d+)?)+$")


def md_links(md: Path) -> list[tuple[str, str, int]]:
    """(path, original target, 1-based line) per relative link in `md`,
    with URL/anchor targets skipped and in-file anchors dropped from
    `path`."""
    text = md.read_text(encoding="utf-8")
    links = []
    for match in LINK.finditer(text):
        target = match.group(1)
        if target.startswith(SKIP_PREFIXES):
            continue
        path = target.split("#", 1)[0]  # drop in-file anchors
        if path:
            line = text.count("\n", 0, match.start()) + 1
            links.append((path, target, line))
    return links


def code_paths(md: Path) -> list[tuple[str, str, int]]:
    """(path, original span, 1-based line) per backticked repo path in
    `md`, fenced code blocks skipped, `:line` suffixes dropped."""
    text = md.read_text(encoding="utf-8")
    # Blank out fenced blocks but keep their newlines, so line numbers
    # still count from the original text.
    text = FENCE.sub(lambda m: "\n" * m.group(0).count("\n"), text)
    paths = []
    for match in CODE_SPAN.finditer(text):
        span = match.group(1)
        if not span.startswith(REPO_DIRS):
            continue
        path = LINE_SUFFIX.sub("", span.split()[0])
        line = text.count("\n", 0, match.start()) + 1
        paths.append((path, span, line))
    return paths


def check_file(md: Path, repo_root: Path) -> tuple[list[str], int]:
    """Problems in `md`, and how many backticked repo paths it names."""
    dead = []
    for path, target, line in md_links(md):
        resolved = (md.parent / path).resolve()
        try:
            resolved.relative_to(repo_root.resolve())
        except ValueError:
            dead.append(f"{md}: link escapes the repo: {target}")
            continue
        if not resolved.exists():
            dead.append(f"{md}:{line}: dead link: {target}")
    paths = code_paths(md)
    for path, span, line in paths:
        found = (any(repo_root.glob(path)) if any(c in path for c in "*?[")
                 else (repo_root / path).exists())
        if not found:
            dead.append(f"{md}:{line}: dead repo path: `{span}`")
    return dead, len(paths)


def find_orphans(readme: Path, docs: list[Path]) -> list[str]:
    """docs/*.md files not reachable from README.md via relative links."""
    reachable: set[Path] = set()
    frontier = [readme]
    while frontier:
        md = frontier.pop()
        if md in reachable or not md.exists():
            continue
        reachable.add(md)
        for path, _, _ in md_links(md):
            resolved = (md.parent / path).resolve()
            if resolved.suffix == ".md" and resolved not in reachable:
                frontier.append(resolved)
    return [
        f"{doc}: orphan doc (not reachable from {readme.name} via links)"
        for doc in docs
        if doc.resolve() not in reachable
    ]


def main() -> int:
    repo_root = Path(__file__).resolve().parent.parent
    readme = repo_root / "README.md"
    docs = sorted((repo_root / "docs").glob("*.md"))
    files = [readme] + docs
    problems = []
    checked = 0
    paths = 0
    for md in files:
        if not md.exists():
            problems.append(f"expected file is missing: {md}")
            continue
        checked += 1
        dead, named = check_file(md, repo_root)
        problems.extend(dead)
        paths += named
    problems.extend(find_orphans(readme, docs))
    for line in problems:
        print(line)
    print(f"checked {checked} files and {paths} repo paths: "
          f"{'FAIL' if problems else 'OK'} ({len(problems)} problems)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
