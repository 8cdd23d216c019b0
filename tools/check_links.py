#!/usr/bin/env python3
"""Intra-repo markdown link checker (stdlib only).

Scans ``docs/**/*.md`` and ``README.md`` for ``[text](target)`` links
and fails (exit 1) when a relative target does not exist, or when a
``#anchor`` does not match any heading in the target file.  External
links (``http://``, ``https://``, ``mailto:``) are ignored.

It also fails on a bare ``*.md`` file name in ``README.md``, ``docs/``,
``src/`` or ``benchmarks/`` (prose, docstrings, comments) that names no
file, relative to the mentioning file's directory or to the repository
root.  CI runs this in the docs job.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
LINK_RE = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")
#: A markdown file name or relative path, not part of a URL or a longer
#: dotted/slashed token.
MD_NAME_RE = re.compile(r"(?<![\w/.:-])((?:[\w.-]+/)*[\w-]+\.md)(?![\w/])")


def heading_anchors(path: Path) -> set[str]:
    """GitHub-style anchor slugs for every heading in a markdown file."""
    anchors = set()
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            title = line.lstrip("#").strip().lower()
            slug = re.sub(r"[^\w\- ]", "", title).replace(" ", "-")
            anchors.add(slug)
    return anchors


def check_file(path: Path) -> list[str]:
    errors = []
    for target in LINK_RE.findall(path.read_text()):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        target, _, anchor = target.partition("#")
        resolved = (path.parent / target).resolve() if target else path
        if not resolved.exists():
            errors.append(f"{path.relative_to(REPO_ROOT)}: broken link -> {target}")
        elif anchor and resolved.suffix == ".md":
            if anchor not in heading_anchors(resolved):
                errors.append(
                    f"{path.relative_to(REPO_ROOT)}: missing anchor "
                    f"-> {target or path.name}#{anchor}"
                )
    return errors


def check_names(path: Path) -> list[str]:
    """Bare ``*.md`` names in *path* that resolve to no file."""
    errors = []
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        for name in MD_NAME_RE.findall(line):
            if not any(
                (base / name).exists() for base in (path.parent, REPO_ROOT)
            ):
                errors.append(
                    f"{path.relative_to(REPO_ROOT)}:{lineno}: names a "
                    f"missing file -> {name}"
                )
    return errors


def main() -> int:
    files = sorted((REPO_ROOT / "docs").glob("**/*.md"))
    files.append(REPO_ROOT / "README.md")
    errors = [error for path in files for error in check_file(path)]
    sources = files + [
        path
        for tree in ("src", "benchmarks")
        for path in sorted((REPO_ROOT / tree).glob("**/*.py"))
    ]
    errors += [error for path in sources for error in check_names(path)]
    for error in errors:
        print(error)
    print(
        f"checked {len(files)} files for links and {len(sources)} for "
        f"file names: {len(errors)} broken"
    )
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
