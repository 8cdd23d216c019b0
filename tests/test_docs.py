"""Docs sanity: the tree exists and intra-repo links resolve.

CI has a dedicated docs job running ``tools/check_links.py``; this test
runs the same checker in tier 1 so broken links fail locally too.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_docs_tree_exists():
    for name in ("architecture.md", "backends.md", "api.md"):
        assert (REPO_ROOT / "docs" / name).is_file(), f"docs/{name} missing"


def test_intra_repo_links_resolve():
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "check_links.py")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, f"link checker failed:\n{proc.stdout}"


def test_bare_md_names_are_found():
    # The checker also resolves bare ``*.md`` names in prose and
    # docstrings; URLs and glob patterns are not names.
    sys.path.insert(0, str(REPO_ROOT / "tools"))
    try:
        from check_links import MD_NAME_RE
    finally:
        sys.path.pop(0)
    line = (
        "See DESIGN.md, `docs/backends.md` and ../README.md, not "
        "https://example.org/a/NOTES.md or docs/**/*.md."
    )
    assert MD_NAME_RE.findall(line) == [
        "DESIGN.md",
        "docs/backends.md",
        "../README.md",
    ]
