#!/usr/bin/env python3
"""Docs link check: fail if any `path`-style reference in docs/*.md names
a file that no longer exists (so the docs site cannot silently rot as
the codebase is refactored).  Backtick tokens that look like repo paths
(contain a '/' and end in a known extension, or match BENCH_*.json) are
resolved against the repo root; shell-style globs must match something.

Source files are checked too: every `*.md` name mentioned in
src/**/*.py or benchmarks/*.py must exist, either at the given path
from the repo root or under docs/.

Run: python scripts/check_docs.py"""

import glob
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PATHISH = re.compile(r"`([^`\s]+)`")
MD_REF = re.compile(r"[\w./-]*\w\.md\b")
EXTENSIONS = (".py", ".md", ".json", ".yml", ".yaml", ".toml")

failures = []
for doc in sorted((ROOT / "docs").glob("*.md")):
    for lineno, line in enumerate(doc.read_text().splitlines(), start=1):
        for token in PATHISH.findall(line):
            is_path = (
                ("/" in token and token.endswith(EXTENSIONS))
                or re.fullmatch(r"BENCH_\w+\.json", token)
            )
            if not is_path:
                continue
            if not glob.glob(str(ROOT / token)):
                failures.append(f"{doc.relative_to(ROOT)}:{lineno}: missing path {token!r}")

sources = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "benchmarks").glob("*.py"))
for source in sources:
    for lineno, line in enumerate(source.read_text().splitlines(), start=1):
        for ref in MD_REF.findall(line):
            if not ((ROOT / ref).exists() or (ROOT / "docs" / ref).exists()):
                failures.append(f"{source.relative_to(ROOT)}:{lineno}: missing doc {ref!r}")

if failures:
    print("\n".join(failures))
    sys.exit(1)
print(f"docs check OK ({len(list((ROOT / 'docs').glob('*.md')))} docs, {len(sources)} source files)")
