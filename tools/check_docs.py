#!/usr/bin/env python3
"""Docs consistency checks, run by the `docs-check` CI job.

Two classes of drift this catches:

1. Broken relative links: every markdown link target in README.md and
   docs/*.md that is not an absolute URL must resolve to a file in the
   repository, as must every backticked reference to a `*.md` path
   (the docs cross-reference each other that way far more often than
   with actual markdown links).

2. Knob table drift, in both directions. Every environment variable the
   code reads (a quoted "UPDEC_*" string literal under src/ or examples/)
   must have a row in the consolidated knob table of docs/OBSERVABILITY.md,
   and every UPDEC_* name the tables list must still appear in some file
   under src/, examples/ or tests/, or in a CMakeLists.txt -- so the row of
   a retired knob cannot linger.

Run from anywhere: paths are resolved relative to the repository root
(the parent of this script's directory). Exits non-zero listing every
failure, so CI output shows all problems at once.
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MD_LINK = re.compile(r"\[[^\]]*\]\(([^)]+)\)")
BACKTICK_MD = re.compile(r"`([A-Za-z0-9_./-]+\.md)`")
ENV_LITERAL = re.compile(r'"(UPDEC_[A-Z0-9_]+)"')


def doc_files():
    yield ROOT / "README.md"
    yield from sorted((ROOT / "docs").glob("*.md"))


def check_links():
    errors = []
    for doc in doc_files():
        text = doc.read_text(encoding="utf-8")
        targets = []
        for match in MD_LINK.finditer(text):
            target = match.group(1).split("#", 1)[0].strip()
            if not target or "://" in target or target.startswith("mailto:"):
                continue
            targets.append((target, "link"))
        for match in BACKTICK_MD.finditer(text):
            targets.append((match.group(1), "reference"))
        for target, kind in targets:
            # Backticked paths are written repo-relative by convention;
            # markdown links are relative to the containing file. Accept
            # either resolution so the convention stays writable.
            if not ((ROOT / target).is_file() or (doc.parent / target).is_file()):
                errors.append(
                    f"{doc.relative_to(ROOT)}: broken {kind} -> {target}"
                )
    return errors


def source_files(*dirs):
    for top in dirs:
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                yield path


def cmake_lists():
    for path in sorted(ROOT.rglob("CMakeLists.txt")):
        parts = path.relative_to(ROOT).parts
        if not any(p.startswith((".", "build", "cmake-build")) for p in parts):
            yield path


def check_knob_table():
    table = (ROOT / "docs" / "OBSERVABILITY.md").read_text(encoding="utf-8")
    documented = set(re.findall(r"\|\s*`(UPDEC_[A-Z0-9_]+)`", table))
    errors = []
    consumed = {}
    for source in source_files("src", "examples"):
        if source.suffix not in (".hpp", ".cpp"):
            continue
        for name in ENV_LITERAL.findall(source.read_text(encoding="utf-8")):
            consumed.setdefault(name, source.relative_to(ROOT))
    for name, where in sorted(consumed.items()):
        if name not in documented:
            errors.append(
                f"{where}: env knob {name} has no row in the "
                "docs/OBSERVABILITY.md knob table"
            )
    corpus = "\n".join(
        path.read_text(encoding="utf-8", errors="replace")
        for path in (*source_files("src", "examples", "tests"), *cmake_lists())
    )
    for name in sorted(documented):
        if not re.search(rf"\b{name}\b", corpus):
            errors.append(
                f"docs/OBSERVABILITY.md: table row {name} names nothing "
                "under src/, examples/ or tests/, nor in a CMakeLists.txt"
            )
    return errors


def main():
    errors = check_links() + check_knob_table()
    for error in errors:
        print(f"check_docs: {error}", file=sys.stderr)
    if errors:
        print(f"check_docs: {len(errors)} problem(s)", file=sys.stderr)
        return 1
    print("check_docs: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
