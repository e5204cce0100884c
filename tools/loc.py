#!/usr/bin/env python3
"""Count the non-test lines of Rust code of each workspace crate.

Usage: python3 tools/loc.py [REPO_ROOT]

A line counts when it is neither blank nor a comment (`//`, `///`,
`//!` or inside `/* ... */`). Files under a crate's `tests/` and
`benches/` directories are left out, and so is every `#[cfg(test)]`
module: the attribute, the `mod name {` line and everything up to the
closing brace at the same indentation (the code is rustfmt-formatted,
so that brace is the module's end). A `#[cfg(test)] mod name;` leaves
out the module's file. Every crate, and the root package, counts its
`src/` and `examples/`. Prints one row per crate and a workspace total.
"""

import pathlib
import re
import sys

SKIP_DIRS = {"tests", "benches", "target"}
MOD_OPEN = re.compile(r"^(\s*)(pub(\([^)]*\))?\s+)?mod\s+(\w+)\s*(\{|;)")


def code_lines(text):
    """Yield (stripped, indent) for each non-blank line outside block comments."""
    in_block = False
    for raw in text.splitlines():
        line = raw.strip()
        if in_block:
            if "*/" in line:
                in_block = False
                line = line.split("*/", 1)[1].strip()
            else:
                continue
        if line.startswith("/*"):
            if "*/" not in line:
                in_block = True
            continue
        if not line or line.startswith("//"):
            continue
        yield line, raw[: len(raw) - len(raw.lstrip())]


def count_file(path, skipped):
    """Non-test code lines of one file; records `#[cfg(test)] mod x;` files in `skipped`."""
    lines = list(code_lines(path.read_text(encoding="utf-8")))
    total = 0
    i = 0
    while i < len(lines):
        line, _ = lines[i]
        if line == "#[cfg(test)]" and i + 1 < len(lines):
            m = MOD_OPEN.match(lines[i + 1][1] + lines[i + 1][0])
            if m:
                if m.group(5) == ";":
                    name = m.group(4)
                    base = path.parent if path.name in ("lib.rs", "main.rs", "mod.rs") else path.with_suffix("")
                    skipped.update({base / f"{name}.rs", base / name / "mod.rs"})
                    i += 2
                    continue
                closing = m.group(1) + "}"
                i += 2
                while i < len(lines) and lines[i][1] + lines[i][0] != closing:
                    i += 1
                i += 1
                continue
        total += 1
        i += 1
    return total


def count_tree(roots):
    files = []
    for root in roots:
        if root.is_dir():
            files += [p for p in sorted(root.rglob("*.rs")) if not SKIP_DIRS & set(p.relative_to(root).parts[:-1])]
    skipped = set()
    counts = {p: count_file(p, skipped) for p in files}
    return sum(n for p, n in counts.items() if p not in skipped)


def main():
    repo = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else pathlib.Path(__file__).resolve().parent.parent)
    rows = [(c.name, count_tree([c / "src", c / "examples"])) for c in sorted((repo / "crates").iterdir()) if (c / "Cargo.toml").exists()]
    rows.append(("(root)", count_tree([repo / "src", repo / "examples"])))
    width = max(len(name) for name, _ in rows)
    for name, n in rows:
        print(f"{name:<{width}}  {n:>6}")
    print(f"{'total':<{width}}  {sum(n for _, n in rows):>6}")


if __name__ == "__main__":
    main()
