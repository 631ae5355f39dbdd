#!/usr/bin/env python3
"""List every `pub` / `pub(crate) fn` of the library crates that no non-test code calls.

The rule is by type, not by name: on a temporary copy of the repository every
candidate is marked `#[deprecated(note = "callerless:<id>")]`, the workspace
and `bench/perf` are type-checked without their tests
(`cargo check --lib --bins --examples`), and the ids the `deprecated` lint
reports are the functions with a caller.  A use that sits inside a function
that is itself still marked does not count (some rustc versions stay silent
about it, others report it; the script drops it either way), so the functions
a round found used are unmarked and the check repeats until a round finds
nothing.  What is still marked then has no caller in non-test code of
`crates/`, `src/`, `examples/` or `bench/perf/` other than functions that
are caller-less themselves.

Candidates: functions above the first `#[cfg(test)]` of each file under
`crates/*/src`, outside `bbpim-bench` and outside modules declared under
`#[cfg(test)]`.  A `use` declaration naming a function is not a caller.

`scripts/callerless.allow` holds one line per function that may stay
caller-less: `<file> <Type::name> <exception letter> <reason>`.  Exit 1 on a
caller-less function missing from it, and on an entry that has a caller again
(for a `b` entry: a test reference that reached production code) or names a
function that no longer exists.

    python3 scripts/callerless.py            # check against the allow-list
    python3 scripts/callerless.py --list     # print the caller-less ids only

Stable toolchain, offline.  Every round shares one target directory:
`$CARGO_TARGET_DIR`, or `target/callerless` under the repository.
"""

import functools
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ALLOW = ROOT / "scripts" / "callerless.allow"
COPIED = ["BENCHMARK.json", "Cargo.toml", "Cargo.lock", "crates", "src", "examples", "vendor", "bench/perf"]
CHECKED = [
    ("Cargo.toml", ["--workspace", "--lib", "--bins", "--examples"]),
    ("bench/perf/Cargo.toml", ["--bins"]),
]
SKIPPED_CRATES = {"bbpim-bench"}
EXCEPTIONS = "abcde"

FN = re.compile(r"^(\s*)pub(?:\(crate\))?\s+(?:const\s+)?(?:unsafe\s+)?fn\s+(\w+)")
IMPL = re.compile(r"^(\s*)impl\b(?:<.*?>\s)?\s*(?:.*\sfor\s+)?([A-Za-z_]\w*)")
TEST_MOD = re.compile(r"#\[cfg\(test\)\]\s*\n\s*(?:pub(?:\(crate\))?\s+)?mod\s+(\w+)\s*;")
USE = re.compile(r"^\s*(?:pub(?:\(crate\))?\s+)?use\s")
NOTE = re.compile(r"callerless:(\S+)")


def library_files(root):
    """Non-test source files of the library crates, as paths relative to `root`."""
    files = []
    for crate in sorted((root / "crates").iterdir()):
        if crate.name in SKIPPED_CRATES or not (crate / "src").is_dir():
            continue
        gated = set()
        for decl in (crate / "src").rglob("*.rs"):
            for name in TEST_MOD.findall(decl.read_text()):
                gated.add(decl.parent / f"{name}.rs")
                gated.add(decl.parent / name)
        for path in sorted((crate / "src").rglob("*.rs")):
            if not any(g == path or g in path.parents for g in gated):
                files.append(path.relative_to(root))
    return files


def candidates(root):
    """`{id: (file, first line, last line)}`, 0-based, for every candidate function."""
    found = {}
    for rel in library_files(root):
        impl_of, impl_indent = None, None
        lines = (root / rel).read_text().splitlines()
        for i, line in enumerate(lines):
            if line.startswith("#[cfg(test)]"):
                break
            if m := IMPL.match(line):
                impl_indent, impl_of = m.group(1), m.group(2)
            elif impl_of is not None and line == impl_indent + "}":
                impl_of = None
            elif m := FN.match(line):
                name = f"{impl_of}::{m.group(2)}" if impl_of else m.group(2)
                ident = f"{rel}::{name}"
                if ident in found:
                    sys.exit(f"callerless: two candidates share the id {ident}")
                # rustfmt closes a body at the indentation of its `fn`.
                closes = m.group(1) + "}"
                end = i if line.endswith(("}", ";")) else lines.index(closes, i)
                found[ident] = (rel, i, end)
    return found


def mark(root, pristine, marked):
    """Rewrite each library file of `root` with exactly the `marked` ids deprecated."""
    by_file = {}
    for ident, (rel, i, _) in marked.items():
        by_file.setdefault(rel, {})[i] = ident
    for rel, text in pristine.items():
        lines = text.splitlines(keepends=True)
        for i, ident in by_file.get(rel, {}).items():
            indent = FN.match(lines[i]).group(1)
            lines[i] = f'{indent}#[deprecated(note = "callerless:{ident}")] {lines[i].lstrip()}'
        (root / rel).write_text("".join(lines))


@functools.lru_cache(maxsize=None)
def use_lines(path):
    """1-based line numbers of `path` inside a `use` declaration (marking moves no line)."""
    inside, hit = False, set()
    for n, line in enumerate(path.read_text().splitlines(), 1):
        inside = inside or bool(USE.match(line))
        if inside:
            hit.add(n)
            inside = ";" not in line
    return hit


def used_ids(root, manifest, targets, target_dir, marked):
    """Ids the `deprecated` lint reports for one package tree, leaving out the uses in
    `use` declarations; the ids used only inside the `marked` functions come second."""
    dead_lines = {}
    for rel, first, last in marked.values():
        dead_lines.setdefault(root / rel, set()).update(range(first + 1, last + 2))
    cmd = ["cargo", "check", "--offline", "--quiet", "--message-format=json"]
    cmd += ["--manifest-path", str(root / manifest), *targets]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    cwd = (root / manifest).parent
    run = subprocess.run(cmd, env=env, cwd=cwd, stdout=subprocess.PIPE, text=True)
    used, by_the_dead = set(), set()
    for raw in run.stdout.splitlines():
        if not raw.startswith("{"):
            continue
        msg = json.loads(raw).get("message")
        if not msg or (msg.get("code") or {}).get("code") != "deprecated":
            continue
        span = next(s for s in msg["spans"] if s["is_primary"])
        at, line = (cwd / span["file_name"]).resolve(), span["line_start"]
        if line not in use_lines(at):
            into = by_the_dead if line in dead_lines.get(at, ()) else used
            into.update(NOTE.findall(msg["message"]))
    if run.returncode != 0:
        sys.exit(f"callerless: `{' '.join(cmd)}` failed")
    return used, by_the_dead


def callerless(target_dir):
    """Ids of the candidates without a non-test caller, and all candidate ids."""
    with tempfile.TemporaryDirectory(prefix="callerless-") as tmp:
        copy = Path(tmp).resolve()
        for entry in COPIED:
            src, dst = ROOT / entry, copy / entry
            if src.is_dir():
                shutil.copytree(src, dst, ignore=shutil.ignore_patterns("target"))
            elif src.exists():
                dst.parent.mkdir(parents=True, exist_ok=True)
                shutil.copy(src, dst)
        everything = candidates(copy)
        pristine = {rel: (copy / rel).read_text() for rel, _, _ in everything.values()}
        marked = dict(everything)
        while True:
            mark(copy, pristine, marked)
            used, by_the_dead = set(), set()
            for manifest, targets in CHECKED:
                live, dead = used_ids(copy, manifest, targets, target_dir, marked)
                used |= live
                by_the_dead |= dead
            used &= marked.keys()
            print(f"callerless: {len(marked)} marked, {len(used)} found used", file=sys.stderr)
            if not used:
                second = len(by_the_dead & marked.keys())
                print(
                    f"callerless: {len(marked) - second} have no caller at all, "
                    f"{second} only caller-less callers",
                    file=sys.stderr,
                )
                return sorted(marked), set(everything)
            for ident in used:
                del marked[ident]


def read_allow():
    """`{id: exception letter}` from the allow-list."""
    allowed = {}
    for n, line in enumerate(ALLOW.read_text().splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split(None, 3)
        if len(fields) < 4 or fields[2] not in EXCEPTIONS:
            sys.exit(f"{ALLOW.name}:{n}: want `<file> <name> <{'|'.join(EXCEPTIONS)}> <reason>`")
        allowed[f"{fields[0]}::{fields[1]}"] = fields[2]
    return allowed


def main():
    target_dir = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / "target" / "callerless")).resolve()
    listed, everything = callerless(target_dir)
    if "--list" in sys.argv[1:]:
        print("\n".join(listed))
        return 0
    allowed = read_allow()
    failures = []
    for ident in listed:
        if ident not in allowed:
            failures.append(f"{ident}: no non-test caller and not in {ALLOW.name}")
    for ident, letter in allowed.items():
        if ident not in everything:
            failures.append(f"{ident}: in {ALLOW.name} but no such function")
        elif ident not in listed and letter == "b":
            failures.append(f"{ident}: a test reference (b) that production code now calls")
        elif ident not in listed:
            failures.append(f"{ident}: in {ALLOW.name} but has a non-test caller again")
    for failure in failures:
        print(f"callerless: {failure}")
    print(f"callerless: {len(listed)} caller-less functions, {len(allowed)} allowed, {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
