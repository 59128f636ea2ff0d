#!/usr/bin/env python3
"""crowd-lint: repo-specific invariants that generic tools cannot know.

Each rule protects a cross-cutting contract of the crowdeval codebase;
violating one compiles fine and may even pass tests, so the check has
to live here, in CI, instead of in the type system:

  float-format   No printf-style float conversion in src/server/,
                 %.17g included. Every number in a reply goes through
                 util/json.h (std::to_chars, the bytes of %.17g), the
                 one writer whose output the daemon's byte-for-byte
                 comparisons against batch output rely on; a second
                 formatter could drift from it unseen.
  iostream       No std::cout / std::cerr in src/ library code. All
                 diagnostics go through CROWD_LOG_* (util/logging.h),
                 which emits complete lines with one write(2) and
                 honours CROWDEVAL_LOG_FORMAT=json. Direct stream
                 writes interleave across threads and bypass the
                 structured-log mode.
  raw-mutex      No std::mutex / std::lock_guard / std::unique_lock /
                 std::scoped_lock (or timed/recursive/shared variants)
                 in src/ outside util/mutex.h. All locking goes
                 through the annotatable util::Mutex shim so Clang's
                 -Wthread-safety sees every acquisition.
  rng            No rand() / srand() / std::random_device in src/
                 outside src/rng/. Reproducibility of every paper
                 figure depends on all randomness flowing through the
                 seeded crowd::rng interfaces.
  raw-byte-read  No raw memcpy / reinterpret_cast in src/server/ or
                 src/util/csv.cc outside server/binary_io.{h,cc}.
                 Those layers decode untrusted bytes (protocol lines,
                 journal records, snapshots, CSV); every read must go
                 through the bounds-checked ByteReader / GetU* API so
                 a truncated or hostile input becomes a Status, not an
                 out-of-bounds access. The fuzz harnesses (fuzz/)
                 enforce the same contract dynamically.
  raw-popcount   No std::popcount / __builtin_popcount* in src/
                 outside util/bitops.{h,cc}. Bitset rows are counted
                 by the AND-popcount kernels there, which pick the
                 POPCNT instruction at run time; a direct call
                 compiles to the slow portable sequence, since the
                 build sets no -mpopcnt. A small mask that is not a
                 task bitset takes a waiver.
  span-name      Every CROWD_SPAN("...") literal matches the
                 documented `stage.substage` scheme ([a-z0-9_]+ '.'
                 [a-z0-9_]+) so trace dumps group consistently.
  changelog      With --base REF: the diff REF...HEAD touches
                 CHANGES.md (every PR must append its summary line).

Usage:
  scripts/crowd_lint.py [--root DIR] [--base REF] [FILES...]

With no FILES the whole tree under --root (default: the repo root
containing this script) is scanned. Exits 0 when clean, 1 with one
`path:line: [rule] message` diagnostic per violation otherwise.

A violation that is genuinely intended can be waived with a trailing
`// crowd-lint: allow(<rule>)` comment on the offending line; use
sparingly and justify in an adjacent comment.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
from typing import Callable, Iterable, List, NamedTuple

C_EXTENSIONS = (".h", ".cc", ".cpp", ".hpp")


class Violation(NamedTuple):
    path: str
    line: int  # 1-based
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments(text: str) -> str:
    """Blanks out // and /* */ comment bodies, preserving line structure
    so reported line numbers stay correct. String literals containing
    comment markers are rare enough in this codebase to ignore."""
    # Block comments first (keep newlines), then line comments.
    def blank(match: re.Match) -> str:
        return re.sub(r"[^\n]", " ", match.group(0))

    text = re.sub(r"/\*.*?\*/", blank, text, flags=re.S)
    text = re.sub(r"//[^\n]*", blank, text)
    return text


def allowed(raw_line: str, rule: str) -> bool:
    return f"crowd-lint: allow({rule})" in raw_line


def match_lines(
    path: str,
    raw_lines: List[str],
    code_lines: List[str],
    pattern: re.Pattern,
    rule: str,
    message: Callable[[re.Match], str],
) -> Iterable[Violation]:
    for i, line in enumerate(code_lines):
        for m in pattern.finditer(line):
            if allowed(raw_lines[i], rule):
                continue
            yield Violation(path, i + 1, rule, message(m))


# --------------------------------------------------------------------
# Rules. Each takes (relpath, raw_lines, code_lines) and yields
# Violations; `code_lines` has comments blanked out.

FLOAT_FMT = re.compile(r"%[-+ #0]*\d*(?:\.\d+)?[aefgAEFG]")


def rule_float_format(path, raw_lines, code_lines):
    if not path.startswith("src/server/"):
        return
    yield from match_lines(
        path, raw_lines, code_lines, FLOAT_FMT, "float-format",
        lambda m: f"float conversion '{m.group(0)}' in the serving "
        "layer; write numbers with util/json.h (json::Append, "
        "json::AppendChars), the one writer for every reply")


IOSTREAM = re.compile(r"std::c(?:out|err)\b")


def rule_iostream(path, raw_lines, code_lines):
    if not path.startswith("src/"):
        return
    yield from match_lines(
        path, raw_lines, code_lines, IOSTREAM, "iostream",
        lambda m: f"{m.group(0)} in library code; route diagnostics "
        "through CROWD_LOG_* (util/logging.h) so lines stay atomic and "
        "respect the JSON log mode")


RAW_MUTEX = re.compile(
    r"std::(?:recursive_|timed_|recursive_timed_|shared_)?mutex\b"
    r"|std::(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b")


def rule_raw_mutex(path, raw_lines, code_lines):
    if not path.startswith("src/") or path == "src/util/mutex.h":
        return
    yield from match_lines(
        path, raw_lines, code_lines, RAW_MUTEX, "raw-mutex",
        lambda m: f"{m.group(0)} outside the util::Mutex shim; use "
        "util::Mutex / util::MutexLock (util/mutex.h) so the lock is "
        "visible to Clang thread-safety analysis")


RNG = re.compile(r"\bs?rand\s*\(|std::random_device\b")


def rule_rng(path, raw_lines, code_lines):
    if not path.startswith("src/") or path.startswith("src/rng/"):
        return
    yield from match_lines(
        path, raw_lines, code_lines, RNG, "rng",
        lambda m: f"{m.group(0).strip()} outside src/rng/; all "
        "randomness must flow through the seeded crowd::rng interfaces "
        "or figure reproduction stops being deterministic")


RAW_BYTE_READ = re.compile(r"\b(?:std::)?memcpy\s*\(|\breinterpret_cast\b")

# The byte-parsing layers: everything under src/server/ plus the CSV
# loader. binary_io.{h,cc} is the one place allowed to touch raw
# memory — it implements the bounds-checked reader the rule funnels
# everyone else through.
RAW_BYTE_READ_EXEMPT = ("src/server/binary_io.h", "src/server/binary_io.cc")


def rule_raw_byte_read(path, raw_lines, code_lines):
    if path in RAW_BYTE_READ_EXEMPT:
        return
    if not (path.startswith("src/server/") or path == "src/util/csv.cc"):
        return
    yield from match_lines(
        path, raw_lines, code_lines, RAW_BYTE_READ, "raw-byte-read",
        lambda m: f"{m.group(0).strip().rstrip('(').strip()} in a "
        "byte-parsing layer; decode untrusted input through the "
        "bounds-checked ByteReader / GetU* API (server/binary_io.h) so "
        "truncation surfaces as a Status instead of an OOB read")


RAW_POPCOUNT = re.compile(r"std::popcount\b|\b__builtin_popcount\w*")
RAW_POPCOUNT_EXEMPT = ("src/util/bitops.h", "src/util/bitops.cc")


def rule_raw_popcount(path, raw_lines, code_lines):
    if not path.startswith("src/") or path in RAW_POPCOUNT_EXEMPT:
        return
    yield from match_lines(
        path, raw_lines, code_lines, RAW_POPCOUNT, "raw-popcount",
        lambda m: f"{m.group(0)} outside util/bitops; count bitset rows "
        "with util::AndPopcount (util/bitops.h), which dispatches to "
        "hardware POPCNT at run time")


SPAN = re.compile(r'CROWD_SPAN\(\s*"([^"]*)"')
SPAN_NAME = re.compile(r"^[a-z0-9_]+\.[a-z0-9_]+$")


def rule_span_name(path, raw_lines, code_lines):
    if not path.startswith(("src/", "tools/")):
        return
    if path == "src/obs/trace.h":  # the macro's own definition
        return
    for i, line in enumerate(code_lines):
        for m in SPAN.finditer(line):
            name = m.group(1)
            if SPAN_NAME.match(name):
                continue
            if allowed(raw_lines[i], "span-name"):
                continue
            yield Violation(
                path, i + 1, "span-name",
                f'span name "{name}" does not match the stage.substage '
                "scheme ([a-z0-9_]+.[a-z0-9_]+) documented in "
                "DESIGN.md §10")


RULES = [
    rule_float_format,
    rule_iostream,
    rule_raw_mutex,
    rule_rng,
    rule_raw_byte_read,
    rule_raw_popcount,
    rule_span_name,
]


def lint_text(relpath: str, text: str) -> List[Violation]:
    """Runs every per-file rule over one file's contents."""
    raw_lines = text.splitlines()
    code_lines = strip_comments(text).splitlines()
    # splitlines() drops a trailing partial line mismatch only if the
    # comment stripper changed the line count, which it never does.
    out: List[Violation] = []
    for rule in RULES:
        out.extend(rule(relpath, raw_lines, code_lines))
    return out


def check_changelog(root: str, base: str) -> List[Violation]:
    """`changelog` rule: the diff against `base` must touch CHANGES.md."""
    try:
        diff = subprocess.run(
            ["git", "diff", "--name-only", f"{base}...HEAD"],
            cwd=root, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError) as exc:
        return [Violation("CHANGES.md", 1, "changelog",
                          f"could not diff against {base}: {exc}")]
    changed = [l for l in diff.stdout.splitlines() if l.strip()]
    if not changed:
        return []  # empty diff (e.g. base == HEAD): nothing to demand
    if "CHANGES.md" not in changed:
        return [Violation(
            "CHANGES.md", 1, "changelog",
            f"diff {base}...HEAD does not touch CHANGES.md; every PR "
            "appends one summary line so the next session knows what "
            "is done")]
    return []


def iter_files(root: str) -> Iterable[str]:
    """Git-tracked candidate files under root (falls back to a walk)."""
    try:
        proc = subprocess.run(["git", "ls-files"], cwd=root,
                              capture_output=True, text=True, check=True)
        names = proc.stdout.splitlines()
    except (OSError, subprocess.CalledProcessError):
        names = []
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = [d for d in dirnames
                           if d not in (".git", "build", "results")]
            for f in filenames:
                names.append(os.path.relpath(os.path.join(dirpath, f),
                                             root))
    return [n for n in names if n.endswith(C_EXTENSIONS)]


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of scripts/)")
    parser.add_argument("--base", default=None,
                        help="git ref to diff against for the changelog "
                        "rule (e.g. origin/main); off when absent")
    parser.add_argument("files", nargs="*",
                        help="restrict to these paths (relative to root)")
    args = parser.parse_args(argv)

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    files = args.files or iter_files(root)

    violations: List[Violation] = []
    for relpath in sorted(files):
        relpath = relpath.replace(os.sep, "/")
        if not relpath.endswith(C_EXTENSIONS):
            continue
        full = os.path.join(root, relpath)
        try:
            with open(full, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            violations.append(Violation(relpath, 1, "io", str(exc)))
            continue
        violations.extend(lint_text(relpath, text))

    if args.base:
        violations.extend(check_changelog(root, args.base))

    for v in violations:
        print(v)
    if violations:
        print(f"crowd-lint: {len(violations)} violation(s)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
