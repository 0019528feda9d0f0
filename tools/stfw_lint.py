#!/usr/bin/env python3
"""stfw-lint: repo-specific static checks the generic clang-tidy set cannot name.

Rules (each carries a fix-it hint; suppress with
`// stfw-lint: allow(<rule>) -- <reason>` on the flagged line or the line
directly above it — the reason is mandatory):

  l1-getenv        no raw std::getenv outside src/core/env.cpp. Every knob
                   goes through the strict core::env_* parsers so a typo'd
                   value throws core::ValidationError instead of being
                   silently truncated.
  l2-wire-reserve  no reserve()/resize() sized from a freshly-deserialized
                   wire field before a bounds check — the exact bug class of
                   the fuzz-found wire.cpp over-allocation (PR 3).
  l3-deadline      no recv / await_arrival / wait_message / barrier /
                   allgather call inside a resilient / settlement /
                   watchdog / timeout code path without a Deadline
                   argument; a lost peer must not hang recovery.
  l4-catch-all     `catch (...)` only at the sanctioned Cluster::run worker
                   sites (src/runtime/comm.cpp), where per-rank failures are
                   aggregated; anywhere else it swallows protocol errors.
  l5-nodiscard     public header APIs returning status/stats types
                   (*Stats, *Result, *Counters, *Failure, *Totals,
                   *Decision) must be [[nodiscard]].
  l6-raw-sync      no raw std::thread / std::mutex / std::condition_variable
                   (or their lock/variant types) outside core/sync.hpp and
                   src/verify/. The core wrappers carry the thread-safety
                   annotations and the stfw-verify event hooks; a raw
                   primitive is invisible to both TSA and the race detector.
  l7-epoch-check   a decode_frame() call on a recovery/membership path must
                   be followed by an epoch comparison before the frame is
                   acted on — a handler that trusts a frame without checking
                   it against the current membership epoch will happily apply
                   stale routing decisions from before a rank died.

Engines: the default `text` engine is a dependency-free tokenizer (comments
and strings stripped, clang-format-shaped function tracking) so the tool runs
identically on gcc-only boxes and in CI. `--engine=clang` upgrades function
extents via libclang over a compile_commands.json when the `clang` python
package is importable, and falls back to `text` (with a notice) when not.

Exit status: 0 clean, 1 findings (or failed --selftest), 2 usage error.

Self-test: `--selftest` runs the engine over tests/lint_corpus/, where every
seeded violation line carries a `// lint-expect: <rule>` marker; the tool
must flag exactly the marked lines.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, field

RULES = {
    "l1-getenv": (
        "raw std::getenv outside core/env",
        "route the variable through core::env_double/env_int/env_u64/env_flag/"
        "env_string (core/env.hpp) so malformed values throw ValidationError",
    ),
    "l2-wire-reserve": (
        "reserve()/resize() sized from an unchecked wire field",
        "bounds-check the deserialized count first, e.g. "
        "require(count * kEntryBytes <= wire.size() - pos, ...), then reserve",
    ),
    "l3-deadline": (
        "blocking call without a Deadline in a recovery/timeout path",
        "use the Deadline overload (e.g. Deadline::in(options.stage_deadline)) "
        "so a lost peer cannot hang the recovery path",
    ),
    "l4-catch-all": (
        "catch (...) outside the sanctioned Cluster::run sites",
        "let the exception propagate to Cluster::run's worker-thread boundary, "
        "which aggregates per-rank failures into MultiRankError",
    ),
    "l5-nodiscard": (
        "status/stats-returning public API without [[nodiscard]]",
        "mark the declaration [[nodiscard]]; silently discarding a status or "
        "stats return value loses the outcome of the call",
    ),
    "l6-raw-sync": (
        "raw standard-library sync primitive outside core/sync.hpp",
        "use core::Mutex/core::MutexLock/core::CondVar/core::Thread "
        "(core/sync.hpp): the wrappers carry the Clang thread-safety "
        "annotations and the STFW_VERIFY hook instrumentation",
    ),
    "l7-epoch-check": (
        "decode_frame() on a recovery path with no epoch comparison",
        "compare frame.header.member_epoch against the current membership "
        "epoch — nack or ignore stale frames — before consuming the frame",
    ),
    "suppression": (
        "malformed suppression comment",
        "write `// stfw-lint: allow(<rule>) -- <reason>`; the reason is "
        "mandatory (docs/validation.md, suppression policy)",
    ),
}

# catch (...) is sanctioned only here: the rank-thread boundary and the error
# partitioning loops of Cluster::run.
CATCH_ALL_ALLOWLIST = {("src/runtime/comm.cpp", "run")}

GETENV_EXEMPT_FILES = {"src/core/env.cpp"}

# The one place raw primitives are allowed to live (the annotated wrappers
# themselves + the hook seam, whose cv_wait signature is expressed in
# std::unique_lock terms), and the verify engine, which schedules the
# wrapped primitives and therefore cannot be built on top of them.
RAW_SYNC_EXEMPT_FILES = {"src/core/sync.hpp", "src/core/verify_hooks.hpp"}
RAW_SYNC_EXEMPT_PREFIXES = ("src/verify/",)

L3_FUNCTION_RE = re.compile(r"resilient|settle|watchdog|timeout|deadlock|recover")
L3_CALL_RE = re.compile(r"\b(recv|await_arrival|wait_message|barrier|allgather)\s*\(")
L5_TYPE_SUFFIXES = r"(?:Stats|Result|Counters|Failure|Totals|Decision)"

SCAN_DIRS = ("src", "tests", "tools", "bench", "examples")
EXCLUDE_PREFIXES = ("tests/lint_corpus",)
SOURCE_EXTS = (".cpp", ".hpp", ".cc", ".h")


@dataclass
class Finding:
    rule: str
    file: str
    line: int  # 1-based
    message: str

    def render(self) -> str:
        return (f"{self.file}:{self.line}: [{self.rule}] {self.message}\n"
                f"    fix-it: {RULES[self.rule][1]}")


@dataclass
class FileText:
    path: str  # repo-relative, forward slashes
    code: list[str]  # per-line, comments/strings blanked, line count preserved
    comments: list[str]  # per-line comment text (for allow/expect markers)
    allows: dict[int, set[str]] = field(default_factory=dict)  # 0-based line
    bad_allows: list[int] = field(default_factory=list)
    expects: dict[int, set[str]] = field(default_factory=dict)


def strip_code(text: str) -> tuple[list[str], list[str]]:
    """Blank out comments and string/char literals, preserving line structure.

    Returns (code_lines, comment_lines): comment text is preserved separately
    so suppression and corpus markers survive the stripping.
    """
    code: list[str] = []
    comments: list[str] = []
    cur_code: list[str] = []
    cur_comment: list[str] = []
    state = "code"  # code | line_comment | block_comment | string | char
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "\n":
            code.append("".join(cur_code))
            comments.append("".join(cur_comment))
            cur_code, cur_comment = [], []
            if state == "line_comment":
                state = "code"
            i += 1
            continue
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                i += 2
                continue
            if c == '"':
                state = "string"
                cur_code.append('"')
                i += 1
                continue
            if c == "'":
                state = "char"
                cur_code.append("'")
                i += 1
                continue
            cur_code.append(c)
        elif state in ("line_comment", "block_comment"):
            if state == "block_comment" and c == "*" and nxt == "/":
                state = "code"
                i += 2
                continue
            cur_comment.append(c)
        elif state == "string":
            if c == "\\":
                i += 2
                continue
            if c == '"':
                state = "code"
                cur_code.append('"')
        elif state == "char":
            if c == "\\":
                i += 2
                continue
            if c == "'":
                state = "code"
                cur_code.append("'")
        i += 1
    code.append("".join(cur_code))
    comments.append("".join(cur_comment))
    return code, comments


ALLOW_RE = re.compile(r"stfw-lint:\s*allow\(([a-z0-9-]+)\)(\s*--\s*\S.*)?")
EXPECT_RE = re.compile(r"lint-expect:\s*([a-z0-9-]+)")


def load_file(repo_root: str, rel: str) -> FileText:
    with open(os.path.join(repo_root, rel), encoding="utf-8", errors="replace") as f:
        text = f.read()
    code, comments = strip_code(text)
    ft = FileText(path=rel, code=code, comments=comments)
    for idx, comment in enumerate(comments):
        for m in ALLOW_RE.finditer(comment):
            if m.group(2) is None:
                ft.bad_allows.append(idx)
            else:
                ft.allows.setdefault(idx, set()).add(m.group(1))
        for m in EXPECT_RE.finditer(comment):
            ft.expects.setdefault(idx, set()).add(m.group(1))
    return ft


# --- function tracking (text engine) ----------------------------------------

_HEAD_SKIP = re.compile(
    r"^\s*(#|\}|\{|namespace\b|using\b|typedef\b|struct\b|class\b|enum\b|"
    r"template\b|extern\b|return\b|if\b|else\b|for\b|while\b|switch\b|case\b|"
    r"public:|private:|protected:|static_assert\b)")
_NAME_BEFORE_PAREN = re.compile(r"([A-Za-z_~]\w*)\s*\(")


def function_spans(code: list[str]) -> list[str | None]:
    """Name of the enclosing function definition for every line, or None.

    Relies on the repo's clang-format shape: definitions start at column 0
    and the closing brace of the body sits alone at column 0.
    """
    spans: list[str | None] = [None] * len(code)
    current: str | None = None
    for i, line in enumerate(code):
        if current is not None:
            spans[i] = current
            if line.startswith("}"):
                current = None
            continue
        if not line or line[0].isspace() or _HEAD_SKIP.match(line):
            continue
        m = _NAME_BEFORE_PAREN.search(line)
        if not m:
            continue
        # A definition opens a brace before any semicolon (look a few lines
        # ahead for multi-line signatures); a declaration ends in ';'.
        is_def = False
        for j in range(i, min(i + 8, len(code))):
            if "{" in code[j]:
                is_def = True
                break
            if ";" in code[j]:
                break
        if not is_def:
            continue
        current = m.group(1)
        spans[i] = current
        if line.count("}") and line.strip().endswith("}"):  # one-liner
            current = None
    return spans


def try_clang_spans(ft: FileText, repo_root: str, compile_db: str | None):
    """libclang-backed function extents; returns None when unavailable."""
    try:
        from clang import cindex  # type: ignore
    except ImportError:
        return None
    try:
        index = cindex.Index.create()
        args = []
        if compile_db:
            db = cindex.CompilationDatabase.fromDirectory(os.path.dirname(compile_db))
            cmds = db.getCompileCommands(os.path.join(repo_root, ft.path))
            if cmds:
                args = [a for a in list(cmds[0].arguments)[1:] if a != ft.path]
        tu = index.parse(os.path.join(repo_root, ft.path), args=args)
        spans: list[str | None] = [None] * len(ft.code)
        for cur in tu.cursor.walk_preorder():
            if cur.kind in (cindex.CursorKind.FUNCTION_DECL,
                            cindex.CursorKind.CXX_METHOD) and cur.is_definition():
                if not cur.location.file or \
                        os.path.abspath(cur.location.file.name) != \
                        os.path.abspath(os.path.join(repo_root, ft.path)):
                    continue
                for ln in range(cur.extent.start.line - 1, cur.extent.end.line):
                    if 0 <= ln < len(spans):
                        spans[ln] = cur.spelling
        return spans
    except Exception as e:  # pragma: no cover - depends on local libclang
        print(f"stfw-lint: clang engine failed on {ft.path} ({e}); "
              "falling back to text engine", file=sys.stderr)
        return None


def gather_call(code: list[str], line: int, start: int) -> str:
    """Text of a call from its opening paren until parens balance (<=8 lines)."""
    depth = 0
    parts: list[str] = []
    for ln in range(line, min(line + 8, len(code))):
        seg = code[ln][start if ln == line else 0:]
        for k, ch in enumerate(seg):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    parts.append(seg[:k + 1])
                    return "".join(parts)
        parts.append(seg)
    return "".join(parts)


# --- rules -------------------------------------------------------------------

GETENV_RE = re.compile(r"\b(?:std\s*::\s*)?getenv\s*\(")


def check_l1(ft: FileText):
    if ft.path in GETENV_EXEMPT_FILES:
        return
    for i, line in enumerate(ft.code):
        if GETENV_RE.search(line):
            yield Finding("l1-getenv", ft.path, i + 1,
                          "raw getenv call outside src/core/env.cpp")


TAINT_SOURCE_RES = (
    re.compile(r"memcpy\s*\(\s*&\s*([A-Za-z_]\w*)"),
    re.compile(r"\b([A-Za-z_]\w*)\s*=\s*[\w:]*\bget(?:_u\d+)?\s*[<(]"),
)
SIZE_CALL_RE = re.compile(r"\.\s*(?:reserve|resize)\s*\(")
COMPARISON_RE = re.compile(r"[<>!=]=|[<>]")


def check_l2(ft: FileText, spans: list[str | None]):
    if not ft.path.endswith((".cpp", ".cc")):
        return
    tainted: set[str] = set()
    prev_fn: str | None = None
    for i, line in enumerate(ft.code):
        if spans[i] != prev_fn:
            tainted.clear()  # new function (or file scope): taint is per-body
            prev_fn = spans[i]
        # Clearing first: `if (n > limit) ...` and `require(n <= ...)` on the
        # taint-introducing line itself would be a check, not a violation.
        cleared = {v for v in tainted
                   if re.search(rf"\b{re.escape(v)}\b", line)
                   and (("require" in line and "(" in line)
                        or (line.lstrip().startswith("if") and COMPARISON_RE.search(line)))}
        tainted -= cleared
        m = SIZE_CALL_RE.search(line)
        if m:
            args = gather_call(ft.code, i, m.end() - 1)
            hit = sorted(v for v in tainted if re.search(rf"\b{re.escape(v)}\b", args))
            if hit:
                yield Finding(
                    "l2-wire-reserve", ft.path, i + 1,
                    f"allocation sized from wire-derived '{hit[0]}' with no "
                    "preceding bounds check")
        for src_re in TAINT_SOURCE_RES:
            for sm in src_re.finditer(line):
                tainted.add(sm.group(1))


def check_l3(ft: FileText, spans: list[str | None]):
    if not ft.path.startswith("src/") or not ft.path.endswith((".cpp", ".cc")):
        return
    for i, line in enumerate(ft.code):
        fn = spans[i]
        if fn is None or not L3_FUNCTION_RE.search(fn.lower()):
            continue
        for m in L3_CALL_RE.finditer(line):
            # Skip definitions/declarations of the primitives themselves.
            if spans[i] == m.group(1):
                continue
            call = gather_call(ft.code, i, m.end() - 1)
            if not re.search(r"[Dd]eadline", call):
                yield Finding(
                    "l3-deadline", ft.path, i + 1,
                    f"{m.group(1)}() inside recovery path '{fn}' has no "
                    "Deadline argument and can block forever")


L7_FUNCTION_RE = re.compile(
    r"resilient|settle|recover|membership|epoch|notice|degraded|repair|incoming")
L7_DECODE_RE = re.compile(r"\bdecode_frame\s*\(")
# Any comparison that mentions an epoch within the window counts as the gate;
# plain assignment (`h.epoch = epoch`) deliberately does not.
L7_EPOCH_WORD_RE = re.compile(r"\bepoch\b|_epoch\b")
L7_WINDOW_LINES = 20


def check_l7(ft: FileText, spans: list[str | None]):
    if not ft.path.startswith("src/") or not ft.path.endswith((".cpp", ".cc")):
        return
    for i, line in enumerate(ft.code):
        fn = spans[i]
        if fn is None or fn == "decode_frame" or not L7_FUNCTION_RE.search(fn.lower()):
            continue
        if not L7_DECODE_RE.search(line):
            continue
        gated = False
        for j in range(i, min(i + L7_WINDOW_LINES, len(ft.code))):
            if spans[j] != fn:
                break
            if L7_EPOCH_WORD_RE.search(ft.code[j]) and COMPARISON_RE.search(ft.code[j]):
                gated = True
                break
        if not gated:
            yield Finding(
                "l7-epoch-check", ft.path, i + 1,
                f"frame decoded inside recovery path '{fn}' is consumed without "
                "comparing its epoch against the current membership")


CATCH_ALL_RE = re.compile(r"\bcatch\s*\(\s*\.\.\.\s*\)")


def check_l4(ft: FileText, spans: list[str | None]):
    if not ft.path.startswith("src/"):
        return
    for i, line in enumerate(ft.code):
        if CATCH_ALL_RE.search(line):
            if (ft.path, spans[i] or "") in CATCH_ALL_ALLOWLIST:
                continue
            yield Finding("l4-catch-all", ft.path, i + 1,
                          "catch (...) outside the sanctioned Cluster::run "
                          "worker sites swallows protocol errors")


# `friend` is deliberately absent from the qualifier list: a friend
# declaration is not the API surface, its out-of-class declaration is.
L5_DECL_RE = re.compile(
    r"^\s*(?:(?:virtual|static|constexpr|inline|explicit|const)\s+)*"
    rf"(?:[\w:]+::)?\w*{L5_TYPE_SUFFIXES}\s*&?\s+\w+\s*\(")
L5_SKIP_RE = re.compile(r"^\s*(struct|class|enum|using|typedef|template|return)\b")
NODISCARD_RE = re.compile(r"\[\[\s*nodiscard\s*\]\]")


RAW_SYNC_RE = re.compile(
    r"\bstd\s*::\s*(thread|jthread|mutex|timed_mutex|recursive_mutex|"
    r"recursive_timed_mutex|shared_mutex|shared_timed_mutex|"
    r"condition_variable|condition_variable_any|lock_guard|unique_lock|"
    r"scoped_lock|shared_lock)\b")


def check_l6(ft: FileText):
    if ft.path in RAW_SYNC_EXEMPT_FILES or \
            any(ft.path.startswith(p) for p in RAW_SYNC_EXEMPT_PREFIXES):
        return
    for i, line in enumerate(ft.code):
        m = RAW_SYNC_RE.search(line)
        if m:
            yield Finding("l6-raw-sync", ft.path, i + 1,
                          f"raw std::{m.group(1)} bypasses the annotated, "
                          "verify-instrumented core/sync.hpp wrappers")


def check_l5(ft: FileText):
    if not ft.path.endswith((".hpp", ".h")):
        return
    if not (ft.path.startswith("src/") or ft.path.startswith("bench/")):
        return
    for i, line in enumerate(ft.code):
        if L5_SKIP_RE.match(line) or not L5_DECL_RE.match(line):
            continue
        prev = ft.code[i - 1] if i > 0 else ""
        if NODISCARD_RE.search(line) or NODISCARD_RE.search(prev):
            continue
        yield Finding("l5-nodiscard", ft.path, i + 1,
                      "status/stats-returning API is not [[nodiscard]]")


def lint_file(ft: FileText, repo_root: str, engine: str,
              compile_db: str | None) -> tuple[list[Finding], list[Finding]]:
    """Returns (reported, suppressed) findings for one file."""
    spans = None
    if engine == "clang" and ft.path.endswith((".cpp", ".cc")):
        spans = try_clang_spans(ft, repo_root, compile_db)
    if spans is None:
        spans = function_spans(ft.code)

    raw: list[Finding] = []
    raw.extend(check_l1(ft))
    raw.extend(check_l2(ft, spans))
    raw.extend(check_l3(ft, spans))
    raw.extend(check_l4(ft, spans))
    raw.extend(check_l5(ft))
    raw.extend(check_l6(ft))
    raw.extend(check_l7(ft, spans))
    for bad in ft.bad_allows:
        raw.append(Finding("suppression", ft.path, bad + 1,
                           "stfw-lint: allow(...) without a `-- reason`"))

    reported, suppressed = [], []
    for f in raw:
        idx = f.line - 1
        allowed = ft.allows.get(idx, set()) | ft.allows.get(idx - 1, set())
        if f.rule in allowed:
            suppressed.append(f)
        else:
            reported.append(f)
    return reported, suppressed


# --- file discovery ----------------------------------------------------------

def discover_files(repo_root: str) -> list[str]:
    out: list[str] = []
    for top in SCAN_DIRS:
        base = os.path.join(repo_root, top)
        if not os.path.isdir(base):
            continue
        for dirpath, _dirnames, filenames in os.walk(base):
            for name in sorted(filenames):
                if not name.endswith(SOURCE_EXTS):
                    continue
                rel = os.path.relpath(os.path.join(dirpath, name), repo_root)
                rel = rel.replace(os.sep, "/")
                if any(rel.startswith(p) for p in EXCLUDE_PREFIXES):
                    continue
                out.append(rel)
    return out


def corpus_files(repo_root: str) -> list[str]:
    base = os.path.join(repo_root, "tests", "lint_corpus")
    out = []
    for dirpath, _d, filenames in os.walk(base):
        for name in sorted(filenames):
            if name.endswith(SOURCE_EXTS):
                rel = os.path.relpath(os.path.join(dirpath, name), repo_root)
                out.append(rel.replace(os.sep, "/"))
    return out


def run_selftest(repo_root: str, engine: str, compile_db: str | None) -> int:
    files = corpus_files(repo_root)
    if not files:
        print("stfw-lint: selftest FAILED: tests/lint_corpus/ holds no sources")
        return 1
    failures = 0
    total_expected = 0
    for rel in files:
        # The corpus simulates tree paths: strip the corpus prefix so path-
        # scoped rules (src/ only, core/env exemption) see the intended path.
        ft = load_file(repo_root, rel)
        ft.path = re.sub(r"^tests/lint_corpus/", "", ft.path)
        reported, _suppressed = lint_file(ft, repo_root, engine, compile_db)
        got = {}
        for f in reported:
            got.setdefault(f.line - 1, set()).add(f.rule)
        want = ft.expects
        total_expected += sum(len(v) for v in want.values())
        for line_idx in sorted(set(want) | set(got)):
            missing = want.get(line_idx, set()) - got.get(line_idx, set())
            extra = got.get(line_idx, set()) - want.get(line_idx, set())
            for rule in sorted(missing):
                print(f"selftest MISS  {rel}:{line_idx + 1}: expected {rule}, "
                      "not flagged")
                failures += 1
            for rule in sorted(extra):
                print(f"selftest EXTRA {rel}:{line_idx + 1}: flagged {rule}, "
                      "not expected")
                failures += 1
    if failures:
        print(f"stfw-lint: selftest FAILED ({failures} mismatches over "
              f"{len(files)} corpus files)")
        return 1
    print(f"stfw-lint: selftest OK ({total_expected} seeded violations across "
          f"{len(files)} corpus files all flagged; no extras)")
    return 0


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(prog="stfw_lint.py", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("paths", nargs="*",
                    help="files to lint (repo-relative); default: the tracked "
                         "src/tests/tools/bench/examples tree")
    ap.add_argument("--repo-root", default=None,
                    help="repository root (default: parent of this script)")
    ap.add_argument("--compile-db", default=None,
                    help="compile_commands.json for the clang engine "
                         "(e.g. build-tidy/compile_commands.json)")
    ap.add_argument("--engine", choices=("text", "clang"), default="text",
                    help="analysis engine (clang falls back to text when "
                         "libclang is unavailable)")
    ap.add_argument("--report", default=None,
                    help="write a JSON report of findings to this path")
    ap.add_argument("--selftest", action="store_true",
                    help="verify every seeded violation in tests/lint_corpus/ "
                         "is flagged")
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args(argv)

    repo_root = args.repo_root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))

    if args.list_rules:
        for rule, (summary, fixit) in RULES.items():
            print(f"{rule}: {summary}\n    fix-it: {fixit}")
        return 0

    if args.selftest:
        return run_selftest(repo_root, args.engine, args.compile_db)

    files = args.paths or discover_files(repo_root)
    all_reported: list[Finding] = []
    all_suppressed: list[Finding] = []
    for rel in files:
        rel = rel.replace(os.sep, "/")
        if not os.path.isfile(os.path.join(repo_root, rel)):
            print(f"stfw-lint: no such file: {rel}", file=sys.stderr)
            return 2
        if not rel.endswith(SOURCE_EXTS) or \
                any(rel.startswith(p) for p in EXCLUDE_PREFIXES):
            continue
        reported, suppressed = lint_file(load_file(repo_root, rel), repo_root,
                                         args.engine, args.compile_db)
        all_reported.extend(reported)
        all_suppressed.extend(suppressed)

    for f in all_reported:
        print(f.render())

    if args.report:
        payload = {
            "tool": "stfw-lint",
            "engine": args.engine,
            "files_scanned": len(files),
            "findings": [vars(f) | {"fixit": RULES.get(f.rule, ("", ""))[1]}
                         for f in all_reported],
            "suppressed": [vars(f) for f in all_suppressed],
        }
        with open(args.report, "w", encoding="utf-8") as out:
            json.dump(payload, out, indent=2)
            out.write("\n")

    if all_reported:
        print(f"stfw-lint: {len(all_reported)} finding(s) in {len(files)} files "
              f"({len(all_suppressed)} suppressed with documented reasons)")
        return 1
    print(f"stfw-lint: clean ({len(files)} files, "
          f"{len(all_suppressed)} documented suppressions)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
