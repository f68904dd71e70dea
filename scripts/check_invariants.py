#!/usr/bin/env python3
"""Project invariant lint gate (CI: static-analysis job).

Enforces the concurrency and status discipline the compiler alone cannot:

  raw-sync     No raw std::mutex / std::lock_guard / std::unique_lock /
               std::condition_variable / std::scoped_lock / shared or
               recursive mutexes anywhere outside src/util/sync.{h,cc}.
               Everything locks through the annotated fastmatch::Mutex /
               MutexLock / CondVar wrappers so Clang -Wthread-safety sees
               every acquisition.

  guarded-by   In any class that owns a fastmatch::Mutex, every mutable
               data member must carry FASTMATCH_GUARDED_BY /
               FASTMATCH_PT_GUARDED_BY. Exempt: the synchronization
               members themselves (Mutex, CondVar), std::atomic,
               std::thread (lifecycle-managed, documented at the decl),
               const members, and members tagged `// lint: unguarded`
               with a justification.

  no-discard   Non-test code must not silence a [[nodiscard]] Status /
               Result with a (void) or static_cast<void> cast; handle or
               propagate instead. `// lint: discard-ok` escapes with a
               justification. ((void)identifier; without a call is the
               unused-parameter idiom and stays legal.)

  nodiscard-attr  util::Status and util::Result keep their [[nodiscard]]
               (the compile-time half of no-discard; this guards the
               attribute against accidental removal).

  lock-hierarchy  Every src/ file that declares a fastmatch::Mutex
               member must be named in the "Concurrency & lock
               hierarchy" section of docs/ARCHITECTURE.md: a new lock
               cannot enter the codebase without a documented place in
               the ordering. The converse holds too: every src/ file a
               row of that section's lock table names must declare a
               Mutex, so a lock that leaves the code leaves the table.
               (Mutex-free layers — the batch executor's single-driver
               design — stay out by construction.)

  lock-free-resolve  In src/service/, promise fulfillment and progress
               publication — set_value / Resolve / FulfillAdmitted /
               ->Publish / on_progress callback invocations — must not
               happen inside a MutexLock scope. Fulfilling a future (or
               running a user's progress callback) under a pipeline lock
               hands control to arbitrary continuation code while the
               scheduler is locked: a continuation that re-enters the
               scheduler deadlocks. The anytime progress channel extends
               this discipline to every ProgressUpdate-producing path.
               `// lint: resolve-ok` escapes with a justification.

  pinned-scan  Engine code (src/engine/) must not read a store's live
               geometry — `store->num_rows()` / `store->num_blocks()` —
               because stores grow: two live reads can straddle an
               append and describe two different relations. Scans read
               geometry from the StorePin they captured at creation
               (pin().num_rows etc.).
               `// lint: pin-ok` escapes with a justification (e.g. a
               deliberately unpinned admission-time estimate).

  progress-subscribed  Every BatchExecutor::SetProgressCallback call
               under src/ passes a subscription predicate (a second
               argument other than nullptr). Without one the executor
               builds a full progress snapshot for every active query at
               every chunk, whether or not anyone reads it; direct
               executor users outside src/ (tests, perfbench) may still
               subscribe every query.

  scan-position  The scan position has one home, ScanCursor in
               src/engine/block_policy.{h,cc}: its seeded start, its
               consumed-block set and its zero-read-cycle exhaustion
               rule. No other file under src/engine/ may seed a cursor
               start from an Rng (a Uniform draw over blocks or into a
               cursor), keep a zero-read streak (any `streak`
               identifier), or call Set on a consumed set
               (`consumed*.Set(`), so a second scan engine or a
               stratified cursor cannot grow a private copy of the
               sampling model.

  orphan-header  Every src/**/*.h is #included by some file under src/,
               bench/, perfbench/ or examples/ other than its own .cc: a
               module that only its tests reach is dead weight the build
               still compiles and the docs still describe. No header is
               exempt.

  bench-vestige  BENCH_VESTIGES lists the names src/ keeps only because
               the systems benchmark (perfbench/) names them. Each must
               still be named in both trees: once perfbench/ stops
               naming one, the change that did so must delete it from
               src/ and from the table, and once src/ drops one, the
               table entry goes too, so the table never goes stale.

Zero third-party dependencies; line-based on purpose (a full C++ parse
buys little for these rules and costs a clang dependency the lint gate
must not have). Exit 0 when clean, 1 with file:line diagnostics if not.
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SOURCE_DIRS = ["src", "tests", "bench", "examples"]
SYNC_WRAPPER_FILES = {"src/util/sync.h", "src/util/sync.cc"}

RAW_SYNC = re.compile(
    r"std::(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock|condition_variable|condition_variable_any)\b"
)

# (void)expr-with-a-call or static_cast<void>(...): a discard, not the
# (void)param unused-argument idiom.
VOID_CAST_CALL = re.compile(r"\(\s*void\s*\)\s*[\w:.\->]*\w\s*\(")
STATIC_CAST_VOID = re.compile(r"static_cast\s*<\s*void\s*>")

CLASS_HEAD = re.compile(r"\b(class|struct)\s+(FASTMATCH_\w+\([^)]*\)\s+)?"
                        r"(?P<name>[A-Za-z_]\w*)\s*(final\s*)?(:[^;{]*)?{")
MUTEX_MEMBER = re.compile(r"\bMutex\s+[A-Za-z_]\w*\s*"
                          r"(FASTMATCH_ACQUIRED_(BEFORE|AFTER)\([^)]*\)\s*)?;")
GUARD_ANNOT = re.compile(r"FASTMATCH_(PT_)?GUARDED_BY\(")
MEMBER_DECL = re.compile(r"^\s*(?:mutable\s+)?[A-Za-z_][\w:<>,\s*&]*[\s*&]"
                         r"[A-Za-z_]\w*\s*(?:=[^;]*|{[^}]*})?;")
NON_MEMBER = re.compile(
    r"^\s*(public|private|protected|using|typedef|friend|static|"
    r"FASTMATCH_\w+\s*\(|template|return|if|for|while|switch|case|explicit)\b"
    r"|\boperator\b|=\s*(delete|default)\s*;")
EXEMPT_TYPES = re.compile(
    r"\b(Mutex|CondVar|std::atomic|std::thread|std::jthread)\b")
CONST_MEMBER = re.compile(r"(^\s*const\b|\*\s*const\b|\bconst\s+std::)")

# Promise fulfillment / progress publication: the calls that hand
# control to waiter-side continuation code and therefore must run with
# no scheduler lock held. `a.on_progress(...)` is an invocation;
# `if (a.on_progress)` and assignments don't match (no open paren).
RESOLVE_CALL = re.compile(
    r"\bset_value\s*\(|\bResolve\s*\(|\bFulfillAdmitted\s*\(|"
    r"->\s*Publish\s*\(|\bon_progress\s*\(")
LOCK_DECL = re.compile(r"\bMutexLock\s+[A-Za-z_]\w*\s*\(")

# A live-geometry read: some store-ish receiver's num_rows()/num_blocks().
# Receivers named like pins/views (pin.num_rows is a field, pin().num_rows
# has no call parens after the member) don't match; only receivers whose
# name suggests a growable store do.
PINNED_SCAN = re.compile(
    r"\b(?P<recv>[A-Za-z_]\w*)\s*(?:\.|->)\s*(num_rows|num_blocks)\s*\(")
PINNED_SCAN_RECEIVERS = ("store",)

# A SetProgressCallback call; the declaration and definition (preceded
# by a return type or the class qualifier) are skipped by the caller.
PROGRESS_CALLBACK_CALL = re.compile(r"\bSetProgressCallback\s*\(")
PROGRESS_CALLBACK_DECL = re.compile(r"(\bvoid|::)\s*$")

# The scan position's home, and what only it may do (matched per
# statement of comment-stripped code).
SCAN_POSITION_HOME = {"src/engine/block_policy.h", "src/engine/block_policy.cc"}
SCAN_POSITION = [
    (re.compile(r"\bUniform\w*\s*\(", re.I),
     re.compile(r"block|cursor|position|start", re.I),
     "seeds a scan start from an Rng"),
    (re.compile(r"\w*streak\w*", re.I), None, "keeps a zero-read streak"),
    (re.compile(r"\bconsumed\w*\s*(?:\.|->)\s*Set\w*\s*\(", re.I), None,
     "sets a bit of a consumed-block set"),
]

# Directories whose files count as real callers of a src/ header, and
# the include form they use.
CALLER_DIRS = ["src", "bench", "perfbench", "examples"]
INCLUDE = re.compile(r'^\s*#\s*include\s+"(?P<path>[^"]+)"', re.MULTILINE)

# A src/ path in the first cell of a lock-hierarchy table row.
LOCK_TABLE_FILE = re.compile(r"`(src/[\w/.]+\.(?:h|cc))`")

# Names src/ keeps only for perfbench/ (see the bench-vestige rule).
BENCH_VESTIGES = ("kWholeStorePartition", "Stage1Outcome",
                  "stage1_warm_generation", "stage1_promotions",
                  "stage1_drift_evictions", "allow_joins")


def read(path: Path) -> str:
    return path.read_text(encoding="utf-8", errors="replace")


def strip_comments_and_strings(text: str) -> str:
    """Blanks comments and string/char literals, preserving line structure
    and the `lint:` escape markers (kept so per-line escapes survive)."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j == -1 else j
            comment = text[i:j]
            out.append(comment if "lint:" in comment else " " * len(comment))
            i = j
        elif text.startswith("/*", i):
            j = text.find("*/", i)
            j = n if j == -1 else j + 2
            out.append(re.sub(r"[^\n]", " ", text[i:j]))
            i = j
        elif c in "\"'":
            q, j = c, i + 1
            while j < n and text[j] != q:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(q + " " * (j - i - 2) + (q if j - i >= 2 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def class_bodies(text: str):
    """Yields (header_line_no, body_text, body_start_line) for every
    class/struct definition, innermost included."""
    for m in CLASS_HEAD.finditer(text):
        open_idx = text.index("{", m.start())
        depth, j = 1, open_idx + 1
        while j < len(text) and depth:
            if text[j] == "{":
                depth += 1
            elif text[j] == "}":
                depth -= 1
            j += 1
        body = text[open_idx + 1:j - 1]
        yield (text.count("\n", 0, m.start()) + 1, body,
               text.count("\n", 0, open_idx) + 1)


def top_level_lines(body: str):
    """Yields (offset_line, line) for lines at the class's own brace
    depth — skips nested function bodies, nested classes, and the
    continuation lines of multi-line declarations (paren depth > 0,
    e.g. a wrapped parameter list whose last line would otherwise look
    like a member declaration)."""
    depth = 0
    parens = 0
    for k, line in enumerate(body.split("\n")):
        stripped = line
        if depth == 0 and parens == 0:
            yield k, stripped
        depth += stripped.count("{") - stripped.count("}")
        depth = max(depth, 0)
        parens += stripped.count("(") - stripped.count(")")
        parens = max(parens, 0)


def top_level_args(text: str, open_paren: int):
    """Splits the argument list whose '(' sits at text[open_paren] into
    its top-level arguments (commas inside (), [], {} do not split)."""
    args, depth, start = [], 0, open_paren + 1
    for i in range(open_paren, len(text)):
        c = text[i]
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
            if depth == 0:
                args.append(text[start:i])
                break
        elif c == "," and depth == 1:
            args.append(text[start:i])
            start = i + 1
    return [a.strip() for a in args if a.strip()]


def check_progress_subscription(rel: str, text: str, violations: list):
    for m in PROGRESS_CALLBACK_CALL.finditer(text):
        if PROGRESS_CALLBACK_DECL.search(text[:m.start()]):
            continue
        args = top_level_args(text, m.end() - 1)
        if len(args) < 2 or args[1] == "nullptr":
            violations.append(
                (rel, text.count("\n", 0, m.start()) + 1,
                 "progress-subscribed",
                 "SetProgressCallback without a subscription predicate "
                 "builds a snapshot for every active query at every "
                 "chunk; pass one that says which queries have a "
                 "consumer"))


def check_scan_position(rel: str, text: str, violations: list):
    offset = 0
    for statement in re.split(r"(?<=[;{}])", text):
        for pattern, also, what in SCAN_POSITION:
            m = pattern.search(statement)
            if m and (also is None or also.search(statement)):
                line = text.count("\n", 0, offset + m.start()) + 1
                violations.append(
                    (rel, line, "scan-position",
                     f"{what} outside ScanCursor; scan through a "
                     "ScanCursor (engine/block_policy.h) instead"))
        offset += len(statement)


def check_file(rel: str, text: str, violations: list):
    lines = text.split("\n")
    is_test = rel.startswith("tests/")
    is_wrapper = rel in SYNC_WRAPPER_FILES

    if not is_wrapper:
        for k, line in enumerate(lines, 1):
            if RAW_SYNC.search(line):
                violations.append(
                    (rel, k, "raw-sync",
                     "raw std synchronization primitive; use "
                     "fastmatch::Mutex/MutexLock/CondVar (util/sync.h)"))

    if not is_test:
        for k, line in enumerate(lines, 1):
            if "lint: discard-ok" in line:
                continue
            if VOID_CAST_CALL.search(line) or STATIC_CAST_VOID.search(line):
                violations.append(
                    (rel, k, "no-discard",
                     "(void)-discard of a call result; handle the Status "
                     "or tag `// lint: discard-ok` with a reason"))

    if rel.startswith("src/service/"):
        # Brace-tracked MutexLock scopes: a lock taken at block depth d
        # is live until the depth drops back below d. Any resolving /
        # publishing call while one is live is a violation.
        depth = 0
        lock_depths = []
        for k, line in enumerate(lines, 1):
            if (lock_depths and RESOLVE_CALL.search(line)
                    and "lint: resolve-ok" not in line):
                violations.append(
                    (rel, k, "lock-free-resolve",
                     "promise fulfillment / progress publication inside a "
                     "MutexLock scope; resolve after releasing the lock "
                     "(or tag `// lint: resolve-ok` with a reason)"))
            if LOCK_DECL.search(line):
                lock_depths.append(depth)
            depth += line.count("{") - line.count("}")
            depth = max(depth, 0)
            while lock_depths and depth < lock_depths[-1]:
                lock_depths.pop()

    if rel.startswith("src/"):
        check_progress_subscription(rel, text, violations)

    if rel.startswith("src/engine/") and rel not in SCAN_POSITION_HOME:
        check_scan_position(rel, text, violations)

    if rel.startswith("src/engine/"):
        for k, line in enumerate(lines, 1):
            if "lint: pin-ok" in line:
                continue
            for m in PINNED_SCAN.finditer(line):
                recv = m.group("recv").lower()
                if any(s in recv for s in PINNED_SCAN_RECEIVERS):
                    violations.append(
                        (rel, k, "pinned-scan",
                         "live store-geometry read in engine code; read "
                         "num_rows/num_blocks from the scan's StorePin "
                         "(or tag `// lint: pin-ok` with a reason)"))

    for head_line, body, body_start in class_bodies(text):
        if not MUTEX_MEMBER.search(body):
            continue
        for k, line in top_level_lines(body):
            lineno = body_start + k
            if ("lint: unguarded" in line
                    or GUARD_ANNOT.search(line)
                    or EXEMPT_TYPES.search(line)
                    or CONST_MEMBER.search(line)
                    or NON_MEMBER.search(line)
                    or not MEMBER_DECL.match(line)):
                continue
            violations.append(
                (rel, lineno, "guarded-by",
                 "mutable member of a Mutex-owning class lacks "
                 "FASTMATCH_GUARDED_BY (or `// lint: unguarded` + reason)"))
        _ = head_line


def check_lock_hierarchy_doc(mutex_files: list, violations: list):
    """Every Mutex-owning src/ file must appear, by path, in the lock
    hierarchy section of docs/ARCHITECTURE.md, and every src/ file named
    in that section's lock table must own a Mutex."""
    doc_rel = "docs/ARCHITECTURE.md"
    doc_path = REPO / doc_rel
    if not doc_path.exists():
        violations.append((doc_rel, 1, "lock-hierarchy", "file missing"))
        return
    text = read(doc_path)
    m = re.search(r"^##\s+Concurrency & lock hierarchy\s*$", text,
                  re.MULTILINE)
    if not m:
        violations.append(
            (doc_rel, 1, "lock-hierarchy",
             'no "## Concurrency & lock hierarchy" section'))
        return
    end = text.find("\n## ", m.end())
    section = text[m.start():end if end != -1 else len(text)]
    for rel in mutex_files:
        if rel not in section:
            violations.append(
                (rel, 1, "lock-hierarchy",
                 "declares a Mutex member but is not named in the lock "
                 f"hierarchy section of {doc_rel}"))
    section_line = text.count("\n", 0, m.start()) + 1
    for k, row in enumerate(section.split("\n")):
        if not row.startswith("|"):
            continue
        first_cell = row.split("|")[1]
        for rel in LOCK_TABLE_FILE.findall(first_cell):
            if rel not in mutex_files:
                violations.append(
                    (doc_rel, section_line + k, "lock-hierarchy",
                     f"lock table names {rel}, which declares no Mutex "
                     "member; drop the row"))


def check_nodiscard_attr(violations: list):
    for rel, cls in (("src/util/status.h", "Status"),
                     ("src/util/result.h", "Result")):
        path = REPO / rel
        if not path.exists():
            violations.append((rel, 1, "nodiscard-attr", "file missing"))
            continue
        if not re.search(r"class\s+\[\[nodiscard\]\]\s+" + cls, read(path)):
            violations.append(
                (rel, 1, "nodiscard-attr",
                 f"class {cls} must stay [[nodiscard]]"))


def check_orphan_headers(violations: list):
    """Every src/ header must be included by a caller outside tests other
    than its own .cc."""
    includers = {}
    for d in CALLER_DIRS:
        for path in sorted((REPO / d).rglob("*")):
            if path.suffix not in (".h", ".cc", ".cpp"):
                continue
            rel = path.relative_to(REPO).as_posix()
            for m in INCLUDE.finditer(read(path)):
                includers.setdefault("src/" + m.group("path"), set()).add(rel)
    for path in sorted((REPO / "src").rglob("*.h")):
        rel = path.relative_to(REPO).as_posix()
        own_cc = rel[:-len(".h")] + ".cc"
        if includers.get(rel, set()) - {own_cc}:
            continue
        violations.append(
            (rel, 1, "orphan-header",
             "no file under src/, bench/, perfbench/ or examples/ other "
             "than its own .cc includes this header; delete the module "
             "or move it to tests/"))


def check_bench_vestiges(violations: list):
    """Every BENCH_VESTIGES name is still named under perfbench/ and still
    defined or used under src/."""
    def code(tree: str) -> str:
        return "\n".join(read(p) for p in sorted((REPO / tree).rglob("*"))
                         if p.suffix in (".h", ".cc", ".py"))
    trees = {"perfbench": code("perfbench"), "src": code("src")}
    for name in BENCH_VESTIGES:
        word = re.compile(r"\b" + name + r"\b")
        if not word.search(trees["perfbench"]):
            violations.append(
                ("perfbench", 1, "bench-vestige",
                 f"perfbench/ no longer names {name}: delete it from src/ "
                 "and from BENCH_VESTIGES"))
        if not word.search(trees["src"]):
            violations.append(
                ("src", 1, "bench-vestige",
                 f"src/ no longer has {name}: drop it from BENCH_VESTIGES"))


def main() -> int:
    violations = []
    mutex_files = []
    for d in SOURCE_DIRS:
        for path in sorted((REPO / d).rglob("*")):
            if path.suffix not in (".h", ".cc"):
                continue
            rel = path.relative_to(REPO).as_posix()
            stripped = strip_comments_and_strings(read(path))
            check_file(rel, stripped, violations)
            if rel.startswith("src/") and rel not in SYNC_WRAPPER_FILES \
                    and MUTEX_MEMBER.search(stripped):
                mutex_files.append(rel)
    check_lock_hierarchy_doc(mutex_files, violations)
    check_nodiscard_attr(violations)
    check_orphan_headers(violations)
    check_bench_vestiges(violations)
    for rel, line, rule, msg in violations:
        print(f"{rel}:{line}: [{rule}] {msg}")
    if violations:
        print(f"\ncheck_invariants: {len(violations)} violation(s)")
        return 1
    print("check_invariants: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
