#!/usr/bin/env python3
"""qarch-lint: repo-local concurrency and wire-hygiene checks.

Complements the Clang thread-safety analysis (which proves lock discipline
where it CAN see) with grep-level rules for what it cannot:

  R1  no raw std::mutex / std::lock_guard / std::unique_lock /
      std::condition_variable (etc.) outside src/common/annotations.hpp and
      src/common/lock_order.* — everything else uses the annotated
      qarch::Mutex family so the static analysis and the runtime lock-order
      checker see every lock. (std::once_flag / std::call_once stay legal:
      they are one-shot initialization, not a lock hierarchy participant.)
  R2  no std::thread construction outside src/parallel/ — every thread is
      spawned through qarch::parallel::Thread / ThreadPool so it is joined
      deterministically. std::thread::hardware_concurrency() is fine.
  R3  no .detach() anywhere — detached threads outlive their owners and
      truncate sanitizer stacks.
  R4  no naked sleep_for / sleep_until in src/search/ or src/server/ —
      delays route through search::backoff_sleep (src/search/fault.cpp is
      the one sanctioned sleep site) so they stay observable and faultable.
  R5  every JSON field the daemon reads from a request body
      (body.contains("x") / body.at("x") / helper(body, "x") in
      src/server/server.cpp) must appear in one of the kKnown
      unknown-field-reject arrays, so a field can never be silently read
      without also being accepted by the reject filter.
  R6  no file under src/qtensor/ includes a query/ header — the contraction
      core (ContractionProgram) sits below the query wrappers that use it,
      never the other way round.
  R7  no integer std::sto* call and no static_cast<...>(... .as_number())
      in src/search/ or src/server/ — numbers from disk and the wire go
      through json::as_uint / json::parse_u64 (or a range-checked local
      helper), because a lenient parse accepts "-1" and "12abc" and a cast
      of a fractional, negative or huge double truncates or is undefined.
  R8  no "sv" or "tn" string literal in any src/ file but src/session.cpp —
      engine and backend tags are spelled once, by qarch::backend_name and
      qarch::engine_tag, so a persisted or wire tag cannot drift.
  R9  src/search/scheduler.{hpp,cpp} stay pure policy: they include no
      <thread>, <mutex>, <condition_variable>, <chrono> or <fstream>, no
      common/annotations.hpp or common/log.hpp and no parallel/ header, and
      name no Mutex, CondVar, LockGuard, UniqueLock, steady_clock or
      system_clock — the service clock arrives as an argument and the
      service mutex guards the Scheduler from outside, which is what lets
      tests/test_scheduler.cpp assert exact orders with no threads.

Usage: python3 tools/qarch_lint.py [--root DIR]
Exits nonzero if any rule fires; prints one line per violation.
"""

import argparse
import os
import re
import sys

CPP_EXT = (".hpp", ".cpp", ".h", ".cc")

# Files allowed to touch the raw primitives: the annotated wrappers
# themselves, and the lock-order checker (whose own graph mutex cannot be a
# qarch::Mutex without infinite recursion).
R1_ALLOWED = {
    "src/common/annotations.hpp",
    "src/common/lock_order.hpp",
    "src/common/lock_order.cpp",
}

R1_TOKEN = re.compile(
    r"std::(?:mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock|condition_variable|condition_variable_any)\b"
)
R2_TOKEN = re.compile(r"std::thread\b(?!::)")
R3_TOKEN = re.compile(r"\.detach\s*\(")
R4_TOKEN = re.compile(r"\bsleep_(?:for|until)\s*\(")
R4_SANCTIONED = "src/search/fault.cpp"
R6_TOKEN = re.compile(r'#\s*include\s*["<]query/')
R7_STO = re.compile(r"\bstd::sto(?:i|l|ll|ul|ull)\b")
R7_CAST = re.compile(r"\bstatic_cast\s*<[^;]*?>\s*\(")
R7_AS_NUMBER = re.compile(r"\.\s*as_number\s*\(")
R8_TOKEN = re.compile(r'(?<![\w\\])"(?:sv|tn)"')
R8_SANCTIONED = "src/session.cpp"
R9_FILES = {"src/search/scheduler.hpp", "src/search/scheduler.cpp"}
R9_INCLUDE = re.compile(
    r'#\s*include\s*(?:<(?:thread|mutex|condition_variable|chrono|fstream)>'
    r'|"(?:common/annotations\.hpp|common/log\.hpp|parallel/[^"]*)")')
R9_NAME = re.compile(
    r"\b(?:Mutex|CondVar|LockGuard|UniqueLock|steady_clock|system_clock)\b")

KNOWN_ARRAY = re.compile(
    r"kKnown\s*=\s*\{(.*?)\}\s*;", re.DOTALL)
BODY_FIELD = re.compile(
    r'(?:body\s*\.\s*(?:contains|at)\s*\(\s*|\(\s*body\s*,\s*)"([a-z_]+)"')
QUOTED = re.compile(r'"([a-z_]+)"')


def strip_comments(text):
    """Removes /*...*/ and //... so doc references to banned tokens pass.

    Line count is preserved (block comments are replaced newline-for-
    newline) so reported line numbers match the source.
    """
    def keep_newlines(m):
        return "\n" * m.group(0).count("\n")
    text = re.sub(r"/\*.*?\*/", keep_newlines, text, flags=re.DOTALL)
    return re.sub(r"//[^\n]*", "", text)


def cast_arguments(code):
    """Yields (offset, argument text) of every static_cast<...>(...).

    The argument runs to the matching parenthesis, so a cast that spans
    lines is seen whole and a number read outside the cast is not.
    """
    for m in R7_CAST.finditer(code):
        depth, i = 1, m.end()
        while i < len(code) and depth:
            depth += {"(": 1, ")": -1}.get(code[i], 0)
            i += 1
        yield m.start(), code[m.end():i - 1]


def iter_sources(root):
    src = os.path.join(root, "src")
    for dirpath, _dirnames, filenames in sorted(os.walk(src)):
        for name in sorted(filenames):
            if name.endswith(CPP_EXT):
                path = os.path.join(dirpath, name)
                yield path, os.path.relpath(path, root).replace(os.sep, "/")


def scan(root):
    violations = []

    def flag(rel, lineno, rule, message):
        violations.append("%s:%d: [%s] %s" % (rel, lineno, rule, message))

    scanned = 0
    for path, rel in iter_sources(root):
        scanned += 1
        with open(path, encoding="utf-8") as f:
            raw = f.read()
        code = strip_comments(raw)
        for lineno, line in enumerate(code.splitlines(), start=1):
            m = R1_TOKEN.search(line)
            if m and rel not in R1_ALLOWED:
                flag(rel, lineno, "R1",
                     "raw %s; use qarch::Mutex / LockGuard / UniqueLock / "
                     "CondVar from common/annotations.hpp" % m.group(0))
            if R2_TOKEN.search(line) and not rel.startswith("src/parallel/"):
                flag(rel, lineno, "R2",
                     "std::thread outside src/parallel/; spawn through "
                     "qarch::parallel::Thread or ThreadPool")
            if R3_TOKEN.search(line):
                flag(rel, lineno, "R3",
                     ".detach() is banned; every thread needs a joining "
                     "owner")
            if (R4_TOKEN.search(line)
                    and (rel.startswith("src/search/")
                         or rel.startswith("src/server/"))
                    and rel != R4_SANCTIONED):
                flag(rel, lineno, "R4",
                     "naked sleep in the service path; route through "
                     "search::backoff_sleep (src/search/fault.cpp)")
            if R6_TOKEN.search(line) and rel.startswith("src/qtensor/"):
                flag(rel, lineno, "R6",
                     "src/qtensor/ includes a query/ header; the contraction "
                     "core must not depend on the query layer")
            if (R7_STO.search(line)
                    and (rel.startswith("src/search/")
                         or rel.startswith("src/server/"))):
                flag(rel, lineno, "R7",
                     "integer std::sto* accepts signs and trailing text; "
                     "use json::parse_u64")
            m = R8_TOKEN.search(line)
            if m and rel != R8_SANCTIONED:
                flag(rel, lineno, "R8",
                     "engine tag literal %s; use qarch::engine_tag or "
                     "qarch::backend_name (src/session.cpp)" % m.group(0))
            if rel in R9_FILES:
                m = R9_INCLUDE.search(line) or R9_NAME.search(line)
                if m:
                    flag(rel, lineno, "R9",
                         "%s in the scheduling policy; locks, clocks, "
                         "threads and files stay in EvalService"
                         % m.group(0))
        if rel.startswith("src/search/") or rel.startswith("src/server/"):
            for offset, argument in cast_arguments(code):
                if R7_AS_NUMBER.search(argument):
                    flag(rel, code.count("\n", 0, offset) + 1, "R7",
                         "static_cast of a JSON number; use json::as_uint "
                         "or a range-checked helper")

    server_cpp = os.path.join(root, "src", "server", "server.cpp")
    if os.path.exists(server_cpp):
        with open(server_cpp, encoding="utf-8") as f:
            code = strip_comments(f.read())
        known = set()
        for block in KNOWN_ARRAY.finditer(code):
            known.update(QUOTED.findall(block.group(1)))
        if not known:
            flag("src/server/server.cpp", 1, "R5",
                 "no kKnown unknown-field-reject arrays found")
        for lineno, line in enumerate(code.splitlines(), start=1):
            for m in BODY_FIELD.finditer(line):
                field = m.group(1)
                if field not in known:
                    flag("src/server/server.cpp", lineno, "R5",
                         'request field "%s" is read but missing from every '
                         "kKnown reject array" % field)

    return scanned, violations


def self_test():
    """Proves the rules fire: lints a synthetic bad tree, expects hits."""
    import tempfile
    bad = {
        "src/search/bad.cpp": (
            "std::mutex m;\n"
            "std::lock_guard<std::mutex> lock(m);\n"
            "std::thread t([]{});\n"
            "t.detach();\n"
            "std::this_thread::sleep_for(std::chrono::seconds(1));\n"
            "// std::mutex in a comment is fine\n"
        ),
        "src/qtensor/bad.cpp": '#include "query/program.hpp"\n',
        "src/server/bad.cpp": (
            "int n = std::stoi(text);\n"
            "auto k = static_cast<std::size_t>(\n"
            "    v.at(\"k\").as_number());\n"
            "double ok = std::stod(text);\n"
            "double fine = static_cast<double>(n) * v.as_number();\n"
        ),
        "src/search/engine.cpp": (
            "// \"sv\" in a comment is fine\n"
            "std::string tag = ok ? \"sv_plan\" : \"tn\";\n"
        ),
        "src/session.cpp": 'std::string name() { return "sv"; }\n',
        "src/search/scheduler.hpp": (
            "#include <mutex>\n"
            '#include "parallel/thread_pool.hpp"\n'
            "qarch::Mutex guard{30, \"x\"};\n"
            "auto t = std::chrono::steady_clock::now();\n"
            "// a Mutex in a comment is fine\n"
            "#include <map>\n"
        ),
        "src/search/eval_service.cpp": "qarch::Mutex fine{30, \"x\"};\n",
    }
    with tempfile.TemporaryDirectory() as tmp:
        for rel, text in bad.items():
            path = os.path.join(tmp, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)
        _, violations = scan(tmp)
    rules = {v.split("[")[1][:2] for v in violations}
    expected = {"R1", "R2", "R3", "R4", "R6", "R7", "R8", "R9"}
    if not expected <= rules:
        print("self-test FAILED: expected rules %s, got %s"
              % (sorted(expected), sorted(rules)), file=sys.stderr)
        return 1
    if len([v for v in violations if "[R1]" in v]) != 2:
        print("self-test FAILED: comment line was not exempted",
              file=sys.stderr)
        return 1
    r7 = sorted(v.split(": [")[0] for v in violations if "[R7]" in v)
    if r7 != ["src/server/bad.cpp:1", "src/server/bad.cpp:2"]:
        print("self-test FAILED: R7 should flag exactly the stoi and the "
              "cast, got %s" % r7, file=sys.stderr)
        return 1
    r8 = sorted(v.split(": [")[0] for v in violations if "[R8]" in v)
    if r8 != ["src/search/engine.cpp:2"]:
        print("self-test FAILED: R8 should flag only the \"tn\" literal "
              "outside src/session.cpp, got %s" % r8, file=sys.stderr)
        return 1
    r9 = sorted(v.split(": [")[0] for v in violations if "[R9]" in v)
    if r9 != ["src/search/scheduler.hpp:%d" % n for n in (1, 2, 3, 4)]:
        print("self-test FAILED: R9 should flag exactly the two includes, "
              "the Mutex and the clock in scheduler.hpp, got %s" % r9,
              file=sys.stderr)
        return 1
    print("self-test passed (%d violations flagged in fixture)"
          % len(violations))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: parent of tools/)")
    parser.add_argument(
        "--self-test", action="store_true",
        help="lint a synthetic violating tree and require every rule to fire")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    scanned, violations = scan(args.root)
    for v in violations:
        print(v)
    if violations:
        print("qarch-lint: %d violation(s) in %d files"
              % (len(violations), scanned), file=sys.stderr)
        return 1
    print("qarch-lint: %d files clean" % scanned)
    return 0


if __name__ == "__main__":
    sys.exit(main())
