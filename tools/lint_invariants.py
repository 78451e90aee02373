#!/usr/bin/env python3
"""Repo-specific lint gate: bans patterns behind past regressions.

Rules
-----
std-pow-integral
    Assigning or casting ``std::pow`` to an integral type. ``std::pow``
    returns a double with 53 mantissa bits; truncating it corrupted model
    counts once (see src/lqdb/exact/brute.h, which grew an exact integer
    power for this reason). Floating-point uses of ``std::pow`` are fine.

prefix-parse
    ``std::stoi`` / ``atoi`` / ``strtol`` and friends. Their prefix
    parsing accepted "4x" as 4 in the shell, and std::stoi throws (rather
    than returning an error) on out-of-range input. Use the strict
    helpers in src/lqdb/util/parse.h instead.

raw-mutex
    Raw ``std::mutex`` / ``std::condition_variable`` / lock types inside
    src/lqdb outside util/annotations.h. All synchronization must go
    through the annotated wrappers so Clang's -Wthread-safety can see it.

one-sweep-loop
    A call to ``ForEachCanonicalMapping``, ``ForEachCanonicalMappingChunk``
    or ``ForEachMapping`` inside src/lqdb outside the enumerators
    themselves (cwdb/mapping.{h,cc}) and the one Theorem 1 sweep driver
    (exact/sweep.cc). The per-mapping loop body was once copied eleven
    times across the exact engines and the copies drifted apart; engines
    pick a mapping source and a per-image check and call ``RunSweep``
    instead.

one-compile-site
    A call to ``SemijoinReduce`` or ``ValidatePlan`` inside src/lqdb
    outside the RA layer itself (ra/) and ``BoundQuery::CompileRaPlan``
    (eval/bound_query.cc). The exact engine's compiled check was once kept
    in three places (the prepared binding, a plan cache keyed by the
    printed query, and a reduction cache keyed by plan address that served
    a freed plan's reduction to a new plan), and the validator ran at two
    sites that missed a prepared statement's plan. A query becomes its
    per-image check, reduced and validated, in one place.

one-identifier-rule
    A call to ``isalnum`` inside src/lqdb outside util/parse.h. The query
    lexer and the text format once spelled "identifier" differently (the
    lexer accepted primes, the format did not) and ``AddFact`` checked
    nothing, so a query or an update could intern a name that ``save``
    wrote and ``load`` then rejected or split. Names are checked with
    ``IsIdentifierStart`` / ``IsIdentifierChar`` / ``IsIdentifier`` from
    lqdb/util/parse.h.

one-plan-printer
    A call to ``NodeLabel`` under src/ or tools/ outside the plan itself
    (ra/plan.{h,cc}) and the validator (ra/validate.cc, which labels the
    one node a finding names). Compiled plans are DAGs, and the plan dump,
    the compiler's annotated dump and the SQL emitter each walked them as
    trees: ``explain`` of a 12-deep ``<->`` chain printed 5.6 MB. Print a
    plan with ``Plan::ToString``, which prints each node once and takes a
    per-node suffix for annotations.

one-row-hash
    The FNV-1a prime ``1099511628211`` under src/ outside
    relational/tuple.h. The row hash was written four times (the tuple
    hash, the flat table, the join index and the kernel memo), and a
    ``JoinIndex`` probe, hashed as a span, only finds build rows hashed
    column by column while the copies stay bit-identical. Hash with
    ``HashValues`` / ``HashStep`` from lqdb/relational/tuple.h.

Suppression: append ``// lint:allow(<rule>)`` to the offending line.

Exit status: 0 when clean, 1 when any finding fires, 2 on usage errors.
``--self-test`` checks the rules against tools/lint_fixtures/, where each
known-bad line is annotated ``// expect: <rule>``.
"""

import argparse
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

INTEGRAL = r"(?:int|long|short|unsigned|u?int(?:8|16|32|64)_t|size_t|ssize_t|ptrdiff_t)"

# The only files under src/lqdb that may walk the mapping space.
SWEEP_LOOP_HOMES = (
    "src/lqdb/cwdb/mapping.h",
    "src/lqdb/cwdb/mapping.cc",
    "src/lqdb/exact/sweep.cc",
)

# The only files under src/lqdb that may reduce or validate a plan.
COMPILE_SITE_HOMES = ("src/lqdb/ra/", "src/lqdb/eval/bound_query.cc")

# The one file under src/lqdb that spells what a name may contain.
IDENTIFIER_RULE_HOME = "src/lqdb/util/parse.h"

# The only files that may label a plan node: the printer and the validator.
PLAN_PRINTER_HOMES = (
    "src/lqdb/ra/plan.h",
    "src/lqdb/ra/plan.cc",
    "src/lqdb/ra/validate.cc",
)

# The one file under src/ that spells the row hash.
ROW_HASH_HOME = "src/lqdb/relational/tuple.h"

RULES = [
    {
        "name": "std-pow-integral",
        "regex": re.compile(
            r"\b" + INTEGRAL + r"\b[^=;]*=\s*(?:\([^)]*\)\s*)?std::pow\b"
            r"|static_cast<\s*" + INTEGRAL + r"\s*>\s*\(\s*std::pow\b"
        ),
        "message": "std::pow result used as an integral (53-bit mantissa; "
                   "use an exact integer power)",
        "applies": lambda rel: rel.startswith(("src/", "tools/")),
    },
    {
        "name": "prefix-parse",
        "regex": re.compile(
            r"\b(?:std::)?(?:stoi|stol|stoll|stoul|stoull|atoi|atol|atoll|"
            r"strtol|strtoll|strtoul|strtoull)\s*\("
        ),
        "message": "prefix-parsing integer conversion (use "
                   "ParseStrictUint/ParseStrictInt from lqdb/util/parse.h)",
        "applies": lambda rel: rel.startswith(("src/", "tools/")),
    },
    {
        "name": "raw-mutex",
        "regex": re.compile(
            r"\bstd::(?:mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
            r"shared_mutex|shared_timed_mutex|condition_variable|"
            r"condition_variable_any|unique_lock|lock_guard|scoped_lock|"
            r"shared_lock)\b"
        ),
        "message": "raw std synchronization primitive (use the annotated "
                   "wrappers in lqdb/util/annotations.h)",
        "applies": lambda rel: (rel.startswith("src/lqdb/")
                                and rel != "src/lqdb/util/annotations.h"),
    },
    {
        "name": "one-sweep-loop",
        "regex": re.compile(
            r"\bForEach(?:CanonicalMapping(?:Chunk)?|Mapping)\s*\("
        ),
        "message": "Theorem 1 mapping loop outside the sweep driver (pick a "
                   "source and a check and call RunSweep, "
                   "lqdb/exact/sweep.h)",
        "applies": lambda rel: (rel.startswith("src/lqdb/")
                                and rel not in SWEEP_LOOP_HOMES),
    },
    {
        "name": "one-compile-site",
        "regex": re.compile(r"\b(?:SemijoinReduce|ValidatePlan)\s*\("),
        "message": "plan reduced or validated outside "
                   "BoundQuery::CompileRaPlan (compile the binding and read "
                   "ra_plan()/ra_reduced(), lqdb/eval/bound_query.h)",
        "applies": lambda rel: (rel.startswith("src/lqdb/")
                                and not rel.startswith(COMPILE_SITE_HOMES)),
    },
    {
        "name": "one-identifier-rule",
        "regex": re.compile(r"\bisalnum\s*\("),
        "message": "hand-rolled identifier check (use IsIdentifierStart/"
                   "IsIdentifierChar/IsIdentifier from lqdb/util/parse.h)",
        "applies": lambda rel: (rel.startswith("src/lqdb/")
                                and rel != IDENTIFIER_RULE_HOME),
    },
    {
        "name": "one-plan-printer",
        "regex": re.compile(r"\bNodeLabel\s*\("),
        "message": "plan walked to print it outside Plan::ToString (pass a "
                   "per-node suffix to ToString, lqdb/ra/plan.h)",
        "applies": lambda rel: (rel.startswith(("src/", "tools/"))
                                and rel not in PLAN_PRINTER_HOMES),
    },
    {
        "name": "one-row-hash",
        "regex": re.compile(r"\b1099511628211"),
        "message": "row hash written out again (use HashValues/HashStep "
                   "from lqdb/relational/tuple.h)",
        "applies": lambda rel: (rel.startswith("src/")
                                and rel != ROW_HASH_HOME),
    },
]

ALLOW_RE = re.compile(r"//\s*lint:allow\(([a-z0-9-]+(?:\s*,\s*[a-z0-9-]+)*)\)")
EXPECT_RE = re.compile(r"//\s*expect:\s*([a-z0-9-]+(?:\s*,\s*[a-z0-9-]+)*)")


def strip_comments_and_strings(text):
    """Returns per-line code with comments, string and char literals blanked.

    Keeps line structure intact (newlines survive, removed spans become
    spaces) so findings report real line numbers. Handles // and block
    comments, "..." and '...' literals with backslash escapes. Raw string
    literals are not used in this codebase and are treated as plain strings.
    """
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | dquote | squote
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "dquote"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "squote"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        else:  # dquote / squote
            quote = '"' if state == "dquote" else "'"
            if c == "\\" and nxt:
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append("\n" if c == "\n" else " ")
        i += 1
    return "".join(out).split("\n")


def scan_file(path, rel, rules):
    """Returns [(lineno, rule_name, message)] findings for one file."""
    with open(path, encoding="utf-8", errors="replace") as f:
        raw_text = f.read()
    raw_lines = raw_text.split("\n")
    code_lines = strip_comments_and_strings(raw_text)
    findings = []
    for lineno, (raw, code) in enumerate(zip(raw_lines, code_lines), start=1):
        allow = ALLOW_RE.search(raw)
        allowed = set()
        if allow:
            allowed = {r.strip() for r in allow.group(1).split(",")}
        for rule in rules:
            if not rule["applies"](rel):
                continue
            if rule["name"] in allowed:
                continue
            if rule["regex"].search(code):
                findings.append((lineno, rule["name"], rule["message"]))
    return findings


def iter_source_files(root):
    for top in ("src", "tools", "bench"):
        base = os.path.join(root, top)
        if not os.path.isdir(base):
            continue
        for dirpath, _dirnames, filenames in os.walk(base):
            for name in sorted(filenames):
                if name.endswith((".h", ".cc", ".inc")):
                    path = os.path.join(dirpath, name)
                    yield path, os.path.relpath(path, root).replace(os.sep, "/")


def run_lint(root):
    total = 0
    for path, rel in iter_source_files(root):
        if rel.startswith("tools/lint_fixtures/"):
            continue  # deliberately bad snippets for --self-test
        for lineno, rule, message in scan_file(path, rel, RULES):
            print(f"{rel}:{lineno}: [{rule}] {message}")
            total += 1
    if total:
        print(f"lint_invariants: {total} finding(s)", file=sys.stderr)
        return 1
    print("lint_invariants: clean")
    return 0


def run_self_test(root):
    """Checks every rule both fires on its known-bad fixture lines and stays
    quiet everywhere else (including on lint:allow suppressions)."""
    fixture_dir = os.path.join(root, "tools", "lint_fixtures")
    if not os.path.isdir(fixture_dir):
        print("self-test: missing tools/lint_fixtures/", file=sys.stderr)
        return 2
    failures = 0
    fired_rules = set()
    for name in sorted(os.listdir(fixture_dir)):
        if not name.endswith((".h", ".cc", ".inc")):
            continue
        path = os.path.join(fixture_dir, name)
        # Fixtures exercise every rule, so scan them as if they lived in
        # the most restrictive scope (src/lqdb/).
        rel = "src/lqdb/fixture/" + name
        with open(path, encoding="utf-8") as f:
            raw_lines = f.read().split("\n")
        expected = {}
        for lineno, raw in enumerate(raw_lines, start=1):
            m = EXPECT_RE.search(raw)
            if m:
                expected[lineno] = {r.strip() for r in m.group(1).split(",")}
        actual = {}
        for lineno, rule, _message in scan_file(path, rel, RULES):
            actual.setdefault(lineno, set()).add(rule)
            fired_rules.add(rule)
        for lineno in sorted(set(expected) | set(actual)):
            want = expected.get(lineno, set())
            got = actual.get(lineno, set())
            if want != got:
                print(f"self-test: {name}:{lineno}: expected {sorted(want)} "
                      f"got {sorted(got)}", file=sys.stderr)
                failures += 1
    missing = {rule["name"] for rule in RULES} - fired_rules
    if missing:
        print(f"self-test: rules never exercised by fixtures: "
              f"{sorted(missing)}", file=sys.stderr)
        failures += 1
    if failures:
        print(f"self-test: {failures} failure(s)", file=sys.stderr)
        return 1
    print("self-test: all rules fire on fixtures and respect suppressions")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=REPO_ROOT,
                        help="repository root (default: auto-detected)")
    parser.add_argument("--self-test", action="store_true",
                        help="check the rules against tools/lint_fixtures/")
    args = parser.parse_args()
    if args.self_test:
        return run_self_test(args.root)
    return run_lint(args.root)


if __name__ == "__main__":
    sys.exit(main())
