#!/usr/bin/env python3
"""dapper-lint: determinism / seed-purity static analysis for the DAPPER tree.

Every result in this repository rests on the standing invariants in
ROADMAP.md — engine equivalence, seed purity, deterministic telemetry.
The runtime differential tests catch a violation only after it has
shipped nondeterminism; this linter machine-checks the invariants at the
source level and gates CI on them.

Rules (see tools/lint/README.md for the full contract):

  nondet-iteration   no range-for / iterator loops over unordered_map or
                     unordered_set in src/ (iteration order is
                     implementation-defined; the PR 6 CAT-table lesson).
  seed-purity        no rand()/random_device/*_clock::now()/time()/
                     getenv()/getpid() etc. in src/ — all randomness must
                     flow from SysConfig::seed via src/common/rng.hh.
  raw-assert         no bare assert() where DAPPER_CHECK is required:
                     data-integrity guards must survive NDEBUG builds.
  registry-only      no direct construction of concrete tracker / attack /
                     workload types outside their own TU or a
                     DAPPER_REGISTER_* site; a registry's own built-in
                     table sanctions its constructions with
                     DAPPER_LINT_ALLOW.
  static-init-order  no namespace-scope non-constinit static with a
                     dynamic initializer (the PR 8 benign.cc bug class —
                     cross-TU registrars read such objects during static
                     initialization in unspecified order).
  pointer-key-order  no ordered containers or comparators keyed on raw
                     pointer values (allocation addresses vary run to run).

The cross-TU semantic tier (stat-export completeness, check purity,
engine parity, narrowing address arithmetic) lives in dapper_audit.py;
both tools share infrastructure (scrubbing, suppression policy, SARIF)
via lintlib.py.

Suppression, in order of preference:

  1. Inline annotation (src/common/check.hh):
         DAPPER_LINT_ALLOW(rule-name, "written justification");
     suppresses that rule on the annotation's line and the next line.
     The justification is mandatory and must be non-trivial.
  2. Per-file allowlist entry in tools/lint/allowlist.toml with a
     mandatory `reason` — for generated files or whole-file opt-outs
     only; src/ policy is zero blanket exemptions.

Every rule runs on one lexical backend: a comment/string-scrubbed token
stream with bracket/template tracking and namespace-scope statement
classification. It needs no compiler bindings, and the fixture
self-test pins every rule on it.

Exit codes: 0 clean, 1 findings, 2 internal/usage error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from lintlib import (  # noqa: E402
    ALL_RULE_NAMES, DEFAULT_ALLOWLIST, FIXTURE_DIR, LINT_RULE_NAMES,
    REPO_ROOT, Allowlist, Finding, SourceFile, annotation_validity,
    changed_files, collect_files, line_of, match_bracket, match_template,
    print_findings, relpath, resolve_suppressions, top_level_assign,
    top_level_colon, first_template_arg, unused_annotation_warnings,
    write_sarif,
)

TOOL_VERSION = "2.0"

# Base classes whose concrete descendants may only be constructed through
# the registries (rule registry-only).
REGISTRY_BASES = {"Tracker", "BaseTracker", "TraceGen", "AttackBase"}
# The abstract layer itself is not a "concrete" type.
REGISTRY_ABSTRACT = {"Tracker", "BaseTracker", "TraceGen", "AttackBase"}

# Fundamental-ish type tokens that can be constant-initialized at
# namespace scope without ordering hazards (rule static-init-order).
FUNDAMENTAL_TYPES = {
    "bool", "char", "wchar_t", "char8_t", "char16_t", "char32_t",
    "short", "int", "long", "signed", "unsigned", "float", "double",
    "void", "size_t", "ssize_t", "ptrdiff_t", "intptr_t", "uintptr_t",
    "int8_t", "int16_t", "int32_t", "int64_t",
    "uint8_t", "uint16_t", "uint32_t", "uint64_t",
    "Tick", "Addr",
}

DYNAMIC_STD_RE = re.compile(
    r"\bstd\s*::\s*(vector|deque|list|forward_list|map|set|multimap|"
    r"multiset|unordered_map|unordered_set|unordered_multimap|"
    r"unordered_multiset|string|wstring|function|shared_ptr|unique_ptr|"
    r"weak_ptr|regex|fstream|ifstream|ofstream|stringstream|"
    r"ostringstream|istringstream|mutex|condition_variable|thread|"
    r"atomic|optional|variant|any|pair|tuple|priority_queue|queue|"
    r"stack|bitset|valarray)\b")

DECL_QUALIFIERS = {
    "static", "const", "inline", "volatile", "thread_local", "extern",
    "mutable", "register", "typename", "class", "struct", "enum",
}


# ---------------------------------------------------------------------------
# Cross-file inventory.
# ---------------------------------------------------------------------------

class Inventory:
    """Facts gathered over the whole lint set before per-file rule passes."""

    _UNORDERED_RE = re.compile(r"\bunordered_(?:multi)?(?:map|set)\s*<")
    _USING_RE = re.compile(
        r"\busing\s+(\w+)\s*=\s*(?:std\s*::\s*)?"
        r"unordered_(?:multi)?(?:map|set)\s*<")
    _CLASS_RE = re.compile(
        r"\bclass\s+(\w+)\s*(?:final\s*)?:\s*"
        r"(?:public|private|protected)?\s*([\w:]+)")

    def __init__(self, files):
        self.unordered_vars = set()     # variable / member names
        self.unordered_aliases = set()  # using-aliases of unordered types
        self.concrete_types = {}        # class name -> declaring rel path
        bases_seen = {}                 # class name -> direct base
        for sf in files:
            t = sf.scrubbed
            for m in self._USING_RE.finditer(t):
                self.unordered_aliases.add(m.group(1))
            for m in self._CLASS_RE.finditer(t):
                base = m.group(2).split("::")[-1]
                bases_seen.setdefault(m.group(1), (base, sf.rel))
            self._collect_vars(t)
        # Transitive closure over REGISTRY_BASES.
        def derives(name, depth=0):
            if depth > 8 or name not in bases_seen:
                return name in REGISTRY_BASES
            base = bases_seen[name][0]
            return base in REGISTRY_BASES or derives(base, depth + 1)
        for name, (base, rel) in bases_seen.items():
            if name in REGISTRY_ABSTRACT:
                continue
            if derives(name):
                self.concrete_types[name] = rel
        # Second pass: vars typed by unordered aliases.
        if self.unordered_aliases:
            alias_re = re.compile(
                r"\b(" + "|".join(map(re.escape, self.unordered_aliases)) +
                r")\s+(\w+)\s*[;={]")
            for sf in files:
                for m in alias_re.finditer(sf.scrubbed):
                    self.unordered_vars.add(m.group(2))

    def _collect_vars(self, t):
        for m in self._UNORDERED_RE.finditer(t):
            lt = t.index("<", m.start())
            end = match_template(t, lt)
            if end < 0:
                continue
            tail = t[end:end + 160]
            vm = re.match(r"\s*[&*]{0,2}\s*(\w+)\s*[;={(,)]", tail)
            if vm and vm.group(1) not in ("final", "const", "noexcept"):
                nxt = tail[vm.end(1):].lstrip()
                if nxt.startswith("("):
                    continue  # function declaration returning the map
                self.unordered_vars.add(vm.group(1))


# ---------------------------------------------------------------------------
# Rules (lexical backend). Each returns a list of Findings.
# ---------------------------------------------------------------------------

def rule_nondet_iteration(sf: SourceFile, inv: Inventory):
    finds = []
    t = sf.scrubbed

    def unordered_expr(expr: str) -> bool:
        if re.search(r"\bunordered_(?:multi)?(?:map|set)\s*<", expr):
            return True
        for m in re.finditer(r"[A-Za-z_]\w*", expr):
            name = m.group(0)
            rest = expr[m.end():].lstrip()
            if rest.startswith("("):
                continue  # function call, not a variable reference
            if name in inv.unordered_vars or name in inv.unordered_aliases:
                return True
        return False

    # Range-for statements.
    for m in re.finditer(r"\bfor\s*\(", t):
        open_paren = t.index("(", m.start())
        end = match_bracket(t, open_paren, "(", ")")
        if end < 0:
            continue
        inside = t[open_paren + 1:end - 1]
        if ";" in inside:
            continue  # classic for
        colon = top_level_colon(inside)
        if colon < 0:
            continue
        range_expr = inside[colon + 1:]
        if unordered_expr(range_expr):
            finds.append(Finding(sf.rel, line_of(t, m.start()),
                                 "nondet-iteration",
                                 "range-for over unordered container "
                                 f"(`{range_expr.strip()[:60]}`): iteration "
                                 "order is implementation-defined and leaks "
                                 "into results; use a deterministic "
                                 "container (src/common/cat_table.hh, "
                                 "flat_map.hh, std::map) or sorted keys"))
    # Iterator loops: <expr>.begin() / .cbegin() on an unordered variable.
    for m in re.finditer(r"(\w+)\s*\.\s*c?begin\s*\(", t):
        if m.group(1) in inv.unordered_vars:
            finds.append(Finding(sf.rel, line_of(t, m.start()),
                                 "nondet-iteration",
                                 f"iterator walk over unordered container "
                                 f"`{m.group(1)}`: begin()/probe order is "
                                 "implementation-defined; iterate a "
                                 "deterministic structure instead"))
    return finds


_SEED_PATTERNS = [
    (re.compile(r"\brand\s*\("), "rand()"),
    (re.compile(r"\bsrand\s*\("), "srand()"),
    (re.compile(r"\brandom\s*\(\s*\)"), "random()"),
    (re.compile(r"\bdrand48\s*\("), "drand48()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\bmt19937(_64)?\b"), "std::mt19937"),
    (re.compile(r"\bdefault_random_engine\b"), "std::default_random_engine"),
    (re.compile(r"\brandom_shuffle\b"), "std::random_shuffle"),
    (re.compile(r"\b(?:steady_clock|system_clock|high_resolution_clock)"
                r"\s*::\s*now\s*\("), "*_clock::now()"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday()"),
    (re.compile(r"\bclock_gettime\s*\("), "clock_gettime()"),
    (re.compile(r"\bclock\s*\(\s*\)"), "clock()"),
    (re.compile(r"\bgetenv\s*\("), "getenv()"),
    (re.compile(r"\bgetpid\s*\("), "getpid()"),
    (re.compile(r"\bgetuid\s*\("), "getuid()"),
]
_TIME_RE = re.compile(r"\btime\s*\(")


def rule_seed_purity(sf: SourceFile, inv: Inventory):
    del inv
    finds = []
    t = sf.scrubbed
    for pat, label in _SEED_PATTERNS:
        for m in pat.finditer(t):
            finds.append(Finding(sf.rel, line_of(t, m.start()), "seed-purity",
                                 f"{label}: all randomness / environment "
                                 "input must flow from SysConfig::seed via "
                                 "src/common/rng.hh so results are "
                                 "reproducible and thread-invariant"))
    # time( — but not a member call (obj.time(), ->time()) and not a
    # qualified call on a non-std class (Foo::time()).
    for m in _TIME_RE.finditer(t):
        j = m.start() - 1
        while j >= 0 and t[j] in " \t":
            j -= 1
        if j >= 0 and t[j] in "._":
            continue
        if j >= 0 and t[j] == ">" and j > 0 and t[j - 1] == "-":
            continue
        if j >= 1 and t[j] == ":" and t[j - 1] == ":":
            head = t[max(0, j - 16):j - 1].rstrip()
            if not head.endswith("std"):
                continue
        finds.append(Finding(sf.rel, line_of(t, m.start()), "seed-purity",
                             "time(): wall-clock input must not reach "
                             "simulation state; derive from SysConfig::seed "
                             "(src/common/rng.hh)"))
    return finds


_ASSERT_RE = re.compile(r"\bassert\s*\(")


def rule_raw_assert(sf: SourceFile, inv: Inventory):
    del inv
    if sf.rel.endswith("common/check.hh"):
        return []
    finds = []
    t = sf.scrubbed
    for m in _ASSERT_RE.finditer(t):
        finds.append(Finding(sf.rel, line_of(t, m.start()), "raw-assert",
                             "bare assert() compiles out under NDEBUG "
                             "(the default Release build); data-integrity "
                             "guards must use DAPPER_CHECK "
                             "(src/common/check.hh), or justify a hot-path "
                             "assert with DAPPER_LINT_ALLOW"))
    return finds


_CONSTRUCT_RES = [
    re.compile(r"\bnew\s+(\w+)\s*[({]"),
    re.compile(r"\bmake_unique\s*<\s*(\w+)\s*[>,]"),
    re.compile(r"\bmake_shared\s*<\s*(\w+)\s*[>,]"),
]


def rule_registry_only(sf: SourceFile, inv: Inventory):
    finds = []
    t = sf.scrubbed
    basename = os.path.basename(sf.rel)
    stem = os.path.splitext(basename)[0]
    for pat in _CONSTRUCT_RES:
        for m in pat.finditer(t):
            name = m.group(1)
            decl = inv.concrete_types.get(name)
            if decl is None:
                continue
            decl_stem = os.path.splitext(os.path.basename(decl))[0]
            if stem == decl_stem:
                continue  # own TU (foo.cc constructing types from foo.hh)
            line = line_of(t, m.start())
            if sf.in_register_region(line):
                continue
            finds.append(Finding(sf.rel, line, "registry-only",
                                 f"direct construction of concrete type "
                                 f"`{name}` (declared in {decl}) outside its "
                                 "own TU / a DAPPER_REGISTER_* site; go "
                                 "through the registry so names, "
                                 "capabilities and fingerprints stay in "
                                 "sync"))
    return finds


def rule_static_init_order(sf: SourceFile, inv: Inventory):
    del inv
    finds = []
    for line, stmt in sf.ns_scope_statements():
        if sf.in_register_region(line):
            continue  # registrar objects are the sanctioned pattern
        s = re.sub(r"\[\[[^\]]*\]\]", " ", stmt).strip()
        s = re.sub(r"\s+", " ", s)
        if not s or s.startswith("#"):
            continue
        first = s.split(None, 1)[0]
        if first in ("using", "typedef", "template", "friend", "namespace",
                     "static_assert", "extern", "return", "if", "for",
                     "while", "switch", "case", "default", "break",
                     "continue", "goto", "public", "private", "protected"):
            continue
        if re.match(r"(class|struct|union|enum)\b[^=]*$", s):
            continue  # forward declaration / enum without init
        if "constexpr" in s or "constinit" in s:
            continue
        if "DAPPER_LINT_ALLOW" in s or "DAPPER_REGISTER" in s:
            continue
        if s.startswith("}"):
            continue
        # Split declarator head from initializer.
        eq = top_level_assign(s)
        head = s[:eq] if eq >= 0 else s
        init = s[eq + 1:] if eq >= 0 else ""
        brace = head.find("{")
        if eq < 0 and brace >= 0:
            init = head[brace:]
            head = head[:brace]
        # Function declarations / definitions: declarator has parens and no
        # initializer. (`static Foo f(a, b);` most-vexing-parse also lands
        # here and is skipped — write `= Foo(...)` or `{...}` for variables.)
        if eq < 0 and "(" in head and not init:
            continue
        if not init and "operator" in head:
            continue
        tokens = re.findall(r"[\w:]+", head)
        if not tokens:
            continue
        type_tokens = [tok for tok in tokens if tok not in DECL_QUALIFIERS]
        if not type_tokens:
            continue
        dynamic = False
        why = ""
        if DYNAMIC_STD_RE.search(head):
            dynamic = True
            why = "std:: type with a dynamic initializer/destructor"
        elif init and re.search(r"[A-Za-z_]\w*\s*\(", init):
            dynamic = True
            why = "initializer calls a function"
        elif not init and "(" not in head and "*" not in head \
                and "&" not in head:
            base = type_tokens[-2] if len(type_tokens) >= 2 else ""
            base = base.split("::")[-1]
            if base and base not in FUNDAMENTAL_TYPES and \
                    re.match(r"[A-Z]", base):
                dynamic = True
                why = f"default-constructed class object of type `{base}`"
        if dynamic:
            finds.append(Finding(sf.rel, line, "static-init-order",
                                 f"namespace-scope static with a dynamic "
                                 f"initializer ({why}): cross-TU registrars "
                                 "run during static init in unspecified "
                                 "order (the PR 8 benign.cc bug class); use "
                                 "a function-local static (construct on "
                                 "first use) or constinit"))
    return finds


_ORDERED_PTR_RE = re.compile(r"\bstd\s*::\s*(map|set|multimap|multiset)\s*<")
_LESS_PTR_RE = re.compile(r"\bstd\s*::\s*less\s*<[^<>]*\*\s*(?:const\s*)?>")


def rule_pointer_key_order(sf: SourceFile, inv: Inventory):
    del inv
    finds = []
    t = sf.scrubbed
    for m in _ORDERED_PTR_RE.finditer(t):
        lt = t.index("<", m.end() - 1)
        end = match_template(t, lt)
        if end < 0:
            continue
        args = t[lt + 1:end - 1]
        key = first_template_arg(args).strip()
        if re.search(r"\*\s*(const\s*)?$", key):
            finds.append(Finding(sf.rel, line_of(t, m.start()),
                                 "pointer-key-order",
                                 f"std::{m.group(1)} keyed on a raw pointer "
                                 f"(`{key}`): allocation addresses vary run "
                                 "to run, so ordered traversal is "
                                 "nondeterministic; key on a stable id "
                                 "instead"))
    for m in _LESS_PTR_RE.finditer(t):
        finds.append(Finding(sf.rel, line_of(t, m.start()),
                             "pointer-key-order",
                             "std::less over a raw pointer type: pointer "
                             "order is not stable across runs; compare a "
                             "stable id instead"))
    return finds


RULES = {
    "nondet-iteration": rule_nondet_iteration,
    "seed-purity": rule_seed_purity,
    "raw-assert": rule_raw_assert,
    "registry-only": rule_registry_only,
    "static-init-order": rule_static_init_order,
    "pointer-key-order": rule_pointer_key_order,
}
assert tuple(RULES) == LINT_RULE_NAMES, "lintlib.LINT_RULE_NAMES is stale"

RULE_META = {
    "nondet-iteration": {
        "description": "No iteration over unordered containers in src/",
        "severity": "error",
    },
    "seed-purity": {
        "description": "All randomness/environment input flows from "
                       "SysConfig::seed",
        "severity": "error",
    },
    "raw-assert": {
        "description": "Data-integrity guards use DAPPER_CHECK, not bare "
                       "assert()",
        "severity": "error",
    },
    "registry-only": {
        "description": "Concrete trackers/attacks/workloads are built only "
                       "via registries",
        "severity": "error",
    },
    "static-init-order": {
        "description": "No namespace-scope statics with dynamic "
                       "initializers",
        "severity": "error",
    },
    "pointer-key-order": {
        "description": "No ordered containers keyed on raw pointer values",
        "severity": "error",
    },
    "bad-suppression": {
        "description": "Malformed or unjustified lint suppression",
        "severity": "error",
    },
}


# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------

def lint_files(paths, allowlist: Allowlist, rules=None, only_files=None):
    """Returns (findings, warnings). Findings include unsuppressed rule hits
    and bad-suppression errors; warnings are informational strings.
    @p only_files: optional set of repo-relative paths — rules still see
    every file (cross-file inventories need the whole set) but findings
    are reported only for files in the set."""
    files = [SourceFile(p, relpath(p)) for p in collect_files(paths)]
    inv = Inventory(files)
    active_rules = rules or list(RULES)
    findings, warnings = [], []
    findings.extend(allowlist.errors)
    for sf in files:
        if only_files is not None and sf.rel not in only_files:
            continue
        per_file = []
        for name in active_rules:
            per_file.extend(RULES[name](sf, inv))
        findings.extend(annotation_validity(sf, ALL_RULE_NAMES))
        resolve_suppressions(sf, per_file, allowlist)
        warnings.extend(unused_annotation_warnings(sf, RULES))
        findings.extend(f for f in per_file if not f.suppressed)
    return findings, warnings


# ---------------------------------------------------------------------------
# Self-test over the fixture corpus + the real tree.
# ---------------------------------------------------------------------------

# rule -> (positive fixture set, negative twin set). Sets are linted as a
# group so cross-file facts (type inventories) resolve like they do on the
# real tree.
FIXTURES = {
    "nondet-iteration": (["nondet_iteration_bad.cc"],
                         ["nondet_iteration_good.cc"]),
    "seed-purity": (["seed_purity_bad.cc"], ["seed_purity_good.cc"]),
    "raw-assert": (["raw_assert_bad.cc"], ["raw_assert_good.cc"]),
    "registry-only": (["registry_only_bad.cc", "registry_only_types.hh"],
                      ["registry_only_good.cc", "registry_only_types.hh",
                       "registry_only_types.cc"]),
    "static-init-order": (["static_init_order_bad.cc"],
                          ["static_init_order_good.cc"]),
    "pointer-key-order": (["pointer_key_order_bad.cc"],
                          ["pointer_key_order_good.cc"]),
}


def selftest(verbose=True):
    failures = []
    empty_allow = Allowlist([], [])

    def check(cond, label):
        if cond:
            if verbose:
                print(f"  ok   {label}")
        else:
            failures.append(label)
            print(f"  FAIL {label}")

    print("dapper-lint selftest")

    # 1. Each rule fires on its positive fixture set and is silent on the
    # negative twin set (which includes own-TU / sanctioned patterns).
    for rule, (bad, good) in FIXTURES.items():
        finds, _ = lint_files([FIXTURE_DIR / f for f in bad], empty_allow)
        hits = [f for f in finds if f.rule == rule]
        check(len(hits) >= 1, f"{rule}: fires on {bad[0]} "
                              f"({len(hits)} findings)")
        others = [f for f in finds if f.rule not in (rule, "bad-suppression")]
        check(not others, f"{rule}: {bad[0]} triggers only its own rule "
                          f"(extra: {[f.rule for f in others]})")
        finds, _ = lint_files([FIXTURE_DIR / f for f in good], empty_allow)
        check(not finds, f"{rule}: silent on {good[0]} "
                         f"({[f.render() for f in finds]})")

    # 2. Annotated violations are silent; bad annotations are findings.
    finds, warns = lint_files([FIXTURE_DIR / "suppression_ok.cc"],
                              empty_allow)
    check(not finds, f"suppression: annotated fixture is clean "
                     f"({[f.render() for f in finds]})")
    finds, _ = lint_files([FIXTURE_DIR / "suppression_bad.cc"], empty_allow)
    check(any(f.rule == "bad-suppression" for f in finds),
          "suppression: missing justification is itself a finding")
    check(any(f.rule == "seed-purity" for f in finds),
          "suppression: unjustified annotation does not suppress")
    finds, warns = lint_files([FIXTURE_DIR / "suppression_unused.cc"],
                              empty_allow)
    check(any("unused" in w for w in warns),
          "suppression: unused annotation warns")

    # 3. Allowlist: covers findings only with a written reason.
    allow = Allowlist.load(FIXTURE_DIR / "allowlist_test.toml",
                           ALL_RULE_NAMES)
    check(not allow.errors, "allowlist: fixture allowlist parses")
    finds, _ = lint_files([FIXTURE_DIR / "seed_purity_bad.cc"], allow)
    check(not [f for f in finds if f.rule == "seed-purity"],
          "allowlist: reasoned entry suppresses file findings")
    bad_allow = Allowlist.load(FIXTURE_DIR / "allowlist_bad.toml",
                               ALL_RULE_NAMES)
    check(any(f.rule == "bad-suppression" for f in bad_allow.errors),
          "allowlist: entry without reason is rejected")

    # 4. Pinned clean excerpts of real src/ files stay silent.
    excerpts = sorted(FIXTURE_DIR.glob("clean_excerpt_*"))
    check(len(excerpts) >= 2, f"clean excerpts present ({len(excerpts)})")
    finds, _ = lint_files(excerpts, empty_allow)
    check(not finds, f"clean excerpts lint silent "
                     f"({[f.render() for f in finds]})")

    # 5. The real tree lints clean with the shipped allowlist.
    finds, warns = lint_files([REPO_ROOT / "src"],
                              Allowlist.load(DEFAULT_ALLOWLIST,
                                             ALL_RULE_NAMES))
    for f in finds:
        print(f"  tree finding: {f.render()}")
    check(not finds, "full src/ tree is clean under the shipped policy")
    for w in warns:
        print(f"  tree warning: {w}")

    print(f"selftest: {len(failures)} failure(s)")
    return 0 if not failures else 1


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="dapper-lint",
        description="determinism/seed-purity static analysis for DAPPER")
    ap.add_argument("paths", nargs="*",
                    help="files or directories to lint (default: src/)")
    ap.add_argument("--allowlist", default=str(DEFAULT_ALLOWLIST))
    ap.add_argument("--rule", action="append", dest="rules",
                    choices=sorted(RULES), help="restrict to given rule(s)")
    ap.add_argument("--changed", choices=("worktree", "cached"), default=None,
                    help="report findings only for files git considers "
                         "changed ('cached' = staged, for pre-commit)")
    ap.add_argument("--json", action="store_true",
                    help="emit findings as JSON")
    ap.add_argument("--sarif", default=None, metavar="PATH",
                    help="also write findings as SARIF 2.1.0 to PATH")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("--selftest", action="store_true",
                    help="run the fixture self-test + full-tree check")
    ap.add_argument("-q", "--quiet", action="store_true")
    args = ap.parse_args(argv)

    if args.list_rules:
        for name, fn in RULES.items():
            first = (fn.__doc__ or "").strip().splitlines()
            print(f"{name:20s} {first[0] if first else ''}")
        return 0
    if args.selftest:
        return selftest(verbose=not args.quiet)

    only_files = None
    if args.changed is not None:
        changed = changed_files(args.changed)
        if changed is None:
            print("dapper-lint: --changed requested but git is unavailable; "
                  "scanning everything", file=sys.stderr)
        else:
            only_files = changed
            if not any(f.startswith("src/") or f.endswith(
                    (".cc", ".hh", ".cpp", ".hpp", ".h"))
                    for f in only_files):
                if not args.quiet:
                    print("dapper-lint: no changed C++ files; clean")
                return 0

    paths = args.paths or [str(REPO_ROOT / "src")]
    findings, warnings = lint_files(
        paths, Allowlist.load(args.allowlist, ALL_RULE_NAMES),
        rules=args.rules, only_files=only_files)
    if args.sarif:
        write_sarif(args.sarif, findings, "dapper-lint", TOOL_VERSION,
                    RULE_META)
    print_findings(findings, warnings, quiet=args.quiet, as_json=args.json)
    if findings:
        if not args.quiet and not args.json:
            print(f"dapper-lint: {len(findings)} finding(s); suppress only "
                  "with DAPPER_LINT_ALLOW(rule, \"justification\") or a "
                  "reasoned allowlist entry (tools/lint/README.md)",
                  file=sys.stderr)
        return 1
    if not args.quiet:
        print("dapper-lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
