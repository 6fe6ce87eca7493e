#!/usr/bin/env python3
"""veridp_lint: domain-specific static checks for the VeriDP tree.

Pure-Python, zero dependencies (the container has no libclang); a small
lexer strips comments and string literals so rules match only real code.
Rules encode lessons this codebase has already paid for (DESIGN.md §8):

  raw-lock
      No bare `.lock()` / `.unlock()` / `.try_lock()` calls outside the
      RAII wrappers in src/common/thread_annotations.hpp. Manual
      lock/unlock pairs are invisible to clang's thread-safety analysis
      and leak on early returns; use MutexLock / ReaderLock / WriterLock.

  hot-path-std-function
      No `std::function` in files carrying a `// veridp-lint: hot-path`
      marker. Type-erased calls allocate and defeat inlining on the
      per-report verification path; use templates (cf. eval_with).

  hot-path-node-map
      No `std::unordered_map` / `unordered_set` / `map` / `set` (or their
      multi- variants) in files carrying a `// veridp-lint: hot-path`
      marker. Node-based containers cost a hash, a bucket division and a
      pointer chase per probe; on the per-hop and per-report paths use a
      flat array or an open-addressing table (cf. Topology::peer,
      FlowSampler). An off-path map (set-up, rebuild, cold memo) stays
      with `allow(hot-path-node-map, <why it is off the path>)`.

  bare-bddref-member
      No struct/class storing a BddRef member without arena provenance
      (a BddManager* / shared_ptr<BddManager> / HeaderSet / HeaderSpace
      member alongside it). A BddRef is an index into ONE manager's node
      pool; storing it bare invites cross-arena evaluation, the exact
      bug class VERIDP_BDD_CHECK_ARENA exists to catch at runtime.
      Files under src/bdd/ are exempt (the manager's own internals).

  xor-hash-key
      No XOR-packed hash keys: a line that both shifts by a literal >= 8
      and XORs is almost always packing fields with `(a << k) ^ b`,
      which aliases whenever fields exceed their lanes ((a^c)<<k ^ b
      collides with a<<k ^ (b^(c<<k))). Pack with `|` over disjoint
      lanes or hash-combine with multiplication by odd constants.
      src/common/murmur3.* is exempt (vendored published hash).

  relaxed-atomic
      Every `memory_order_relaxed` outside the profiler internals
      (src/common/scal_profiler.*) needs
      `veridp-lint: allow(relaxed-atomic, <justification>)` with
      a NON-EMPTY justification. Relaxed is correct for commutative
      counters and advisory flags, and subtly wrong the moment a
      reader infers anything about *other* memory from the value — e.g.
      a snapshot pointer published with a relaxed store, so a reader
      sees the pointer before the table behind it (DESIGN.md §8.2). The
      justification requirement forces the author to state which camp a
      site is in, reviewably, at the site.

Suppression: `veridp-lint: allow(<rule>)` inside a comment on the
offending line, or on a line above it within the same statement
(coverage extends until the next line that ends in `;` or `}`). The
form `allow(<rule>, <justification>)` attaches a justification; the
relaxed-atomic and hot-path-node-map rules reject allows whose
justification is missing or empty, every other rule treats it as
documentation.

Exit codes: 0 clean, 1 violations found, 2 usage/IO error.
`--expect-violation RULE` inverts the contract for the lint's own test
fixtures: exit 0 iff at least one violation was found and every
violation is of RULE.
"""

import argparse
import os
import re
import sys

RULES = ("raw-lock", "hot-path-std-function", "hot-path-node-map",
         "bare-bddref-member", "xor-hash-key", "relaxed-atomic")

# Rules whose allow() must carry a non-empty justification argument.
JUSTIFIED_RULES = frozenset({"relaxed-atomic", "hot-path-node-map"})

ALLOW_RE = re.compile(r"veridp-lint:\s*allow\(([a-z-]+)(?:\s*,\s*([^)]*))?\)")
HOT_PATH_RE = re.compile(r"//\s*veridp-lint:\s*hot-path\b")

# Per-rule file exemptions (path suffixes, '/'-normalized).
FILE_EXEMPT = {
    "raw-lock": ("src/common/thread_annotations.hpp",),
    "xor-hash-key": ("src/common/murmur3.hpp", "src/common/murmur3.cc"),
    "bare-bddref-member": (),  # src/bdd/ handled as a directory below
    # The profiler IS the justified-relaxed internals the rule points
    # everyone else at.
    "relaxed-atomic": ("src/common/scal_profiler.hpp",
                       "src/common/scal_profiler.cc"),
}

RAW_LOCK_RE = re.compile(r"(?:\.|->)\s*(?:try_lock|lock|unlock)\s*\(")
RELAXED_RE = re.compile(r"\bmemory_order_relaxed\b")
STD_FUNCTION_RE = re.compile(r"\bstd\s*::\s*function\b")
NODE_MAP_RE = re.compile(
    r"\bstd\s*::\s*(?:unordered_)?(?:multi)?(?:map|set)\b")
XOR_SHIFT_RE = re.compile(r"<<\s*(\d+)")
MEMBER_BDDREF_RE = re.compile(
    r"^\s*(?:mutable\s+|static\s+|constexpr\s+|const\s+)*"
    r"BddRef\s+\w+(?:\s*[={][^;]*)?;")
STRUCT_DECL_RE = re.compile(
    r"(?<!enum\s)\b(?:struct|class)\s+(?:alignas\s*\([^)]*\)\s*)?(\w+)")
PROVENANCE_RE = re.compile(
    r"\bBddManager\b|\bHeaderSpace\b|\bHeaderSet\b|\bHeaderTransfer\b")


def strip_code(text):
    """Blanks comments and string/char literals, preserving line
    structure, so rule regexes see only code. Escapes inside literals
    are honoured; raw strings are not used in this tree."""
    out = []
    i, n = 0, len(text)
    state = None  # None | '//' | '/*' | '"' | "'"
    while i < n:
        c = text[i]
        if state is None:
            if c == "/" and i + 1 < n and text[i + 1] == "/":
                state = "//"
                out.append("  ")
                i += 2
                continue
            if c == "/" and i + 1 < n and text[i + 1] == "*":
                state = "/*"
                out.append("  ")
                i += 2
                continue
            if c in "\"'":
                state = c
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif state == "//":
            if c == "\n":
                state = None
                out.append(c)
            else:
                out.append(" ")
        elif state == "/*":
            if c == "*" and i + 1 < n and text[i + 1] == "/":
                state = None
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        else:  # inside a string or char literal
            if c == "\\" and i + 1 < n:
                out.append("  ")
                i += 2
                continue
            if c == state:
                state = None
                out.append(c)
            elif c == "\n":  # unterminated; bail to keep line counts
                state = None
                out.append(c)
            else:
                out.append(" ")
        i += 1
    return "".join(out)


def allow_map(raw_lines):
    """Maps 1-based line number -> {rule: justification-or-None}. An
    allow covers its own line and subsequent lines until (and
    including) the next line whose code ends a statement or block."""
    allowed = {}
    active = {}
    for ln, line in enumerate(raw_lines, start=1):
        for m in ALLOW_RE.finditer(line):
            just = m.group(2)
            active[m.group(1)] = just.strip() if just else None
        if active:
            allowed[ln] = dict(active)
            code = re.sub(r"//.*", "", line).rstrip()
            if code.endswith((";", "}")):
                active = {}
    return allowed


class StructScanner:
    """Tracks `struct`/`class` bodies through brace depth so the
    bare-bddref-member rule sees member declarations only — locals in
    member-function bodies sit at a deeper depth and are skipped. A
    decl becomes "pending" at its keyword and binds to the next `{`; a
    `;` first means it was a forward declaration (or a member of
    pointer-to-struct type) and cancels it."""

    def __init__(self):
        self.depth = 0
        self.pending = None
        self.stack = []  # (name, open_depth, open_line)

    def feed(self, code_line, ln):
        closed = []  # (name, open_line, close_line)
        decls = [(m.start(), m.group(1))
                 for m in STRUCT_DECL_RE.finditer(code_line)]
        di = 0
        for i, ch in enumerate(code_line):
            while di < len(decls) and decls[di][0] <= i:
                self.pending = decls[di][1]
                di += 1
            if ch == "{":
                if self.pending is not None:
                    self.stack.append((self.pending, self.depth, ln))
                    self.pending = None
                self.depth += 1
            elif ch == "}":
                self.depth -= 1
                if self.stack and self.stack[-1][1] == self.depth:
                    name, _d, open_ln = self.stack.pop()
                    closed.append((name, open_ln, ln))
            elif ch == ";":
                self.pending = None
        if di < len(decls):
            self.pending = decls[-1][1]
        return closed

    def member_depth_ok(self):
        return bool(self.stack) and self.depth == self.stack[-1][1] + 1


def lint_file(path, rel, findings):
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
    except OSError as e:
        print(f"veridp_lint: cannot read {path}: {e}", file=sys.stderr)
        return False
    raw_lines = text.splitlines()
    code_lines = strip_code(text).splitlines()
    allowed = allow_map(raw_lines)
    hot_path = any(HOT_PATH_RE.search(l) for l in raw_lines)

    def exempt(rule):
        return any(rel.endswith(sfx) for sfx in FILE_EXEMPT.get(rule, ()))

    def report(rule, ln, msg):
        scope = allowed.get(ln, {})
        if rule in scope:
            if rule not in JUSTIFIED_RULES or scope[rule]:
                return
            msg += ("; the allow is missing its justification — write "
                    f"allow({rule}, <justification>)")
        findings.append((rel, ln, rule, msg))

    scanner = StructScanner()
    struct_members = []  # (struct name, member line)

    for ln, code in enumerate(code_lines, start=1):
        if not exempt("raw-lock") and RAW_LOCK_RE.search(code):
            report("raw-lock", ln,
                   "bare lock()/unlock() call; use the RAII guards in "
                   "common/thread_annotations.hpp")
        if hot_path and STD_FUNCTION_RE.search(code):
            report("hot-path-std-function", ln,
                   "std::function in a hot-path file; use a template "
                   "parameter (cf. BddManager::eval_with)")
        if hot_path and NODE_MAP_RE.search(code):
            report("hot-path-node-map", ln,
                   "node-based std container in a hot-path file; use a "
                   "flat array or open addressing, or justify an off-path "
                   "use with allow(hot-path-node-map, <why>)")
        if not exempt("relaxed-atomic") and RELAXED_RE.search(code):
            report("relaxed-atomic", ln,
                   "memory_order_relaxed outside the profiler internals; "
                   "justify it with allow(relaxed-atomic, <why>) or use "
                   "acquire/release")
        if not exempt("xor-hash-key") and "^" in code:
            m = XOR_SHIFT_RE.search(code)
            if m and int(m.group(1)) >= 8:
                report("xor-hash-key", ln,
                       "XOR-packed key: shifted lanes combined with ^ "
                       "alias under overflow; pack with | over disjoint "
                       "lanes or mix with odd-constant multiplies")
        # bare-bddref-member bookkeeping
        if not rel.startswith("src/bdd/"):
            if scanner.member_depth_ok() and MEMBER_BDDREF_RE.match(code):
                struct_members.append((scanner.stack[-1][0], ln))
            for name, open_ln, close_ln in scanner.feed(code, ln):
                hits = [(sname, sln) for sname, sln in struct_members
                        if sname == name]
                struct_members = [x for x in struct_members
                                  if x[0] != name]
                if not hits:
                    continue
                # Provenance = a manager-carrying member somewhere in
                # the same struct body.
                span = "\n".join(code_lines[open_ln - 1:close_ln])
                if not PROVENANCE_RE.search(span):
                    for _sname, sln in hits:
                        report("bare-bddref-member", sln,
                               f"struct {name} stores a BddRef without "
                               "arena provenance (no BddManager/"
                               "HeaderSet member); see bdd.hpp on "
                               "cross-arena refs")
        else:
            scanner.feed(code, ln)
    return True


def collect_files(root, paths):
    exts = (".hpp", ".cc", ".cpp", ".h")
    files = []
    for p in paths:
        ap = p if os.path.isabs(p) else os.path.join(root, p)
        if os.path.isfile(ap):
            files.append(ap)
        elif os.path.isdir(ap):
            for dirpath, _dirs, names in os.walk(ap):
                for name in sorted(names):
                    if name.endswith(exts):
                        files.append(os.path.join(dirpath, name))
        else:
            print(f"veridp_lint: no such path: {p}", file=sys.stderr)
            return None
    return files


def main(argv):
    ap = argparse.ArgumentParser(
        prog="veridp_lint.py",
        description="Domain lint for the VeriDP tree (see module "
                    "docstring / DESIGN.md §8 for the rule catalogue).")
    ap.add_argument("paths", nargs="*", default=None,
                    help="files or directories (default: src tools)")
    ap.add_argument("--root", default=None,
                    help="repo root (default: parent of this script)")
    ap.add_argument("--expect-violation", metavar="RULE", choices=RULES,
                    help="fixture mode: succeed iff >=1 violation is "
                         "found and all violations are of RULE")
    args = ap.parse_args(argv)

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    paths = args.paths or ["src", "tools"]
    files = collect_files(root, paths)
    if files is None:
        return 2

    findings = []
    ok = True
    for path in files:
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        ok = lint_file(path, rel, findings) and ok
    if not ok:
        return 2

    for rel, ln, rule, msg in findings:
        print(f"{rel}:{ln}: [{rule}] {msg}")

    if args.expect_violation:
        rules_hit = {rule for _r, _l, rule, _m in findings}
        if not findings:
            print(f"veridp_lint: FIXTURE FAILURE: expected a "
                  f"{args.expect_violation} violation, found none",
                  file=sys.stderr)
            return 1
        if rules_hit != {args.expect_violation}:
            print(f"veridp_lint: FIXTURE FAILURE: expected only "
                  f"{args.expect_violation}, got {sorted(rules_hit)}",
                  file=sys.stderr)
            return 1
        print(f"veridp_lint: fixture OK: {len(findings)} "
              f"{args.expect_violation} violation(s) as expected")
        return 0

    if findings:
        print(f"veridp_lint: {len(findings)} violation(s)",
              file=sys.stderr)
        return 1
    print(f"veridp_lint: clean ({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
