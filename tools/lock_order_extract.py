#!/usr/bin/env python3
"""lock_order_extract: declared-vs-observed lock-order gate (DESIGN.md §12).

The runtime half of lockdep (src/common/lockdep.cc, VERIDP_LOCKDEP)
watches what actually happens: each process dumps the lock-class order
edges it observed as lockdep.<pid>.json. This script owns the other
half — what the source *declares* — and the comparison between them.

Declared hierarchy, parsed from src/:

  1. Every named lock declaration interns a class:
         mutable Mutex mu{"ParallelServer::Lane::mu"};
         mutable SharedMutex count_mu_{"BddManager::count_mu"};
  2. Attribute form, for ordered members of the same class (the same
     annotation clang's -Wthread-safety-beta checks):
         Mutex a_ ACQUIRED_BEFORE(b_){"Owner::a"};
     The argument is a member name, resolved to its class through the
     named declaration in the same file.
  3. Comment form, for cross-class edges clang's attribute scoping
     cannot express (the argument is another class's registered name):
         // ACQUIRED_BEFORE("Fixture::Inner::mu")
         mutable Mutex mu{"Fixture::Outer::mu"};
     The comment binds to the next named-lock declaration below it.
     ACQUIRED_AFTER forms reverse the edge direction in both shapes.

Checks:

  --check-dag     the declared edges form a DAG (a cyclic "hierarchy"
                  is self-contradictory) and every edge endpoint names
                  a lock class that is actually declared somewhere in
                  src/ (catches renames going stale).
  --diff PATH     PATH is one observed-dump JSON or a directory of
                  lockdep.*.json dumps; merge them, then demand every
                  observed edge is contained in the transitive closure
                  of the declared DAG. An observed edge that inverts a
                  declared path is an inversion; one the declaration
                  never covered is undeclared. Either fails (exit 1) —
                  the declarations are a contract, not a suggestion.
                  Classes whose name starts with an --ignore-prefix
                  (default "test.") are dropped first: tests register
                  scratch classes to provoke the checker on purpose.

Exit codes: 0 clean, 1 violations, 2 usage/IO/parse error.
"""

import argparse
import glob
import json
import os
import re
import sys

# A named lock declaration: optional qualifiers, the wrapper type, the
# member name, any ACQUIRED_* attributes, then the brace-init class
# name (possibly wrapped onto the next line).
DECL_RE = re.compile(
    r"\b(?:Mutex|SharedMutex)\s+(\w+)\s*"
    r"((?:ACQUIRED_(?:BEFORE|AFTER)\s*\([^)]*\)\s*)*)"
    r"\{\s*\"([^\"]+)\"\s*\}", re.S)
ATTR_RE = re.compile(r"ACQUIRED_(BEFORE|AFTER)\s*\(([^)]*)\)")
COMMENT_RE = re.compile(
    r"//\s*ACQUIRED_(BEFORE|AFTER)\s*\(\s*\"([^\"]+)\"\s*\)")


def parse_file(path, rel, classes, edges, errors):
    """Adds this file's declared classes and order edges."""
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
    except OSError as e:
        errors.append(f"{rel}: cannot read: {e}")
        return

    decls = list(DECL_RE.finditer(text))
    member_to_class = {m.group(1): m.group(3) for m in decls}
    for m in decls:
        classes.setdefault(m.group(3), f"{rel}")

    # Attribute form: arguments are member names of the same class.
    for m in decls:
        cls = m.group(3)
        for am in ATTR_RE.finditer(m.group(2)):
            for arg in am.group(2).split(","):
                arg = arg.strip()
                if not arg:
                    continue
                other = member_to_class.get(arg)
                if other is None:
                    errors.append(
                        f"{rel}: ACQUIRED_{am.group(1)}({arg}) on "
                        f"\"{cls}\" names a member with no named-lock "
                        "declaration in this file")
                    continue
                edge = (cls, other) if am.group(1) == "BEFORE" \
                    else (other, cls)
                edges.setdefault(edge, f"{rel} (attribute)")

    # Comment form: binds to the next declaration below it.
    for cm in COMMENT_RE.finditer(text):
        nxt = next((d for d in decls if d.start() > cm.start()), None)
        if nxt is None:
            errors.append(
                f"{rel}: // ACQUIRED_{cm.group(1)}(\"{cm.group(2)}\") "
                "has no named-lock declaration below it")
            continue
        cls = nxt.group(3)
        edge = (cls, cm.group(2)) if cm.group(1) == "BEFORE" \
            else (cm.group(2), cls)
        edges.setdefault(edge, f"{rel} (comment)")


def parse_tree(root):
    classes, edges, errors = {}, {}, []
    src = os.path.join(root, "src")
    for dirpath, _dirs, names in os.walk(src):
        for name in sorted(names):
            if not name.endswith((".hpp", ".cc", ".h", ".cpp")):
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            parse_file(path, rel, classes, edges, errors)
    return classes, edges, errors


def transitive_closure(edges):
    """Maps class -> set of classes declared to be acquired after it."""
    adj = {}
    for (a, b) in edges:
        adj.setdefault(a, set()).add(b)
    closure = {}
    for start in adj:
        seen, stack = set(), [start]
        while stack:
            for nxt in adj.get(stack.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        closure[start] = seen
    return closure


def find_cycle(edges):
    adj = {}
    for (a, b) in edges:
        adj.setdefault(a, set()).add(b)
    WHITE, GREY, BLACK = 0, 1, 2
    color = {n: WHITE for n in adj}
    path = []

    def visit(n):
        color[n] = GREY
        path.append(n)
        for nxt in sorted(adj.get(n, ())):
            if color.get(nxt, WHITE) == GREY:
                return path[path.index(nxt):] + [nxt]
            if color.get(nxt, WHITE) == WHITE:
                cyc = visit(nxt)
                if cyc:
                    return cyc
        path.pop()
        color[n] = BLACK
        return None

    for n in sorted(adj):
        if color[n] == WHITE:
            cyc = visit(n)
            if cyc:
                return cyc
    return None


def load_observed(path, ignore_prefixes):
    """Merges one dump file or a directory of lockdep.*.json dumps into
    {(src, dst): edge-dict-with-summed-count}."""
    if os.path.isdir(path):
        files = sorted(glob.glob(os.path.join(path, "lockdep.*.json")))
        if not files:
            print(f"lock_order_extract: no lockdep.*.json dumps in "
                  f"{path} (nothing observed is vacuously consistent)")
    elif os.path.isfile(path):
        files = [path]
    else:
        raise OSError(f"no such file or directory: {path}")

    merged = {}
    for fp in files:
        with open(fp, encoding="utf-8") as f:
            doc = json.load(f)
        for e in doc.get("edges", []):
            src, dst = e["src"], e["dst"]
            if any(src.startswith(p) or dst.startswith(p)
                   for p in ignore_prefixes):
                continue
            cur = merged.setdefault((src, dst), dict(e, count=0))
            cur["count"] += int(e.get("count", 1))
            cur["blocking"] = cur.get("blocking") or e.get("blocking")
    return merged


def main(argv):
    ap = argparse.ArgumentParser(
        prog="lock_order_extract.py",
        description="Declared-vs-observed lock-order gate (module "
                    "docstring / DESIGN.md §12).")
    ap.add_argument("--root", default=None,
                    help="repo root (default: parent of this script)")
    ap.add_argument("--check-dag", action="store_true",
                    help="validate the declared hierarchy only")
    ap.add_argument("--diff", metavar="PATH",
                    help="observed dump file, or directory of "
                         "lockdep.*.json dumps, to diff against the "
                         "declared hierarchy")
    ap.add_argument("--ignore-prefix", action="append", default=None,
                    metavar="PFX",
                    help="drop observed classes with this name prefix "
                         "(repeatable; default: test.)")
    ap.add_argument("--dump-declared", action="store_true",
                    help="print the declared classes and edges")
    args = ap.parse_args(argv)
    if not args.check_dag and not args.diff and not args.dump_declared:
        ap.error("nothing to do: pass --check-dag, --diff, or "
                 "--dump-declared")

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    classes, edges, errors = parse_tree(root)

    # Endpoint validation runs always: an edge naming a class nobody
    # declares is a stale annotation whatever mode we are in.
    for (a, b), where in sorted(edges.items()):
        for cls in (a, b):
            if cls not in classes:
                errors.append(
                    f"{where}: declared edge \"{a}\" -> \"{b}\" names "
                    f"\"{cls}\", which no named-lock declaration in "
                    "src/ registers")
    if errors:
        for e in errors:
            print(f"lock_order_extract: error: {e}", file=sys.stderr)
        return 2

    cyc = find_cycle(edges)
    if cyc:
        print("lock_order_extract: declared hierarchy is cyclic: "
              + " -> ".join(f'"{c}"' for c in cyc), file=sys.stderr)
        return 1

    if args.dump_declared or args.check_dag:
        print(f"declared lock classes ({len(classes)}):")
        for cls, where in sorted(classes.items()):
            print(f"  \"{cls}\"  [{where}]")
        print(f"declared order edges ({len(edges)}):")
        for (a, b), where in sorted(edges.items()):
            print(f"  \"{a}\" -> \"{b}\"  [{where}]")
        if args.check_dag and not args.diff:
            print("lock_order_extract: declared hierarchy OK (acyclic, "
                  "all endpoints declared)")
            return 0

    if args.diff:
        prefixes = args.ignore_prefix or ["test."]
        try:
            observed = load_observed(args.diff, prefixes)
        except (OSError, json.JSONDecodeError, KeyError) as e:
            print(f"lock_order_extract: cannot load observed dumps: "
                  f"{e}", file=sys.stderr)
            return 2
        closure = transitive_closure(edges)
        bad = []
        for (src, dst), e in sorted(observed.items()):
            if src == dst:
                bad.append((src, dst, e, "self-edge (recursive "
                            "acquisition of one class)"))
            elif dst in closure.get(src, ()):
                continue
            elif src in closure.get(dst, ()):
                bad.append((src, dst, e,
                            f"INVERTS the declared order \"{dst}\" -> "
                            f"\"{src}\""))
            else:
                bad.append((src, dst, e, "undeclared: no declared "
                            "path covers this nesting"))
        for src, dst, e, why in bad:
            kind = "blocking" if e.get("blocking") else "try-only"
            print(f"lock_order_extract: observed edge \"{src}\" -> "
                  f"\"{dst}\" (count {e['count']}, {kind}): {why}")
        if bad:
            print(f"lock_order_extract: {len(bad)} observed edge(s) "
                  "violate the declared hierarchy — either fix the "
                  "nesting or extend the ACQUIRED_BEFORE declarations",
                  file=sys.stderr)
            return 1
        print(f"lock_order_extract: observed graph consistent with the "
              f"declared hierarchy ({len(observed)} edge(s) checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
