#!/usr/bin/env python3
"""Layering lint: enforce the module dependency DAG over #include edges.

The architecture docs (docs/ARCHITECTURE.md) promise a strict module
DAG — `common/` depends on nothing, `net/` never reaches into `core/`,
and so on. The build system encodes the same DAG as target_link_libraries
edges, but nothing stops a stray `#include "core/..."` inside `net/` from
compiling anyway (headers are all on one include path). This linter makes
the DAG real:

  1. Every `#include "mod/..."` in src/<mod>/ must point at <mod> itself
     or one of its *declared direct dependencies* (ALLOWED_DEPS below).
  2. ALLOWED_DEPS is cross-checked against the target_link_libraries
     edges parsed out of src/*/CMakeLists.txt, so the linter's DAG, the
     build's DAG, and the documented DAG cannot drift apart silently.

Usage:
  tools/lint_layering.py [--root REPO_ROOT]   # lint src/, exit 1 on error
  tools/lint_layering.py --self-test          # synthetic violating tree

Exit codes: 0 clean, 1 violations found, 2 internal/config error.
"""

import argparse
import os
import re
import sys
import tempfile

# Module -> direct dependencies a file in src/<module>/ may include from.
# This is the single source of truth for the linter; it must match the
# target_link_libraries edges in src/<module>/CMakeLists.txt (checked at
# runtime) and the diagram in docs/ARCHITECTURE.md (checked by review).
ALLOWED_DEPS = {
    "common": set(),
    "telemetry": {"common"},
    "series": {"common"},
    "sax": {"common", "series"},
    "trie": {"common", "series"},
    "distance": {"common", "series"},
    "ldp": {"common"},
    "patternldp": {"common", "ldp", "series"},
    "eval": {"common", "distance", "series"},
    "protocol": {"common", "distance", "ldp", "series"},
    "core": {
        "common", "distance", "eval", "ldp", "protocol", "sax", "series",
        "trie",
    },
    "net": {"common", "protocol", "series", "telemetry"},
    "collector": {
        "common", "core", "distance", "net", "protocol", "series",
        "telemetry",
    },
}

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')
LINK_RE = re.compile(
    r"target_link_libraries\s*\(\s*privshape_(\w+)([^)]*)\)",
    re.DOTALL,
)
SOURCE_EXTS = (".h", ".cc")
# Build junk that can sneak into a source dir (in-source cmake runs).
SKIP_DIRS = {"CMakeFiles"}


def list_source_files(src_root):
    for module in sorted(os.listdir(src_root)):
        mod_dir = os.path.join(src_root, module)
        if not os.path.isdir(mod_dir):
            continue
        for dirpath, dirnames, filenames in os.walk(mod_dir):
            dirnames[:] = [d for d in dirnames if d not in SKIP_DIRS]
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTS):
                    yield module, os.path.join(dirpath, name)


def lint_file(module, path, allowed, errors):
    """Appends one error string per violating include in `path`."""
    mod_allowed = allowed[module] | {module}
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            lines = f.readlines()
    except OSError as e:
        errors.append(f"{path}: unreadable: {e}")
        return
    for lineno, line in enumerate(lines, start=1):
        m = INCLUDE_RE.match(line)
        if not m:
            continue
        target = m.group(1).split("/", 1)[0]
        if target in allowed and target not in mod_allowed:
            errors.append(
                f"{path}:{lineno}: module '{module}' must not include "
                f'"{m.group(1)}" — \'{target}\' is not a declared '
                f"dependency (allowed: "
                f"{', '.join(sorted(mod_allowed - {module})) or 'none'})"
            )


def cmake_edges(src_root, modules):
    """target_link_libraries edges per module from src/*/CMakeLists.txt."""
    edges = {}
    for module in modules:
        cml = os.path.join(src_root, module, "CMakeLists.txt")
        if not os.path.isfile(cml):
            continue
        with open(cml, encoding="utf-8") as f:
            text = f.read()
        deps = set()
        for target, body in LINK_RE.findall(text):
            if target != module:
                continue  # edges of executables in the same dir
            deps |= {
                dep for dep in re.findall(r"privshape_(\w+)", body)
                if dep in modules and dep != module
            }
        edges[module] = deps
    return edges


def check_cmake_consistency(src_root, errors):
    edges = cmake_edges(src_root, set(ALLOWED_DEPS))
    for module, deps in sorted(edges.items()):
        declared = ALLOWED_DEPS[module] - {"build_flags"}
        if deps != declared:
            extra = deps - declared
            missing = declared - deps
            detail = []
            if extra:
                detail.append(f"CMake links {sorted(extra)} not in linter DAG")
            if missing:
                detail.append(
                    f"linter DAG allows {sorted(missing)} not linked in CMake"
                )
            errors.append(
                f"src/{module}/CMakeLists.txt: dependency drift — "
                + "; ".join(detail)
                + " (update ALLOWED_DEPS in tools/lint_layering.py, the "
                "CMake edges, and docs/ARCHITECTURE.md together)"
            )


def run_lint(root):
    src_root = os.path.join(root, "src")
    if not os.path.isdir(src_root):
        print(f"lint_layering: no src/ under {root}", file=sys.stderr)
        return 2
    errors = []
    check_cmake_consistency(src_root, errors)
    seen_modules = set()
    for module, path in list_source_files(src_root):
        if module not in ALLOWED_DEPS:
            errors.append(
                f"{path}: unknown module 'src/{module}/' — add it to "
                "ALLOWED_DEPS in tools/lint_layering.py"
            )
            continue
        seen_modules.add(module)
        lint_file(module, path, ALLOWED_DEPS, errors)
    for module in sorted(set(ALLOWED_DEPS) - seen_modules):
        errors.append(
            f"lint_layering: module '{module}' is in ALLOWED_DEPS but has "
            f"no sources under src/ — stale entry?"
        )
    if errors:
        for e in errors:
            print(e)
        print(f"lint_layering: {len(errors)} violation(s)")
        return 1
    print(
        f"lint_layering: OK — {len(seen_modules)} modules, DAG consistent "
        "with CMake edges, no illegal includes"
    )
    return 0


def self_test():
    """Builds a synthetic tree with known violations and asserts on them."""
    failures = []

    def expect(cond, what):
        if not cond:
            failures.append(what)

    with tempfile.TemporaryDirectory(prefix="lint_layering_") as tmp:
        src = os.path.join(tmp, "src")
        cases = {
            # Clean module: own include + declared dep.
            "series/ok.h": '#include "series/other.h"\n'
                           '#include "common/status.h"\n',
            # Violation: common reaching up into telemetry.
            "common/bad_up.cc": '#include "telemetry/telemetry.h"\n',
            # Violation: net reaching into core (transitive-only dep).
            "net/bad_core.cc": '#include "core/config.h"\n',
            # Not a violation: angle includes and non-module quotes.
            "common/ok.cc": "#include <vector>\n"
                            '#include "common/status.h"\n',
            # Violation on a later line, to check line numbers.
            "ldp/bad_line3.h": "#pragma once\n"
                               '#include "common/status.h"\n'
                               '#include "eval/ari.h"\n',
        }
        for rel, content in cases.items():
            path = os.path.join(src, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(content)
        # Minimal consistent CMakeLists for the modules present.
        for module in {rel.split("/", 1)[0] for rel in cases}:
            deps = " ".join(
                f"privshape_{d}" for d in sorted(ALLOWED_DEPS[module])
            )
            link = (
                f"target_link_libraries(privshape_{module} PUBLIC {deps})\n"
                if deps else ""
            )
            cml = os.path.join(src, module, "CMakeLists.txt")
            with open(cml, "w", encoding="utf-8") as f:
                f.write(f"add_library(privshape_{module} x.cc)\n{link}")

        errors = []
        check_cmake_consistency(src, errors)
        # Modules with no sources in the synthetic tree are reported by
        # run_lint, not by the consistency check.
        expect(not errors, f"consistency check flagged clean tree: {errors}")

        errors = []
        for module, path in list_source_files(src):
            if module in ALLOWED_DEPS:
                lint_file(module, path, ALLOWED_DEPS, errors)
        expect(len(errors) == 3, f"expected 3 violations, got: {errors}")
        joined = "\n".join(errors)
        expect("bad_up.cc:1" in joined, "common->telemetry not flagged")
        expect("bad_core.cc:1" in joined, "net->core not flagged")
        expect("bad_line3.h:3" in joined, "line number wrong for ldp->eval")
        expect("ok.h" not in joined, "clean series file flagged")
        expect("ok.cc" not in joined, "clean common file flagged")

        # Drift detection: give 'series' an undeclared CMake edge.
        with open(os.path.join(src, "series", "CMakeLists.txt"), "a",
                  encoding="utf-8") as f:
            f.write("target_link_libraries(privshape_series PUBLIC "
                    "privshape_ldp)\n")
        errors = []
        check_cmake_consistency(src, errors)
        expect(
            any("dependency drift" in e and "series" in e for e in errors),
            f"CMake drift not detected: {errors}",
        )

    if failures:
        for f in failures:
            print(f"SELF-TEST FAIL: {f}")
        return 1
    print("lint_layering: self-test OK")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: parent of tools/)",
    )
    parser.add_argument(
        "--self-test", action="store_true",
        help="run the synthetic-tree self-test instead of linting",
    )
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    return run_lint(args.root)


if __name__ == "__main__":
    sys.exit(main())
