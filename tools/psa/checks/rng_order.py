"""Check: the canonical RNG consumption order (PR 9's contract).

Engine words may only be consumed through the blessed batched helpers
(LazyMt64::FillU64 / Rng::FillU64) or through functions that are
themselves annotated as canonical (PS_RNG_CANONICAL / PS_RNG_WORDS).

Rules enforced:

  R1  Inside a PS_REPORT_PATH or PS_RNG_WORDS function, raw draws are
      errors: std::*_distribution / mt19937 / rand, the Rng convenience
      methods (Uniform, Index, Discrete, ...), and direct engine()
      access. PS_RNG_CANONICAL bodies are exempt from the Rng-method
      ban — they are where a canonical order is *defined* — but never
      from the std::* ban (all draws go through common/rng.h).

  R2  A function declaring PS_RNG_WORDS(<integer n>) must consume
      exactly n words on its straight-line path: FillU64 literal counts
      plus the declared counts of annotated callees must sum to n, with
      no site inside a branch or loop and no unresolvable site.

  R3  Declaration and definition of the same function must carry the
      same PS_RNG_WORDS expression.

  R4  Closure: in the configured report-path surface (all of src/ldp
      and src/protocol, plus the Algorithm-2 files in src/core), any
      function that consumes randomness must carry one of the markers —
      new draw sites cannot appear unaudited.
"""

from .. import annotations
from .. import ir

CHECK_ID = "psa-rng-order"
DESCRIPTION = ("engine words are consumed only through blessed batched "
               "helpers, with PS_RNG_WORDS counts proven against the "
               "call graph")

# The closure surface for R4: every randomness-consuming function here
# must be annotated. Whole modules, plus the core files that implement
# the per-user report logic (population/pem/baseline are server-side
# orchestration and stay outside).
CLOSURE_MODULES = {"ldp", "protocol"}
CLOSURE_FILES = {
    "src/core/rounds.cc",
    "src/core/em_selection.cc",
    "src/core/subshape.cc",
}

# common/rng.h IS the randomness layer; the canonical-order rules are
# about its consumers.
EXEMPT_FILES = {"src/common/rng.h", "src/common/rng.cc"}


def _in_closure(path):
    parts = path.split("/")
    module = parts[1] if len(parts) >= 3 and parts[0] == "src" else None
    return module in CLOSURE_MODULES or path in CLOSURE_FILES


def run(files, registry):
    findings = list(registry.problems)
    annotated = {}  # qualified -> [Function, ...] (decl + def)
    for fn in registry.functions:
        annotated.setdefault(fn.qualified, []).append(fn)

    # R3: decl/def word-count agreement.
    for qualified, fns in sorted(annotated.items()):
        exprs = {(f.declared_words or "").replace(" ", "")
                 for f in fns if f.declared_words is not None}
        if len(exprs) > 1:
            fn = fns[-1]
            findings.append(ir.Finding(
                CHECK_ID, fn.path, fn.line,
                f"{qualified}: PS_RNG_WORDS disagrees between declaration "
                f"and definition ({', '.join(sorted(exprs))})"))

    # R1 + R2 over annotated definitions.
    for fn in registry.functions:
        if fn.body is None:
            continue
        sites = annotations.scan_sites(fn, registry)
        canonical = fn.is_canonical()
        for site in sites:
            if site.kind == "std-random":
                findings.append(ir.Finding(
                    CHECK_ID, fn.path, site.line,
                    f"{fn.qualified}: raw std randomness "
                    f"('{site.detail}') — all draws go through "
                    "common/rng.h helpers"))
            elif site.kind == "raw" and not canonical:
                findings.append(ir.Finding(
                    CHECK_ID, fn.path, site.line,
                    f"{fn.qualified}: raw Rng draw {site.detail} on the "
                    "report path — consume words via FillU64 or an "
                    "annotated canonical helper"))
            elif site.kind == "engine" and not canonical:
                findings.append(ir.Finding(
                    CHECK_ID, fn.path, site.line,
                    f"{fn.qualified}: direct engine() access on the "
                    "report path"))
            elif site.kind == "call" and site.callee is None:
                findings.append(ir.Finding(
                    CHECK_ID, fn.path, site.line,
                    f"{fn.qualified}: cannot resolve which annotated "
                    f"'{site.detail}' overload is called — qualify the "
                    "call or name the receiver after its class"))

        n = fn.numeric_words
        if n is not None:
            findings.extend(_check_fixed_count(fn, sites, n))
    findings.extend(_closure(files, registry))
    return findings


def _check_fixed_count(fn, sites, declared):
    """R2: straight-line word total must equal the declared count."""
    findings = []
    total = 0
    ok = True
    for site in sites:
        if site.kind in ("raw", "engine", "std-random"):
            ok = False  # already reported by R1; count is unprovable
            continue
        if site.in_branch:
            findings.append(ir.Finding(
                CHECK_ID, fn.path, site.line,
                f"{fn.qualified}: PS_RNG_WORDS({declared}) but a "
                f"consumption site ({site.detail}) sits inside a "
                "branch/loop — a fixed word count needs straight-line "
                "consumption"))
            ok = False
            continue
        if site.kind == "fill":
            if site.words is None:
                findings.append(ir.Finding(
                    CHECK_ID, fn.path, site.line,
                    f"{fn.qualified}: PS_RNG_WORDS({declared}) but the "
                    "FillU64 count is not an integer literal"))
                ok = False
            else:
                total += site.words
        elif site.kind == "call":
            if site.callee is None:
                ok = False  # unresolved-callee finding already emitted
            elif site.callee.numeric_words is None:
                findings.append(ir.Finding(
                    CHECK_ID, fn.path, site.line,
                    f"{fn.qualified}: PS_RNG_WORDS({declared}) but callee "
                    f"{site.callee.qualified} declares a symbolic word "
                    "count — the fixed contract cannot be proven"))
                ok = False
            else:
                total += site.callee.numeric_words
    if ok and total != declared:
        findings.append(ir.Finding(
            CHECK_ID, fn.path, fn.line,
            f"{fn.qualified}: declares PS_RNG_WORDS({declared}) but the "
            f"call graph consumes {total} word(s)"))
    return findings


def _closure(files, registry):
    """R4: unannotated randomness consumers on the closure surface."""
    findings = []
    annotated_spans = {}  # path -> [(start, end)]
    for fn in registry.functions:
        if fn.body is not None:
            annotated_spans.setdefault(fn.path, []).append(fn.body)
    for src in files:
        if not _in_closure(src.path) or src.path in EXEMPT_FILES:
            continue
        spans = annotated_spans.get(src.path, [])
        probe = annotations.Function(
            name="<file>", qualified="<file>", cls="", path=src.path,
            line=1, annotations=[], params="",
            body=(0, len(src.tokens)), src=src)
        for site in annotations.scan_sites(probe, registry):
            if site.kind == "call":
                continue  # calling an annotated helper is always fine
            covered = any(start <= site.idx < end for start, end in spans)
            if not covered:
                findings.append(ir.Finding(
                    CHECK_ID, src.path, site.line,
                    f"randomness consumed ({site.detail}) outside any "
                    "PS_REPORT_PATH / PS_RNG_CANONICAL / PS_RNG_WORDS "
                    "function — annotate the enclosing function so the "
                    "draw order is audited"))
        findings.extend(_marker_include_check(src))
    return findings


def _marker_include_check(src):
    """Files using markers must include the annotations header."""
    uses = any(t.kind == ir.IDENT and t.text in annotations.MARKERS
               for t in src.tokens)
    if not uses or src.path == "src/common/analysis_annotations.h":
        return []
    has_include = any(inc == "common/analysis_annotations.h"
                      for _, inc in src.includes)
    # Headers of the same file pair count: foo.cc including foo.h that
    # includes the marker header is the normal layout; only require the
    # direct include in headers.
    if has_include or src.path.endswith(".cc"):
        return []
    return [ir.Finding(
        CHECK_ID, src.path, 1,
        "uses PS_* contract markers without including "
        '"common/analysis_annotations.h"')]
