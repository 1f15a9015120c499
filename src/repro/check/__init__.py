"""Project-specific static analysis + runtime sanitizers.

Two halves of one correctness net:

- **Static**: an AST rule engine (:mod:`repro.check.engine`) with the
  per-node DiVE rules S001–S011, S015 and S016 (:mod:`repro.check.rules`:
  seeded RNG discipline, perf_counter-only hot paths, explicit codec
  dtypes, QP bounds, bits-vs-bytes hygiene, hoisted metric instruments,
  batched-only edge calls from fleet code, ...) plus a semantic layer — a project
  symbol table (:mod:`repro.check.symbols`), call graph
  (:mod:`repro.check.callgraph`) and intraprocedural dataflow pass
  (:mod:`repro.check.dataflow`) powering S012 lock discipline
  (:mod:`repro.check.concurrency`), S013 unit flow
  (:mod:`repro.check.units`) and S014 wrapped entropy
  (:mod:`repro.check.determinism`).  Run it as ``repro lint [--format
  json] [paths]``; suppress inline with ``# repro: noqa[S001]``.
- **Runtime**: an opt-in array sanitizer (:mod:`repro.check.sanitize`,
  ``run_scheme(sanitizer=ArraySanitizer())`` / ``repro demo --sanitize``)
  asserting finiteness, dtype and macroblock alignment at stage
  boundaries.

See the "Static analysis & sanitizer" sections of README.md / API.md.
"""

from repro.check.callgraph import CallGraph, CallSite, build_callgraph, describe_chain
from repro.check.dataflow import TaintModel, run_dataflow
from repro.check.engine import (
    CheckResult,
    Finding,
    ModuleContext,
    Rule,
    all_rules,
    check_file,
    check_paths,
    check_source,
    register,
)
from repro.check.report import render_json, render_text, rule_table
from repro.check.sanitize import NULL_SANITIZER, ArraySanitizer, NullSanitizer, SanitizeError
from repro.check.symbols import ProjectModel, build_project

__all__ = [
    "ArraySanitizer",
    "CallGraph",
    "CallSite",
    "CheckResult",
    "Finding",
    "ModuleContext",
    "NULL_SANITIZER",
    "NullSanitizer",
    "ProjectModel",
    "Rule",
    "SanitizeError",
    "TaintModel",
    "all_rules",
    "build_callgraph",
    "build_project",
    "check_file",
    "check_paths",
    "check_source",
    "describe_chain",
    "register",
    "render_json",
    "render_text",
    "rule_table",
    "run_dataflow",
]
