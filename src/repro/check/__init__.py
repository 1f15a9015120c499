"""Project-specific static analysis + runtime sanitizers.

Two halves of one correctness net:

- **Static**: an AST rule engine (:mod:`repro.check.engine`) running four
  per-module rules in one walk of each module — S001 uncontrolled
  entropy, S003 dtype-less codec allocations and S011 loop-constant codec
  allocations (:mod:`repro.check.rules`), and S012 lock discipline
  (:mod:`repro.check.concurrency`).  Each rule is kept because it found a
  real bug in this tree.  Run it as ``repro lint [--format json]
  [paths]``; suppress inline with ``# repro: noqa[S001]``.
- **Runtime**: an opt-in array sanitizer (:mod:`repro.check.sanitize`,
  ``run_scheme(sanitizer=ArraySanitizer())`` / ``repro demo --sanitize``)
  asserting finiteness, dtype and macroblock alignment at stage
  boundaries.

See the "Static analysis & sanitizer" sections of README.md / API.md.
"""

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

__all__ = [
    "ArraySanitizer",
    "CheckResult",
    "Finding",
    "ModuleContext",
    "NULL_SANITIZER",
    "NullSanitizer",
    "Rule",
    "SanitizeError",
    "all_rules",
    "check_file",
    "check_paths",
    "check_source",
    "register",
    "render_json",
    "render_text",
    "rule_table",
]
