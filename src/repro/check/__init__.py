"""Project-specific static analysis.

An AST rule engine (:mod:`repro.check.engine`) running three per-module
rules in one walk of each module — S001 uncontrolled entropy and S011
loop-constant codec allocations (:mod:`repro.check.rules`), and S012 lock
discipline (:mod:`repro.check.concurrency`).  Each rule is kept because it found a
real bug in this tree.  Run it as ``repro lint [--format json]
[paths]``; suppress inline with ``# repro: noqa[S001]``.

The arrays themselves are checked where they enter the codec, always:
:meth:`repro.codec.VideoEncoder.encode` and
:meth:`repro.codec.VideoDecoder.decode` raise a ``ValueError`` naming the
argument.  See the "Static analysis" sections of README.md / API.md.
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

__all__ = [
    "CheckResult",
    "Finding",
    "ModuleContext",
    "Rule",
    "all_rules",
    "check_file",
    "check_paths",
    "check_source",
    "register",
    "render_json",
    "render_text",
    "rule_table",
]
