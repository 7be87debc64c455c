"""Standard pass pipelines, including the ablation variants of Section 7.

``lower`` is the minimal correct path to a structural program. ``all``
adds every optimization (the evaluation's default configuration). The
ablations toggle individual optimizations for Figures 7 and 9.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import PassError
from repro.ir.ast import Program
from repro.passes.base import PassManager

_FRONT = ["well-formed", "compile-repeat", "collapse-control"]
_BACK = [
    "compile-invoke",
    "go-insertion",
    "compile-control",
    "dead-group-removal",
    "remove-groups",
    "guard-simplify",
    "dead-cell-removal",
]
_BACK_STATIC = [
    "compile-invoke",
    "go-insertion",
    "static-compile",
    "compile-control",
    "dead-group-removal",
    "remove-groups",
    "guard-simplify",
    "dead-cell-removal",
]

PIPELINES: Dict[str, List[str]] = {
    # Minimal lowering: no optimizations, latency-insensitive FSMs only.
    "lower": _FRONT + _BACK,
    # Lowering with the Sensitive pass (latency-sensitive where possible);
    # latency inference supplies the static attributes (Section 5.3).
    "lower-static": _FRONT + ["infer-latency"] + _BACK_STATIC,
    # Everything on: both sharing passes + inference + Sensitive.
    "all": _FRONT
    + ["resource-sharing", "register-sharing", "infer-latency"]
    + _BACK_STATIC,
    # Ablations for Figure 9a/9b: exactly one sharing pass enabled.
    "resource-share-only": _FRONT + ["resource-sharing", "infer-latency"] + _BACK_STATIC,
    "register-share-only": _FRONT + ["register-sharing", "infer-latency"] + _BACK_STATIC,
    # Figure 9c: sharing on, Sensitive off/on.
    "no-static": _FRONT + ["resource-sharing", "register-sharing"] + _BACK,
    # Section 9 extension: cost-model-guided sharing instead of greedy.
    "heuristic-share": _FRONT
    + ["resource-sharing-heuristic", "register-sharing", "infer-latency"]
    + _BACK_STATIC,
    # Pure structural check without lowering control.
    "validate": ["well-formed"],
}


def lower_pipeline(
    static: bool = True,
    resource_share: bool = False,
    register_share: bool = False,
) -> List[str]:
    """Compose a pipeline from feature flags (used by the evaluation)."""
    passes = list(_FRONT)
    if resource_share:
        passes.append("resource-sharing")
    if register_share:
        passes.append("register-sharing")
    if static:
        passes.append("infer-latency")
        passes += _BACK_STATIC
    else:
        passes += _BACK
    return passes


def resolve_pipeline(
    pipeline: str = "all", passes: Optional[List[str]] = None
) -> List[str]:
    """The pass list for a named pipeline (or an explicit pass list)."""
    if passes is not None:
        return list(passes)
    if pipeline not in PIPELINES:
        raise PassError(
            f"unknown pipeline {pipeline!r}; available: "
            f"{', '.join(sorted(PIPELINES))}"
        )
    return list(PIPELINES[pipeline])


def make_pass_manager(
    pipeline: str = "all",
    passes: Optional[List[str]] = None,
    checked: bool = False,
    keep_going: bool = False,
    lint: bool = False,
) -> PassManager:
    """Build a (possibly checked) pass manager for a pipeline."""
    names = resolve_pipeline(pipeline, passes)
    if checked or keep_going or lint:
        from repro.robustness.checked import CheckedPassManager

        return CheckedPassManager(names, keep_going=keep_going, lint=lint)
    return PassManager(names)


def compile_program(
    program: Program,
    pipeline: str = "all",
    passes: Optional[List[str]] = None,
    checked: bool = False,
    keep_going: bool = False,
    lint: bool = False,
) -> Program:
    """Run a named pipeline (or explicit pass list) on ``program`` in place.

    With ``checked`` the IR is re-validated after every pass and failures
    surface as :class:`~repro.errors.PassDiagnostic`; ``keep_going``
    additionally rolls back and skips a failing pass instead of aborting.
    ``lint`` opts into running the full lint rule set between passes, so
    a pass that introduces (say) a combinational cycle or a wrong
    ``"static"`` claim is named immediately.
    """
    make_pass_manager(pipeline, passes, checked, keep_going, lint).run(program)
    return program
