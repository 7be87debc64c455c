"""Semantic lint rules: guard logic, latency claims, reachability.

These are *not* core: they flag likely mistakes rather than definite
ill-formedness, so ``validate_program`` never runs them. The guard rules
reason by exhaustive enumeration over the guard's atomic predicates
treated as independent booleans; since the feasible valuations are a
subset of all independent valuations, a "always true"/"never true"
verdict is sound (though incomplete — correlated atoms like ``x == 1``
and ``x == 2`` may hide additional contradictions).
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional, Set, Tuple

from repro.analysis.latency import control_latency, structural_group_latency
from repro.ir.ast import ConstPort
from repro.ir.attributes import STATIC
from repro.ir.control import If, Repeat, While
from repro.ir.guards import (
    CMP_FNS,
    AndGuard,
    CmpGuard,
    Guard,
    NotGuard,
    OrGuard,
    PortGuard,
    TrueGuard,
)
from repro.ir.ports import HolePort
from repro.lint.context import ComponentView
from repro.lint.diagnostics import ERROR, WARNING, LintReport
from repro.lint.registry import LintRule, register_rule

#: Skip truth-table enumeration beyond this many distinct atoms (2^N evals).
MAX_GUARD_ATOMS = 10


# -- guard truth-table analysis -------------------------------------------

Atom = Tuple  # canonical hashable key for one atomic predicate


def _cmp_atom(guard: CmpGuard) -> Tuple[Optional[Atom], bool, Optional[bool]]:
    """Canonicalize a comparison into ``(atom, polarity, constant)``.

    ``constant`` is the folded value when both operands are constants
    (``atom`` is then None). Canonical forms: ``==`` with operands sorted
    (``!=`` is its negation), and ``<`` directed (``>``/``<=``/``>=`` are
    swaps and negations), so complementary spellings share one atom.
    """
    left, right = guard.left, guard.right
    if isinstance(left, ConstPort) and isinstance(right, ConstPort):
        return None, True, CMP_FNS[guard.op](left.value, right.value)
    lkey, rkey = left.to_string(), right.to_string()
    if guard.op in ("==", "!="):
        atom = ("eq",) + tuple(sorted((lkey, rkey)))
        return atom, guard.op == "==", None
    if guard.op == "<":
        return ("lt", lkey, rkey), True, None
    if guard.op == ">":
        return ("lt", rkey, lkey), True, None
    if guard.op == ">=":
        return ("lt", lkey, rkey), False, None
    # "<=" : not (right < left)
    return ("lt", rkey, lkey), False, None


def _guard_atoms(guard: Guard, atoms: Set[Atom]) -> None:
    if isinstance(guard, TrueGuard):
        return
    if isinstance(guard, PortGuard):
        if not isinstance(guard.port, ConstPort):
            atoms.add(("port", guard.port.to_string()))
        return
    if isinstance(guard, CmpGuard):
        atom, _, _ = _cmp_atom(guard)
        if atom is not None:
            atoms.add(atom)
        return
    if isinstance(guard, NotGuard):
        _guard_atoms(guard.inner, atoms)
        return
    if isinstance(guard, (AndGuard, OrGuard)):
        _guard_atoms(guard.left, atoms)
        _guard_atoms(guard.right, atoms)


def _eval_guard(guard: Guard, env: Dict[Atom, bool]) -> bool:
    if isinstance(guard, TrueGuard):
        return True
    if isinstance(guard, PortGuard):
        if isinstance(guard.port, ConstPort):
            return bool(guard.port.value & 1)
        return env[("port", guard.port.to_string())]
    if isinstance(guard, CmpGuard):
        atom, polarity, constant = _cmp_atom(guard)
        if atom is None:
            return bool(constant)
        value = env[atom]
        return value if polarity else not value
    if isinstance(guard, NotGuard):
        return not _eval_guard(guard.inner, env)
    if isinstance(guard, AndGuard):
        return _eval_guard(guard.left, env) and _eval_guard(guard.right, env)
    if isinstance(guard, OrGuard):
        return _eval_guard(guard.left, env) or _eval_guard(guard.right, env)
    raise TypeError(f"unknown guard kind: {guard!r}")


def classify_guard(guard: Guard) -> Optional[str]:
    """``"tautology"``, ``"contradiction"``, or None (contingent/unknown).

    Unconditional (:class:`TrueGuard`) and atom-free guards are skipped:
    a bare ``1`` is normal style, and ``!1`` is the printer's deliberate
    never-guard. Guards with too many atoms are skipped rather than
    sampled, so a verdict is always sound.
    """
    if isinstance(guard, TrueGuard):
        return None
    atoms: Set[Atom] = set()
    _guard_atoms(guard, atoms)
    if not atoms or len(atoms) > MAX_GUARD_ATOMS:
        return None
    ordered = sorted(atoms)
    always = never = True
    for values in itertools.product((False, True), repeat=len(ordered)):
        result = _eval_guard(guard, dict(zip(ordered, values)))
        always = always and result
        never = never and not result
        if not always and not never:
            return None
    if always:
        return "tautology"
    return "contradiction" if never else None


@register_rule
class GuardLogicRule(LintRule):
    id = "guard-tautology"
    ids = ("guard-tautology", "guard-contradiction")
    severity = WARNING
    description = "a guard is always true (redundant) or never true (dead)"

    def check_component(self, view: ComponentView, report: LintReport) -> None:
        comp = view.comp
        for group, assign in comp.all_assignments():
            verdict = classify_guard(assign.guard)
            if verdict is None:
                continue
            group_name = group.name if group is not None else None
            if verdict == "tautology":
                report.add(
                    self.diag(
                        f"guard `{assign.guard.to_string()}` is always "
                        f"true; write an unconditional assignment",
                        component=comp.name,
                        group=group_name,
                        span=assign.span,
                        rule="guard-tautology",
                    )
                )
            else:
                report.add(
                    self.diag(
                        f"guard `{assign.guard.to_string()}` can never be "
                        f"true; assignment {assign.to_string()} is dead",
                        component=comp.name,
                        group=group_name,
                        span=assign.span,
                        rule="guard-contradiction",
                    )
                )


# -- latency claims --------------------------------------------------------


@register_rule
class StaticLatencyRule(LintRule):
    id = "static-latency-mismatch"
    severity = ERROR
    description = 'a "static" attribute contradicts inferable latency'

    def check_component(self, view: ComponentView, report: LintReport) -> None:
        comp = view.comp
        program = view.program
        for group in comp.groups.values():
            declared = group.attributes.get(STATIC)
            if declared is None or group.comb:
                continue
            inferred = structural_group_latency(program, comp, group)
            if inferred is not None and inferred != declared:
                report.add(
                    self.diag(
                        f"group {group.name!r} declares \"static\"="
                        f"{declared} but its structure implies latency "
                        f"{inferred}",
                        component=comp.name,
                        group=group.name,
                        span=group.span,
                    )
                )
        declared = comp.attributes.get(STATIC)
        if declared is not None:
            inferred = control_latency(program, comp, comp.control)
            if inferred is not None and inferred > 0 and inferred != declared:
                report.add(
                    self.diag(
                        f"component {comp.name!r} declares \"static\"="
                        f"{declared} but its control implies latency "
                        f"{inferred}",
                        component=comp.name,
                        span=comp.span,
                    )
                )


# -- reachability ----------------------------------------------------------


def _live_groups(comp) -> Set[str]:
    """Groups reachable from the control tree through hole references.

    This is the same closure dead-group-removal computes, reimplemented
    here so the linter never imports the pass layer.
    """
    live: Set[str] = set()
    worklist = list(comp.control.enabled_groups())
    while worklist:
        name = worklist.pop()
        if name in live or name not in comp.groups:
            continue
        live.add(name)
        for assign in comp.groups[name].assignments:
            for ref in assign.ports():
                if isinstance(ref, HolePort) and ref.group != name:
                    worklist.append(ref.group)
    return live


@register_rule
class NeverEnabledGroupRule(LintRule):
    id = "never-enabled-group"
    severity = WARNING
    description = "a group is unreachable from the control tree"

    def check_component(self, view: ComponentView, report: LintReport) -> None:
        comp = view.comp
        if comp.control.is_empty():
            # Post-lowering (or structurally driven) components run on
            # wires alone; absence from an empty control tree means nothing.
            return
        live = _live_groups(comp)
        for group in comp.groups.values():
            if group.name not in live:
                report.add(
                    self.diag(
                        f"group {group.name!r} is never enabled by the "
                        f"control tree (dead-group-removal would drop it)",
                        component=comp.name,
                        group=group.name,
                        span=group.span,
                    )
                )


@register_rule
class UnreachableControlRule(LintRule):
    id = "unreachable-control"
    severity = WARNING
    description = "control with constant conditions or zero repeat counts"

    def check_component(self, view: ComponentView, report: LintReport) -> None:
        comp = view.comp
        for node in comp.control.walk():
            if isinstance(node, Repeat):
                if node.times == 0 and not node.body.is_empty():
                    report.add(
                        self.diag(
                            "repeat 0 body never runs",
                            component=comp.name,
                            span=node.span,
                        )
                    )
            elif isinstance(node, If) and isinstance(node.port, ConstPort):
                taken = "true" if node.port.value & 1 else "false"
                report.add(
                    self.diag(
                        f"if condition is the constant "
                        f"{node.port.to_string()}; only the {taken} branch "
                        f"can run",
                        component=comp.name,
                        span=node.span,
                    )
                )
            elif isinstance(node, While) and isinstance(node.port, ConstPort):
                detail = (
                    "body never runs"
                    if not (node.port.value & 1)
                    else "loop never terminates"
                )
                report.add(
                    self.diag(
                        f"while condition is the constant "
                        f"{node.port.to_string()}; {detail}",
                        component=comp.name,
                        span=node.span,
                    )
                )


@register_rule
class DeadComponentRule(LintRule):
    id = "dead-component"
    severity = WARNING
    description = "a component is never instantiated and is not the entrypoint"

    def check_program(self, program, report: LintReport) -> None:
        instantiated: Set[str] = set()
        for comp in program.components:
            for cell in comp.cells.values():
                instantiated.add(cell.comp_name)
        for extern in program.externs:
            for comp in extern.components:
                for cell in comp.cells.values():
                    instantiated.add(cell.comp_name)
        for comp in program.components:
            if comp.name == program.entrypoint or comp.name in instantiated:
                continue
            report.add(
                self.diag(
                    f"component {comp.name!r} is never instantiated",
                    component=comp.name,
                    span=comp.span,
                )
            )
