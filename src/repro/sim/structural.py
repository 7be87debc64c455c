"""Structural analysis shared by both simulation engines.

Three jobs live here:

* :func:`static_drivers` enumerates every assignment a component can ever
  fire, tagged with its *gate group* (the group whose ``go`` hole must be
  high for the assignment to be live; ``None`` for continuous assignments
  and a group's own ``done`` write). Both engines build their evaluation
  structures from this one enumeration, so they cannot disagree about
  which assignments exist.
* :func:`invoke_assignments` is the one definition of the wires an active
  ``invoke`` adds, used by the control executor and the levelized engine.
* :func:`check_structural_drivers` rejects definite multiple-driver races
  at engine-construction time. The sweep engine's per-sweep conflict check
  compares *values*, so two always-active drivers of the same port were
  silently accepted whenever their values happened to agree (and which one
  won depended on collection order) — an illegal netlist in RTL either
  way. Both engines now refuse to construct such a design.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import MultipleDriverError
from repro.ir.ast import Assignment, CellPort, Component, ConstPort, HolePort, PortRef
from repro.ir.control import Invoke
from repro.ir.guards import NotGuard, PortGuard
from repro.ir.ports import DONE, GO

#: The gate tag for assignments that are live whenever the component runs.
ALWAYS = None


def static_drivers(
    comp: Component,
) -> Iterator[Tuple[Optional[str], Assignment]]:
    """Every wire assignment with its gate group (``None`` = ungated).

    Mirrors the GoInsertion convention: an assignment inside a group is
    gated by that group's ``go`` hole *except* the group's own ``done``
    write, which must stay live so the executor can observe completion.
    Invoke-synthesized assignments are not included — they exist only in
    the control executor, not in the component's wires.
    """
    for group in comp.groups.values():
        for assign in group.assignments:
            is_own_done = (
                isinstance(assign.dst, HolePort)
                and assign.dst.group == group.name
                and assign.dst.port == DONE
            )
            yield (None if is_own_done else group.name, assign)
    for assign in comp.continuous:
        yield (None, assign)


def invoke_assignments(node: Invoke) -> List[Assignment]:
    """The assignments live while ``node`` runs: in-binds, out-binds, ``go``.

    The go pulse is gated by ``!done``, like a compiled enable, so the
    callee is not re-started during the done-observation cycle.
    """
    cell = node.cell
    return [
        *(Assignment(CellPort(cell, port), src) for port, src in node.in_binds.items()),
        *(Assignment(dst, CellPort(cell, port)) for port, dst in node.out_binds.items()),
        Assignment(CellPort(cell, GO), ConstPort(1, 1), NotGuard(PortGuard(CellPort(cell, DONE)))),
    ]


def check_structural_drivers(comp: Component, path: str = "main") -> None:
    """Reject ports with two always-on unconditional drivers.

    A *definite* race is two unconditional (true-guard) assignments to the
    same destination within the same activation scope — both continuous /
    ungated, or both in the same group — with different sources. Such a
    pair drives the port from two places on every cycle the scope is
    active; hardware would short two nets together. Identical duplicate
    assignments (same source) are tolerated: they cannot disagree.

    Guarded multiple drivers are still checked dynamically at runtime,
    because guard disjointness is data-dependent.
    """
    scopes: Dict[Tuple[Optional[str], PortRef], Assignment] = {}
    for gate, assign in static_drivers(comp):
        if not assign.is_unconditional():
            continue
        key = (gate, assign.dst)
        prev = scopes.get(key)
        if prev is None:
            scopes[key] = assign
            continue
        if prev.src == assign.src:
            continue  # duplicate of the same connection: harmless
        where = f"group {gate!r}" if gate else "always-active scope"
        raise MultipleDriverError(
            f"{path}: port {assign.dst.to_string()} has two unconditional "
            f"drivers in the same {where}:\n"
            f"  {prev.to_string()}\n  {assign.to_string()}\n"
            f"(a definite multiple-driver race; the winner would depend on "
            f"assignment order)"
        )
