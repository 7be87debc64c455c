"""Register read/write set computation (paper Section 5.2).

For each group the pass conservatively over-approximates:

* the **read set** — registers the group *may* read: any register whose
  ``out`` port appears in an assignment source or guard;
* the **may-write set** — registers the group might update: any register
  whose ``in`` port is a destination;
* the **must-write set** — registers the group certainly updates on every
  execution: both ``in`` and ``write_en`` are driven by unconditional
  assignments (and ``write_en`` is driven with a non-zero constant or an
  always-true source).

Liveness uses may-reads to extend live ranges and must-writes to kill them,
so over-approximating reads and under-approximating writes is sound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Set

from repro.ir.ast import CellPort, Component, ConstPort, Group
from repro.ir.control import Invoke


@dataclass
class AccessSets:
    """Register accesses of one schedule node."""

    reads: Set[str] = field(default_factory=set)
    may_writes: Set[str] = field(default_factory=set)
    must_writes: Set[str] = field(default_factory=set)


def registers_of(comp: Component) -> Set[str]:
    """Names of all ``std_reg`` cells in the component."""
    return {
        cell.name for cell in comp.cells.values() if cell.comp_name == "std_reg"
    }


def group_accesses(comp: Component, group: Group, registers: Set[str]) -> AccessSets:
    """Read / may-write / must-write register sets for a group."""
    sets = AccessSets()
    wrote_in: Dict[str, bool] = {}  # register -> unconditional in-write seen
    wrote_en: Dict[str, bool] = {}  # register -> unconditional write_en seen
    for assign in group.assignments:
        for ref in assign.reads():
            if isinstance(ref, CellPort) and ref.cell in registers and ref.port == "out":
                sets.reads.add(ref.cell)
        dst = assign.dst
        if isinstance(dst, CellPort) and dst.cell in registers:
            if dst.port == "in":
                sets.may_writes.add(dst.cell)
                if assign.is_unconditional():
                    wrote_in[dst.cell] = True
            elif dst.port == "write_en" and assign.is_unconditional():
                src = assign.src
                if not (isinstance(src, ConstPort) and src.value == 0):
                    wrote_en[dst.cell] = True
    for reg in sets.may_writes:
        if wrote_in.get(reg) and wrote_en.get(reg):
            sets.must_writes.add(reg)
    return sets


def invoke_accesses(node: Invoke, registers: Set[str]) -> AccessSets:
    """Register accesses implied by an invoke's port bindings."""
    sets = AccessSets()
    for src in node.in_binds.values():
        if isinstance(src, CellPort) and src.cell in registers and src.port == "out":
            sets.reads.add(src.cell)
    for dst in node.out_binds.values():
        if isinstance(dst, CellPort) and dst.cell in registers and dst.port == "in":
            sets.may_writes.add(dst.cell)
            # An invoke drives its bindings for the whole call: treat as a
            # must-write (the callee's done implies the write committed).
            sets.must_writes.add(dst.cell)
    return sets


def continuous_registers(comp: Component) -> Set[str]:
    """Registers touched by continuous assignments: excluded from sharing."""
    registers = registers_of(comp)
    touched: Set[str] = set()
    for assign in comp.continuous:
        for ref in assign.ports():
            if isinstance(ref, CellPort) and ref.cell in registers:
                touched.add(ref.cell)
    return touched
