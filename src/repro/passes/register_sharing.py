"""Register sharing via live-range analysis (paper Section 5.2).

Registers are stateful, so group-local reasoning is insufficient: the pass
runs a liveness analysis over the component's parallel control-flow graph
(:mod:`repro.analysis.liveness`), builds a conflict graph whose nodes are
registers and whose edges are overlapping live ranges, greedily colors it
with registers as colors, and rewrites groups with the resulting rename —
"in a similar manner to resource sharing".

Registers referenced by continuous assignments, marked ``@external``, or
of differing widths never merge.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.analysis.coloring import greedy_coloring
from repro.analysis.liveness import LivenessAnalysis
from repro.ir.ast import Component, Program
from repro.passes.base import Pass, register_pass
from repro.passes.resource_sharing import rename_cells


@register_pass
class RegisterSharing(Pass):
    name = "register-sharing"
    description = "merge registers with disjoint live ranges"

    def run_component(self, program: Program, comp: Component) -> None:
        analysis = LivenessAnalysis(comp)
        registers = [
            name
            for name in comp.cells
            if name in analysis.registers
            and name not in analysis.pinned
            and not comp.cells[name].external
        ]
        if len(registers) < 2:
            return

        # Merge only registers of identical width.
        classes: Dict[Tuple[int, ...], List[str]] = {}
        for name in registers:
            classes.setdefault(comp.cells[name].args, []).append(name)

        rename: Dict[str, str] = {}
        for members in classes.values():
            local_conflicts = analysis.result.conflicts_within(members)
            coloring = greedy_coloring(members, local_conflicts)
            for cell, rep in coloring.items():
                if cell != rep:
                    rename[cell] = rep

        if rename:
            rename_cells(comp, rename)
