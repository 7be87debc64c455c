"""The bitmask liveness analysis against a brute-force reference.

The reference keeps every register set as a set of names: it runs the
backward dataflow to a fixpoint over the whole pCFG (p-node children
included), then applies the interference rules pair by pair, as listed
in :mod:`repro.analysis.liveness`. The analysis under test must agree on
every node's live-in/live-out set and on the exact conflict adjacency.

Designs: the shipped examples, systolic arrays 2..5, the PolyBench
kernels (and unrolled variants) at n=4 after the passes that run before
``register-sharing`` in ``all``, and seeded fuzz programs.
"""

import glob
import os
from typing import Dict, FrozenSet, Set

import pytest

from repro.analysis.liveness import LivenessAnalysis
from repro.analysis.pcfg import Pcfg
from repro.analysis.read_write import AccessSets, group_accesses, invoke_accesses
from repro.frontends.dahlia import compile_dahlia
from repro.frontends.systolic import SystolicConfig, generate_systolic_array
from repro.ir import parse_program
from repro.passes import PIPELINES, compile_program
from repro.sim.fuzz import generate_spec
from repro.workloads.polybench import polybench_kernels

FRONT = PIPELINES["all"][: PIPELINES["all"].index("register-sharing")]
EXAMPLES = sorted(
    glob.glob(os.path.join(os.path.dirname(__file__), "..", "examples", "*.futil"))
)
FUZZ_SEEDS = range(60)


class ReferenceLiveness:
    """Set-of-names liveness and pairwise interference."""

    def __init__(self, analysis: LivenessAnalysis):
        comp, registers = analysis.comp, analysis.registers
        self.sets: Dict[int, AccessSets] = {}
        for node in analysis.graph.walk():
            sets = AccessSets()
            if node.kind == "group":
                sets = group_accesses(comp, comp.get_group(node.group), registers)
            elif node.kind == "invoke":
                sets = invoke_accesses(node.invoke, registers)
            self.sets[node.id] = sets
        self.registers = registers
        self.live_in: Dict[int, Set[str]] = {}
        self.live_out: Dict[int, Set[str]] = {}
        self.changed = True
        while self.changed:
            self.changed = False
            self.sweep(analysis.graph, set())
        self.conflicts: Set[FrozenSet[str]] = set()
        self.collect(analysis.graph)

    def sweep(self, graph: Pcfg, exit_live: Set[str]) -> None:
        for node in reversed(graph.nodes):
            out = set(exit_live) if node is graph.exit else set()
            for succ in node.succs:
                out |= self.live_in.get(succ.id, set())
            if node.kind == "par":
                live_in, killed_by_all = set(), set(self.registers)
                for child in node.children:
                    self.sweep(child, out)
                    live_in |= self.live_in.get(child.entry.id, set())
                    killed_by_all &= self.must_writes(child)
                live_in |= out - killed_by_all
            else:
                sets = self.sets[node.id]
                live_in = sets.reads | (out - sets.must_writes)
            if out != self.live_out.get(node.id, set()):
                self.live_out[node.id] = out
                self.changed = True
            if live_in != self.live_in.get(node.id, set()):
                self.live_in[node.id] = live_in
                self.changed = True

    def must_writes(self, graph: Pcfg) -> Set[str]:
        must: Set[str] = set()
        for node in graph.nodes:
            straight = len(node.preds) <= 1 and all(len(p.succs) == 1 for p in node.preds)
            if node.kind in ("group", "invoke") and straight:
                must |= self.sets[node.id].must_writes
            for child in node.children:
                must |= self.must_writes(child)
        return must

    def add(self, a: str, b: str) -> None:
        if a != b:
            self.conflicts.add(frozenset((a, b)))

    def collect(self, graph: Pcfg) -> None:
        for node in graph.walk():
            for written in self.sets[node.id].may_writes:
                for other in self.live_out.get(node.id, set()):
                    self.add(written, other)
            live = sorted(self.live_in.get(node.id, set()))
            for i, a in enumerate(live):
                for b in live[i + 1 :]:
                    self.add(a, b)
            if node.kind == "par":
                arms = []
                for child in node.children:
                    arm = [self.sets[n.id] for n in child.walk()]
                    accessed = set().union(*(s.reads | s.may_writes for s in arm))
                    written = set().union(*(s.may_writes for s in arm))
                    arms.append((accessed, written))
                for i, (_, written) in enumerate(arms):
                    for j, (accessed, _) in enumerate(arms):
                        if i != j:
                            for a in written:
                                for b in accessed:
                                    self.add(a, b)

    def conflict_map(self) -> Dict[str, Set[str]]:
        adj: Dict[str, Set[str]] = {}
        for a, b in map(tuple, self.conflicts):
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        return adj


def designs():
    for path in EXAMPLES:
        yield os.path.basename(path), lambda path=path: parse_program(open(path).read())
    for n in range(2, 6):
        yield f"systolic-{n}", lambda n=n: generate_systolic_array(SystolicConfig.square(n))
    for kernel in polybench_kernels(4):
        for tag, source in (("", kernel.source), ("-u", kernel.unrolled_source)):
            if source is not None:
                yield kernel.name + tag, lambda s=source: compile_dahlia(s).program
    for seed in FUZZ_SEEDS:
        yield f"fuzz-{seed}", lambda seed=seed: parse_program(generate_spec(seed).render())


DESIGNS = dict(designs())


@pytest.mark.parametrize("name", sorted(DESIGNS))
def test_matches_reference(name):
    program = compile_program(DESIGNS[name](), passes=FRONT)
    for comp in program.components:
        analysis = LivenessAnalysis(comp)
        reference = ReferenceLiveness(analysis)
        live_in, live_out = analysis.result.live_in, analysis.result.live_out
        for node in analysis.graph.walk():
            expected = reference.live_in.get(node.id, set())
            assert live_in.get(node.id, set()) == expected, (comp.name, node)
            expected = reference.live_out.get(node.id, set())
            assert live_out.get(node.id, set()) == expected, (comp.name, node)
        assert analysis.result.conflict_map() == reference.conflict_map(), comp.name
