"""Live-range analysis over pCFGs (paper Section 5.2).

A standard backward dataflow — ``live_in = reads ∪ (live_out −
must_writes)`` — with the paper's special handling of p-nodes: each child
sub-graph is analyzed with its exit live set equal to the live-out of the
whole p-node, and the p-node's live-in joins the children's entry live-ins
with whatever survives every child's kills.

The result feeds an interference (conflict) graph over registers:

* a register written at a node conflicts with everything live after it,
* all registers simultaneously live into a node conflict pairwise,
* registers *written* in one arm of a ``par`` conflict with registers
  *accessed* in any sibling arm (arms run concurrently, so a merged
  register would be clobbered mid-flight).

Register sets are int bitmasks (bit ``i`` is the ``i``-th register by
sorted name); the graph is one neighbour mask per register.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Set, Tuple

from repro.ir.ast import Component
from repro.analysis.pcfg import Pcfg, PcfgNode, build_pcfg
from repro.analysis.read_write import AccessSets, continuous_registers
from repro.analysis.read_write import group_accesses, invoke_accesses, registers_of


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class LivenessResult:
    """Per-node live-in/live-out masks plus the register conflict graph."""

    def __init__(self, names: List[str]) -> None:
        self.names = names
        self.index = {name: i for i, name in enumerate(names)}
        self.live_in_masks: Dict[int, int] = {}
        self.live_out_masks: Dict[int, int] = {}
        #: ``rows[i]`` is the neighbour mask of register ``names[i]``.
        self.rows: List[int] = [0] * len(names)

    def mask(self, names: Iterable[str]) -> int:
        return sum(1 << self.index[name] for name in set(names))

    def decode(self, mask: int) -> Set[str]:
        return {self.names[i] for i in _bits(mask)}

    def _decode_all(self, masks: Dict[int, int]) -> Dict[int, Set[str]]:
        return {nid: self.decode(mask) for nid, mask in masks.items()}

    #: Live sets by node id, as register names.
    live_in = property(lambda self: self._decode_all(self.live_in_masks))
    live_out = property(lambda self: self._decode_all(self.live_out_masks))

    def conflicts_within(self, names: List[str]) -> Dict[str, Set[str]]:
        """Conflict adjacency of ``names`` restricted to ``names``."""
        within = self.mask(names)
        return {n: self.decode(self.rows[self.index[n]] & within) for n in names}

    def conflict_map(self) -> Dict[str, Set[str]]:
        return {self.names[i]: self.decode(r) for i, r in enumerate(self.rows) if r}


class LivenessAnalysis:
    """Computes liveness and register interference for one component."""

    def __init__(self, comp: Component):
        self.comp = comp
        self.registers = registers_of(comp)
        self.pinned = continuous_registers(comp)
        self.graph = build_pcfg(comp)
        self.result = LivenessResult(sorted(self.registers))
        self._accesses: Dict[int, Tuple[int, int, int]] = {}
        self._must: Dict[Pcfg, int] = {}
        self._changed = True
        while self._changed:  # until no live set changes, in any sub-graph
            self._changed = False
            self._analyze(self.graph, exit_live=0)
        self._collect_conflicts(self.graph)

    def accesses(self, node: PcfgNode) -> Tuple[int, int, int]:
        """``(reads, may_writes, must_writes)`` register masks of a node."""
        if node.id not in self._accesses:
            sets = AccessSets()
            if node.kind == "group" and node.group is not None:
                group = self.comp.get_group(node.group)
                sets = group_accesses(self.comp, group, self.registers)
            elif node.kind == "invoke" and node.invoke is not None:
                sets = invoke_accesses(node.invoke, self.registers)
            regs = (sets.reads, sets.may_writes, sets.must_writes)
            self._accesses[node.id] = tuple(map(self.result.mask, regs))
        return self._accesses[node.id]

    # -- dataflow ------------------------------------------------------------
    def _analyze(self, graph: Pcfg, exit_live: int) -> None:
        """One backward sweep; flags whether any live set changed."""
        live_in = self.result.live_in_masks
        live_out = self.result.live_out_masks
        for node in reversed(graph.nodes):
            out = exit_live if node is graph.exit else 0
            for succ in node.succs:
                out |= live_in.get(succ.id, 0)
            new_in = self._transfer(node, out)
            if out != live_out.get(node.id, 0) or new_in != live_in.get(node.id, 0):
                live_out[node.id], live_in[node.id] = out, new_in
                self._changed = True

    def _transfer(self, node: PcfgNode, live_out: int) -> int:
        if node.kind == "par":
            # Paper rule: each child's exit live set is the p-node's
            # live-out; the p-node's live-in joins child entry live-ins
            # with registers that survive every child.
            child_ins = 0
            killed_by_all = -1
            for child in node.children:
                # Children iterate inside the outer fixpoint loop.
                self._analyze(child, exit_live=live_out)
                child_ins |= self.result.live_in_masks.get(child.entry.id, 0)
                killed_by_all &= self._must_writes(child)
            return child_ins | (live_out & ~killed_by_all)
        reads, _, must_writes = self.accesses(node)
        return reads | (live_out & ~must_writes)

    def _must_writes(self, graph: Pcfg) -> int:
        """Registers certainly written on every path (computed once).

        Conservative: only straight-line members count.
        """
        if graph not in self._must:
            must = 0
            for node in graph.nodes:
                if node.kind in ("group", "invoke") and len(node.preds) <= 1:
                    if all(len(p.succs) == 1 for p in node.preds):
                        must |= self.accesses(node)[2]
                for child in node.children:
                    must |= self._must_writes(child)
            self._must[graph] = must
        return self._must[graph]

    # -- conflicts ------------------------------------------------------------
    def _collect_conflicts(self, graph: Pcfg) -> None:
        # (registers, what each of them conflicts with); many nodes share
        # the same live sets, so each distinct pair is applied once.
        pairs: Set[Tuple[int, int]] = set()
        for node in graph.walk():
            live_in = self.result.live_in_masks.get(node.id, 0)
            pairs.add((live_in, live_in))
            out = self.result.live_out_masks.get(node.id, 0)
            pairs.add((self.accesses(node)[1], out))
            if node.kind == "par":
                arms = [self._arm_accesses(child) for child in node.children]
                seen = shared = 0  # accessed by any arm / by two or more
                for accessed, _ in arms:
                    shared |= seen & accessed
                    seen |= accessed
                for accessed, written in arms:
                    pairs.add((written, (seen & ~accessed) | shared))
        rows = self.result.rows
        for regs, others in pairs:
            for i in _bits(regs):
                rows[i] |= others & ~(1 << i)
        for i, row in enumerate(rows):  # make the graph symmetric
            for j in _bits(row):
                rows[j] |= 1 << i

    def _arm_accesses(self, graph: Pcfg) -> Tuple[int, int]:
        """(accessed, written) register masks of one par arm."""
        accessed = written = 0
        for node in graph.walk():
            reads, may_writes, _ = self.accesses(node)
            accessed |= reads | may_writes
            written |= may_writes
        return accessed, written
