"""The levelized event-driven simulation engine (``engine="levelized"``).

The sweep engine (:mod:`repro.sim.model`) re-evaluates *every* guarded
assignment and primitive in a Gauss-Seidel loop until fixpoint on every
clock phase. Most of a lowered Calyx design is a static combinational
netlist, so that work can be scheduled once, at construction:

* every port reference is assigned an integer *slot* in a flat value
  array, replacing dict-keyed ``PortRef`` reads,
* a port-level dependency graph is extracted from the assignments and the
  primitive models' declared combinational dependencies
  (``PrimitiveModel.comb_deps``), condensed into strongly connected
  components, and topologically *levelized*,
* each component gets generated straight-line Python ``drain`` code that
  visits its SCCs in level order, with every guard inlined as one boolean
  expression over the slot list. It is compiled in chunks of a few KB
  (a whole-component module costs a large transient AST), once per
  component per engine build, and shared by that component's instances,
* standard-library primitives are inlined from their models' source form
  (:meth:`~repro.stdlib.behaviors.PrimitiveModel.render`): operators as
  expressions, registers and memories as generated ``edge`` code that
  updates a model, and marks its SCC, only when it is written or its
  ``done`` falls. Sub-components, externs and pipelined units keep calling
  ``comb``/``tick``,
* evaluation is event-driven: per-SCC dirty flags (set by input changes,
  clock edges, and control-state transitions) gate each block of the
  drain. Acyclic regions evaluate at most once per phase; genuine
  combinational cycles fall back to bounded fixpoint iteration inside
  their SCC, preserving :class:`~repro.errors.OscillationError` /
  :class:`~repro.errors.CombinationalLoopError` semantics.

The engine subclasses :class:`~repro.sim.model.SimInstance`, which owns
the instance tree, control stepping, ``tick``/``reset``, the watchdog
hooks, path lookup and the oscillation probe; this module supplies the
slot-array net view, the generated settle and the clock edge. The
testbench, watchdog, deadlock reporting, and windowed net-fault injection
therefore see one protocol. Both engines are locked together by
``tests/test_engine_equivalence.py``.
"""

from __future__ import annotations

from collections.abc import MutableMapping
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Set, Tuple

from repro.errors import MultipleDriverError, SimulationError
from repro.ir.ast import (
    Assignment,
    CellPort,
    Component,
    ConstPort,
    HolePort,
    PortRef,
    Program,
    ThisPort,
)
from repro.analysis.graph import cyclic_sccs, tarjan_scc
from repro.ir.control import Invoke
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
from repro.ir.ports import DONE, GO
from repro.ir.types import Direction
from repro.sim.model import SimInstance
from repro.sim.structural import invoke_assignments, static_drivers
from repro.stdlib.behaviors import PrimitiveModel, Rendered

_EMPTY: frozenset = frozenset()

#: Source length at which a drain chunk is closed and compiled. Small
#: units keep the transient AST of ``compile()`` (and so peak memory)
#: small; much smaller ones pay a function call per resolver.
_CHUNK_SOURCE = 3000

# Operator precedence of an emitted expression, loosest first.
_OR, _AND, _NOT, _ATOM = range(4)


# ---------------------------------------------------------------------------
# Guard / source compilation to Python expressions over integer slots
# ---------------------------------------------------------------------------


class _GuardCompiler:
    """Emits a guard tree as one Python boolean expression over ``v``.

    ``and``/``or`` chains come out flat, parenthesized only where
    precedence requires. Also records every slot the expression reads,
    which becomes the dependency edges of the assignment's resolver node.
    """

    def __init__(self, slot_of: Callable[[PortRef], int]):
        self.slot_of = slot_of
        self.read_slots: Set[int] = set()

    def _operand(self, ref: PortRef):
        """(is_const, const_value_or_source) for one guard operand."""
        if isinstance(ref, ConstPort):
            return True, ref.value
        slot = self.slot_of(ref)
        self.read_slots.add(slot)
        return False, f"v[{slot}]"

    def compile(self, guard: Guard) -> Optional[Tuple[int, str]]:
        """(precedence, source) of ``guard``; ``None`` means "always true"
        (the common unconditional case)."""
        if isinstance(guard, TrueGuard):
            return None
        if isinstance(guard, PortGuard):
            const, x = self._operand(guard.port)
            return _ATOM, str(bool(x)) if const else x
        if isinstance(guard, NotGuard):
            inner = self.compile(guard.inner)
            if inner is None:
                return _ATOM, "False"
            return _NOT, f"not {_wrap(inner, _NOT)}"
        if isinstance(guard, AndGuard):
            left, right = self.compile(guard.left), self.compile(guard.right)
            if left is None:
                return right
            if right is None:
                return left
            return _AND, f"{_wrap(left, _AND)} and {_wrap(right, _AND)}"
        if isinstance(guard, OrGuard):
            left, right = self.compile(guard.left), self.compile(guard.right)
            if left is None or right is None:
                return None
            return _OR, f"{_wrap(left, _OR)} or {_wrap(right, _OR)}"
        if isinstance(guard, CmpGuard):
            lconst, left = self._operand(guard.left)
            rconst, right = self._operand(guard.right)
            if lconst and rconst:
                return _ATOM, str(CMP_FNS[guard.op](left, right))
            return _ATOM, f"{left} {guard.op} {right}"
        raise SimulationError(f"cannot compile guard {guard!r}")


def _wrap(expr: Tuple[int, str], prec: int) -> str:
    """``expr``'s source, parenthesized if it binds looser than ``prec``."""
    return expr[1] if expr[0] >= prec else f"({expr[1]})"


class _Driver(NamedTuple):
    """One precompiled assignment driving a destination slot."""

    #: Source of the enabling condition (group ``go`` gate, invoke flag,
    #: guard); ``None`` when unconditional.
    cond: Optional[str]
    #: Source of the driven value.
    src: str
    assign: Assignment


def _conflict(inst, index: int, first: int, second: int, a: int, b: int) -> MultipleDriverError:
    """The error for drivers ``first`` and ``second`` of node ``index`` disagreeing."""
    drivers = inst._nodes[index].drivers
    winner, other = drivers[first].assign, drivers[second].assign
    return MultipleDriverError(
        f"{inst.path}: port {other.dst.to_string()} driven "
        f"to both {a} and {b} by\n  "
        f"{winner.to_string()}\n  {other.to_string()}"
    )


# ---------------------------------------------------------------------------
# Evaluation nodes
# ---------------------------------------------------------------------------


class _ResolverNode:
    """Computes the committed value of one destination slot.

    Evaluates every driver of the destination: inactive gates and false
    guards drop out, agreeing drivers coalesce, disagreeing drivers raise
    :class:`MultipleDriverError`, and an undriven destination falls to 0 —
    exactly the sweep engine's commit rule. Go holes additionally apply the
    executor's enable/force overrides. The evaluation itself is generated
    source (:meth:`body`); ``fire`` is compiled only for nodes that need to
    run on their own (members of combinational cycles, diagnosis).
    """

    __slots__ = ("index", "slot", "drivers", "go_group", "done_slot", "in_slots", "fire")

    def __init__(self, index, slot, drivers, go_group, done_slot, in_slots):
        self.index = index
        self.slot = slot
        self.drivers: List[_Driver] = drivers
        self.go_group: Optional[str] = go_group
        self.done_slot: Optional[int] = done_slot
        self.in_slots: List[int] = in_slots
        self.fire: Optional[Callable] = None

    def body(self, pad: str) -> List[str]:
        """Source lines leaving the resolved value in ``x``."""
        drivers = self.drivers
        if not drivers:
            lines = [f"{pad}x = 0"]
        elif len(drivers) == 1:
            d = drivers[0]
            lines = [f"{pad}x = {d.src}" if d.cond is None else f"{pad}x = {d.src} if {d.cond} else 0"]
        else:
            first = drivers[0]
            if first.cond is None:
                lines = [f"{pad}w = 0; x = {first.src}"]
            else:
                lines = [f"{pad}w = -1; x = 0", f"{pad}if {first.cond}: w = 0; x = {first.src}"]
            for i, d in enumerate(drivers[1:], 1):
                lines += [
                    f"{pad}if {d.cond or 'True'}:",
                    f"{pad} y = {d.src}",
                    f"{pad} if w < 0: w = {i}; x = y",
                    f"{pad} elif y != x: raise _conflict(inst, {self.index}, w, {i}, x, y)",
                ]
        group = self.go_group
        if group is not None:
            lines += [
                f"{pad}if {group!r} in F: x = 1",
                f"{pad}elif {group!r} in A: x = 0 if v[{self.done_slot}] else 1",
            ]
        return lines

    def compile_fire(self) -> Callable[["FastComponentInstance"], Tuple[int, ...]]:
        """Compile a standalone ``fire(inst)`` for this node."""
        slot = self.slot
        lines = [
            "def fire(inst):",
            " v = inst._values; fl = inst._invoke_flags; A = inst._active; F = inst._forced",
            *self.body(" "),
            f" if v[{slot}] != x: v[{slot}] = x; return ({slot},)",
            " return ()",
        ]
        return _compile_fn(lines, "fire")


def _compile_fn(lines: List[str], name: str) -> Callable:
    """Compile generated source lines and return the function ``name``."""
    namespace = {"_conflict": _conflict}
    exec(compile("\n".join(lines), f"<levelized {name}>", "exec"), namespace)
    return namespace[name]


def _compile_chunks(header: str, name: str, blocks: Iterable[List[str]]) -> List[Callable]:
    """Compile ``blocks`` in order as ``header`` functions of ~``_CHUNK_SOURCE`` chars."""
    chunks: List[Callable] = []
    lines, size = [header], 0
    for block in blocks:
        lines += block
        size += sum(map(len, block))
        if size >= _CHUNK_SOURCE:
            chunks.append(_compile_fn(lines, name))
            lines, size = [header], 0
    if size:
        chunks.append(_compile_fn(lines, name))
    return chunks


class _ChildNode:
    """Wraps one cell instance: inputs in, combinational outputs out."""

    __slots__ = ("index", "name", "child", "in_ports", "in_slots", "dep_slots", "out_slot_map")

    def __init__(self, index, name, child, in_ports, in_slots, dep_slots, out_slot_map):
        self.index = index
        self.name = name
        self.child = child
        self.in_ports: List[str] = in_ports
        self.in_slots: List[int] = in_slots
        self.dep_slots: List[int] = dep_slots
        self.out_slot_map: Dict[str, int] = out_slot_map

    def inputs(self, v: List[int]) -> Dict[str, int]:
        return {p: v[s] for p, s in zip(self.in_ports, self.in_slots)}

    def fire(self, inst: "FastComponentInstance") -> List[int]:
        v = inst._values
        changed: List[int] = []
        for port, val in self.child.comb(self.inputs(v)).items():
            slot = self.out_slot_map.get(port)
            if slot is not None and v[slot] != val:
                v[slot] = val
                changed.append(slot)
        return changed


class _DoneNode:
    """Drives ``this.done`` from latched executor state (unlowered form)."""

    __slots__ = ("index", "slot", "in_slots")

    def __init__(self, index, slot):
        self.index = index
        self.slot = slot
        self.in_slots: List[int] = []

    def fire(self, inst: "FastComponentInstance") -> Tuple[int, ...]:
        value = 1 if inst._finished else 0
        if inst._values[self.slot] != value:
            inst._values[self.slot] = value
            return (self.slot,)
        return ()


# ---------------------------------------------------------------------------
# The nets view (watchdog / fault-injection compatibility)
# ---------------------------------------------------------------------------


class _SlotNets(MutableMapping):
    """Dict-like view of the slot array, keyed by :class:`PortRef`.

    Exists so external pokes — the fault-injection hook writes
    ``inst.nets[ref] = value`` — keep working against the levelized
    engine: a write lands in the slot array and dirties both the slot's
    fanout (so downstream logic sees the fault) and its own producer (so
    the next settle recomputes the clean value, as the sweep engine's
    full re-evaluation would). Unknown refs are stored inertly, matching
    a write to an unused net in the sweep engine's dict.
    """

    def __init__(self, inst: "FastComponentInstance"):
        self._inst = inst

    def __getitem__(self, ref: PortRef) -> int:
        slot = self._inst._slots.get(ref)
        if slot is not None:
            return self._inst._values[slot]
        return self._inst._extra_nets[ref]

    def __setitem__(self, ref: PortRef, value: int) -> None:
        inst = self._inst
        slot = inst._slots.get(ref)
        if slot is None:
            inst._extra_nets[ref] = value
            return
        if inst._values[slot] != value:
            inst._values[slot] = value
            inst._mark_slot(slot)
            writer = inst._writer.get(slot)
            if writer is not None:
                inst._mark_node(writer)

    def __delitem__(self, ref: PortRef) -> None:
        inst = self._inst
        slot = inst._slots.get(ref)
        if slot is None:
            del inst._extra_nets[ref]
        else:
            self[ref] = 0

    def __iter__(self) -> Iterator[PortRef]:
        yield from self._inst._slot_refs
        yield from self._inst._extra_nets

    def __len__(self) -> int:
        return len(self._inst._slot_refs) + len(self._inst._extra_nets)

    def clear(self) -> None:
        inst = self._inst
        inst._values[:] = [0] * len(inst._values)
        inst._extra_nets.clear()
        inst._mark_all()


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class FastComponentInstance(SimInstance):
    """Levelized, event-driven drop-in for :class:`ComponentInstance`."""

    def __init__(
        self,
        program: Program,
        comp: Component,
        path: str = "main",
        code: Optional[Dict[int, Tuple[list, dict]]] = None,
    ):
        """``code`` holds the compiled drain and fire functions per component
        (keyed by ``id``), shared by every instance in one engine build."""
        self._code = {} if code is None else code
        super().__init__(program, comp, path)
        self._extra_nets: Dict[PortRef, int] = {}
        self._io_deps: Optional[List[str]] = None
        self._build()
        self.nets = _SlotNets(self)
        self._reset_nets()

    # -- construction -----------------------------------------------------
    def _sub_instance(self, comp: Component, path: str) -> "FastComponentInstance":
        return FastComponentInstance(self.program, comp, path, self._code)

    def _slot(self, ref: PortRef) -> int:
        slot = self._slots.get(ref)
        if slot is None:
            slot = len(self._slot_refs)
            self._slots[ref] = slot
            self._slot_refs.append(ref)
        return slot

    def _compile_driver(
        self, gate: Optional[str], flag: Optional[int], assign: Assignment
    ) -> Tuple[_Driver, Set[int]]:
        compiler = _GuardCompiler(self._slot)
        guard = compiler.compile(assign.guard)
        reads = set(compiler.read_slots)
        if isinstance(assign.src, ConstPort):
            src = str(assign.src.value)
        else:
            src_slot = self._slot(assign.src)
            src = f"v[{src_slot}]"
            reads.add(src_slot)
        conds = []
        if gate is not None:
            gate_slot = self._slot(HolePort(gate, GO))
            reads.add(gate_slot)
            conds.append(f"v[{gate_slot}]")
        if flag is not None:
            conds.append(f"fl[{flag}]")
        if guard is not None:
            conds.append(_wrap(guard, _AND) if conds else guard[1])
        return _Driver(" and ".join(conds) or None, src, assign), reads

    def _build(self) -> None:
        comp = self.comp
        self._slots: Dict[PortRef, int] = {}
        self._slot_refs: List[PortRef] = []
        for port in list(comp.inputs) + list(comp.outputs):
            self._slot(ThisPort(port.name))
        self._go_slot = self._slot(ThisPort(GO))
        self._this_done_slot = self._slot(ThisPort(DONE))

        # -- drivers per destination (deterministic first-seen order) ------
        driver_map: Dict[PortRef, List[_Driver]] = {}
        dep_map: Dict[PortRef, Set[int]] = {}

        def add_driver(dst: PortRef, driver: _Driver, reads: Set[int]) -> None:
            driver_map.setdefault(dst, []).append(driver)
            dep_map.setdefault(dst, set()).update(reads)

        for gate, assign in static_drivers(comp):
            driver, reads = self._compile_driver(gate, None, assign)
            add_driver(assign.dst, driver, reads)

        # Invoke-synthesized bindings, gated by per-phase flags keyed to
        # the control-tree node (stable across executor resets).
        self._invoke_flag_of: Dict[int, int] = {}
        self._flag_dsts: List[List[PortRef]] = []
        for node in comp.control.walk():
            if not isinstance(node, Invoke):
                continue
            flag = len(self._flag_dsts)
            self._invoke_flag_of[id(node)] = flag
            dsts: List[PortRef] = []
            for assign in invoke_assignments(node):
                driver, reads = self._compile_driver(None, flag, assign)
                add_driver(assign.dst, driver, reads)
                dsts.append(assign.dst)
            self._flag_dsts.append(dsts)

        # Every group's go hole resolves even with no structural driver, so
        # deactivating groups release their assignments.
        all_dsts: List[PortRef] = list(driver_map)
        seen = set(driver_map)
        for extra in [HolePort(name, GO) for name in comp.groups]:
            if extra not in seen:
                seen.add(extra)
                all_dsts.append(extra)
                driver_map.setdefault(extra, [])
                dep_map.setdefault(extra, set())

        # The executor owns this.done unless wires drive it (lowered form).
        if not self._done_from_wires and ThisPort(DONE) in driver_map:
            del driver_map[ThisPort(DONE)]
            dep_map.pop(ThisPort(DONE), None)
            all_dsts.remove(ThisPort(DONE))

        # -- nodes, in the sweep engine's evaluation order -----------------
        self._nodes: List[object] = []
        stateful_nodes: List[int] = []
        self._go_resolver_of: Dict[str, int] = {}

        for cell in comp.cells.values():
            child = self.children[cell.name]
            sig = self.program.cell_signature(cell)
            in_ports = [p.name for p in sig.values() if p.direction is Direction.INPUT]
            in_slots = [self._slot(CellPort(cell.name, p)) for p in in_ports]
            out_slot_map = {
                p.name: self._slot(CellPort(cell.name, p.name))
                for p in sig.values()
                if p.direction is Direction.OUTPUT
            }
            if isinstance(child, PrimitiveModel):
                deps = child.comb_deps
                if deps:
                    dep_names = sorted({d for lst in deps.values() for d in lst})
                else:
                    # A model that declares nothing is treated as fully
                    # combinational: safe for externs that predate comb_deps.
                    dep_names = list(in_ports)
                stateful = type(child).tick is not PrimitiveModel.tick
            else:
                dep_names = child.comb_input_deps()
                stateful = True
            dep_slots = [
                self._slot(CellPort(cell.name, p)) for p in dep_names if p in in_ports
            ]
            index = len(self._nodes)
            node = _ChildNode(index, cell.name, child, in_ports, in_slots, dep_slots, out_slot_map)
            self._nodes.append(node)
            if stateful:
                stateful_nodes.append(index)

        resolver_of: Dict[PortRef, int] = {}
        for dst in all_dsts:
            slot = self._slot(dst)
            drivers = driver_map[dst]
            in_slots = sorted(dep_map[dst])
            go_group = done_slot = None
            if isinstance(dst, HolePort) and dst.port == GO:
                go_group = dst.group
                done_slot = self._slot(HolePort(dst.group, DONE))
                if done_slot not in in_slots:
                    in_slots.append(done_slot)
            index = len(self._nodes)
            node = _ResolverNode(index, slot, drivers, go_group, done_slot, in_slots)
            self._nodes.append(node)
            resolver_of[dst] = index
            if go_group is not None:
                self._go_resolver_of[go_group] = index

        self._flag_nodes = [{resolver_of[dst] for dst in dsts} for dsts in self._flag_dsts]
        self._done_node: Optional[int] = None
        if not self._done_from_wires and self._this_done_slot is not None:
            index = len(self._nodes)
            self._nodes.append(_DoneNode(index, self._this_done_slot))
            self._done_node = index

        #: Per child node, the primitive model its inlined code reads.
        self._models = [
            child if isinstance(child, PrimitiveModel) else None
            for child in self.children.values()
        ]
        self._values: List[int] = [0] * len(self._slot_refs)
        self._port_slot = {r.port: s for r, s in self._slots.items() if isinstance(r, ThisPort)}
        self._out_slots = [(p.name, self._port_slot[p.name]) for p in comp.outputs]
        self._done_slots = [
            i for i, ref in enumerate(self._slot_refs) if getattr(ref, "port", None) == DONE
        ]

        # -- fanout, writers, SCCs, levels, generated code -----------------
        n_slots = len(self._slot_refs)
        fanout: List[List[int]] = [[] for _ in range(n_slots)]
        self._writer: Dict[int, int] = {}
        for node in self._nodes:
            for slot in self._node_out_slots(node):
                self._writer[slot] = node.index
        for node in self._nodes:
            for slot in node.in_slots if not isinstance(node, _ChildNode) else node.dep_slots:
                fanout[slot].append(node.index)
        levels = self._levelize(fanout)
        scc_of = self._scc_of
        #: Per slot, the SCCs reading it (what a change to it dirties).
        self._fanout: List[Tuple[int, ...]] = [
            tuple(sorted({scc_of[i] for i in readers})) for readers in fanout
        ]
        code = self._code.get(id(comp))
        if code is None:
            code = self._code[id(comp)] = self._compile_code(levels)
        self._drain_fns, self._edge_fns, fires, inlined = code
        for i, fire in fires.items():
            self._nodes[i].fire = fire
        #: Children ticked generically (not by the edge code, not no-ops).
        generic = [i for i in stateful_nodes if i not in inlined]
        self._tick_nodes: List[_ChildNode] = [self._nodes[i] for i in generic]
        self._stateful_sccs = sorted({scc_of[i] for i in generic})

    def _node_out_slots(self, node) -> List[int]:
        if isinstance(node, _ChildNode):
            return list(node.out_slot_map.values())
        return [node.slot]

    def _levelize(self, fanout: List[List[int]]) -> List[int]:
        """Tarjan SCC condensation + longest-path levels (per SCC) over the DAG."""
        n = len(self._nodes)
        adj: List[List[int]] = [[] for _ in range(n)]
        for node in self._nodes:
            for slot in self._node_out_slots(node):
                adj[node.index].extend(fanout[slot])

        scc_of, sccs = tarjan_scc(adj)
        self._scc_of = scc_of
        self._scc_nodes = sccs
        self._scc_cyclic = cyclic_sccs(adj, scc_of, sccs)
        # Tarjan emits SCCs in reverse topological order; walk forward.
        levels = [0] * len(sccs)
        for scc_id in range(len(sccs) - 1, -1, -1):
            for member in sccs[scc_id]:
                for succ in adj[member]:
                    succ_scc = scc_of[succ]
                    if succ_scc != scc_id and levels[succ_scc] <= levels[scc_id]:
                        levels[succ_scc] = levels[scc_id] + 1
        return levels

    def _compile_code(self, levels: List[int]) -> Tuple[List[Callable], List[Callable], Dict[int, Callable], Set[int]]:
        """Compile the drain and edge chunks and the fires of cyclic SCC members.

        The rendered primitives' clock-edge lines, those in cyclic SCCs too,
        make the edge code; they mark their SCC only when the model changes.
        Also returns the indices of the child nodes the edge code ticks.
        """
        edges: List[Tuple[int, List[str]]] = []
        fires: Dict[int, Callable] = {}
        drain_blocks = self._drain_blocks(levels, edges, fires)
        drains = _compile_chunks("def drain(inst, v, d, fl, A, F, M):", "drain", drain_blocks)
        edge_blocks = [[f" {line}" for line in lines] for _, lines in sorted(edges)]
        edge_fns = _compile_chunks("def edge(v, d, M):", "edge", edge_blocks)
        return drains, edge_fns, fires, {index for index, _ in edges}

    def _drain_blocks(self, levels, edges, fires) -> Iterator[List[str]]:
        """Yield the drain's blocks, collecting ``edges`` and ``fires``.

        One block per SCC, in ``(level, scc id)`` order, clears a set dirty
        flag and evaluates the SCC: acyclic resolvers and primitives with a
        :meth:`~PrimitiveModel.render` form inline, the rest through the
        instance. Every mark lands on a higher level, so one pass in this
        order drains everything. Yielded one at a time, so only one chunk's
        source is held at once.
        """
        for scc in sorted(range(len(levels)), key=lambda k: (levels[k], k)):
            node = self._nodes[self._scc_nodes[scc][0]]
            if self._scc_cyclic[scc]:
                for i in self._scc_nodes[scc]:
                    if isinstance(self._nodes[i], _ResolverNode):
                        fires[i] = self._nodes[i].compile_fire()
                    elif (rendered := self._render(self._nodes[i], scc)) is not None and rendered[1]:
                        edges.append((i, rendered[1]))  # comb stays generic
                block = [f" if d[{scc}]: d[{scc}] = 0; inst._run_cyclic_scc({scc})"]
            elif (rendered := self._render(node, scc)) is not None:
                outputs, edge = rendered
                block = [f" if d[{scc}]:", f"  d[{scc}] = 0"]
                for port, expr in outputs.items():
                    slot = node.out_slot_map.get(port)
                    if slot is not None:
                        block += [f"  x = {expr}", self._commit(slot, "  ")]
                if edge:
                    edges.append((node.index, edge))
            elif not isinstance(node, _ResolverNode):
                block = [f" if d[{scc}]: d[{scc}] = 0; inst._fire({node.index})"]
            else:
                block = [f" if d[{scc}]:", f"  d[{scc}] = 0", *node.body("  "), self._commit(node.slot, "  ")]
            yield block

    def _render(self, node, scc: int) -> Optional[Rendered]:
        """The inline form of a primitive child node, or ``None``."""
        if not isinstance(node, _ChildNode) or not isinstance(node.child, PrimitiveModel):
            return None
        ins = {p: f"v[{s}]" for p, s in zip(node.in_ports, node.in_slots)}
        return node.child.render(ins, f"M[{node.index}]", f"d[{scc}] = 1")

    def _commit(self, slot: int, pad: str) -> str:
        """Source storing ``x`` into ``slot`` and marking its readers if it changed."""
        marks = "".join(f"d[{k}] = " for k in self._fanout[slot])
        return f"{pad}if v[{slot}] != x: v[{slot}] = x" + (f"; {marks}1" if marks else "")

    def comb_input_deps(self) -> List[str]:
        """Input ports with a combinational path to some output.

        Used by a parent instance to wire this child into its dependency
        graph. ``go`` is always included when the component has control or
        groups: group activation (and thereby outputs) can follow ``go``
        combinationally through the phase configuration, which the slot
        graph does not model as edges.
        """
        if self._io_deps is not None:
            return self._io_deps
        out_slots = {
            self._slots[ThisPort(p.name)]
            for p in self.comp.outputs
            if ThisPort(p.name) in self._slots
        }
        deps: List[str] = []
        for port in self.comp.inputs:
            start = self._slots.get(ThisPort(port.name))
            if start is None:
                continue
            if self._slot_reaches(start, out_slots):
                deps.append(port.name)
        if GO not in deps and (self.comp.groups or not self.comp.control.is_empty()):
            deps.append(GO)
        self._io_deps = deps
        return deps

    def _slot_reaches(self, start: int, targets: Set[int]) -> bool:
        if start in targets:
            return True
        seen: Set[int] = set()
        frontier = [start]
        while frontier:
            slot = frontier.pop()
            for scc in self._fanout[slot]:
                if scc in seen:
                    continue
                seen.add(scc)
                for node_idx in self._scc_nodes[scc]:
                    for out in self._node_out_slots(self._nodes[node_idx]):
                        if out in targets:
                            return True
                        frontier.append(out)
        return False

    # -- dirty-set bookkeeping --------------------------------------------
    def _reset_nets(self) -> None:
        """Zero the nets and the phase state derived from them; all dirty."""
        self._values[:] = [0] * len(self._values)
        self._extra_nets.clear()
        self._invoke_flags: List[bool] = [False] * len(self._flag_dsts)
        self._active: Set[str] = set()
        self._forced: Set[str] = set()
        self._finished = False
        self._dirty: List[int] = [1] * len(self._scc_nodes)

    def _mark_node(self, node_idx: int) -> None:
        self._dirty[self._scc_of[node_idx]] = 1

    def _mark_slot(self, slot: int) -> None:
        dirty = self._dirty
        for scc in self._fanout[slot]:
            dirty[scc] = 1

    def _mark_all(self) -> None:
        self._dirty[:] = [1] * len(self._dirty)

    # -- net access --------------------------------------------------------
    def read(self, ref: PortRef) -> int:
        if isinstance(ref, ConstPort):
            return ref.value
        slot = self._slots.get(ref)
        if slot is not None:
            return self._values[slot]
        return self._extra_nets.get(ref, 0)

    # -- the primitive protocol --------------------------------------------
    def comb(self, inputs: Dict[str, int]) -> Dict[str, int]:
        self._apply_inputs(inputs)
        self.settle()
        values = self._values
        return {name: values[slot] for name, slot in self._out_slots}

    def _apply_inputs(self, inputs: Dict[str, int]) -> None:
        values = self._values
        slot_of = self._port_slot
        for name, value in inputs.items():
            slot = slot_of.get(name)
            if slot is None:
                self._extra_nets[ThisPort(name)] = value
            elif values[slot] != value:
                values[slot] = value
                self._mark_slot(slot)

    def _done_values(self) -> List[int]:
        values = self._values
        return [values[slot] for slot in self._done_slots]

    # -- simulation core ----------------------------------------------------
    def _running(self) -> bool:
        return self._values[self._go_slot] != 0

    def settle(self) -> None:
        """Run the generated drain over the dirty SCCs (one clock phase)."""
        self._begin_phase()
        v, d, fl, models = self._values, self._dirty, self._invoke_flags, self._models
        active, forced = self._active, self._forced
        for drain in self._drain_fns:
            drain(self, v, d, fl, active, forced, models)

    def _begin_phase(self) -> None:
        """Diff the executor-derived configuration, dirtying what moved."""
        executor = self.executor
        running = self._running()
        active = executor.active_groups() if running else _EMPTY
        forced = executor.forced_groups() if running else _EMPTY
        self._finished = executor.finished()
        changed = (set(active) ^ self._active) | (set(forced) ^ self._forced)
        if changed:
            for group in changed:
                node_idx = self._go_resolver_of.get(group)
                if node_idx is not None:
                    self._mark_node(node_idx)
            self._active = set(active)
            self._forced = set(forced)
        if self._flag_dsts:
            live = {
                self._invoke_flag_of[id(node)]
                for node in executor.active_invoke_nodes()
                if id(node) in self._invoke_flag_of
            }
            flags = self._invoke_flags
            for flag in range(len(flags)):
                on = flag in live
                if flags[flag] != on:
                    flags[flag] = on
                    for node_idx in self._flag_nodes[flag]:
                        self._mark_node(node_idx)
        if self._done_node is not None:
            self._mark_node(self._done_node)

    def _fire(self, node_idx: int) -> None:
        """Fire a child or ``this.done`` node, dirtying what changed."""
        for slot in self._nodes[node_idx].fire(self):
            self._mark_slot(slot)

    def _run_cyclic_scc(self, scc: int) -> None:
        """Bounded fixpoint iteration inside one combinational cycle."""
        members = [self._nodes[i] for i in self._scc_nodes[scc]]
        dirty = self._dirty
        limit = 8 * (len(members) + 8)
        for _ in range(limit):
            any_change = False
            for node in members:
                for slot in node.fire(self):
                    any_change = True
                    for reader in self._fanout[slot]:
                        if reader != scc:
                            dirty[reader] = 1
            if not any_change:
                return
        # Out of iterations: escalate to whole-design probe sweeps (every
        # node, in order) to classify a limit cycle vs. divergence. If the
        # logic converges late, the probe visited every node, so the dirty
        # bookkeeping is satisfied wholesale.
        fires = [node.fire or node.compile_fire() for node in self._nodes]
        self._probe_nonconvergence(lambda: any([fire(self) for fire in fires]), limit)
        dirty[:] = [0] * len(dirty)

    def step_edge(self) -> None:
        """The clock edge: latch children, advance control state."""
        values = self._values
        pending = [(node.child, node.inputs(values)) for node in self._tick_nodes]
        self._step_control()
        for child, ins in pending:
            child.tick(ins)
        dirty = self._dirty
        for edge in self._edge_fns:
            edge(values, dirty, self._models)
        for scc in self._stateful_sccs:
            dirty[scc] = 1
