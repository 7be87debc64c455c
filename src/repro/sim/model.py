"""The simulation model: the shared instance core, the sweep engine, and
the control executor.

:class:`SimInstance` is what both engines share: the instance tree (one
child per cell, either a primitive model or a nested instance), control
stepping at the clock edge, the watchdog's introspection (``state_dump``,
``done_signature``, ``stuck_groups``, ``deadlock_report``), path lookup,
and the diagnosis of combinational logic that does not converge. An
engine supplies the net view and the settle loop.

:class:`ComponentInstance` is the reference *sweep* engine. Each instance
exposes the same protocol as a primitive model — ``comb`` (combinational
outputs from inputs) and ``tick`` (clock edge) — so hierarchy falls out
naturally: a parent's settle loop iterates its children to a joint
fixpoint.

Group activation follows the paper's semantics: a group's assignments are
evaluated only while its ``go`` hole is high. The ``go`` hole is high when
the control executor enables the group *or* when another (active) group's
assignment drives it — the latter is how programs behave after the
``CompileControl`` pass wires go/done signals structurally.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, MutableMapping, Optional, Set, Tuple

from repro.errors import (
    CombinationalLoopError,
    MultipleDriverError,
    OscillationError,
    SimulationError,
    UndefinedError,
)
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
from repro.ir.control import (
    Control,
    Empty,
    Enable,
    If,
    Invoke,
    Par,
    Repeat,
    Seq,
    While,
)
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
from repro.sim.structural import (
    check_structural_drivers,
    invoke_assignments,
    static_drivers,
)
from repro.stdlib.behaviors import PrimitiveModel, make_model

ReadFn = Callable[[PortRef], int]


def eval_guard(guard: Guard, read: ReadFn) -> bool:
    """Evaluate a guard against a net-reading function."""
    if isinstance(guard, TrueGuard):
        return True
    if isinstance(guard, PortGuard):
        return read(guard.port) != 0
    if isinstance(guard, NotGuard):
        return not eval_guard(guard.inner, read)
    if isinstance(guard, AndGuard):
        return eval_guard(guard.left, read) and eval_guard(guard.right, read)
    if isinstance(guard, OrGuard):
        return eval_guard(guard.left, read) or eval_guard(guard.right, read)
    if isinstance(guard, CmpGuard):
        return CMP_FNS[guard.op](read(guard.left), read(guard.right))
    raise SimulationError(f"cannot evaluate guard {guard!r}")


class SimInstance:
    """One simulated instantiation of a component: the engine-neutral core.

    Owns the child tree, the control executor and its go/done calling
    convention, the clock-edge ``tick``, ``reset``, the watchdog hooks,
    path lookup and the non-convergence probe. An engine subclass supplies
    the net view (``nets``, ``read``, ``_running``), ``settle``,
    ``_apply_inputs``, ``_reset_nets``, ``_done_values`` and ``step_edge``
    (which latches the children and calls :meth:`_step_control`).
    """

    #: Extra probe sweeps used to tell a limit cycle from non-convergence.
    OSCILLATION_PROBE_ITERS = 64

    nets: MutableMapping[PortRef, int]

    def __init__(self, program: Program, comp: Component, path: str = "main"):
        self.program = program
        self.comp = comp
        self.path = path
        self.children: Dict[str, object] = {
            cell.name: self._make_child(cell) for cell in comp.cells.values()
        }
        self._subinstances: List[SimInstance] = [
            c for c in self.children.values() if isinstance(c, SimInstance)
        ]
        # True when wires drive this component's done port directly (the
        # lowered form); the executor then must not drive it.
        self._done_from_wires = any(
            isinstance(a.dst, ThisPort) and a.dst.port == DONE
            for _, a in comp.all_assignments()
        )
        check_structural_drivers(comp, self.path)
        self.executor = ControlExecutor(self, comp.control)
        self._go_was_high = False

    def _make_child(self, cell) -> object:
        """A primitive model, or a nested instance for a component with a
        body. Extern components have no body; they need a registered model."""
        name = cell.comp_name
        if self.program.has_component(name):
            target = self.program.get_component(name)
            has_body = (
                target.cells or target.groups or target.continuous
                or not target.control.is_empty()
            )
            if has_body or not any(
                any(c.name == name for c in e.components) for e in self.program.externs
            ):
                return self._sub_instance(target, f"{self.path}.{cell.name}")
        return make_model(name, cell.args)

    def _sub_instance(self, comp: Component, path: str) -> "SimInstance":
        """A child instance of this engine (the levelized one shares its code)."""
        return type(self)(self.program, comp, path)

    # -- the primitive protocol ---------------------------------------------
    def tick(self, inputs: Dict[str, int]) -> None:
        self._apply_inputs(inputs)
        self.settle()
        self.step_edge()

    def reset(self) -> None:
        self.executor.reset()
        for child in self.children.values():
            child.reset()
        self._go_was_high = False
        self._reset_nets()

    def _step_control(self) -> None:
        """Advance control state at the clock edge."""
        if self._running():
            self.executor.step()
            self._go_was_high = True
        elif self._go_was_high:
            # The calling convention: control state resets once go falls.
            self.executor.reset()
            self._go_was_high = False

    def _probe_nonconvergence(self, sweep: Callable[[], bool], spent_iters: int) -> None:
        """The settle loop ran out of iterations: classify the failure.

        Keep calling ``sweep`` (one evaluation of every node; True if a
        net changed) for a bounded number of extra iterations while
        fingerprinting the nets. A repeated fingerprint proves a true
        combinational limit cycle (:class:`OscillationError`, reporting the
        nets that toggle and the period); no repeat within the probe means
        generic non-convergence (:class:`CombinationalLoopError`). Returns
        if the logic converges late after all.
        """
        seen: Dict[Tuple, int] = {}
        history: List[Dict[PortRef, int]] = []
        for i in range(self.OSCILLATION_PROBE_ITERS):
            state = dict(self.nets)
            fingerprint = tuple(
                sorted((ref.to_string(), val) for ref, val in state.items())
            )
            if fingerprint in seen:
                start = seen[fingerprint]
                period = i - start
                cycle_states = history[start:]
                toggling = sorted(
                    {
                        ref.to_string()
                        for state in cycle_states
                        for ref, val in state.items()
                        if any(s.get(ref, 0) != val for s in cycle_states)
                    }
                )
                raise OscillationError(
                    f"{self.path}: combinational limit cycle with period "
                    f"{period}: nets oscillate forever: "
                    + ", ".join(toggling[:12])
                    + ("..." if len(toggling) > 12 else ""),
                    nets=toggling,
                    period=period,
                ).with_state(self.state_dump())
            seen[fingerprint] = i
            history.append(state)
            if not sweep():
                return
        raise CombinationalLoopError(
            f"{self.path}: combinational logic did not converge after "
            f"{spent_iters + self.OSCILLATION_PROBE_ITERS} iterations "
            f"(values still changing; not a finite limit cycle)"
        ).with_state(self.state_dump())

    # -- watchdog support ----------------------------------------------------
    def _active_groups(self) -> List[str]:
        return sorted(self.executor.active_groups() if self._running() else ())

    def state_dump(self, max_nets: int = 48) -> str:
        """Human-readable snapshot of nets and control state for reports."""
        lines = [f"instance {self.path}:"]
        if self.comp.groups:
            lines.append(f"  active groups: {', '.join(self._active_groups()) or '(none)'}")
        nets = sorted((ref.to_string(), val) for ref, val in self.nets.items())
        for name, val in nets[:max_nets]:
            lines.append(f"  {name} = {val}")
        if len(nets) > max_nets:
            lines.append(f"  ... ({len(nets) - max_nets} more nets)")
        for child in self._subinstances:
            lines.append(child.state_dump(max_nets=max_nets // 2))
        return "\n".join(lines)

    def done_signature(self) -> Tuple:
        """Values of every ``done``-like net, recursively.

        The watchdog fingerprints this each cycle: in any design still
        making progress some group, cell, or component ``done`` changes
        within a bounded window; a frozen signature means deadlock.
        """
        values: List[object] = self._done_values()
        for child in self._subinstances:
            values.append(child.done_signature())
        return tuple(values)

    def stuck_groups(self) -> List[str]:
        """Dotted names of groups active right now, recursively."""
        out = [f"{self.path}.{name}" for name in self._active_groups()]
        for child in self._subinstances:
            out.extend(child.stuck_groups())
        return out

    def deadlock_report(self) -> str:
        """Explain what each active group's done condition is waiting on."""
        lines: List[str] = []
        active = self._active_groups()
        for name in active:
            group = self.comp.groups[name]
            lines.append(f"{self.path}: group {name!r} is stuck; waiting on:")
            done_writes = group.done_assignments()
            if not done_writes:
                lines.append("    (group has no done condition)")
            for assign in done_writes:
                guard_val = eval_guard(assign.guard, self.read)
                src_val = self.read(assign.src)
                lines.append(
                    f"    {assign.to_string()}  "
                    f"[guard={'1' if guard_val else '0'}, src={src_val}]"
                )
        if not active and self._running() and self.comp.groups:
            lines.append(
                f"{self.path}: running but no group is active "
                f"(control executor state inconsistent?)"
            )
        for child in self._subinstances:
            sub = child.deadlock_report()
            if sub:
                lines.append(sub)
        return "\n".join(lines)

    # -- inspection ----------------------------------------------------------
    def find(self, path: str) -> object:
        """Locate a child instance by dotted cell path (e.g. ``"pe0.acc"``)."""
        node: object = self
        for part in path.split("."):
            if not isinstance(node, SimInstance) or part not in node.children:
                raise UndefinedError(f"no cell at path {path!r}")
            node = node.children[part]
        return node

    def find_model(self, path: str) -> PrimitiveModel:
        node = self.find(path)
        if isinstance(node, PrimitiveModel):
            return node
        raise UndefinedError(f"cell at {path!r} is not a primitive")


class ComponentInstance(SimInstance):
    """The sweep engine: every assignment and child, every sweep, to fixpoint."""

    def __init__(self, program: Program, comp: Component, path: str = "main"):
        self.nets: Dict[PortRef, int] = {}
        super().__init__(program, comp, path)
        self._child_inputs: Dict[str, List[str]] = {
            cell.name: [
                p.name
                for p in program.cell_signature(cell).values()
                if p.direction is Direction.INPUT
            ]
            for cell in comp.cells.values()
        }
        # All destinations any assignment can drive: undriven ones read 0.
        # Every group's go hole is included so that groups leaving the
        # active set release their assignments.
        self._all_dsts: Set[PortRef] = {
            a.dst for _, a in comp.all_assignments()
        } | set(self.executor.extra_dsts()) | {
            HolePort(name, GO) for name in comp.groups
        }
        self._max_iters = 8 * (
            len(list(comp.all_assignments())) + len(self.children) + 8
        )

    # -- net access -----------------------------------------------------
    def read(self, ref: PortRef) -> int:
        if isinstance(ref, ConstPort):
            return ref.value
        return self.nets.get(ref, 0)

    def _set(self, ref: PortRef, value: int) -> bool:
        if self.nets.get(ref, 0) != value:
            self.nets[ref] = value
            return True
        return False

    def _apply_inputs(self, inputs: Dict[str, int]) -> None:
        for name, value in inputs.items():
            self.nets[ThisPort(name)] = value

    def _reset_nets(self) -> None:
        self.nets.clear()

    def _done_values(self) -> List[int]:
        return [
            val
            for ref, val in self.nets.items()
            if getattr(ref, "port", None) == DONE
        ]

    # -- the primitive protocol --------------------------------------------
    def comb(self, inputs: Dict[str, int]) -> Dict[str, int]:
        self._apply_inputs(inputs)
        self.settle()
        return {p.name: self.read(ThisPort(p.name)) for p in self.comp.outputs}

    # -- simulation core ----------------------------------------------------
    def _running(self) -> bool:
        return self.read(ThisPort(GO)) != 0

    def settle(self) -> None:
        """Evaluate combinational logic to a fixpoint (one clock phase).

        Group activation follows the semantics GoInsertion + CompileControl
        realize structurally: a group's done-hole writes are always live,
        and an executor-enabled group's ``go`` is high only while its done
        hole is low (preventing the double-commit hazard on registered
        ``done`` signals). Condition groups of ``if``/``while`` are forced
        active during the condition phase regardless of their done value.
        """
        running = self._running()
        active = self.executor.active_groups() if running else set()
        forced = self.executor.forced_groups() if running else set()
        assigns = self._collect_assignments()
        read = self.read
        for _ in range(self._max_iters):
            if not self._settle_once(assigns, active, forced, read):
                return
        self._probe_nonconvergence(
            lambda: self._settle_once(assigns, active, forced, read),
            self._max_iters,
        )

    def _settle_once(
        self,
        assigns: List[Tuple[Optional[str], Assignment]],
        active: Set[str],
        forced: Set[str],
        read: ReadFn,
    ) -> bool:
        """One sweep of the combinational fixpoint; True if any net changed."""
        changed = False
        # 1. Child combinational outputs from current input nets.
        for name, child in self.children.items():
            ins = {
                port: self.nets.get(CellPort(name, port), 0)
                for port in self._child_inputs[name]
            }
            for port, value in child.comb(ins).items():
                changed |= self._set(CellPort(name, port), value)
        # 2. Guarded assignments: compute the driven value per dst.
        driven: Dict[PortRef, Tuple[int, Assignment]] = {}
        for gate_group, assign in assigns:
            if gate_group is not None and self.nets.get(
                HolePort(gate_group, GO), 0
            ) == 0:
                continue
            if eval_guard(assign.guard, read):
                value = read(assign.src)
                prev = driven.get(assign.dst)
                if prev is not None and prev[0] != value:
                    raise MultipleDriverError(
                        f"{self.path}: port {assign.dst.to_string()} driven "
                        f"to both {prev[0]} and {value} by\n  "
                        f"{prev[1].to_string()}\n  {assign.to_string()}"
                    )
                driven[assign.dst] = (value, assign)
        # 3. Commit: undriven destinations fall to 0; the executor
        #    drives go holes of enabled groups (gated by their done).
        for dst in self._all_dsts:
            value = driven[dst][0] if dst in driven else 0
            if isinstance(dst, HolePort) and dst.port == GO:
                if dst.group in forced:
                    value = 1
                elif dst.group in active:
                    done_now = self.nets.get(HolePort(dst.group, DONE), 0)
                    value = 0 if done_now else 1
            changed |= self._set(dst, value)
        # 4. The executor drives done when control completes (unlowered
        #    programs only). The value depends only on latched executor
        #    state — not on the current go — mirroring a registered
        #    done and avoiding go/done oscillation when a parent gates
        #    go with !done; it clears at the reset edge after go falls.
        if not self._done_from_wires:
            done_value = 1 if self.executor.finished() else 0
            changed |= self._set(ThisPort(DONE), done_value)
        return changed

    def _collect_assignments(self) -> List[Tuple[Optional[str], Assignment]]:
        """All assignments that may fire this cycle, with their gate group.

        Writes to a group's own done hole are ungated (gate ``None``): this
        matches GoInsertion, which guards every assignment in a group with
        the group's go *except* its done condition. The static part is the
        shared :func:`~repro.sim.structural.static_drivers` enumeration, so
        both simulation engines agree on the driver set.
        """
        result: List[Tuple[Optional[str], Assignment]] = list(
            static_drivers(self.comp)
        )
        result.extend(self.executor.extra_assignments())
        return result

    def step_edge(self) -> None:
        """The clock edge: latch children, advance control state."""
        # Gather every child's final input values before mutating anything.
        pending: List[Tuple[object, Dict[str, int]]] = []
        for name, child in self.children.items():
            ins = {
                port: self.nets.get(CellPort(name, port), 0)
                for port in self._child_inputs[name]
            }
            pending.append((child, ins))
        self._step_control()
        for child, ins in pending:
            child.tick(ins)


# ---------------------------------------------------------------------------
# Control execution (the interpreter for unlowered programs)
# ---------------------------------------------------------------------------


class _NodeState:
    """Runtime state of one control-tree node."""

    def __init__(self, owner: "ControlExecutor"):
        self.owner = owner

    def start(self) -> None:
        """(Re-)enter this node."""

    def is_done(self) -> bool:
        raise NotImplementedError

    def active_groups(self, out: Set[str]) -> None:
        """Add the groups this node currently enables."""

    def forced_groups(self, out: Set[str]) -> None:
        """Add condition groups that must stay active regardless of done."""

    def extra_assignments(self, out: List[Tuple[Optional[str], Assignment]]) -> None:
        """Add invoke-synthesized assignments when active."""

    def invoke_nodes(self, out: List[Invoke]) -> None:
        """Add the :class:`Invoke` control nodes currently driving a cell.

        The levelized engine precompiles each invoke's synthesized
        assignments once (keyed by the control-tree node, which is stable
        across executor resets) and uses this walk to know which are live.
        """

    def step(self) -> None:
        """Advance at the clock edge using the settled net values."""


class _EmptyState(_NodeState):
    def is_done(self) -> bool:
        return True

    def step(self) -> None:
        pass


class _EnableState(_NodeState):
    def __init__(self, owner: "ControlExecutor", node: Enable):
        super().__init__(owner)
        self.group = node.group
        self._finished = False

    def start(self) -> None:
        self._finished = False

    def is_done(self) -> bool:
        return self._finished

    def active_groups(self, out: Set[str]) -> None:
        if not self._finished:
            out.add(self.group)

    def step(self) -> None:
        if not self._finished and self.owner.value(HolePort(self.group, DONE)):
            self._finished = True


class _InvokeState(_NodeState):
    """Drives a cell through go/done with the invoke's port bindings."""

    def __init__(self, owner: "ControlExecutor", node: Invoke):
        super().__init__(owner)
        self.node = node
        self._finished = False
        self._assigns: List[Tuple[Optional[str], Assignment]] = [
            (None, assign) for assign in invoke_assignments(node)
        ]

    def start(self) -> None:
        self._finished = False

    def is_done(self) -> bool:
        return self._finished

    def extra_assignments(self, out: List[Tuple[Optional[str], Assignment]]) -> None:
        if not self._finished:
            out.extend(self._assigns)

    def invoke_nodes(self, out: List[Invoke]) -> None:
        if not self._finished:
            out.append(self.node)

    def step(self) -> None:
        if not self._finished and self.owner.value(CellPort(self.node.cell, DONE)):
            self._finished = True


class _SeqState(_NodeState):
    def __init__(self, owner: "ControlExecutor", node: Seq):
        super().__init__(owner)
        self.states = [owner.make_state(child) for child in node.stmts]
        self.index = 0

    def start(self) -> None:
        self.index = 0
        if self.states:
            self.states[0].start()
        self._skip_finished()

    def _skip_finished(self) -> None:
        while self.index < len(self.states) and self.states[self.index].is_done():
            self.index += 1
            if self.index < len(self.states):
                self.states[self.index].start()

    def is_done(self) -> bool:
        return self.index >= len(self.states)

    def active_groups(self, out: Set[str]) -> None:
        if not self.is_done():
            self.states[self.index].active_groups(out)

    def forced_groups(self, out: Set[str]) -> None:
        if not self.is_done():
            self.states[self.index].forced_groups(out)

    def extra_assignments(self, out) -> None:
        if not self.is_done():
            self.states[self.index].extra_assignments(out)

    def invoke_nodes(self, out) -> None:
        if not self.is_done():
            self.states[self.index].invoke_nodes(out)

    def step(self) -> None:
        if self.is_done():
            return
        self.states[self.index].step()
        if self.states[self.index].is_done():
            self.index += 1
            if self.index < len(self.states):
                self.states[self.index].start()
                self._skip_finished()


class _ParState(_NodeState):
    def __init__(self, owner: "ControlExecutor", node: Par):
        super().__init__(owner)
        self.states = [owner.make_state(child) for child in node.stmts]

    def start(self) -> None:
        for state in self.states:
            state.start()

    def is_done(self) -> bool:
        return all(state.is_done() for state in self.states)

    def active_groups(self, out: Set[str]) -> None:
        for state in self.states:
            if not state.is_done():
                state.active_groups(out)

    def forced_groups(self, out: Set[str]) -> None:
        for state in self.states:
            if not state.is_done():
                state.forced_groups(out)

    def extra_assignments(self, out) -> None:
        for state in self.states:
            if not state.is_done():
                state.extra_assignments(out)

    def invoke_nodes(self, out) -> None:
        for state in self.states:
            if not state.is_done():
                state.invoke_nodes(out)

    def step(self) -> None:
        for state in self.states:
            if not state.is_done():
                state.step()


class _CondMixin(_NodeState):
    """Shared cond-group handling for if and while."""

    cond_group: Optional[str]
    port: PortRef

    def cond_active_groups(self, out: Set[str]) -> None:
        if self.cond_group is not None:
            out.add(self.cond_group)

    def cond_finished(self) -> bool:
        """Has the condition value been computed this activation?"""
        if self.cond_group is None:
            return True  # continuously computed: read the port directly
        group = self.owner.instance.comp.get_group(self.cond_group)
        if group.comb:
            return True  # one-cycle combinational evaluation
        return bool(self.owner.value(HolePort(self.cond_group, DONE)))


class _IfState(_CondMixin):
    def __init__(self, owner: "ControlExecutor", node: If):
        super().__init__(owner)
        self.port = node.port
        self.cond_group = node.cond_group
        self.tstate = owner.make_state(node.tbranch)
        self.fstate = owner.make_state(node.fbranch)
        self.phase = "cond"
        self.chosen: Optional[_NodeState] = None

    def start(self) -> None:
        self.phase = "cond"
        self.chosen = None

    def is_done(self) -> bool:
        return self.phase == "done"

    def active_groups(self, out: Set[str]) -> None:
        if self.phase == "branch":
            assert self.chosen is not None
            self.chosen.active_groups(out)

    def forced_groups(self, out: Set[str]) -> None:
        if self.phase == "cond":
            self.cond_active_groups(out)
        elif self.phase == "branch":
            assert self.chosen is not None
            self.chosen.forced_groups(out)

    def extra_assignments(self, out) -> None:
        if self.phase == "branch" and self.chosen is not None:
            self.chosen.extra_assignments(out)

    def invoke_nodes(self, out) -> None:
        if self.phase == "branch" and self.chosen is not None:
            self.chosen.invoke_nodes(out)

    def step(self) -> None:
        if self.phase == "cond":
            if self.cond_finished():
                value = self.owner.value(self.port)
                self.chosen = self.tstate if value else self.fstate
                self.chosen.start()
                self.phase = "done" if self.chosen.is_done() else "branch"
        elif self.phase == "branch":
            assert self.chosen is not None
            self.chosen.step()
            if self.chosen.is_done():
                self.phase = "done"


class _WhileState(_CondMixin):
    def __init__(self, owner: "ControlExecutor", node: While):
        super().__init__(owner)
        self.port = node.port
        self.cond_group = node.cond_group
        self.body = owner.make_state(node.body)
        self.phase = "cond"

    def start(self) -> None:
        self.phase = "cond"

    def is_done(self) -> bool:
        return self.phase == "done"

    def active_groups(self, out: Set[str]) -> None:
        if self.phase == "body":
            self.body.active_groups(out)

    def forced_groups(self, out: Set[str]) -> None:
        if self.phase == "cond":
            self.cond_active_groups(out)
        elif self.phase == "body":
            self.body.forced_groups(out)

    def extra_assignments(self, out) -> None:
        if self.phase == "body":
            self.body.extra_assignments(out)

    def invoke_nodes(self, out) -> None:
        if self.phase == "body":
            self.body.invoke_nodes(out)

    def step(self) -> None:
        if self.phase == "cond":
            if self.cond_finished():
                if self.owner.value(self.port):
                    self.body.start()
                    # An instantly-done body still re-evaluates the condition
                    # next cycle, so loops always make progress.
                    self.phase = "cond" if self.body.is_done() else "body"
                else:
                    self.phase = "done"
        elif self.phase == "body":
            self.body.step()
            if self.body.is_done():
                self.phase = "cond"


class _RepeatState(_NodeState):
    def __init__(self, owner: "ControlExecutor", node: Repeat):
        super().__init__(owner)
        self.times = node.times
        self.body = owner.make_state(node.body)
        self.remaining = node.times

    def start(self) -> None:
        self.remaining = self.times
        if self.remaining:
            self.body.start()
            if self.body.is_done():
                self.remaining = 0  # empty body: nothing to iterate

    def is_done(self) -> bool:
        return self.remaining == 0

    def active_groups(self, out: Set[str]) -> None:
        if not self.is_done():
            self.body.active_groups(out)

    def forced_groups(self, out: Set[str]) -> None:
        if not self.is_done():
            self.body.forced_groups(out)

    def extra_assignments(self, out) -> None:
        if not self.is_done():
            self.body.extra_assignments(out)

    def invoke_nodes(self, out) -> None:
        if not self.is_done():
            self.body.invoke_nodes(out)

    def step(self) -> None:
        if self.is_done():
            return
        self.body.step()
        if self.body.is_done():
            self.remaining -= 1
            if self.remaining:
                self.body.start()


class ControlExecutor:
    """Executes a component's control tree cycle-by-cycle."""

    def __init__(self, instance: SimInstance, control: Control):
        self.instance = instance
        self.control = control
        self.root = self.make_state(control)
        self.root.start()

    def make_state(self, node: Control) -> _NodeState:
        if isinstance(node, Empty):
            return _EmptyState(self)
        if isinstance(node, Enable):
            return _EnableState(self, node)
        if isinstance(node, Seq):
            return _SeqState(self, node)
        if isinstance(node, Par):
            return _ParState(self, node)
        if isinstance(node, If):
            return _IfState(self, node)
        if isinstance(node, While):
            return _WhileState(self, node)
        if isinstance(node, Invoke):
            return _InvokeState(self, node)
        if isinstance(node, Repeat):
            return _RepeatState(self, node)
        raise SimulationError(f"cannot execute control node {node!r}")

    def value(self, ref: PortRef) -> int:
        return self.instance.read(ref)

    def active_groups(self) -> Set[str]:
        out: Set[str] = set()
        if not self.root.is_done():
            self.root.active_groups(out)
        return out

    def forced_groups(self) -> Set[str]:
        out: Set[str] = set()
        if not self.root.is_done():
            self.root.forced_groups(out)
        return out

    def extra_assignments(self) -> List[Tuple[Optional[str], Assignment]]:
        out: List[Tuple[Optional[str], Assignment]] = []
        if not self.root.is_done():
            self.root.extra_assignments(out)
        return out

    def active_invoke_nodes(self) -> List[Invoke]:
        """The invoke control nodes whose bindings are currently live."""
        out: List[Invoke] = []
        if not self.root.is_done():
            self.root.invoke_nodes(out)
        return out

    def extra_dsts(self) -> Iterable[PortRef]:
        for node in self.control.walk():
            if isinstance(node, Invoke):
                for assign in invoke_assignments(node):
                    yield assign.dst

    def finished(self) -> bool:
        return self.root.is_done()

    def step(self) -> None:
        if not self.root.is_done():
            self.root.step()

    def reset(self) -> None:
        self.root = self.make_state(self.control)
        self.root.start()
