"""Property-based cross-checking of the two simulation engines.

A seeded generator of small, well-formed Calyx components — registers,
every two-input operator, and ``seq``/``par``/``if``/``while`` control — whose
behavior under the sweep engine and the levelized engine is compared
observable-for-observable: cycle count, final register values, and the
structural done-net valuation.

Programs are generated as a *spec tree* first and rendered to surface
syntax second, so that a divergence can be **shrunk**: subtrees of the
failing spec are greedily removed while the divergence reproduces,
yielding a minimal repro whose source is small enough to debug by eye.

Well-formedness by construction:

* every ``while`` owns a dedicated counter register, bounded condition,
  and increment group, so all loops terminate;
* ``par`` arms write disjoint registers, so no multiple-driver races;
* every group's done condition is a register (or memory) done signal or a
  constant, so no group hangs.
"""

from __future__ import annotations

import copy
import random
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.ir import parse_program
from repro.ir.ast import CellPort, HolePort, ThisPort
from repro.ir.ports import DONE
from repro.sim import Testbench
from repro.sim.model import SimInstance
from repro.stdlib.behaviors import RegModel

WIDTH = 8

# ---------------------------------------------------------------------------
# Spec model
# ---------------------------------------------------------------------------


@dataclass
class GroupSpec:
    """One generated group: a register write plus its done condition."""

    name: str
    lines: List[str]
    #: rendered verbatim after the group name, e.g. ``<"static"=4>``;
    #: empty for generated programs, set by the lint-oracle mutators.
    attrs: str = ""

    def render(self) -> List[str]:
        body = "".join(f"      {line}\n" for line in self.lines)
        return [f"    group {self.name}{self.attrs} {{\n{body}    }}"]


@dataclass
class CellSpec:
    name: str
    decl: str  # e.g. "std_reg(8)"


@dataclass
class Node:
    """One control-tree node of a generated program.

    ``kind`` is ``enable | seq | par | if | while``; ``groups`` holds the
    node's own groups (the enable's group, a cond group, a while's
    init/incr), ``children`` the nested control.
    """

    kind: str
    children: List["Node"] = field(default_factory=list)
    groups: List[GroupSpec] = field(default_factory=list)
    #: extra rendering data: cond port for if/while, group names, ...
    meta: Dict[str, str] = field(default_factory=dict)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass
class ProgramSpec:
    seed: int
    cells: List[CellSpec]
    root: Node

    def render(self) -> str:
        groups: List[str] = []
        for node in self.root.walk():
            for group in node.groups:
                groups.extend(group.render())
        cells = "".join(f"    {c.name} = {c.decl};\n" for c in self.cells)
        wires = "\n".join(groups)
        control = _render_control(self.root, indent="    ")
        return (
            "component main(go: 1) -> (done: 1) {\n"
            f"  cells {{\n{cells}  }}\n"
            f"  wires {{\n{wires}\n  }}\n"
            f"  control {{\n{control}\n  }}\n"
            "}\n"
        )


def _render_control(node: Node, indent: str) -> str:
    pad = indent
    if node.kind == "enable":
        return f"{pad}{node.meta['group']};"
    if node.kind in ("seq", "par"):
        if not node.children:
            return f"{pad}seq {{ }}"
        inner = "\n".join(
            _render_control(c, indent + "  ") for c in node.children
        )
        return f"{pad}{node.kind} {{\n{inner}\n{pad}}}"
    if node.kind == "if":
        then = _render_control(node.children[0], indent + "  ")
        other = _render_control(node.children[1], indent + "  ")
        return (
            f"{pad}if {node.meta['port']} with {node.meta['cond']} {{\n"
            f"{then}\n{pad}}} else {{\n{other}\n{pad}}}"
        )
    if node.kind == "while":
        # init; while cond { seq { body...; incr; } }
        body = "\n".join(
            _render_control(c, indent + "    ") for c in node.children
        )
        return (
            f"{pad}seq {{\n"
            f"{pad}  {node.meta['init']};\n"
            f"{pad}  while {node.meta['port']} with {node.meta['cond']} {{\n"
            f"{pad}    seq {{\n{body}\n"
            f"{pad}      {node.meta['incr']};\n"
            f"{pad}    }}\n"
            f"{pad}  }}\n"
            f"{pad}}}"
        )
    raise ValueError(f"unknown node kind {node.kind!r}")


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


class _Generator:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.seed = seed
        self.cells: List[CellSpec] = []
        self.regs: List[str] = []
        self.counter = 0

    def fresh(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    def new_cell(self, prefix: str, decl: str) -> str:
        name = self.fresh(prefix)
        self.cells.append(CellSpec(name, decl))
        return name

    def new_reg(self) -> str:
        name = self.new_cell("r", f"std_reg({WIDTH})")
        self.regs.append(name)
        return name

    def _write_group(self, target: str, usable: List[str]) -> GroupSpec:
        """A group writing ``target`` from a constant, register, or operator."""
        rng = self.rng
        name = self.fresh("g")
        choice = rng.randrange(3)
        lines: List[str] = []
        if choice == 0 or not usable:
            src = f"{WIDTH}'d{rng.randrange(1 << WIDTH)}"
        elif choice == 1:
            src = f"{rng.choice(usable)}.out"
        else:
            op = rng.choice(
                ["std_add", "std_sub", "std_and", "std_or", "std_xor", "std_lsh", "std_rsh", "std_mult"]
            )
            adder = self.new_cell("a", f"{op}({WIDTH})")
            left = rng.choice(usable)
            if rng.random() < 0.5:
                right = f"{rng.choice(usable)}.out"
            else:
                right = f"{WIDTH}'d{rng.randrange(1 << WIDTH)}"
            lines.append(f"{adder}.left = {left}.out;")
            lines.append(f"{adder}.right = {right};")
            src = f"{adder}.out"
        lines.append(f"{target}.in = {src};")
        lines.append(f"{target}.write_en = 1;")
        lines.append(f"{name}[done] = {target}.done;")
        return GroupSpec(name, lines)

    def _enable(self, writable: List[str], readable: List[str]) -> Node:
        target = self.rng.choice(writable)
        group = self._write_group(target, readable)
        return Node("enable", groups=[group], meta={"group": group.name})

    def _cond(self, readable: List[str]) -> Tuple[str, str, GroupSpec]:
        """A comparator-backed combinational condition group."""
        rng = self.rng
        op = rng.choice(["std_lt", "std_gt", "std_eq", "std_neq", "std_le", "std_ge"])
        cmp_cell = self.new_cell("c", f"{op}({WIDTH})")
        name = self.fresh("cond")
        left = rng.choice(readable) if readable else None
        lines = []
        if left is None:
            lines.append(f"{cmp_cell}.left = {WIDTH}'d1;")
        else:
            lines.append(f"{cmp_cell}.left = {left}.out;")
        lines.append(f"{cmp_cell}.right = {WIDTH}'d{rng.randrange(8)};")
        lines.append(f"{name}[done] = 1'd1;")
        return f"{cmp_cell}.out", name, GroupSpec(name, lines)

    def _node(self, depth: int, writable: List[str], readable: List[str]) -> Node:
        rng = self.rng
        if depth <= 0 or rng.random() < 0.4:
            return self._enable(writable, readable)
        kind = rng.choice(["seq", "par", "if", "while"])
        if kind == "seq":
            count = rng.randrange(2, 4)
            children = [
                self._node(depth - 1, writable, readable) for _ in range(count)
            ]
            return Node("seq", children=children)
        if kind == "par":
            # Arms write disjoint registers: no multi-driver races possible.
            if len(writable) < 2:
                return self._enable(writable, readable)
            split = rng.randrange(1, len(writable))
            shuffled = list(writable)
            rng.shuffle(shuffled)
            arms = [shuffled[:split], shuffled[split:]]
            children = [
                self._node(depth - 1, arm, readable) for arm in arms if arm
            ]
            return Node("par", children=children)
        if kind == "if":
            port, cond_name, cond_group = self._cond(readable)
            then = self._node(depth - 1, writable, readable)
            other = self._node(depth - 1, writable, readable)
            return Node(
                "if",
                children=[then, other],
                groups=[cond_group],
                meta={"port": port, "cond": cond_name},
            )
        # while: dedicated counter + bounded condition + increment, so the
        # loop always terminates regardless of what the body does.
        counter = self.new_reg()
        adder = self.new_cell("a", f"std_add({WIDTH})")
        cmp_cell = self.new_cell("c", f"std_lt({WIDTH})")
        bound = rng.randrange(1, 4)
        init = GroupSpec(
            self.fresh("init"),
            [
                f"{counter}.in = {WIDTH}'d0;",
                f"{counter}.write_en = 1;",
            ],
        )
        init.lines.append(f"{init.name}[done] = {counter}.done;")
        cond = GroupSpec(
            self.fresh("cond"),
            [
                f"{cmp_cell}.left = {counter}.out;",
                f"{cmp_cell}.right = {WIDTH}'d{bound};",
            ],
        )
        cond.lines.append(f"{cond.name}[done] = 1'd1;")
        incr = GroupSpec(
            self.fresh("incr"),
            [
                f"{adder}.left = {counter}.out;",
                f"{adder}.right = {WIDTH}'d1;",
                f"{counter}.in = {adder}.out;",
                f"{counter}.write_en = 1;",
            ],
        )
        incr.lines.append(f"{incr.name}[done] = {counter}.done;")
        body = self._node(depth - 1, writable, readable + [counter])
        return Node(
            "while",
            children=[body],
            groups=[init, cond, incr],
            meta={
                "port": f"{cmp_cell}.out",
                "cond": cond.name,
                "init": init.name,
                "incr": incr.name,
            },
        )

    def generate(self) -> ProgramSpec:
        for _ in range(self.rng.randrange(2, 5)):
            self.new_reg()
        regs = list(self.regs)
        root = Node(
            "seq",
            children=[
                self._node(self.rng.randrange(1, 4), regs, regs)
                for _ in range(self.rng.randrange(1, 4))
            ],
        )
        return ProgramSpec(seed=self.seed, cells=self.cells, root=root)


def generate_spec(seed: int) -> ProgramSpec:
    """The seed-determined random program (same seed, same program)."""
    return _Generator(seed).generate()


# ---------------------------------------------------------------------------
# Cross-checking
# ---------------------------------------------------------------------------


def canonical_done_nets(inst) -> Dict[str, int]:
    """Done-net valuation derived from program structure, recursively.

    Reads the same structural set from either engine — every group's done
    hole, every cell's done port, and the component's own done — so the
    engines' differing internal net enumerations cannot leak into the
    comparison.
    """
    values: Dict[str, int] = {}
    for name in inst.comp.groups:
        values[f"{inst.path}::{name}[done]"] = inst.read(HolePort(name, DONE))
    for cell_name in inst.comp.cells:
        values[f"{inst.path}::{cell_name}.done"] = inst.read(
            CellPort(cell_name, DONE)
        )
    values[f"{inst.path}::done"] = inst.read(ThisPort(DONE))
    for child in inst.children.values():
        if isinstance(child, SimInstance):
            values.update(canonical_done_nets(child))
    return values


def _observe(source: str, engine: str, pipeline: Optional[str], max_cycles: int = 100_000):
    program = parse_program(source)
    if pipeline is not None:
        from repro.passes import compile_program  # lazy: repro.passes imports repro.sim

        program = compile_program(program, pipeline)
    bench = Testbench(program, engine=engine)
    result = bench.run(max_cycles=max_cycles)
    regs = {
        name: child.value
        for name, child in bench.instance.children.items()
        if isinstance(child, RegModel)
    }
    return {
        "cycles": result.cycles,
        "registers": regs,
        "done_nets": canonical_done_nets(bench.instance),
    }


def check_source(source: str, pipeline: Optional[str] = None) -> Optional[str]:
    """Run one program under both engines; a divergence description or None.

    With ``pipeline``, the program is compiled with that pass pipeline
    first, so the engines compare on the lowered netlist. An exception from
    either engine is part of the observable behavior: both engines must
    raise the same error class (or neither).
    """
    outcomes = {}
    for engine in ("sweep", "levelized"):
        try:
            outcomes[engine] = ("ok", _observe(source, engine, pipeline))
        except Exception as exc:  # compared, not propagated
            outcomes[engine] = ("error", type(exc).__name__)
    sweep, levelized = outcomes["sweep"], outcomes["levelized"]
    if sweep[0] != levelized[0]:
        return f"sweep -> {sweep}, levelized -> {levelized}"
    if sweep[0] == "error":
        if sweep[1] != levelized[1]:
            return (
                f"different errors: sweep={sweep[1]} levelized={levelized[1]}"
            )
        return None
    for key in ("cycles", "registers", "done_nets"):
        if sweep[1][key] != levelized[1][key]:
            return (
                f"{key} diverged: sweep={sweep[1][key]!r} "
                f"levelized={levelized[1][key]!r}"
            )
    return None


def check_spec(spec: ProgramSpec, pipeline: Optional[str] = None) -> Optional[str]:
    return check_source(spec.render(), pipeline)


# ---------------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------------


def _subtree_removals(root: Node) -> List[Node]:
    """Copies of ``root``, each with one removable subtree dropped."""
    variants: List[Node] = []

    def clone(node: Node, skip: Node) -> Optional[Node]:
        if node is skip:
            return None
        kept = []
        for child in node.children:
            copied = clone(child, skip)
            if copied is not None:
                kept.append(copied)
        if node.kind in ("seq", "par"):
            copy = Node(node.kind, children=kept, groups=node.groups, meta=node.meta)
            return copy
        if node.kind in ("if", "while") and len(kept) != len(node.children):
            # A branch/body vanished: the construct no longer renders.
            return None
        return Node(node.kind, children=kept, groups=node.groups, meta=node.meta)

    for node in root.walk():
        if node is root:
            continue
        shrunk = clone(root, node)
        if shrunk is not None and shrunk.children:
            variants.append(shrunk)
    return variants


def shrink_spec(
    spec: ProgramSpec,
    fails: Optional[Callable[[ProgramSpec], bool]] = None,
    max_steps: int = 200,
) -> ProgramSpec:
    """Greedy shrink: drop subtrees while the divergence still reproduces.

    ``fails`` decides whether a candidate still exhibits the failure
    (default: the cross-engine check diverges); injecting it keeps the
    shrinking machinery testable without a real engine bug.
    """
    if fails is None:
        fails = lambda s: check_spec(s) is not None  # noqa: E731
    current = spec
    for _ in range(max_steps):
        for variant_root in _subtree_removals(current.root):
            candidate = ProgramSpec(
                seed=spec.seed, cells=spec.cells, root=variant_root
            )
            try:
                still_fails = fails(candidate)
            except Exception:
                continue  # a malformed shrink does not reproduce anything
            if still_fails:
                current = candidate
                break
        else:
            return current
    return current


# ---------------------------------------------------------------------------
# Lint oracle
# ---------------------------------------------------------------------------
#
# The same generator doubles as a test oracle for the static linter:
# programs that are well-formed by construction must lint with zero
# errors, and a seeded *invalidating* mutation must trip exactly the rule
# built to catch it. Mutations are applied to the spec (not the rendered
# text), so a failing oracle case shrinks through the ordinary
# ``shrink_spec`` machinery — every shrunk candidate is re-mutated and
# re-linted.

#: mutation name → the lint rule id its output must trip.
LINT_MUTATIONS: Dict[str, str] = {
    "dup-driver": "multiple-drivers",
    "width-corrupt": "width-mismatch",
    "bogus-static": "static-latency-mismatch",
}

#: an unconditional constant register write, e.g. ``r1.in = 8'd42;``.
_CONST_WRITE = re.compile(r"^(\w+)\.in = (\d+)'d(\d+);$")


def _walk_groups(spec: ProgramSpec):
    for node in spec.root.walk():
        for group in node.groups:
            yield group


def mutate_spec(spec: ProgramSpec, mutation: str) -> Optional[ProgramSpec]:
    """A deep-copied ``spec`` with one invalidating ``mutation`` applied.

    Site selection is deterministic (first applicable group in control
    order) so shrinking re-finds the same kind of site. Returns ``None``
    when the spec offers no applicable site.

    * ``dup-driver`` — duplicate a constant register write with the value's
      low bit flipped: two unconditional drivers, different sources, same
      group scope.
    * ``width-corrupt`` — widen a constant source by one bit, breaking the
      assignment's width agreement.
    * ``bogus-static`` — claim ``<"static"=4>`` on a single-register write
      group whose structural latency is provably 1.
    """
    if mutation not in LINT_MUTATIONS:
        raise ValueError(
            f"unknown lint mutation {mutation!r}; "
            f"choose from {', '.join(sorted(LINT_MUTATIONS))}"
        )
    mutated = copy.deepcopy(spec)
    for group in _walk_groups(mutated):
        if mutation == "bogus-static":
            writes_en = any(".write_en = 1;" in line for line in group.lines)
            reg_done = any(
                re.match(r"^\w+\[done\] = \w+\.done;$", line)
                for line in group.lines
            )
            if writes_en and reg_done:
                group.attrs = '<"static"=4>'
                return mutated
            continue
        for i, line in enumerate(group.lines):
            match = _CONST_WRITE.match(line)
            if match is None:
                continue
            target, width, value = (
                match.group(1),
                int(match.group(2)),
                int(match.group(3)),
            )
            if mutation == "dup-driver":
                group.lines.insert(
                    i + 1, f"{target}.in = {width}'d{value ^ 1};"
                )
            else:  # width-corrupt
                group.lines[i] = f"{target}.in = {width + 1}'d{value};"
            return mutated
    return None


def lint_spec(spec: ProgramSpec):
    """Parse a spec's rendered source and run the full lint rule set."""
    from repro.lint import lint_program  # lazy: repro.lint imports repro.sim

    return lint_program(parse_program(spec.render()))


def lint_check_spec(
    spec: ProgramSpec, mutation: Optional[str] = None
) -> Optional[str]:
    """The lint oracle for one spec; a violation description or ``None``.

    With ``mutation=None`` the spec must lint with zero errors. With a
    mutation name, the mutated spec must report the mutation's expected
    rule id at error severity (an inapplicable mutation site is vacuously
    fine — shrinking can remove every site).
    """
    if mutation is None:
        report = lint_spec(spec)
        if report.errors:
            rules = ", ".join(sorted({d.rule for d in report.errors}))
            return f"well-formed program linted with errors: {rules}"
        return None
    mutated = mutate_spec(spec, mutation)
    if mutated is None:
        return None
    expected = LINT_MUTATIONS[mutation]
    tripped = {d.rule for d in lint_spec(mutated).errors}
    if expected not in tripped:
        return (
            f"mutation {mutation!r} expected rule {expected!r}, "
            f"lint reported: {', '.join(sorted(tripped)) or '(clean)'}"
        )
    return None


def lint_oracle(seed: int, mutation: Optional[str] = None) -> Optional[str]:
    """Generate one seeded program and hold the lint oracle over it.

    Returns ``None`` when the oracle holds; otherwise a report with the
    shrunk minimal spec's source. Checks the unmutated program when
    ``mutation`` is ``None``, one mutation class otherwise.
    """
    spec = generate_spec(seed)
    violation = lint_check_spec(spec, mutation)
    if violation is None:
        return None
    minimal = shrink_spec(
        spec, fails=lambda s: lint_check_spec(s, mutation) is not None
    )
    final = lint_check_spec(minimal, mutation) or violation
    shown = minimal if mutation is None else (mutate_spec(minimal, mutation) or minimal)
    return (
        f"lint oracle failed for seed {seed}: {final}\n"
        f"minimal repro:\n{shown.render()}"
    )


def cross_check(seed: int, pipeline: Optional[str] = None) -> Optional[str]:
    """Generate, check, and (on divergence) shrink one seeded program.

    ``pipeline`` compiles each program (and each shrink candidate) with
    that pass pipeline before the engines run it. Returns ``None`` on
    agreement; otherwise a report containing the minimal reproducing
    source and the divergence description.
    """
    spec = generate_spec(seed)
    divergence = check_spec(spec, pipeline)
    if divergence is None:
        return None
    minimal = shrink_spec(spec, fails=lambda s: check_spec(s, pipeline) is not None)
    final = check_spec(minimal, pipeline) or divergence
    lowered = f" (compiled with {pipeline!r})" if pipeline else ""
    return (
        f"engines diverged for seed {seed}{lowered}: {final}\n"
        f"minimal repro:\n{minimal.render()}"
    )
