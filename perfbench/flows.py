"""Workloads, their seeded inputs and reference outputs, and the design flow.

A workload is a fixed list of designs. The seed regenerates every input
memory (same shapes, same value ranges); the reference output of each
design comes from an oracle that shares no code with the Calyx compiler:
the mini-Dahlia interpreter for PolyBench, a plain Python matrix multiply
for the systolic arrays. The program under test receives only the
generated memories.

:func:`run_design` drives one design through every layer from outside,
with a span around each call into a layer's public functions.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.backend import emit_verilog, estimate_resources
from repro.backend.resources import count_register_cells
from repro.frontends.dahlia import compile_to_calyx, interpret, lower, parse, typecheck
from repro.frontends.systolic import SystolicConfig, generate_systolic_array
from repro.hls import HlsConfig, schedule_program
from repro.ir.ast import CellPort, Program
from repro.ir.control import If, Invoke, While, count_control_statements
from repro.ir.guards import AndGuard, CmpGuard, Guard, NotGuard, OrGuard, PortGuard
from repro.passes import get_pass, resolve_pipeline
from repro.sim import Testbench
from repro.workloads.common import vector
from repro.workloads.matmul import hls_matmul_source, matmul_reference, systolic_inputs
from repro.workloads.polybench import Kernel, polybench_kernels

from spans import PROBE, Timer

WORKLOADS = ("polybench-lowered", "systolic-all", "polybench-interp")
POLYBENCH_N = 4
POLYBENCH_UNROLL = 2
SYSTOLIC_SIZES = range(2, 9)
PIPELINE = "all"
ENGINE = "levelized"

#: Kernel inputs used as divisors; the kernels draw them from 8..15.
_DIVISOR_INPUTS = {("cholesky", "A"), ("lu", "A"), ("ludcmp", "A"), ("trisolv", "L")}

#: Sharing passes whose effect is counted: pass -> (metric, cell type or None).
_SHARING = {
    "resource-sharing": ("passes.resource-sharing.cells_removed", None),
    "register-sharing": ("passes.register-sharing.registers_removed", "std_reg"),
}


@dataclass
class Design:
    """One design point: what the program receives and what it must produce."""

    name: str
    inputs: Dict[str, List[int]]
    expected: Dict[str, List[int]]
    #: Dahlia source (PolyBench designs).
    source: str = ""
    #: Array size (systolic designs).
    size: int = 0
    #: The Figure 7 HLS baseline program (systolic designs).
    hls_program: object = None


@dataclass
class Outcome:
    """What one run of the flow produced."""

    outputs: Dict[str, List[int]]
    cycles: int
    luts: float
    register_cells: int
    verilog_lines: int
    hls_cycles: int
    #: ``ir.*`` sizes and sharing removals; counted on traced runs only.
    counts: Dict[str, int] = field(default_factory=dict)

    def signature(self) -> tuple:
        """The results besides ``counts`` that must repeat exactly."""
        return (self.cycles, self.luts, self.register_cells, self.verilog_lines, self.hls_cycles)


# -- seeded inputs and reference outputs ------------------------------------


def _lcg_seed(seed: int, kernel: str, memory: str) -> int:
    return zlib.crc32(f"{seed}/{kernel}/{memory}".encode())


def seeded_memories(kernel: Kernel, unrolled: bool, seed: int) -> Dict[str, List[int]]:
    """The kernel's input memories, redrawn from ``seed`` with the same shapes.

    Memories the kernel initialises to zero (outputs, accumulators) stay
    zero; duplicated arrays of unrolled variants mirror their source.
    """
    mems: Dict[str, List[int]] = {}
    for name, values in kernel.memories.items():
        if any(values):
            lo = 8 if (kernel.name, name) in _DIVISOR_INPUTS else 1
            mems[name] = vector(_lcg_seed(seed, kernel.name, name), len(values), lo=lo)
        else:
            mems[name] = list(values)
    if unrolled:
        for dup, src in kernel.duplicated.items():
            mems[dup] = list(mems[src])
        for name, values in kernel.unrolled_extra.items():
            mems[name] = list(values)
    return mems


def polybench_designs(seed: int, rec: Timer) -> List[Design]:
    """The Figure 8 set: 19 kernels plus 11 unrolled variants."""
    designs = []
    for kernel in polybench_kernels(POLYBENCH_N, POLYBENCH_UNROLL):
        for unrolled in (False, True):
            source = kernel.unrolled_source if unrolled else kernel.source
            if source is None:
                continue
            inputs = seeded_memories(kernel, unrolled, seed)
            with rec.span("check.reference"):
                final = interpret(typecheck(parse(source)), inputs)
            designs.append(
                Design(
                    name=kernel.name + ("-u" if unrolled else ""),
                    inputs=inputs,
                    expected={m: final[m] for m in kernel.outputs_for(unrolled)},
                    source=source,
                )
            )
    return designs


def systolic_designs(seed: int, rec: Timer) -> List[Design]:
    """The Figure 7 sizes, each checked against a plain matrix multiply."""
    designs = []
    for n in SYSTOLIC_SIZES:
        inputs = systolic_inputs(n, seed)
        a = [inputs[f"l{r}"] for r in range(n)]
        b = [[inputs[f"t{c}"][k] for c in range(n)] for k in range(n)]
        with rec.span("check.reference"):
            product = matmul_reference(a, b)
        designs.append(
            Design(
                name=f"systolic-{n}x{n}",
                inputs=inputs,
                expected={"out": [v for row in product for v in row]},
                size=n,
                hls_program=parse(hls_matmul_source(n)),
            )
        )
    return designs


def make_designs(workload: str, seed: int, rec: Timer) -> List[Design]:
    """The workload's designs; ``rec`` times the reference computations."""
    if workload == "systolic-all":
        return systolic_designs(seed, rec)
    if workload in WORKLOADS:
        return polybench_designs(seed, rec)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def mismatch(design: Design, outputs: Dict[str, List[int]]) -> Optional[str]:
    """Describe the first output word that differs from the reference."""
    for name, want in design.expected.items():
        got = outputs.get(name)
        if got is None or len(got) != len(want):
            return f"{design.name}: memory {name!r} missing or resized"
        for index, (g, w) in enumerate(zip(got, want)):
            if g != w:
                return f"{design.name}: {name}[{index}] = {g}, reference {w}"
    return None


# -- IR sizes, counted from outside the layers ------------------------------


def _guard_atoms(guard: Guard) -> int:
    if isinstance(guard, (PortGuard, CmpGuard)):
        return 1
    if isinstance(guard, NotGuard):
        return _guard_atoms(guard.inner)
    if isinstance(guard, (AndGuard, OrGuard)):
        return _guard_atoms(guard.left) + _guard_atoms(guard.right)
    return 0


def ir_size(program: Program, prefix: str) -> Dict[str, int]:
    sizes = dict.fromkeys(("cells", "groups", "assignments", "guard_atoms", "control_nodes"), 0)
    for comp in program.components:
        sizes["cells"] += len(comp.cells)
        sizes["groups"] += len(comp.groups)
        for _, assign in comp.all_assignments():
            sizes["assignments"] += 1
            sizes["guard_atoms"] += _guard_atoms(assign.guard)
        sizes["control_nodes"] += count_control_statements(comp.control)
    return {f"{prefix}.{key}": value for key, value in sizes.items()}


def used_cells(program: Program, comp_name: Optional[str] = None) -> int:
    """Cells (of one type, if given) that some assignment or control uses."""
    total = 0
    for comp in program.components:
        used = set()
        for _, assign in comp.all_assignments():
            used.update(ref.cell for ref in assign.ports() if isinstance(ref, CellPort))
        for node in comp.control.walk():
            if isinstance(node, Invoke):
                used.add(node.cell)
            elif isinstance(node, (If, While)) and isinstance(node.port, CellPort):
                used.add(node.port.cell)
        total += sum(
            1 for name in used
            if name in comp.cells and comp_name in (None, comp.cells[name].comp_name)
        )
    return total


# -- the design flow ---------------------------------------------------------


def _compile(rec: Timer, program: Program, names: List[str], counts: Optional[dict]) -> None:
    with rec.span("passes"):
        for name in names:
            metric, cell_type = _SHARING.get(name, (None, None))
            if metric and counts is not None:
                with rec.span(PROBE):
                    before = used_cells(program, cell_type)
            with rec.span(f"passes.{name}"):
                get_pass(name).run(program)
            if metric and counts is not None:
                with rec.span(PROBE):
                    counts[metric] = before - used_cells(program, cell_type)


def _simulate(rec: Timer, program: Program, memories: Dict[str, List[int]]):
    with rec.span("sim"):
        with rec.span("sim.build"):
            bench = Testbench(program, engine=ENGINE)
        for path, values in memories.items():
            bench.write_mem(path, values)
        with rec.span("sim.run"):
            return bench.run()


def _probe(rec: Timer, counts: Optional[dict], program: Program, prefix: str) -> None:
    if counts is not None:
        with rec.span(PROBE):
            counts.update(ir_size(program, prefix))


def run_design(design: Design, rec: Timer, simulate_unlowered: bool = False) -> Outcome:
    """Frontend, the ``all`` pipeline, simulation, backend and HLS model.

    With ``simulate_unlowered`` the design is simulated right after the
    ``validate`` pipeline, through the engine's control executor, and the
    rest of ``all`` runs afterwards so the backend sees a lowered netlist.
    IR sizes are counted only when ``rec`` is traced.
    """
    counts: Optional[dict] = {} if rec.traced else None
    with rec.span("frontends"):
        if design.source:
            with rec.span("frontends.dahlia.parse"):
                ast = parse(design.source)
            with rec.span("frontends.dahlia.typecheck"):
                typecheck(ast)
            with rec.span("frontends.dahlia.lower"):
                lowered = lower(ast)
            with rec.span("frontends.dahlia.to_calyx"):
                compiled = compile_to_calyx(lowered)
            program = compiled.program
        else:
            with rec.span("frontends.systolic.generate"):
                program = generate_systolic_array(SystolicConfig.square(design.size))
    _probe(rec, counts, program, "ir.source")

    if design.source:
        memories = {}
        for name, values in design.inputs.items():
            memories.update(compiled.split_memory(name, values))
    else:
        memories = design.inputs
    passes = resolve_pipeline(PIPELINE)
    if simulate_unlowered:
        first = resolve_pipeline("validate")
        if passes[: len(first)] != first:
            raise ValueError(f"{PIPELINE!r} does not start with the validate pipeline")
        _compile(rec, program, first, counts)
        result = _simulate(rec, program, memories)
        _compile(rec, program, passes[len(first):], counts)
    else:
        _compile(rec, program, passes, counts)
        result = _simulate(rec, program, memories)
    _probe(rec, counts, program, "ir.lowered")

    if design.source:
        outputs = {
            name: compiled.merge_memory(
                name, {bank: result.memories[bank] for bank in compiled.layouts[name].physical_names()}
            )
            for name in design.expected
        }
    else:
        outputs = {name: result.memories[name] for name in design.expected}

    with rec.span("backend"):
        with rec.span("backend.resources"):
            luts = estimate_resources(program).luts
            registers = count_register_cells(program)
        with rec.span("backend.verilog"):
            verilog_lines = emit_verilog(program).count("\n")
    with rec.span("hls"):
        with rec.span("hls.schedule"):
            if design.source:
                hls = schedule_program(ast, HlsConfig(pipeline_innermost=True))
            else:
                hls = schedule_program(design.hls_program, HlsConfig(pipeline_innermost=False))
    return Outcome(
        outputs=outputs,
        cycles=result.cycles,
        luts=luts,
        register_cells=registers,
        verilog_lines=verilog_lines,
        hls_cycles=hls.latency_cycles,
        counts=counts or {},
    )
