"""The contract between the two simulation engines.

Every design the repo can produce — each ``examples/*.futil`` program and
each PolyBench kernel, compiled through every registered pipeline plus the
unlowered interpreter — must behave *bit-identically* under the reference
sweep engine and the levelized event-driven engine: same final memories,
same cycle count, same done-net valuation. Any divergence here means the
levelized engine's scheduling (levelization, dirty-set propagation, cycle
fallback) changed observable semantics, and it is the levelized engine
that is wrong.

Problem sizes are kept small (``REPRO_EQUIV_N``, default 2) so the full
kernel-by-pipeline matrix stays affordable; the cross-check is about
engine agreement, not performance.
"""

import glob
import os

import pytest

from repro.errors import SimulationError, UndefinedError
from repro.frontends.dahlia import compile_dahlia
from repro.ir import parse_program
from repro.passes import PIPELINES, compile_program
from repro.sim import Testbench, Watchdog, run_program
from repro.sim.fuzz import canonical_done_nets
from repro.workloads.polybench import ALL_KERNELS, get_kernel
from tests.test_levelized_robustness import ADDER_FEEDBACK
from tests.test_robustness import DEADLOCK, OSCILLATOR

#: Every way this repo can lower a program before simulating it.
#: ``interpret`` is the unlowered control-executor path; ``validate``
#: does not produce a simulatable design.
SIM_PIPELINES = ["interpret"] + [p for p in sorted(PIPELINES) if p != "validate"]

EXAMPLES = sorted(
    glob.glob(
        os.path.join(os.path.dirname(__file__), "..", "examples", "*.futil")
    )
)

EQUIV_N = int(os.environ.get("REPRO_EQUIV_N", "2"))


def run_both_engines(program, memories=None, max_cycles=500_000):
    """Run one program under both engines, asserting identical behavior."""
    observed = {}
    for engine in ("sweep", "levelized"):
        bench = Testbench(program, engine=engine)
        for path, vals in (memories or {}).items():
            bench.write_mem(path, vals)
        result = bench.run(max_cycles=max_cycles)
        observed[engine] = {
            "cycles": result.cycles,
            "memories": result.memories,
            "done_nets": canonical_done_nets(bench.instance),
        }
    sweep, levelized = observed["sweep"], observed["levelized"]
    assert levelized["cycles"] == sweep["cycles"], (
        f"cycle count diverged: sweep={sweep['cycles']} "
        f"levelized={levelized['cycles']}"
    )
    assert levelized["memories"] == sweep["memories"], (
        "final memories diverged between engines"
    )
    assert levelized["done_nets"] == sweep["done_nets"], (
        "final done-net valuation diverged between engines"
    )
    return sweep


def build_example(path, pipeline):
    with open(path) as handle:
        program = parse_program(handle.read())
    if pipeline != "interpret":
        compile_program(program, pipeline)
    return program


def build_kernel(kernel, pipeline):
    design = compile_dahlia(kernel.source)
    if pipeline != "interpret":
        compile_program(design.program, pipeline)
    memories = {}
    for name, values in kernel.memories_for(False).items():
        memories.update(design.split_memory(name, values))
    return design.program, memories


@pytest.mark.parametrize(
    "path", EXAMPLES, ids=[os.path.basename(p) for p in EXAMPLES]
)
@pytest.mark.parametrize("pipeline", SIM_PIPELINES)
def test_examples_engine_equivalence(path, pipeline):
    program = build_example(path, pipeline)
    run_both_engines(program)


@pytest.mark.parametrize("name", ALL_KERNELS)
def test_polybench_engine_equivalence(name):
    kernel = get_kernel(name, n=EQUIV_N, unroll=2)
    for pipeline in SIM_PIPELINES:
        program, memories = build_kernel(kernel, pipeline)
        run_both_engines(program, memories)


def test_example_cycle_counts_are_nontrivial():
    """Guard against the vacuous pass: designs actually run for cycles."""
    program = build_example(EXAMPLES[0], "interpret")
    outcome = run_both_engines(program)
    assert outcome["cycles"] > 0


# ---------------------------------------------------------------------------
# Each inlined standard-library primitive against hand-written semantics
# ---------------------------------------------------------------------------

#: Operand pairs for the two-input operators at width 8: zeros, ones,
#: all-ones, ``std_sub`` underflow, and shift amounts width-1/width/width+5.
PAIRS = [(0, 0), (1, 0), (0, 1), (255, 255), (255, 1), (255, 7), (129, 8), (200, 13)]

#: Expected ``out`` per pair, worked out by hand (not by the models).
BINOP_EXPECTED = {
    "std_add": [0, 1, 1, 254, 0, 6, 137, 213],
    "std_sub": [0, 1, 255, 0, 254, 248, 121, 187],
    "std_and": [0, 0, 0, 255, 1, 7, 0, 8],
    "std_or": [0, 1, 1, 255, 255, 255, 137, 205],
    "std_xor": [0, 1, 1, 0, 254, 248, 137, 197],
    "std_lsh": [0, 1, 0, 0, 254, 128, 0, 0],
    "std_rsh": [0, 1, 0, 0, 127, 1, 0, 0],
    "std_mult": [0, 0, 0, 1, 255, 249, 8, 40],
    "std_gt": [0, 1, 0, 0, 1, 1, 1, 1],
    "std_lt": [0, 0, 1, 0, 0, 0, 0, 0],
    "std_eq": [1, 0, 0, 1, 0, 0, 0, 0],
    "std_neq": [0, 1, 1, 0, 1, 1, 1, 1],
    "std_ge": [1, 1, 0, 1, 1, 1, 1, 1],
    "std_le": [1, 0, 1, 1, 0, 0, 0, 0],
}

UNARY_INPUTS = [0, 1, 255, 129]


def primitive_program(regs, cells, steps, out_width):
    """A ``main`` that runs ``steps`` in sequence and stores results in ``res``.

    ``regs`` maps operand registers to widths; ``cells`` declares the cells
    under test. Each step is ``(loads, op, wiring, result)``: registers to
    load with constants, optional lines of a group run next (which must
    assign its own done), and the lines wiring the cell under test while
    ``result`` is written to the next word of ``res``.
    """
    stores = sum(1 for step in steps if step[3] is not None)
    decls = [f"{name} = std_reg({width});" for name, width in regs.items()]
    decls += list(cells) + [f"@external res = std_mem_d1({out_width}, {stores}, 4);"]
    groups, control, k = [], [], 0
    for i, (loads, op, wiring, result) in enumerate(steps):
        if loads:
            lines = [f"{r}.in = {regs[r]}'d{val}; {r}.write_en = 1'd1;" for r, val in loads.items()]
            groups.append(f"group load{i} {{ {' '.join(lines)} load{i}[done] = {next(iter(loads))}.done; }}")
            control.append(f"load{i};")
        if op:
            groups.append(f"group op{i} {{ {op} }}")
            control.append(f"op{i};")
        if result is not None:
            groups.append(
                f"group store{i} {{ {wiring} res.addr0 = 4'd{k}; res.write_data = {result}; "
                f"res.write_en = 1'd1; store{i}[done] = res.done; }}"
            )
            control.append(f"store{i};")
            k += 1
    return (
        "component main(go: 1) -> (done: 1) {\n"
        f"  cells {{ {' '.join(decls)} }}\n"
        f"  wires {{\n    " + "\n    ".join(groups) + "\n  }\n"
        f"  control {{ seq {{ {' '.join(control)} }} }}\n"
        "}\n"
    )


def binop_case(name):
    steps = [({"l": a, "r": b}, None, "t.left = l.out; t.right = r.out;", "t.out") for a, b in PAIRS]
    out_width = 1 if name[4:] in ("gt", "lt", "eq", "neq", "ge", "le") else 8
    program = primitive_program({"l": 8, "r": 8}, [f"t = {name}(8);"], steps, out_width)
    return program, {}, {"res": BINOP_EXPECTED[name]}


def unary_case(decl, expected, out_width=8):
    steps = [({"l": a}, None, "t.in = l.out;", "t.out") for a in UNARY_INPUTS]
    return primitive_program({"l": 8}, [f"t = {decl};"], steps, out_width), {}, {"res": expected}


def const_case():
    steps = [({}, None, "", "t.out")]
    return primitive_program({}, ["t = std_const(8, 300);"], steps, 8), {}, {"res": [44]}


def reg_case():
    # Each value is written, then read back after a cycle without a write.
    steps = []
    for a in UNARY_INPUTS:
        write = f"t.in = l.out; t.write_en = 1'd1; op{len(steps)}[done] = t.done;"
        steps.append(({"l": a}, write, "", "t.out"))
    return primitive_program({"l": 8}, ["t = std_reg(8);"], steps, 8), {}, {"res": UNARY_INPUTS}


def mem_case(decl, addr_regs, initial, accesses, final):
    """Each access ``(addrs, data, value)`` writes ``data`` at ``addrs``
    (unless it is None), then reads ``value`` back from there."""
    addr_ports = " ".join(f"t.addr{i} = {r}.out;" for i, r in enumerate(addr_regs))
    steps, expected = [], []
    for addrs, data, value in accesses:
        loads = dict(zip(addr_regs, addrs))
        write = None
        if data is not None:
            loads["d"] = data
            write = f"{addr_ports} t.write_data = d.out; t.write_en = 1'd1; op{len(steps)}[done] = t.done;"
        steps.append((loads, write, addr_ports, "t.read_data"))
        expected.append(value)
    regs = {r: 3 for r in addr_regs}
    regs["d"] = 8
    program = primitive_program(regs, [f"@external t = {decl};"], steps, 8)
    return program, {"t": initial}, {"res": expected, "t": final}


PRIMITIVE_CASES = {
    **{name: (lambda name=name: binop_case(name)) for name in BINOP_EXPECTED},
    "std_wire": lambda: unary_case("std_wire(8)", [0, 1, 255, 129]),
    "std_not": lambda: unary_case("std_not(8)", [255, 254, 0, 126]),
    "std_slice": lambda: unary_case("std_slice(8, 4)", [0, 1, 15, 1], out_width=4),
    "std_pad": lambda: unary_case("std_pad(8, 12)", [0, 1, 255, 129], out_width=12),
    "std_const": const_case,
    "std_reg": reg_case,
    # Addresses 4 and 7 are out of range (reads give 0).
    "std_mem_d1": lambda: mem_case(
        "std_mem_d1(8, 4, 3)",
        ["a"],
        [5, 255, 0, 129],
        [((0,), None, 5), ((3,), None, 129), ((4,), None, 0), ((7,), None, 0),
         ((2,), 200, 200), ((1,), 0, 0), ((2,), None, 200), ((1,), None, 0)],
        [5, 0, 200, 129],
    ),
    # A 2x3 array: row 2 and column 3 are out of range.
    "std_mem_d2": lambda: mem_case(
        "std_mem_d2(8, 2, 3, 3, 3)",
        ["a", "b"],
        [1, 2, 3, 4, 5, 6],
        [((0, 0), None, 1), ((1, 2), None, 6), ((0, 2), None, 3), ((2, 0), None, 0),
         ((1, 3), None, 0), ((7, 7), None, 0), ((1, 1), 255, 255), ((1, 0), None, 4)],
        [1, 2, 3, 4, 255, 6],
    ),
}


@pytest.mark.parametrize("pipeline", ["interpret", "all"])
@pytest.mark.parametrize("name", sorted(PRIMITIVE_CASES))
def test_inlined_primitive_semantics(name, pipeline):
    """Both engines compute each primitive's hand-written results."""
    source, memories, expected = PRIMITIVE_CASES[name]()
    program = parse_program(source)
    if pipeline != "interpret":
        compile_program(program, pipeline)
    observed = run_both_engines(program, memories)["memories"]
    assert {path: observed[path] for path in expected} == expected


# ---------------------------------------------------------------------------
# Both engines report failures the same way
# ---------------------------------------------------------------------------

#: ``main`` invokes ``s``, whose only group never finishes: the deadlock
#: report, stuck groups and state come from the nested instance.
NESTED_DEADLOCK = """
component sub(go: 1) -> (done: 1) {
  cells { r = std_reg(1); }
  wires {
    group stuck {
      r.in = 1'd1;
      stuck[done] = r.out ? 1'd1;
    }
  }
  control { stuck; }
}
component main(go: 1) -> (done: 1) {
  cells { s = sub(); }
  wires {}
  control { invoke s()(); }
}
"""


def _failure(source, engine):
    with pytest.raises(SimulationError) as info:
        run_program(
            parse_program(source),
            watchdog=Watchdog(max_cycles=100_000, deadlock_window=64),
            engine=engine,
        )
    return info.value


def _oscillation(engine):
    err = _failure(OSCILLATOR, engine)
    return type(err), err.nets, err.period, str(err)


def _deadlock(source, engine):
    err = _failure(source, engine)
    return type(err), str(err), err.stuck_groups, err.cycles


def _find_model_errors(engine):
    instance = Testbench(parse_program(NESTED_DEADLOCK), engine=engine).instance
    texts = []
    for path in ["s", "s.nothing", "s.r.x", "zz"]:
        with pytest.raises(UndefinedError) as info:
            instance.find_model(path)
        texts.append(str(info.value))
    return texts


DIAGNOSES = {
    "oscillator": _oscillation,
    # The iteration count in the message is engine-specific.
    "adder-feedback": lambda engine: type(_failure(ADDER_FEEDBACK, engine)),
    "deadlock": lambda engine: _deadlock(DEADLOCK, engine),
    "nested-deadlock": lambda engine: _deadlock(NESTED_DEADLOCK, engine),
    "find-model": _find_model_errors,
}


@pytest.mark.parametrize("case", sorted(DIAGNOSES))
def test_diagnostics_match(case):
    """Oscillation, non-convergence, deadlock and lookup failures carry the
    same class, nets, period, report and cycle under both engines."""
    sweep = DIAGNOSES[case]("sweep")
    assert DIAGNOSES[case]("levelized") == sweep
