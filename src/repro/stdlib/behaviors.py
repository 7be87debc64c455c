"""Cycle-accurate Python simulation models for standard-library primitives.

These models stand in for the Verilog implementations the Calyx compiler
links against; the simulator (:mod:`repro.sim`) drives them with RTL
semantics — a combinational settle phase (:meth:`PrimitiveModel.comb`)
followed by a clock edge (:meth:`PrimitiveModel.tick`).

Each model also reports its *combinational dependencies*: which output
ports depend combinationally on which input ports. The simulator uses this
to levelize netlists and to detect combinational cycles.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import SimulationError, UndefinedError
from repro.stdlib.primitives import DIV_LATENCY, MULT_LATENCY, get_primitive


def mask(width: int) -> int:
    """Bit mask for a ``width``-bit value."""
    return (1 << width) - 1


class PrimitiveModel:
    """Base class for primitive simulation models.

    Subclasses define:

    * ``comb(inputs) -> outputs`` — combinational outputs as a function of
      input port values and the current internal state,
    * ``tick(inputs)`` — state update at the clock edge,
    * ``comb_deps`` — dict mapping each output port to the input ports it
      reads combinationally (empty list for registered outputs),
    * optionally ``render`` — the same semantics as Python source, which
      the levelized engine inlines into its generated code.
    """

    #: class-level default overridden by instances where widths matter
    comb_deps: Dict[str, List[str]] = {}

    def __init__(self, args: Sequence[int]):
        self.args = tuple(int(a) for a in args)

    def comb(self, inputs: Dict[str, int]) -> Dict[str, int]:
        raise NotImplementedError

    def tick(self, inputs: Dict[str, int]) -> None:
        """Clock edge; combinational-only primitives do nothing."""

    def reset(self) -> None:
        """Return the model to its power-on state."""

    def render(self, ins: Dict[str, str], m: str, changed: str) -> Optional[Rendered]:
        """``comb`` as output port -> expression and ``tick`` as clock-edge
        lines, or ``None`` (call them instead). ``ins`` maps input ports to
        source, ``m`` is source for this model, and the edge lines run the
        statement ``changed`` whenever a registered output may have moved."""
        return None


#: ``(output port -> expression, clock-edge lines)`` of :meth:`PrimitiveModel.render`.
Rendered = Tuple[Dict[str, str], List[str]]


# ---------------------------------------------------------------------------
# Combinational operators
# ---------------------------------------------------------------------------


#: Two-input operators: name -> (Python expression over ``{l}``, ``{r}`` and
#: the width ``{w}``, whether the result is one bit). ``BinOpModel.fn`` and
#: the rendered source are both formatted from these.
BINOPS: Dict[str, Tuple[str, bool]] = {
    "std_add": ("{l} + {r}", False),
    "std_sub": ("{l} - {r}", False),
    "std_and": ("{l} & {r}", False),
    "std_or": ("{l} | {r}", False),
    "std_xor": ("{l} ^ {r}", False),
    "std_lsh": ("{l} << min({r}, {w})", False),
    "std_rsh": ("{l} >> min({r}, {w})", False),
    "std_mult": ("{l} * {r}", False),
    "std_gt": ("{l} > {r}", True),
    "std_lt": ("{l} < {r}", True),
    "std_eq": ("{l} == {r}", True),
    "std_neq": ("{l} != {r}", True),
    "std_ge": ("{l} >= {r}", True),
    "std_le": ("{l} <= {r}", True),
}


class BinOpModel(PrimitiveModel):
    """Two-input combinational operator: ``fn`` and its body ``expr``, a
    :data:`BINOPS` template."""

    def __init__(self, args: Sequence[int], fn: Callable[[int, int, int], int], expr: str, out_width: Optional[int] = None):
        super().__init__(args)
        self.width = self.args[0]
        self.out_width = self.width if out_width is None else out_width
        self.fn = fn
        self.expr = expr
        self.comb_deps = {"out": ["left", "right"]}

    def comb(self, inputs: Dict[str, int]) -> Dict[str, int]:
        left = inputs.get("left", 0)
        right = inputs.get("right", 0)
        return {"out": self.fn(left, right, self.width) & mask(self.out_width)}

    def render(self, ins: Dict[str, str], m: str, changed: str) -> Optional[Rendered]:
        body = self.expr.format(l=ins.get("left", "0"), r=ins.get("right", "0"), w=self.width)
        return {"out": f"({body}) & {mask(self.out_width)}"}, []


class WireModel(PrimitiveModel):
    def __init__(self, args: Sequence[int]):
        super().__init__(args)
        self.comb_deps = {"out": ["in"]}

    def comb(self, inputs: Dict[str, int]) -> Dict[str, int]:
        return {"out": inputs.get("in", 0) & mask(self.args[0])}

    def render(self, ins: Dict[str, str], m: str, changed: str) -> Optional[Rendered]:
        return {"out": f"{ins.get('in', '0')} & {mask(self.args[0])}"}, []


class ConstModel(PrimitiveModel):
    def __init__(self, args: Sequence[int]):
        super().__init__(args)
        self.comb_deps = {"out": []}

    def comb(self, inputs: Dict[str, int]) -> Dict[str, int]:
        width, value = self.args
        return {"out": value & mask(width)}

    def render(self, ins: Dict[str, str], m: str, changed: str) -> Optional[Rendered]:
        width, value = self.args
        return {"out": str(value & mask(width))}, []


class SliceModel(PrimitiveModel):
    """Truncate to the low ``OUT_WIDTH`` bits."""

    def __init__(self, args: Sequence[int]):
        super().__init__(args)
        self.comb_deps = {"out": ["in"]}

    def comb(self, inputs: Dict[str, int]) -> Dict[str, int]:
        return {"out": inputs.get("in", 0) & mask(self.args[1])}

    def render(self, ins: Dict[str, str], m: str, changed: str) -> Optional[Rendered]:
        return {"out": f"{ins.get('in', '0')} & {mask(self.args[1])}"}, []


class PadModel(SliceModel):
    """Zero-extend to ``OUT_WIDTH`` bits (same arithmetic as slice)."""


class NotModel(PrimitiveModel):
    def __init__(self, args: Sequence[int]):
        super().__init__(args)
        self.comb_deps = {"out": ["in"]}

    def comb(self, inputs: Dict[str, int]) -> Dict[str, int]:
        width = self.args[0]
        return {"out": (~inputs.get("in", 0)) & mask(width)}

    def render(self, ins: Dict[str, str], m: str, changed: str) -> Optional[Rendered]:
        return {"out": f"~{ins.get('in', '0')} & {mask(self.args[0])}"}, []


# ---------------------------------------------------------------------------
# Stateful primitives
# ---------------------------------------------------------------------------


class RegModel(PrimitiveModel):
    """``std_reg``: value and done flag both update at the clock edge.

    ``done`` is high for exactly the cycle following a committed write,
    matching the standard Calyx register implementation.
    """

    def __init__(self, args: Sequence[int]):
        super().__init__(args)
        self.width = self.args[0]
        self.value = 0
        self.done = 0
        self.comb_deps = {"out": [], "done": []}

    def comb(self, inputs: Dict[str, int]) -> Dict[str, int]:
        return {"out": self.value, "done": self.done}

    def tick(self, inputs: Dict[str, int]) -> None:
        if inputs.get("write_en", 0):
            self.value = inputs.get("in", 0) & mask(self.width)
            self.done = 1
        else:
            self.done = 0

    def render(self, ins: Dict[str, str], m: str, changed: str) -> Optional[Rendered]:
        write = f"{m}.value = {ins.get('in', '0')} & {mask(self.width)}; {m}.done = 1"
        return {"out": f"{m}.value", "done": f"{m}.done"}, _edge(ins, m, changed, [write])

    def reset(self) -> None:
        self.value = 0
        self.done = 0


def _edge(ins: Dict[str, str], m: str, changed: str, write: List[str]) -> List[str]:
    """Clock-edge lines of registers and memories: ``write``, or ``done`` falls."""
    return [
        f"if {ins.get('write_en', '0')}:",
        *(f" {line}" for line in write),
        f" {changed}",
        f"elif {m}.done: {m}.done = 0; {changed}",
    ]


def _mem_write(ins: Dict[str, str], m: str, index: str, in_range: str, width: int) -> List[str]:
    """A memory write at ``index``; out of range, ``tick`` raises its error."""
    literal = ", ".join(f"{port!r}: {src}" for port, src in ins.items())
    return [
        f"if {in_range}: {m}.data[{index}] = {ins.get('write_data', '0')} & {mask(width)}; {m}.done = 1",
        f"else: {m}.tick({{{literal}}})",
    ]


class MemD1Model(PrimitiveModel):
    """``std_mem_d1``: combinational read, synchronous write."""

    def __init__(self, args: Sequence[int]):
        super().__init__(args)
        self.width, self.size, self.idx_size = self.args
        self.data = [0] * self.size
        self.done = 0
        self.comb_deps = {"read_data": ["addr0"], "done": []}

    def _index(self, inputs: Dict[str, int]) -> int:
        addr = inputs.get("addr0", 0)
        if addr >= self.size:
            # Out-of-bounds reads return 0 rather than crashing: lowered
            # designs legitimately present don't-care addresses while a
            # group is inactive.
            return -1
        return addr

    def comb(self, inputs: Dict[str, int]) -> Dict[str, int]:
        idx = self._index(inputs)
        value = self.data[idx] if idx >= 0 else 0
        return {"read_data": value, "done": self.done}

    def tick(self, inputs: Dict[str, int]) -> None:
        if inputs.get("write_en", 0):
            idx = self._index(inputs)
            if idx < 0:
                raise SimulationError(
                    f"std_mem_d1 write out of bounds: addr={inputs.get('addr0')} "
                    f"size={self.size}"
                )
            self.data[idx] = inputs.get("write_data", 0) & mask(self.width)
            self.done = 1
        else:
            self.done = 0

    def render(self, ins: Dict[str, str], m: str, changed: str) -> Optional[Rendered]:
        addr = ins.get("addr0", "0")
        in_range = f"{addr} < {self.size}"
        read = f"{m}.data[{addr}] if {in_range} else 0"
        write = _mem_write(ins, m, addr, in_range, self.width)
        return {"read_data": read, "done": f"{m}.done"}, _edge(ins, m, changed, write)

    def reset(self) -> None:
        self.data = [0] * self.size
        self.done = 0


class MemD2Model(PrimitiveModel):
    """``std_mem_d2``: row-major two-dimensional memory."""

    def __init__(self, args: Sequence[int]):
        super().__init__(args)
        self.width, self.d0, self.d1, self.d0_idx, self.d1_idx = self.args
        self.data = [0] * (self.d0 * self.d1)
        self.done = 0
        self.comb_deps = {"read_data": ["addr0", "addr1"], "done": []}

    def _index(self, inputs: Dict[str, int]) -> int:
        a0 = inputs.get("addr0", 0)
        a1 = inputs.get("addr1", 0)
        if a0 >= self.d0 or a1 >= self.d1:
            return -1
        return a0 * self.d1 + a1

    def comb(self, inputs: Dict[str, int]) -> Dict[str, int]:
        idx = self._index(inputs)
        value = self.data[idx] if idx >= 0 else 0
        return {"read_data": value, "done": self.done}

    def tick(self, inputs: Dict[str, int]) -> None:
        if inputs.get("write_en", 0):
            idx = self._index(inputs)
            if idx < 0:
                raise SimulationError(
                    f"std_mem_d2 write out of bounds: addr=({inputs.get('addr0')}, "
                    f"{inputs.get('addr1')})"
                )
            self.data[idx] = inputs.get("write_data", 0) & mask(self.width)
            self.done = 1
        else:
            self.done = 0

    def render(self, ins: Dict[str, str], m: str, changed: str) -> Optional[Rendered]:
        a0, a1 = ins.get("addr0", "0"), ins.get("addr1", "0")
        in_range = f"{a0} < {self.d0} and {a1} < {self.d1}"
        index = f"{a0} * {self.d1} + {a1}"
        read = f"{m}.data[{index}] if {in_range} else 0"
        write = _mem_write(ins, m, index, in_range, self.width)
        return {"read_data": read, "done": f"{m}.done"}, _edge(ins, m, changed, write)

    def reset(self) -> None:
        self.data = [0] * (self.d0 * self.d1)
        self.done = 0


class PipelinedOpModel(PrimitiveModel):
    """A fixed-latency sequential unit driven by the go/done convention.

    While ``go`` is held high the unit counts cycles; after ``latency``
    ticks it latches its result and raises ``done`` for one cycle.
    Dropping ``go`` resets the pipeline.
    """

    latency = MULT_LATENCY
    out_ports = ("out",)

    def __init__(self, args: Sequence[int]):
        super().__init__(args)
        self.width = self.args[0]
        self.counter = 0
        self.done = 0
        self.results = {port: 0 for port in self.out_ports}
        self.comb_deps = {port: [] for port in self.out_ports}
        self.comb_deps["done"] = []

    def compute(self, inputs: Dict[str, int]) -> Dict[str, int]:
        raise NotImplementedError

    def comb(self, inputs: Dict[str, int]) -> Dict[str, int]:
        outputs = dict(self.results)
        outputs["done"] = self.done
        return outputs

    def tick(self, inputs: Dict[str, int]) -> None:
        if self.done:
            self.done = 0
            self.counter = 0
            return
        if inputs.get("go", 0):
            self.counter += 1
            if self.counter >= self._effective_latency(inputs):
                self.results = {
                    port: value & mask(self.width)
                    for port, value in self.compute(inputs).items()
                }
                self.done = 1
        else:
            self.counter = 0

    def _effective_latency(self, inputs: Dict[str, int]) -> int:
        return self.latency

    def reset(self) -> None:
        self.counter = 0
        self.done = 0
        self.results = {port: 0 for port in self.out_ports}


class MultPipeModel(PipelinedOpModel):
    latency = MULT_LATENCY
    out_ports = ("out",)

    def compute(self, inputs: Dict[str, int]) -> Dict[str, int]:
        return {"out": inputs.get("left", 0) * inputs.get("right", 0)}


class DivPipeModel(PipelinedOpModel):
    latency = DIV_LATENCY
    out_ports = ("out_quotient", "out_remainder")

    def compute(self, inputs: Dict[str, int]) -> Dict[str, int]:
        left = inputs.get("left", 0)
        right = inputs.get("right", 0)
        if right == 0:
            # Divide-by-zero mirrors hardware: all-ones quotient.
            return {"out_quotient": mask(self.width), "out_remainder": left}
        return {"out_quotient": left // right, "out_remainder": left % right}


class SqrtModel(PipelinedOpModel):
    """Integer square root with data-dependent latency.

    The latency grows with the operand's bit length (one cycle per result
    bit, as in a classic non-restoring implementation), so no ``"static"``
    attribute can describe it — exercising mixed latency-sensitive /
    latency-insensitive compilation (paper Section 6.2).
    """

    out_ports = ("out",)

    def compute(self, inputs: Dict[str, int]) -> Dict[str, int]:
        return {"out": math.isqrt(inputs.get("in", 0))}

    def _effective_latency(self, inputs: Dict[str, int]) -> int:
        return max(1, inputs.get("in", 0).bit_length() // 2 + 1)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def _binop(expr: str, one_bit: bool) -> Callable[[Sequence[int]], BinOpModel]:
    fn = eval(f"lambda l, r, w: {expr.format(l='l', r='r', w='w')}")
    return lambda args: BinOpModel(args, fn, expr, out_width=1 if one_bit else None)


_MODELS: Dict[str, Callable[[Sequence[int]], PrimitiveModel]] = {
    "std_wire": WireModel,
    "std_const": ConstModel,
    "std_slice": SliceModel,
    "std_pad": PadModel,
    "std_not": NotModel,
    **{name: _binop(expr, one_bit) for name, (expr, one_bit) in BINOPS.items()},
    "std_reg": RegModel,
    "std_mem_d1": MemD1Model,
    "std_mem_d2": MemD2Model,
    "std_mult_pipe": MultPipeModel,
    "std_div_pipe": DivPipeModel,
    "std_sqrt": SqrtModel,
}

#: Behaviours registered for extern (black-box) components, keyed by the
#: extern component's name. Tests and users may extend this.
EXTERN_MODELS: Dict[str, Callable[[Sequence[int]], PrimitiveModel]] = {}


def make_model(comp_name: str, args: Sequence[int]) -> PrimitiveModel:
    """Instantiate the simulation model for a primitive or extern."""
    factory = _MODELS.get(comp_name) or EXTERN_MODELS.get(comp_name)
    if factory is None:
        raise UndefinedError(f"no simulation model for {comp_name!r}")
    # Validate the arity against the declared signature when known.
    try:
        get_primitive(comp_name).bind(args)
    except UndefinedError:
        pass
    return factory(args)


def has_model(comp_name: str) -> bool:
    return comp_name in _MODELS or comp_name in EXTERN_MODELS
