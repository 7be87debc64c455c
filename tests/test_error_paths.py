"""Coverage for error paths that previously had none (robustness satellite).

Each test drives a *real* failing scenario end-to-end: a genuine
combinational cycle through two cells, a genuine double drive during
simulation, an out-of-range memory write, and a bad pipeline name through
the public entry point.
"""

from __future__ import annotations

import pytest

from repro.errors import (
    CombinationalLoopError,
    MultipleDriverError,
    PassError,
    SimulationError,
)
from repro.ir import parse_program
from repro.passes import compile_program
from repro.passes.base import get_pass
from repro.sim import run_program
from tests.conftest import SUM_LOOP


class TestCombinationalLoop:
    def test_cycle_through_two_cells(self):
        """Two not-gates wired head-to-tail: a real combinational cycle."""
        src = """
component main(go: 1) -> (done: 1) {
  cells { p = std_not(1); q = std_not(1); r = std_reg(1); }
  wires {
    p.in = q.out;
    q.in = p.out;
    group g { r.in = p.out; r.write_en = 1; g[done] = r.done; }
  }
  control { g; }
}
"""
        with pytest.raises(CombinationalLoopError) as exc_info:
            run_program(parse_program(src))
        # The error points at the instance and carries a state dump.
        assert "main" in str(exc_info.value)
        assert exc_info.value.state_dump

    def test_cycle_survives_lowering(self):
        """The same cycle is also caught in the lowered structural design."""
        src = """
component main(go: 1) -> (done: 1) {
  cells { p = std_not(1); q = std_not(1); r = std_reg(1); }
  wires {
    p.in = q.out;
    q.in = p.out;
    group g { r.in = p.out; r.write_en = 1; g[done] = r.done; }
  }
  control { g; }
}
"""
        program = parse_program(src)
        compile_program(program, "lower")
        with pytest.raises(CombinationalLoopError):
            run_program(program)


class TestMultipleDriver:
    @pytest.mark.parametrize("engine", ["sweep", "levelized"])
    def test_dynamic_double_drive(self, engine):
        """Two guarded drivers firing together with different values."""
        src = """
component main(go: 1) -> (done: 1) {
  cells { r = std_reg(32); flag = std_reg(1); }
  wires {
    group g {
      r.in = flag.out ? 32'd1;
      r.in = 32'd2;
      r.write_en = 1;
      g[done] = r.done;
    }
    group set {
      flag.in = 1'd1; flag.write_en = 1;
      set[done] = flag.done;
    }
  }
  control { seq { set; g; } }
}
"""
        # Statically legal (one driver is conditional), dynamically not:
        # once flag is set, both guards are true with different values.
        # Both engines name the port, both values and both assignments,
        # in the same words.
        with pytest.raises(MultipleDriverError) as exc_info:
            run_program(parse_program(src), engine=engine)
        assert str(exc_info.value) == (
            "main: port r.in driven to both 1 and 2 by\n"
            "  r.in = flag.out ? 32'd1;\n"
            "  r.in = 32'd2;"
        )


OOB_WRITE = """
component main(go: 1) -> (done: 1) {
  cells { @external m = %s; a = std_reg(2); }
  wires {
    group set { a.in = 2'd3; a.write_en = 1; set[done] = a.done; }
    group put {
      %s
      m.write_data = 8'd7; m.write_en = 1;
      put[done] = m.done;
    }
  }
  control { seq { set; put; } }
}
"""


class TestMemoryBounds:
    @pytest.mark.parametrize("engine", ["sweep", "levelized"])
    @pytest.mark.parametrize(
        "decl, addrs, message",
        [
            (
                "std_mem_d1(8, 3, 2)",
                "m.addr0 = a.out;",
                "std_mem_d1 write out of bounds: addr=3 size=3",
            ),
            (
                "std_mem_d2(8, 2, 3, 2, 2)",
                "m.addr0 = 2'd1; m.addr1 = a.out;",
                "std_mem_d2 write out of bounds: addr=(1, 3)",
            ),
        ],
        ids=["d1", "d2"],
    )
    @pytest.mark.parametrize("pipeline", [None, "all"])
    def test_out_of_range_write(self, engine, decl, addrs, message, pipeline):
        """A write past the end raises the model's error under both engines,
        unlowered and lowered (where the levelized engine inlines the write)."""
        program = parse_program(OOB_WRITE % (decl, addrs))
        if pipeline is not None:
            compile_program(program, pipeline)
        with pytest.raises(SimulationError) as exc_info:
            run_program(program, engine=engine)
        assert str(exc_info.value) == message


class TestPassErrors:
    def test_unknown_pipeline_name(self):
        program = parse_program(SUM_LOOP)
        with pytest.raises(PassError) as exc_info:
            compile_program(program, "definitely-not-a-pipeline")
        assert "unknown pipeline" in str(exc_info.value)
        assert "all" in str(exc_info.value)  # lists the available ones

    def test_unknown_pass_name(self):
        with pytest.raises(PassError) as exc_info:
            get_pass("definitely-not-a-pass")
        assert "unknown pass" in str(exc_info.value)

    def test_unknown_pass_in_explicit_list(self):
        program = parse_program(SUM_LOOP)
        with pytest.raises(PassError):
            compile_program(program, passes=["well-formed", "no-such-pass"])
