"""Tests for the simulator: settle semantics, control execution, timing."""

import pytest

from repro.errors import (
    CombinationalLoopError,
    MultipleDriverError,
    SimulationError,
    UndefinedError,
)
from repro.ir import parse_program
from repro.ir.ast import ThisPort
from repro.sim import Testbench, run_program
from tests.conftest import SUM_LOOP, TWO_WRITES, run_source


class TestBasicExecution:
    def test_two_writes(self):
        tb = Testbench(parse_program(TWO_WRITES))
        tb.run()
        assert tb.register_value("x") == 5
        assert tb.register_value("y") == 5

    def test_two_writes_timing(self):
        # Latency-insensitive semantics: each register write takes 2
        # cycles (write + done observation).
        result = run_source(TWO_WRITES)
        assert result.cycles == 4

    def test_sum_loop(self):
        result = run_source(SUM_LOOP, memories={"mem": [10, 20, 30, 40]})
        assert result.mem("mem")[0] == 100

    def test_memory_roundtrip(self):
        tb = Testbench(parse_program(SUM_LOOP))
        tb.write_mem("mem", [1, 2, 3, 4])
        assert tb.read_mem("mem") == [1, 2, 3, 4]

    def test_write_mem_size_check(self):
        tb = Testbench(parse_program(SUM_LOOP))
        with pytest.raises(SimulationError):
            tb.write_mem("mem", [1, 2])

    def test_memory_paths(self):
        tb = Testbench(parse_program(SUM_LOOP))
        assert tb.memory_paths() == ["mem"]

    def test_not_a_memory(self):
        tb = Testbench(parse_program(SUM_LOOP))
        with pytest.raises(UndefinedError):
            tb.write_mem("idx", [0])

    def test_timeout(self):
        src = """
component main(go: 1) -> (done: 1) {
  cells { r = std_reg(1); lt = std_lt(1); }
  wires {
    group cond { lt.left = 1'd0; lt.right = 1'd1; cond[done] = 1'd1; }
    group body { r.in = 1'd1; r.write_en = 1; body[done] = r.done; }
  }
  control { while lt.out with cond { body; } }
}
"""
        with pytest.raises(SimulationError):
            run_source(src, max_cycles=100)

    def test_reset_allows_rerun(self):
        tb = Testbench(parse_program(TWO_WRITES))
        first = tb.run()
        tb.reset()
        tb.instance.nets.clear()
        second = tb.run()
        assert first.cycles == second.cycles


class TestControlSemantics:
    def control_program(self, control, extra_groups=""):
        return f"""
component main(go: 1) -> (done: 1) {{
  cells {{
    x = std_reg(32);
    y = std_reg(32);
    lt = std_lt(32);
    a = std_add(32);
  }}
  wires {{
    group wx {{ x.in = 32'd1; x.write_en = 1; wx[done] = x.done; }}
    group wy {{ y.in = 32'd2; y.write_en = 1; wy[done] = y.done; }}
    group cond {{ lt.left = x.out; lt.right = 32'd5; cond[done] = 1'd1; }}
    group incr {{
      a.left = x.out; a.right = 32'd1;
      x.in = a.out; x.write_en = 1;
      incr[done] = x.done;
    }}
    {extra_groups}
  }}
  control {{ {control} }}
}}
"""

    def regs_after(self, control, extra=""):
        tb = Testbench(parse_program(self.control_program(control, extra)))
        result = tb.run()
        return tb.register_value("x"), tb.register_value("y"), result.cycles

    def test_seq(self):
        x, y, _ = self.regs_after("seq { wx; wy; }")
        assert (x, y) == (1, 2)

    def test_par(self):
        x, y, cycles_par = self.regs_after("par { wx; wy; }")
        assert (x, y) == (1, 2)
        _, _, cycles_seq = self.regs_after("seq { wx; wy; }")
        assert cycles_par < cycles_seq

    def test_if_true_branch(self):
        x, y, _ = self.regs_after("if lt.out with cond { wy; }")
        assert y == 2  # x=0 < 5

    def test_if_false_branch(self):
        x, y, _ = self.regs_after(
            "seq { wx5; if lt.out with cond { wy; } else { wx; } }",
            extra="group wx5 { x.in = 32'd9; x.write_en = 1; wx5[done] = x.done; }",
        )
        assert x == 1  # 9 < 5 is false -> else branch overwrote x
        assert y == 0

    def test_if_empty_else(self):
        x, y, _ = self.regs_after(
            "seq { wx5; if lt.out with cond { wy; } }",
            extra="group wx5 { x.in = 32'd9; x.write_en = 1; wx5[done] = x.done; }",
        )
        assert y == 0

    def test_while_counts_to_five(self):
        x, _, _ = self.regs_after("while lt.out with cond { incr; }")
        assert x == 5

    def test_while_zero_iterations(self):
        x, y, _ = self.regs_after(
            "seq { wx5; while lt.out with cond { wy; } }",
            extra="group wx5 { x.in = 32'd9; x.write_en = 1; wx5[done] = x.done; }",
        )
        assert y == 0

    def test_empty_control_finishes_immediately(self):
        result = self.regs_after("")
        assert result[2] == 0

    def test_nested_seq_in_par(self):
        x, y, _ = self.regs_after("par { seq { wx; incr; } wy; }")
        assert (x, y) == (2, 2)

    def test_group_enabled_twice(self):
        x, _, _ = self.regs_after("seq { incr; incr; incr; }")
        assert x == 3


class TestInvoke:
    SRC = """
component doubler(value: 32) -> (result: 32) {
  cells { r = std_reg(32); a = std_add(32); }
  wires {
    group compute {
      a.left = value; a.right = value;
      r.in = a.out; r.write_en = 1;
      compute[done] = r.done;
    }
    result = r.out;
  }
  control { compute; }
}
component main(go: 1) -> (done: 1) {
  cells { d = doubler(); out = std_reg(32); }
  wires {}
  control {
    seq {
      invoke d(value=32'd21)(result=out.in);
      invoke d(value=32'd5)();
    }
  }
}
"""

    def test_invoke_runs_subcomponent(self):
        src = self.SRC.replace(
            "invoke d(value=32'd21)(result=out.in);",
            "invoke d(value=32'd21)();",
        ).replace("invoke d(value=32'd5)();", "")
        prog = parse_program(src)
        tb = Testbench(prog)
        tb.run()
        assert tb.instance.find_model("d.r").value == 42

    def test_invoke_twice_reruns(self):
        src = self.SRC.replace(
            "invoke d(value=32'd21)(result=out.in);",
            "invoke d(value=32'd21)();",
        )
        tb = Testbench(parse_program(src))
        tb.run()
        assert tb.instance.find_model("d.r").value == 10


class TestErrorDetection:
    def test_conflicting_drivers_detected(self):
        src = """
component main(go: 1) -> (done: 1) {
  cells { r = std_reg(32); }
  wires {
    group g {
      r.in = 32'd1;
      r.write_en = 1;
      g[done] = r.done;
    }
    r.in = 32'd2;
  }
  control { g; }
}
"""
        with pytest.raises(MultipleDriverError):
            run_source(src)

    def test_same_value_drivers_tolerated(self):
        src = """
component main(go: 1) -> (done: 1) {
  cells { r = std_reg(32); }
  wires {
    group g {
      r.in = 32'd1;
      r.write_en = 1;
      g[done] = r.done;
    }
    r.in = 32'd1;
  }
  control { g; }
}
"""
        run_source(src)

    def test_combinational_loop_detected(self):
        src = """
component main(go: 1) -> (done: 1) {
  cells { a = std_add(8); b = std_add(8); r = std_reg(8); }
  wires {
    a.left = b.out;
    b.left = a.out;
    a.right = 8'd1;
    b.right = 8'd1;
    group g { r.in = a.out; r.write_en = 1; g[done] = r.done; }
  }
  control { g; }
}
"""
        with pytest.raises(CombinationalLoopError):
            run_source(src)

    def test_find_model_path_errors(self):
        tb = Testbench(parse_program(TWO_WRITES))
        with pytest.raises(UndefinedError):
            tb.instance.find("nothing.here")


class TestHierarchy:
    def test_structural_subcomponent(self):
        src = """
component plus_one(value: 8) -> (result: 8) {
  cells { a = std_add(8); }
  wires {
    a.left = value;
    a.right = 8'd1;
    result = a.out;
  }
  control {}
}
component main(go: 1) -> (done: 1) {
  cells { p = plus_one(); r = std_reg(8); }
  wires {
    p.value = 8'd41;
    group g { r.in = p.result; r.write_en = 1; g[done] = r.done; }
  }
  control { g; }
}
"""
        tb = Testbench(parse_program(src))
        tb.run()
        assert tb.register_value("r") == 42
