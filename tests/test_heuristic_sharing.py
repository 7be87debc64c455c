"""Tests for the cost-model-guided sharing extension (paper Section 9).

Under the FPGA cost model, sharing a small adder never pays: the saved
adder (w LUTs) costs two w-bit input muxes (~w LUTs) plus guard logic —
which is precisely why Figure 9a measures sharing *increasing* LUTs. Big
combinational units (barrel shifters: ~w*log2(w)/2 LUTs) do pay. The
heuristic pass makes exactly that distinction; the greedy paper pass
merges everything.
"""

from repro.backend import estimate_resources
from repro.frontends.dahlia import compile_dahlia
from repro.ir import parse_program
from repro.ir.ast import Program
from repro.passes import compile_program, get_pass
from repro.passes.heuristic_sharing import SharingCostModel
from repro.sim import run_program
from repro.workloads.polybench import get_kernel

SHIFT_SHARING = """
component main(go: 1) -> (done: 1) {
  cells {
    @external mem = std_mem_d1(32, 4, 2);
    r0 = std_reg(32);
    s0 = std_lsh(32);
    s1 = std_lsh(32);
    a0 = std_add(8);
    a1 = std_add(8);
    idx = std_reg(8);
  }
  wires {
    group first {
      s0.left = 32'd3; s0.right = 32'd2;
      r0.in = s0.out; r0.write_en = 1;
      first[done] = r0.done;
    }
    group second {
      s1.left = r0.out; s1.right = 32'd1;
      r0.in = s1.out; r0.write_en = 1;
      second[done] = r0.done;
    }
    group bump0 {
      a0.left = idx.out; a0.right = 8'd1;
      idx.in = a0.out; idx.write_en = 1;
      bump0[done] = idx.done;
    }
    group bump1 {
      a1.left = idx.out; a1.right = 8'd2;
      idx.in = a1.out; idx.write_en = 1;
      bump1[done] = idx.done;
    }
    group store {
      mem.addr0 = 2'd0; mem.write_data = r0.out; mem.write_en = 1;
      store[done] = mem.done;
    }
  }
  control { seq { first; second; bump0; bump1; store; } }
}
"""


class TestCostModel:
    def test_barrel_shifters_worth_sharing(self):
        model = SharingCostModel()
        value = model.unit_value("std_lsh", (32,))
        penalty = model.merge_penalty(Program(), "std_lsh", (32,))
        assert value > penalty

    def test_narrow_adders_not_worth_sharing(self):
        model = SharingCostModel()
        value = model.unit_value("std_add", (8,))
        penalty = model.merge_penalty(Program(), "std_add", (8,))
        assert value <= penalty

    def test_dsp_weight_dominates(self):
        model = SharingCostModel()
        assert model.unit_value("std_mult", (32,)) > model.merge_penalty(
            Program(), "std_mult", (32,)
        )


class TestHeuristicPass:
    def counts(self, prog):
        shifts = [c for c in prog.main.cells.values() if c.comp_name == "std_lsh"]
        adders = [c for c in prog.main.cells.values() if c.comp_name == "std_add"]
        return len(shifts), len(adders)

    def test_merges_shifters_keeps_narrow_adders(self):
        prog = parse_program(SHIFT_SHARING)
        get_pass("resource-sharing-heuristic").run(prog)
        get_pass("dead-cell-removal").run(prog)
        shifts, adders = self.counts(prog)
        assert shifts == 1  # profitable: merged
        assert adders == 2  # unprofitable: left alone

    def test_greedy_merges_both(self):
        prog = parse_program(SHIFT_SHARING)
        get_pass("resource-sharing").run(prog)
        get_pass("dead-cell-removal").run(prog)
        shifts, adders = self.counts(prog)
        assert shifts == 1
        assert adders == 1

    def test_behavior_preserved(self):
        prog = parse_program(SHIFT_SHARING)
        compile_program(prog, "heuristic-share")
        result = run_program(prog, memories={"mem": [0] * 4})
        assert result.mem("mem")[0] == (3 << 2) << 1

    def test_never_worse_than_greedy_on_kernel(self):
        kernel = get_kernel("gemm", 4)
        greedy = compile_dahlia(kernel.source)
        compile_program(greedy.program, "all")
        heuristic = compile_dahlia(kernel.source)
        compile_program(heuristic.program, "heuristic-share")
        assert (
            estimate_resources(heuristic.program).luts
            <= estimate_resources(greedy.program).luts * 1.02
        )
