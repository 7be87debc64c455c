"""Tests for the systolic array generator (paper Section 6.1)."""

import pytest

from repro.errors import ValidationError
from repro.frontends.systolic import SystolicConfig, generate_systolic_array
from repro.ir.attributes import STATIC
from repro.ir.control import Par, Seq
from repro.ir.validate import validate_program
from repro.passes import compile_program, get_pass
from repro.sim import run_program
from repro.workloads.matmul import (
    matmul_reference,
    systolic_expected,
    systolic_inputs,
)


def run_systolic(n, pipeline=None, seed=99):
    prog = generate_systolic_array(SystolicConfig.square(n))
    if pipeline:
        compile_program(prog, pipeline)
    result = run_program(prog, memories=systolic_inputs(n, seed))
    return prog, result


class TestGeneration:
    def test_validates(self):
        for n in (1, 2, 3):
            validate_program(generate_systolic_array(SystolicConfig.square(n)))

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            generate_systolic_array(SystolicConfig(rows=0, cols=1, inner=1))

    def test_structure_counts(self):
        prog = generate_systolic_array(SystolicConfig.square(2))
        main = prog.main
        # 4 PEs + 4 top regs + 4 left regs + 2+2 memories + out + idx/add
        pe_cells = [c for c in main.cells.values() if c.comp_name == "mac_pe"]
        assert len(pe_cells) == 4
        assert "t0" in main.cells and "l1" in main.cells and "out" in main.cells

    def test_schedule_is_wavefront(self):
        prog = generate_systolic_array(SystolicConfig.square(2))
        ctrl = prog.main.control
        assert isinstance(ctrl, Seq)
        pars = [c for c in ctrl.stmts if isinstance(c, Par)]
        assert pars, "expected par steps in the schedule"
        # First compute step enables only pe_00 (Figure 6).
        first_computes = [
            list(p.enabled_groups())
            for p in pars
            if any("pe_go" in g for g in p.enabled_groups())
        ]
        assert first_computes[0] == ["pe_go_0_0"]

    def test_names_unique_past_ten_rows(self):
        # Row 1, column 10 and row 11, column 0 must not share a name.
        prog = generate_systolic_array(SystolicConfig.square(12))
        main = prog.main
        assert {"pe_1_10", "pe_11_0"} <= set(main.cells)
        assert len([c for c in main.cells.values() if c.comp_name == "mac_pe"]) == 144
        compile_program(prog, "all")
        validate_program(prog)

    def test_rectangular_arrays(self):
        cfg = SystolicConfig(rows=2, cols=3, inner=2)
        prog = generate_systolic_array(cfg)
        validate_program(prog)


class TestCorrectness:
    def test_2x2_interpreted(self):
        _, result = run_systolic(2)
        assert result.mem("out") == systolic_expected(2)

    @pytest.mark.parametrize("pipeline", ["lower", "lower-static", "all"])
    def test_2x2_lowered(self, pipeline):
        _, result = run_systolic(2, pipeline)
        assert result.mem("out") == systolic_expected(2)

    def test_3x3_static(self):
        _, result = run_systolic(3, "lower-static")
        assert result.mem("out") == systolic_expected(3)

    def test_1x1(self):
        _, result = run_systolic(1, "lower")
        assert result.mem("out") == systolic_expected(1)

    def test_rectangular_product(self):
        cfg = SystolicConfig(rows=2, cols=3, inner=2)
        prog = generate_systolic_array(cfg)
        a = [[1, 2], [3, 4]]
        b = [[5, 6, 7], [8, 9, 10]]
        mems = {
            "l0": a[0],
            "l1": a[1],
            "t0": [b[0][0], b[1][0]],
            "t1": [b[0][1], b[1][1]],
            "t2": [b[0][2], b[1][2]],
            "out": [0] * 6,
        }
        compile_program(prog, "lower-static")
        result = run_program(prog, memories=mems)
        expected = [v for row in matmul_reference(a, b) for v in row]
        assert result.mem("out") == expected


class TestLatencyInference:
    def test_pe_latency_fully_inferred(self):
        """The generator emits no static attributes; inference provides
        them all (paper Sections 5.3 and 6.1)."""
        prog = generate_systolic_array(SystolicConfig.square(2))
        for group in prog.main.groups.values():
            assert not group.attributes.has(STATIC)
        get_pass("infer-latency").run(prog)
        pe = prog.get_component("mac_pe")
        assert pe.attributes.get(STATIC) == 5  # 4-cycle mult + 1-cycle acc
        assert prog.main.get_group("pe_go_0_0").attributes.get(STATIC) == 5
        assert prog.main.get_group("t0").attributes.get(STATIC) == 1

    def test_sensitive_speedup_matches_paper(self):
        _, insensitive = run_systolic(2, "lower")
        _, sensitive = run_systolic(2, "lower-static")
        speedup = insensitive.cycles / sensitive.cycles
        assert 1.5 < speedup < 2.5  # paper: 1.9x
