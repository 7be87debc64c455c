"""Tests for primitive signatures, behaviors, and the cost model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import UndefinedError, ValidationError
from repro.stdlib.behaviors import (
    MemD1Model,
    MemD2Model,
    MultPipeModel,
    DivPipeModel,
    RegModel,
    SqrtModel,
    make_model,
    mask,
)
from repro.stdlib.costs import Resources, mux_cost, primitive_cost
from repro.stdlib.primitives import all_primitives, get_primitive, is_primitive


class TestSignatures:
    def test_reg_signature(self):
        sig = get_primitive("std_reg").signature((8,))
        assert sig["in"].width == 8
        assert sig["write_en"].width == 1
        assert sig["out"].width == 8
        assert sig["done"].width == 1

    def test_cmp_output_is_one_bit(self):
        sig = get_primitive("std_lt").signature((32,))
        assert sig["out"].width == 1

    def test_mem_d2_signature(self):
        sig = get_primitive("std_mem_d2").signature((8, 4, 4, 2, 2))
        assert sig["addr0"].width == 2
        assert sig["read_data"].width == 8

    def test_arity_check(self):
        with pytest.raises(ValidationError):
            get_primitive("std_reg").bind((8, 9))

    def test_unknown_primitive(self):
        with pytest.raises(UndefinedError):
            get_primitive("std_nothing")
        assert not is_primitive("std_nothing")

    def test_share_attributes(self):
        assert get_primitive("std_add").is_shareable()
        assert not get_primitive("std_reg").is_shareable()

    def test_static_latencies(self):
        assert get_primitive("std_reg").latency == 1
        assert get_primitive("std_mult_pipe").latency == 4
        assert get_primitive("std_sqrt").latency is None

    def test_every_primitive_has_model_and_cost(self):
        for prim in all_primitives():
            args = tuple(8 for _ in prim.params)
            if prim.name == "std_mem_d2":
                args = (8, 4, 4, 2, 2)
            elif prim.name == "std_mem_d1":
                args = (8, 4, 2)
            elif prim.name in ("std_slice", "std_pad"):
                args = (8, 4)
            model = make_model(prim.name, args)
            assert model is not None
            primitive_cost(prim.name, args)  # must not raise


class TestRegModel:
    def test_write_and_done_pulse(self):
        reg = RegModel((8,))
        reg.tick({"in": 5, "write_en": 1})
        assert reg.comb({})["out"] == 5
        assert reg.comb({})["done"] == 1
        reg.tick({"write_en": 0})
        assert reg.comb({})["done"] == 0
        assert reg.comb({})["out"] == 5

    def test_masks_to_width(self):
        reg = RegModel((4,))
        reg.tick({"in": 0x1F, "write_en": 1})
        assert reg.comb({})["out"] == 0xF

    def test_no_write_without_enable(self):
        reg = RegModel((8,))
        reg.tick({"in": 5, "write_en": 0})
        assert reg.comb({})["out"] == 0


class TestMemModels:
    def test_d1_read_write(self):
        mem = MemD1Model((8, 4, 2))
        mem.data = [1, 2, 3, 4]
        assert mem.comb({"addr0": 2})["read_data"] == 3
        mem.tick({"addr0": 1, "write_data": 9, "write_en": 1})
        assert mem.data[1] == 9
        assert mem.comb({"addr0": 1})["done"] == 1

    def test_d1_out_of_bounds_read_is_zero(self):
        mem = MemD1Model((8, 2, 2))
        assert mem.comb({"addr0": 3})["read_data"] == 0

    def test_d1_out_of_bounds_write_raises(self):
        from repro.errors import SimulationError

        mem = MemD1Model((8, 2, 2))
        with pytest.raises(SimulationError):
            mem.tick({"addr0": 3, "write_data": 1, "write_en": 1})

    def test_d2_row_major(self):
        mem = MemD2Model((8, 2, 3, 1, 2))
        mem.tick({"addr0": 1, "addr1": 2, "write_data": 7, "write_en": 1})
        assert mem.data[1 * 3 + 2] == 7
        assert mem.comb({"addr0": 1, "addr1": 2})["read_data"] == 7


class TestPipelinedModels:
    def run_unit(self, unit, inputs, max_cycles=64):
        """Hold go high until done; return (cycles, outputs)."""
        for cycle in range(1, max_cycles):
            unit.tick(dict(inputs, go=1))
            out = unit.comb({})
            if out["done"]:
                return cycle, out
        raise AssertionError("unit never finished")

    def test_mult_latency_and_result(self):
        cycles, out = self.run_unit(MultPipeModel((32,)), {"left": 6, "right": 7})
        assert out["out"] == 42
        assert cycles == 4

    def test_mult_wraps_at_width(self):
        _, out = self.run_unit(MultPipeModel((8,)), {"left": 100, "right": 100})
        assert out["out"] == (100 * 100) & 0xFF

    def test_div_and_rem(self):
        cycles, out = self.run_unit(DivPipeModel((32,)), {"left": 17, "right": 5})
        assert out["out_quotient"] == 3
        assert out["out_remainder"] == 2

    def test_div_by_zero_all_ones(self):
        _, out = self.run_unit(DivPipeModel((8,)), {"left": 9, "right": 0})
        assert out["out_quotient"] == 0xFF

    def test_go_drop_resets(self):
        unit = MultPipeModel((32,))
        unit.tick({"left": 3, "right": 3, "go": 1})
        unit.tick({"go": 0})
        assert unit.counter == 0

    def test_sqrt_data_dependent_latency(self):
        small, out_small = self.run_unit(SqrtModel((32,)), {"in": 4})
        big, out_big = self.run_unit(SqrtModel((32,)), {"in": 1 << 30})
        assert out_small["out"] == 2
        assert out_big["out"] == 1 << 15
        assert big > small  # latency grows with operand size

    def test_sqrt_exact_past_float_precision(self):
        # (2**32 - 1)**2 - 1 needs 64 bits; a float root rounds it up.
        _, out = self.run_unit(SqrtModel((64,)), {"in": (2**32 - 1) ** 2 - 1})
        assert out["out"] == 2**32 - 2


class TestArithModels:
    @given(
        st.sampled_from(["std_add", "std_sub", "std_and", "std_or", "std_xor"]),
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=255),
    )
    @settings(max_examples=60, deadline=None)
    def test_binops_match_python(self, name, left, right):
        model = make_model(name, (8,))
        out = model.comb({"left": left, "right": right})["out"]
        expected = {
            "std_add": (left + right) & 0xFF,
            "std_sub": (left - right) & 0xFF,
            "std_and": left & right,
            "std_or": left | right,
            "std_xor": left ^ right,
        }[name]
        assert out == expected

    @given(
        st.sampled_from(["std_lt", "std_gt", "std_eq", "std_neq", "std_le", "std_ge"]),
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=255),
    )
    @settings(max_examples=60, deadline=None)
    def test_comparisons_match_python(self, name, left, right):
        model = make_model(name, (8,))
        out = model.comb({"left": left, "right": right})["out"]
        expected = {
            "std_lt": left < right,
            "std_gt": left > right,
            "std_eq": left == right,
            "std_neq": left != right,
            "std_le": left <= right,
            "std_ge": left >= right,
        }[name]
        assert out == int(expected)

    def test_slice_truncates(self):
        model = make_model("std_slice", (8, 4))
        assert model.comb({"in": 0xAB})["out"] == 0xB

    def test_pad_passes_through(self):
        model = make_model("std_pad", (4, 8))
        assert model.comb({"in": 0xB})["out"] == 0xB


class TestCosts:
    def test_mux_cost_zero_for_unique_driver(self):
        assert mux_cost(32, 1) == 0.0
        assert mux_cost(32, 0) == 0.0

    def test_mux_cost_grows_with_drivers(self):
        assert mux_cost(32, 3) > mux_cost(32, 2) > 0

    def test_adder_scales_with_width(self):
        assert primitive_cost("std_add", (32,)).luts == 32

    def test_register_costs_flipflops_not_luts(self):
        cost = primitive_cost("std_reg", (32,))
        assert cost.registers == 33
        assert cost.luts == 0

    def test_bram_threshold(self):
        small = primitive_cost("std_mem_d1", (8, 4, 2))
        big = primitive_cost("std_mem_d1", (32, 1024, 10))
        assert small.brams == 0 and small.luts > 0
        assert big.brams >= 1

    def test_mult_uses_dsps(self):
        assert primitive_cost("std_mult_pipe", (32,)).dsps > 0

    def test_resources_add(self):
        a = Resources(luts=10, registers=5)
        b = Resources(luts=1, dsps=2)
        total = a.add(b)
        assert total.luts == 11 and total.registers == 5 and total.dsps == 2

    def test_unknown_primitive_cost(self):
        with pytest.raises(UndefinedError):
            primitive_cost("std_alien", (1,))
