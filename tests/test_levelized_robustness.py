"""The robustness layer, exercised under the levelized engine.

The levelized engine replaces the sweep engine's brute-force settle loop
with topological scheduling and a dirty-set, which is exactly the kind of
change that could silently weaken the error detectors: an oscillation
that never re-enters the worklist is an oscillation never reported, and a
net fault written to a slot nobody re-reads is a fault that escapes. These
tests pin every detector — oscillation fingerprinting, nonconvergence,
deadlock, cycle/wall budgets, windowed net faults, and the full
fault-injection selftest — to the same observable behavior the sweep
engine has.
"""

from __future__ import annotations

import pytest

from repro.errors import (
    CombinationalLoopError,
    CycleLimitError,
    DeadlockError,
    OscillationError,
    SimulationError,
    WallClockTimeoutError,
)
from repro.ir import parse_program
from repro.passes import compile_program
from repro.robustness import NetFault, run_selftest
from repro.sim import Watchdog, run_program
from tests.conftest import SUM_LOOP
from tests.test_robustness import DEADLOCK, INFINITE_LOOP, OSCILLATOR

ADDER_FEEDBACK = """
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


class TestLevelizedErrorDetection:
    def test_oscillation_distinguished(self):
        """The cyclic-SCC fixpoint must still run the fingerprint probe and
        report the same limit cycle the sweep engine finds."""
        with pytest.raises(OscillationError) as exc_info:
            run_program(parse_program(OSCILLATOR), engine="levelized")
        err = exc_info.value
        assert err.period == 2
        assert any("n." in net for net in err.nets)
        assert err.state_dump

    def test_nonconvergence_still_reported(self):
        with pytest.raises(CombinationalLoopError):
            run_program(parse_program(ADDER_FEEDBACK), engine="levelized")


class TestLevelizedWatchdog:
    def test_deadlock_detected_and_reported(self):
        with pytest.raises(DeadlockError) as exc_info:
            run_program(
                parse_program(DEADLOCK),
                watchdog=Watchdog(max_cycles=1_000_000, deadlock_window=64),
                engine="levelized",
            )
        err = exc_info.value
        assert err.stuck_groups == ["main.stuck"]
        assert "waiting on" in str(err)
        assert err.cycles < 200

    def test_cycle_budget(self):
        with pytest.raises(CycleLimitError) as exc_info:
            run_program(
                parse_program(INFINITE_LOOP),
                watchdog=Watchdog(max_cycles=500, deadlock_window=0),
                engine="levelized",
            )
        assert exc_info.value.cycles == 500

    def test_wall_clock_budget(self):
        with pytest.raises(WallClockTimeoutError):
            run_program(
                parse_program(INFINITE_LOOP),
                watchdog=Watchdog(wall_clock_seconds=0.0, deadlock_window=0),
                engine="levelized",
            )

    def test_healthy_long_loop_not_flagged(self):
        result = run_program(
            parse_program(SUM_LOOP),
            memories={"mem": [1, 2, 3, 4]},
            watchdog=Watchdog(deadlock_window=8),
            engine="levelized",
        )
        assert result.mem("mem")[0] == 10


class TestLevelizedNetFaults:
    """Fault hooks write nets directly; the dirty-set must notice and the
    engine must also heal the net on the next settle once the window ends."""

    def test_net_fault_corrupts_result(self):
        clean = run_program(
            parse_program(SUM_LOOP),
            memories={"mem": [1, 2, 3, 4]},
            engine="levelized",
        )
        fault = NetFault("acc.in", "stuck1", start=0, end=200, bit=5)
        try:
            faulty = run_program(
                parse_program(SUM_LOOP),
                memories={"mem": [1, 2, 3, 4]},
                watchdog=Watchdog(max_cycles=20_000, fault_hook=fault.hook()),
                engine="levelized",
            )
            assert faulty.mem("mem") != clean.mem("mem")
        except SimulationError:
            pass  # the corruption may also hang the control loop: caught too

    def test_net_fault_window_respected(self):
        clean = run_program(
            parse_program(SUM_LOOP),
            memories={"mem": [1, 2, 3, 4]},
            engine="levelized",
        )
        fault = NetFault("acc.in", "stuck1", start=10_000, end=10_001)
        faulty = run_program(
            parse_program(SUM_LOOP),
            memories={"mem": [1, 2, 3, 4]},
            watchdog=Watchdog(fault_hook=fault.hook()),
            engine="levelized",
        )
        assert faulty.mem("mem") == clean.mem("mem")


def _faulty_run(fault: NetFault, pipeline, engine: str):
    """``(cycles, memories)`` of SUM_LOOP under ``fault``, or the error class."""
    program = parse_program(SUM_LOOP)
    if pipeline is not None:
        compile_program(program, pipeline)
    try:
        result = run_program(
            program,
            memories={"mem": [1, 2, 3, 4]},
            watchdog=Watchdog(max_cycles=2_000, fault_hook=fault.hook()),
            engine=engine,
        )
    except SimulationError as err:
        return type(err)
    return result.cycles, result.memories


class TestLevelizedRegisteredOutputFaults:
    """Faults on the outputs of registers and memories, which the levelized
    engine recomputes only when their cell's code is marked: the engine
    must heal them exactly when the sweep engine's full settle does."""

    @pytest.mark.parametrize("pipeline", [None, "all"])
    @pytest.mark.parametrize("kind", ["stuck0", "stuck1", "flip"])
    @pytest.mark.parametrize("net", ["acc.out", "acc.done", "mem.read_data", "mem.done"])
    def test_levelized_matches_sweep(self, net, kind, pipeline):
        for start, end in [(0, 2_000), (3, 4), (5, 9), (12, 30)]:
            for bit in (0, 1):
                fault = NetFault(net, kind, start=start, end=end, bit=bit)
                expected = _faulty_run(fault, pipeline, "sweep")
                assert _faulty_run(fault, pipeline, "levelized") == expected, (start, end, bit)


class TestLevelizedSelftest:
    def test_selftest_every_fault_caught(self):
        """Satellite of the fault-injection harness: with the levelized
        engine simulating both sides, no injected IR fault escapes."""
        program = parse_program(SUM_LOOP)
        records = run_selftest(
            program, seeds=range(10), max_cycles=20_000, engine="levelized"
        )
        assert len(records) == 10
        layers = {r.caught_by for r in records}
        assert "escaped" not in layers, [
            r.mutation for r in records if r.caught_by == "escaped"
        ]
        assert len(layers) >= 2, layers
