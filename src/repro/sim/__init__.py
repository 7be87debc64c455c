"""Cycle-accurate simulation of Calyx programs (the Verilator substitute).

The simulator implements RTL semantics: each clock cycle, guarded
assignments and primitive combinational functions are evaluated to a
fixpoint (the *settle* phase), then stateful primitives latch their inputs
(the *tick*). It executes programs at every stage of compilation:

* **unlowered** programs (with groups and a control tree) run through a
  built-in control executor that mirrors the semantics of Section 3.4, and
* **lowered** programs (flat guarded assignments, control realized as FSM
  registers) run purely structurally — this is what the paper measures
  with Verilator, and what the benchmark harness measures here.

Differential testing between the two modes validates the compiler.
"""

from repro.sim.fastmodel import FastComponentInstance
from repro.sim.model import ComponentInstance, SimInstance, eval_guard
from repro.sim.testbench import (
    Testbench,
    SimulationResult,
    Watchdog,
    run_program,
    DEFAULT_DEADLOCK_WINDOW,
    DEFAULT_ENGINE,
    DEFAULT_MAX_CYCLES,
    ENGINES,
    resolve_engine,
)

__all__ = [
    "ComponentInstance",
    "FastComponentInstance",
    "SimInstance",
    "eval_guard",
    "Testbench",
    "SimulationResult",
    "Watchdog",
    "run_program",
    "DEFAULT_DEADLOCK_WINDOW",
    "DEFAULT_ENGINE",
    "DEFAULT_MAX_CYCLES",
    "ENGINES",
    "resolve_engine",
]
