"""Fault injection: prove the robustness layer catches what it claims.

Deterministic, seeded mutations at two levels:

* **IR faults** (:func:`inject_ir_fault`) — drop an assignment, flip a
  guard, or swap an assignment's source port. Applied to the *compiled*
  side of the differential oracle they model a miscompile; applied before
  validation they exercise the well-formedness checker.
* **Simulation faults** (:class:`NetFault`) — stuck-at-0/1 or a bit flip
  on a named net for a cycle window, installed as a
  :class:`~repro.sim.testbench.Watchdog` fault hook. They model transient
  hardware faults and exercise the watchdog and the oracle.

:func:`run_selftest` ties it together: for a batch of seeds it injects an
IR fault into the compiled side and records which layer — validator,
checked pass manager, watchdog, or oracle — caught it (or whether the
mutation escaped, i.e. was semantics-preserving).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.ir.ast import CellPort, Component, Program, ThisPort
from repro.ir.guards import NotGuard
from repro.lint.context import ComponentView
from repro.robustness.difftest import DifftestReport, difftest_program
from repro.sim.model import SimInstance


# ---------------------------------------------------------------------------
# IR-level faults
# ---------------------------------------------------------------------------


@dataclass
class IRMutation:
    """One seedable mutation site, applied to a program in place."""

    kind: str  # "drop-assignment" | "flip-guard" | "swap-port"
    component: str
    group: Optional[str]
    index: int
    #: for swap-port: the partner assignment index within the same group.
    partner: int = -1
    description: str = ""

    def _assignments(self, program: Program):
        comp = program.get_component(self.component)
        if self.group is None:
            return comp.continuous
        return comp.get_group(self.group).assignments

    def apply(self, program: Program) -> None:
        assigns = self._assignments(program)
        if self.kind == "drop-assignment":
            del assigns[self.index]
        elif self.kind == "flip-guard":
            assign = assigns[self.index]
            guard = assign.guard
            assign.guard = (
                guard.inner if isinstance(guard, NotGuard) else NotGuard(guard)
            )
        elif self.kind == "swap-port":
            a, b = assigns[self.index], assigns[self.partner]
            a.src, b.src = b.src, a.src
        else:
            raise ValueError(f"unknown mutation kind {self.kind!r}")


def _mutation_sites(program: Program) -> List[IRMutation]:
    """Every applicable mutation, in deterministic program order."""
    sites: List[IRMutation] = []
    for comp in program.components:
        view = ComponentView(program, comp)
        scopes: List[Tuple[Optional[str], list]] = [
            (name, comp.groups[name].assignments) for name in comp.groups
        ]
        scopes.append((None, comp.continuous))
        for group_name, assigns in scopes:
            where = f"{comp.name}" + (
                f".{group_name}" if group_name else " (continuous)"
            )
            for i, assign in enumerate(assigns):
                sites.append(
                    IRMutation(
                        "drop-assignment",
                        comp.name,
                        group_name,
                        i,
                        description=f"drop {assign.to_string()!r} in {where}",
                    )
                )
                sites.append(
                    IRMutation(
                        "flip-guard",
                        comp.name,
                        group_name,
                        i,
                        description=f"flip guard of {assign.to_string()!r} in {where}",
                    )
                )
            # Source swaps between width-compatible assignment pairs.
            for i, a in enumerate(assigns):
                for j in range(i + 1, len(assigns)):
                    b = assigns[j]
                    width_a = view.width(a.src)
                    width_b = view.width(b.src)
                    if width_a is None or width_b is None:
                        continue
                    if width_a == width_b and a.src != b.src:
                        sites.append(
                            IRMutation(
                                "swap-port",
                                comp.name,
                                group_name,
                                i,
                                partner=j,
                                description=(
                                    f"swap sources of assignments {i} and {j} "
                                    f"in {where}"
                                ),
                            )
                        )
    return sites


def enumerate_ir_mutations(program: Program) -> List[IRMutation]:
    """All mutation sites of a program (deterministic order)."""
    return _mutation_sites(program)


def inject_ir_fault(program: Program, seed: int) -> IRMutation:
    """Apply the seed-selected mutation to ``program`` in place."""
    sites = _mutation_sites(program)
    if not sites:
        raise ValueError("program has no mutable assignments")
    mutation = sites[random.Random(seed).randrange(len(sites))]
    mutation.apply(program)
    return mutation


# ---------------------------------------------------------------------------
# Simulation-level faults
# ---------------------------------------------------------------------------


@dataclass
class NetFault:
    """A stuck-at or bit-flip fault on a named net for a cycle window.

    ``net`` is ``"cell.port"`` (a cell port of the entry component) or a
    bare name (an interface port of the entry component). The fault is
    applied after each settle inside ``[start, end)``, so downstream
    registers latch the corrupted value at the clock edge.
    """

    net: str
    kind: str  # "stuck0" | "stuck1" | "flip"
    start: int = 0
    end: int = 1 << 62
    bit: int = 0

    def _ref(self):
        if "." in self.net:
            cell, _, port = self.net.partition(".")
            return CellPort(cell, port)
        return ThisPort(self.net)

    def hook(self) -> Callable[[int, SimInstance], None]:
        ref = self._ref()

        def fault_hook(cycle: int, inst: SimInstance) -> None:
            if not (self.start <= cycle < self.end):
                return
            value = inst.nets.get(ref, 0)
            if self.kind == "stuck0":
                value &= ~(1 << self.bit)
            elif self.kind == "stuck1":
                value |= 1 << self.bit
            elif self.kind == "flip":
                value ^= 1 << self.bit
            else:
                raise ValueError(f"unknown fault kind {self.kind!r}")
            inst.nets[ref] = value

        return fault_hook


# ---------------------------------------------------------------------------
# The self-test: does each layer catch what it claims to catch?
# ---------------------------------------------------------------------------


@dataclass
class SelfTestRecord:
    """Outcome of one injected fault."""

    seed: int
    mutation: str
    caught_by: str  # "validator" | "pass-manager" | "watchdog" | "oracle" | "escaped"
    detail: str = ""


_WATCHDOG_ERRORS = (
    "DeadlockError",
    "CycleLimitError",
    "WallClockTimeoutError",
    "OscillationError",
    "CombinationalLoopError",
)


def _classify(report: DifftestReport) -> Tuple[str, str]:
    """Which layer caught the fault, per the report's divergences."""
    if report.ok:
        return "escaped", "mutation preserved observable semantics"
    for div in report.divergences:
        if div.kind == "error":
            if "PassDiagnostic" in div.detail or "InvariantViolation" in div.detail:
                return "pass-manager", div.detail
            if any(name in div.detail for name in _WATCHDOG_ERRORS):
                return "watchdog", div.detail
            if "ValidationError" in div.detail or any(
                name in div.detail
                for name in ("UndefinedError", "WidthError", "MultipleDriverError")
            ):
                return "validator", div.detail
            return "validator", div.detail  # other compile-time rejection
    div = report.divergences[0]
    return "oracle", div.describe()


def run_selftest(
    program: Program,
    seeds: Sequence[int],
    pipelines: Sequence[str] = ("lower",),
    memories: Optional[Dict[str, List[int]]] = None,
    max_cycles: int = 50_000,
    engine: str = "sweep",
) -> List[SelfTestRecord]:
    """Inject one IR fault per seed into the compiled side of the oracle.

    Every fault must be caught by *some* layer; "escaped" records are
    expected only for semantics-preserving mutations (e.g. in dead code)
    and are reported so callers can eyeball the escape rate. ``engine``
    selects the simulation engine under test, so the classification can be
    asserted to hold for the levelized engine as well as the sweep.
    """
    records: List[SelfTestRecord] = []
    for seed in seeds:
        holder: Dict[str, IRMutation] = {}

        def transform(target: Program, _seed=seed) -> None:
            holder["mutation"] = inject_ir_fault(target, _seed)

        report = difftest_program(
            program,
            memories=memories,
            pipelines=list(pipelines),
            name=f"selftest[seed={seed}]",
            max_cycles=max_cycles,
            check_latency=False,
            checked_passes=True,
            compiled_transform=transform,
            engine=engine,
        )
        mutation = holder.get("mutation")
        caught_by, detail = _classify(report)
        records.append(
            SelfTestRecord(
                seed=seed,
                mutation=mutation.description if mutation else "<none>",
                caught_by=caught_by,
                detail=detail,
            )
        )
    return records
