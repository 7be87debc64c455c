"""The repository benchmark: Figure 7/8 designs through every layer.

Usage::

    python3 perfbench/run.py --workload polybench-lowered --seed 1 --seconds 36 --trace 0

Workloads (see ``flows.WORKLOADS``):

* ``polybench-lowered`` -- the Figure 8 set (19 PolyBench kernels plus 11
  unrolled variants, n=4): Dahlia, the ``all`` pipeline, levelized
  simulation of the lowered netlist, resources, Verilog, HLS model.
* ``systolic-all`` -- the Figure 7 systolic arrays 2x2..8x8, same flow.
* ``polybench-interp`` -- the Figure 8 set simulated unlowered, right
  after the ``validate`` pipeline, through the control executor; the rest
  of ``all`` and the backend run afterwards.

Load is one process, one thread, one design at a time, in a closed loop:
every design of the workload runs once, then the loop goes round again
until ``--seconds`` have passed. Timed metrics are per pass over the
workload: the sum over designs of each design's median, scaled to a
reference host by a speed probe sampled during the run (see ``speed.py``).
Each design's output memories are checked against its reference; a
design that differs or raises is counted as failed and the run goes on.
Deterministic results
(cycles, LUTs, registers, Verilog lines, IR sizes) must repeat exactly on
every run of a design, or the benchmark exits with status 1.

Set-up (imports, input generation, reference outputs) is timed apart,
as the median of several fresh interpreters, and is not part of any
design's flow time; it is scaled to the reference host the same way.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones: each layer's self time from spans around the calls into it, IR sizes
counted between layers, and the tracing overhead, measured by running
every design both traced and untraced. The traced run also writes the
spans to ``perfbench/out/`` as a Chrome trace-event file. The last line of
standard output is one JSON object with the metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Dict, List, Optional

from speed import REFERENCE_S, HostSpeed
from spans import PROBE, Timer, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 5

#: End-to-end metrics, printed with ``--trace 0``: name -> unit.
END_TO_END = {
    "wall_s": "s",
    "compile_s": "s",
    "sim_cycles_per_s": "cycles/s",
    "sim_cycles": "cycles",
    "luts": "LUTs",
    "register_cells": "cells",
    "verilog_lines": "lines",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Leaf spans timed besides the passes.
LAYER_SPANS = ["sim.build", "sim.run", "backend.resources", "backend.verilog", "hls.schedule"]
IR_KEYS = ["cells", "groups", "assignments", "guard_atoms", "control_nodes"]


def import_program() -> None:
    """Import the program from this checkout's ``src``, and no other copy."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        sys.exit(f"error: imported {repro.__file__}, not the program under {SRC}")


def layer_spans() -> List[str]:
    """Leaf spans whose self times are per-layer metrics (``<span>_s``)."""
    from flows import PIPELINE
    from repro.passes import resolve_pipeline

    return [f"passes.{name}" for name in resolve_pipeline(PIPELINE)] + LAYER_SPANS


def per_layer_units() -> Dict[str, str]:
    """Per-layer metrics, printed with ``--trace 1``: name -> unit."""
    units = {"frontends_s": "s"}
    units.update({f"{span}_s": "s" for span in layer_spans()})
    units["sim.cycles_per_s"] = "cycles/s"
    units["check.reference_s"] = "s"
    for stage in ("source", "lowered"):
        units.update({f"ir.{stage}.{key}": "count" for key in IR_KEYS})
    units["passes.resource-sharing.cells_removed"] = "cells"
    units["passes.register-sharing.registers_removed"] = "cells"
    units["host.scale"] = "ratio"
    units["trace.overhead_s"] = "s"
    units["trace.coverage_min"] = "ratio"
    return units


@dataclass
class DesignRecord:
    """Every successful run of one design."""

    walls: List[float] = field(default_factory=list)
    compile: List[float] = field(default_factory=list)
    sim_run: List[float] = field(default_factory=list)
    traced_walls: List[float] = field(default_factory=list)
    self_seconds: List[Dict[str, float]] = field(default_factory=list)
    coverage: List[float] = field(default_factory=list)
    outcome: Optional[object] = None
    counts: Optional[Dict[str, int]] = None


class Run:
    """Closed-loop measurement of one workload's designs."""

    def __init__(self, designs, simulate_unlowered: bool, traced: bool):
        self.designs = designs
        self.simulate_unlowered = simulate_unlowered
        self.tracer = Tracer() if traced else None
        self.records: Dict[str, DesignRecord] = {d.name: DesignRecord() for d in designs}
        self.attempted = 0
        self.failed = 0
        self.nondeterministic: List[str] = []
        self.passes = 0
        self.speed = HostSpeed()

    def loop(self, seconds: float) -> None:
        """Run every design once, then go round again until ``seconds`` pass."""
        deadline = perf_counter() + seconds
        with self.speed:
            while self.passes == 0 or perf_counter() < deadline:
                for design in self.designs:
                    if self.passes and perf_counter() >= deadline:
                        break
                    if self.tracer is None:
                        self.flow(design, traced=False)
                    else:
                        # Alternate which of the pair runs first.
                        order = (False, True) if self.passes % 2 == 0 else (True, False)
                        for traced in order:
                            self.flow(design, traced)
                self.passes += 1

    def flow(self, design, traced: bool) -> None:
        import flows

        self.attempted += 1
        gc.collect()
        rec = self.tracer if traced else Timer()
        first = len(rec.spans) if traced else 0
        probes = rec.seconds[PROBE]
        start = perf_counter()
        try:
            if traced:
                rec.design = design.name
                with rec.span("design"):
                    outcome = flows.run_design(design, rec, self.simulate_unlowered)
            else:
                outcome = flows.run_design(design, rec, self.simulate_unlowered)
        except Exception:  # a failing design is counted; it never ends the run
            self.fail(f"{design.name} raised:\n{traceback.format_exc()}")
            return
        wall = perf_counter() - start - (rec.seconds[PROBE] - probes)
        problem = flows.mismatch(design, outcome.outputs)
        if problem is not None:
            self.fail(problem)
            return

        record = self.records[design.name]
        if record.outcome is None:
            record.outcome = outcome
        elif outcome.signature() != record.outcome.signature():
            self.nondeterministic.append(
                f"{design.name}: {outcome.signature()} != {record.outcome.signature()}"
            )
        if traced:
            if record.counts is None:
                record.counts = outcome.counts
            elif outcome.counts != record.counts:
                self.nondeterministic.append(f"{design.name}: IR counts differ between runs")
            own = rec.self_seconds(first)
            record.traced_walls.append(wall)
            record.self_seconds.append(own)
            record.coverage.append(1.0 - own["design"] / wall)
        else:
            record.walls.append(wall)
            record.compile.append(rec.seconds["frontends"] + rec.seconds["passes"])
            record.sim_run.append(rec.seconds["sim.run"])

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"FAILED {message}", file=sys.stderr)

    # -- aggregation ------------------------------------------------------
    def _ok(self) -> List[DesignRecord]:
        return [r for r in self.records.values() if r.outcome is not None]

    def total(self, attr: str) -> float:
        """Sum over designs of one deterministic outcome field."""
        return sum(getattr(r.outcome, attr) for r in self._ok())

    def sum_medians(self, attr: str) -> float:
        """Sum over designs of the median of one timed sample list, scaled
        to reference-host seconds (see :mod:`speed`)."""
        total = sum(median(getattr(r, attr)) for r in self._ok() if getattr(r, attr))
        return total * self.speed.scale()

    def self_time(self, match) -> float:
        """Per pass: sum over designs of the median self time of matching
        spans, in reference-host seconds."""
        total = sum(
            median(sum(v for k, v in own.items() if match(k)) for own in r.self_seconds)
            for r in self._ok()
            if r.self_seconds
        )
        return total * self.speed.scale()

    def end_to_end(self, setup_s: float) -> Dict[str, float]:
        cycles = self.total("cycles")
        return {
            "wall_s": self.sum_medians("walls"),
            "compile_s": self.sum_medians("compile"),
            "sim_cycles_per_s": _ratio(cycles, self.sum_medians("sim_run")),
            "sim_cycles": cycles,
            "luts": self.total("luts"),
            "register_cells": self.total("register_cells"),
            "verilog_lines": self.total("verilog_lines"),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def per_layer(self, units: Dict[str, str], reference_s: float) -> Dict[str, float]:
        values: Dict[str, float] = {"frontends_s": self.self_time(lambda k: k.startswith("frontends."))}
        for span in layer_spans():
            values[f"{span}_s"] = self.self_time(lambda k, span=span: k == span)
        values["sim.cycles_per_s"] = _ratio(self.total("cycles"), values["sim.run_s"])
        values["check.reference_s"] = reference_s
        for name, unit in units.items():
            if unit in ("count", "cells"):
                values[name] = sum(r.counts.get(name, 0) for r in self._ok() if r.counts)
        values["trace.overhead_s"] = self.sum_medians("traced_walls") - self.sum_medians("walls")
        values["host.scale"] = self.speed.scale()
        values["trace.coverage_min"] = min(
            (median(r.coverage) for r in self._ok() if r.coverage), default=0.0
        )
        return {name: values[name] for name in units}


#: Run in a fresh interpreter to time one complete set-up, in
#: reference-host seconds like every other time.
_SETUP_SCRIPT = """
import sys
from time import perf_counter
start = perf_counter()
sys.path[:0] = [{src!r}, {here!r}]
from speed import HostSpeed
with HostSpeed() as speed:
    import flows
    from spans import Timer
    rec = Timer()
    flows.make_designs({workload!r}, {seed}, rec)
    total = perf_counter() - start
print(total * speed.scale(), rec.seconds["check.reference"] * speed.scale())
"""


def set_up(workload: str, seed: int):
    """Generate the designs; time set-up in fresh interpreters.

    Set-up -- imports, input generation and reference outputs -- runs
    ``SETUP_REPEATS`` times, each in its own process so that the imports
    are timed every time; the medians of the total and of the reference
    computation are returned with the designs.
    """
    import_program()
    import flows

    script = _SETUP_SCRIPT.format(
        src=str(SRC), here=str(Path(__file__).resolve().parent), workload=workload, seed=seed
    )
    totals, references = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True, timeout=120
        )
        total, reference = map(float, done.stdout.split())
        totals.append(total)
        references.append(reference)
    return flows.make_designs(workload, seed, Timer()), median(totals), median(references)


def _ratio(num: float, den: float) -> float:
    """``num / den``, or 0 when every design failed and nothing was timed."""
    return num / den if den else 0.0


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(args, run: Run, metrics: Dict[str, float], units: Dict[str, str]) -> None:
    """Human-readable report; the JSON result follows it."""
    print(
        f"perfbench {args.workload} seed={args.seed}: {len(run.designs)} designs, "
        f"{run.passes} passes, {run.attempted} design flows, {run.failed} failed"
    )
    for name, value in metrics.items():
        print(f"  {name:<44} {_fmt(value):>14} {units[name]}")
    print(f"  {'failed_frac':<44} {_fmt(run.failed / run.attempted):>14} ratio")
    scale = run.speed.scale()
    print(
        f"  host times above are reference-host seconds: raw host seconds x {scale:.4f} "
        f"(probe median {REFERENCE_S / scale * 1e6:.2f} us, reference {REFERENCE_S * 1e6:.2f} us, "
        f"{len(run.speed.samples)} samples)"
    )
    if run.tracer is not None:
        layers = {
            name: run.self_time(lambda k, name=name: k == name)
            for name in sorted({s.name for s in run.tracer.spans})
        }
        untraced = run.sum_medians("walls")
        print(
            f"  tracing overhead: {metrics['trace.overhead_s']:.4f} s on an untraced "
            f"wall_s of {untraced:.4f} s ({metrics['trace.overhead_s'] / untraced:+.2%})"
        )
        print("  self time per pass, by span (largest first):")
        for name, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
            print(f"    {name:<42} {seconds:14.6f} s")
    print("  per design: cycles luts register_cells verilog_lines hls_cycles median_wall_s")
    for name, record in run.records.items():
        o = record.outcome
        if o is not None:
            walls = record.walls or record.traced_walls
            print(
                f"    {name:<16} {o.cycles:8} {o.luts:10.1f} {o.register_cells:6} "
                f"{o.verilog_lines:7} {o.hls_cycles:8} {median(walls) * scale:10.4f}"
            )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    designs, setup_s, reference_s = set_up(args.workload, args.seed)
    run = Run(designs, args.workload == "polybench-interp", traced=bool(args.trace))
    run.loop(args.seconds)

    if args.trace:
        units = per_layer_units()
        metrics = run.per_layer(units, reference_s)
    else:
        units = END_TO_END
        metrics = run.end_to_end(setup_s)
    report(args, run, metrics, units)
    if run.tracer is not None:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        run.tracer.write_chrome_trace(str(path))
        print(f"  chrome trace: {path.relative_to(ROOT)}")
    for line in run.nondeterministic:
        print(f"NONDETERMINISTIC {line}", file=sys.stderr)
    result = {
        "correct": run.failed == 0 and not run.nondeterministic,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if run.nondeterministic else 0


if __name__ == "__main__":
    sys.exit(main())
