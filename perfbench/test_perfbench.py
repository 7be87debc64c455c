"""Checks of the benchmark itself: its oracle, its determinism gate, its
agreement with the existing evaluation harness, and its trace output.

Run with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_program()

import flows  # noqa: E402
from repro.errors import CalyxError  # noqa: E402
from spans import Timer  # noqa: E402

HERE = Path(__file__).resolve().parent


def designs(workload, names, seed=1):
    return [d for d in flows.make_designs(workload, seed, Timer()) if d.name in names]


def one_pass(selected, traced=False, unlowered=False):
    bench = run.Run(selected, unlowered, traced)
    bench.loop(0)
    return bench


def test_corrupted_result_word_counts_as_failed(monkeypatch):
    real = flows.run_design

    def corrupting(design, rec, simulate_unlowered=False):
        outcome = real(design, rec, simulate_unlowered)
        memory = next(iter(outcome.outputs.values()))
        memory[len(memory) // 2] ^= 1
        return outcome

    monkeypatch.setattr(flows, "run_design", corrupting)
    bench = one_pass(designs("polybench-lowered", {"trisolv", "gesummv"}))
    assert bench.attempted == 2
    assert bench.failed / bench.attempted > 0
    assert bench.failed == 2


def test_calyx_error_counts_as_failed_without_ending_the_run():
    good = designs("polybench-lowered", {"trisolv"})[0]
    bad = flows.Design("ill-typed", {}, {"x": [0]}, source="decl x: ubit<32>[1];\nx[0] := y")
    with pytest.raises(CalyxError):
        flows.run_design(bad, Timer())
    bench = one_pass([bad, good])
    assert (bench.attempted, bench.failed) == (2, 1)
    assert bench.records["trisolv"].outcome is not None
    assert bench.records["ill-typed"].outcome is None


def test_default_seed_matches_existing_harness():
    from repro.eval import fig8_polybench

    bench = one_pass(flows.make_designs("polybench-lowered", 1, Timer()))
    assert bench.failed == 0
    recorded = json.loads((HERE.parent / "BENCH_sim.json").read_text())["fig8"]["levelized"]
    for name, row in recorded.items():
        assert bench.records[name].outcome.cycles == row["cycles"], name
    for row in fig8_polybench.run(simulate=False):
        name = row.name + ("-u" if row.unrolled else "")
        assert bench.records[name].outcome.luts == row.calyx_luts, name


SIGNATURES = """
import json, sys
sys.path[:0] = [{here!r}]
import run
run.import_program()
import flows
from spans import Tracer
out = {{}}
for workload in ("polybench-lowered", "systolic-all"):
    for design in flows.make_designs(workload, 7, Tracer()):
        if design.name in ("gemm", "gemm-u", "ludcmp", "systolic-2x2", "systolic-4x4"):
            outcome = flows.run_design(design, Tracer())
            out[design.name] = [outcome.signature(), outcome.counts]
print(json.dumps(out))
"""


def test_two_processes_with_one_seed_agree_exactly():
    script = SIGNATURES.format(here=str(HERE))
    results = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300
        )
        assert done.returncode == 0, done.stderr
        results.append(json.loads(done.stdout.splitlines()[-1]))
    assert len(results[0]) == 5
    assert results[0] == results[1]
    assert "ir.lowered.guard_atoms" in results[0]["gemm"][1]


def test_nondeterministic_result_is_reported(monkeypatch):
    real = flows.run_design
    calls = []

    def drifting(design, rec, simulate_unlowered=False):
        outcome = real(design, rec, simulate_unlowered)
        calls.append(design.name)
        outcome.luts += len(calls)
        return outcome

    monkeypatch.setattr(flows, "run_design", drifting)
    design = designs("polybench-lowered", {"trisolv"})[0]
    bench = run.Run([design], False, traced=False)
    bench.flow(design, traced=False)
    assert not bench.nondeterministic
    bench.flow(design, traced=False)
    assert bench.nondeterministic
    assert bench.failed == 0


def test_traced_run_covers_each_design_and_writes_chrome_trace(tmp_path):
    selected = designs("polybench-lowered", {"trisolv", "gemm-u"}) + designs(
        "systolic-all", {"systolic-2x2"}
    )
    bench = one_pass(selected, traced=True)
    assert bench.failed == 0
    for record in bench.records.values():
        assert min(record.coverage) >= 0.95
    metrics = bench.per_layer(run.per_layer_units(), reference_s=0.001)
    assert set(metrics) == set(run.per_layer_units())
    assert metrics["passes.register-sharing.registers_removed"] > 0
    path = tmp_path / "trace.json"
    bench.tracer.write_chrome_trace(str(path))
    events = json.loads(path.read_text())["traceEvents"]
    assert {e["args"]["id"] for e in events} == {"trisolv", "gemm-u", "systolic-2x2"}
    roots = [e for e in events if e["args"]["parent"] is None]
    assert {e["name"] for e in roots} == {"design"}
    assert any(e["name"] == "passes.register-sharing" for e in events)


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "systolic-all", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_benchmark_json_lists_what_the_benchmark_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} == set(flows.WORKLOADS)
