"""Tests for the analysis package: schedule conflicts, coloring, pCFGs,
read/write sets, and liveness."""

from hypothesis import given, settings, strategies as st

from repro.analysis.coloring import greedy_coloring
from repro.analysis.liveness import LivenessAnalysis
from repro.analysis.pcfg import build_pcfg
from repro.analysis.read_write import group_accesses, registers_of
from repro.analysis.schedule import conflict_map, parallel_conflicts
from repro.ir import parse_program


def comp_of(control, groups_extra=""):
    src = f"""
component main(go: 1) -> (done: 1) {{
  cells {{
    r0 = std_reg(8); r1 = std_reg(8); r2 = std_reg(8);
    lt = std_lt(8);
  }}
  wires {{
    group a {{ r0.in = 8'd1; r0.write_en = 1; a[done] = r0.done; }}
    group b {{ r1.in = r0.out; r1.write_en = 1; b[done] = r1.done; }}
    group c {{ r2.in = r1.out; r2.write_en = 1; c[done] = r2.done; }}
    group cond {{ lt.left = r0.out; lt.right = 8'd5; cond[done] = 1'd1; }}
    {groups_extra}
  }}
  control {{ {control} }}
}}
"""
    return parse_program(src).main


class TestScheduleConflicts:
    def test_seq_has_no_conflicts(self):
        assert parallel_conflicts(comp_of("seq { a; b; c; }")) == set()

    def test_par_children_conflict(self):
        conflicts = parallel_conflicts(comp_of("par { a; b; }"))
        assert frozenset(("a", "b")) in conflicts

    def test_nested_groups_conflict_across_arms(self):
        conflicts = parallel_conflicts(comp_of("par { seq { a; b; } c; }"))
        assert frozenset(("a", "c")) in conflicts
        assert frozenset(("b", "c")) in conflicts
        assert frozenset(("a", "b")) not in conflicts

    def test_cond_groups_conflict_when_parallel(self):
        conflicts = parallel_conflicts(
            comp_of("par { while lt.out with cond { a; } b; }")
        )
        assert frozenset(("cond", "b")) in conflicts

    def test_conflict_map_is_symmetric(self):
        adj = conflict_map(comp_of("par { a; b; c; }"))
        for node, neighbors in adj.items():
            for other in neighbors:
                assert node in adj[other]


class TestGreedyColoring:
    def test_no_conflicts_one_color(self):
        colors = greedy_coloring(["a", "b", "c"], {})
        assert set(colors.values()) == {"a"}

    def test_clique_gets_distinct_colors(self):
        conflicts = {
            "a": {"b", "c"},
            "b": {"a", "c"},
            "c": {"a", "b"},
        }
        colors = greedy_coloring(["a", "b", "c"], conflicts)
        assert len(set(colors.values())) == 3

    def test_representatives_map_to_themselves(self):
        conflicts = {"a": {"b"}, "b": {"a"}}
        colors = greedy_coloring(["a", "b", "c"], conflicts)
        for rep in set(colors.values()):
            assert colors[rep] == rep

    @given(
        st.integers(min_value=1, max_value=8),
        st.sets(
            st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(
                lambda t: t[0] != t[1]
            ),
            max_size=16,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_coloring_property(self, n, edge_set):
        nodes = list(range(n))
        conflicts = {i: set() for i in nodes}
        for u, v in edge_set:
            if u < n and v < n:
                conflicts[u].add(v)
                conflicts[v].add(u)
        colors = greedy_coloring(nodes, conflicts)
        # Property 1: adjacent nodes get different representatives.
        for u in nodes:
            for v in conflicts[u]:
                assert colors[u] != colors[v]
        # Property 2: representative map is idempotent.
        for node, rep in colors.items():
            assert colors[rep] == rep


class TestPcfg:
    def test_seq_is_a_chain(self):
        graph = build_pcfg(comp_of("seq { a; b; c; }"))
        names = [n.group for n in graph.nodes if n.kind == "group"]
        assert names == ["a", "b", "c"]

    def test_par_makes_pnode(self):
        graph = build_pcfg(comp_of("par { a; b; }"))
        pnodes = [n for n in graph.nodes if n.kind == "par"]
        assert len(pnodes) == 1
        assert len(pnodes[0].children) == 2

    def test_while_has_back_edge(self):
        graph = build_pcfg(comp_of("while lt.out with cond { a; }"))
        cond = next(n for n in graph.nodes if n.group == "cond")
        body = next(n for n in graph.nodes if n.group == "a")
        assert cond in body.succs  # back edge
        assert body in cond.succs

    def test_if_diamond(self):
        graph = build_pcfg(comp_of("if lt.out with cond { a; } else { b; }"))
        cond = next(n for n in graph.nodes if n.group == "cond")
        assert len(cond.succs) == 2

    def test_walk_recurses_into_pnodes(self):
        graph = build_pcfg(comp_of("par { seq { a; b; } c; }"))
        names = {n.group for n in graph.walk() if n.kind == "group"}
        assert names == {"a", "b", "c"}


class TestReadWriteSets:
    def test_reads_and_writes(self):
        comp = comp_of("seq { a; b; }")
        regs = registers_of(comp)
        sets = group_accesses(comp, comp.get_group("b"), regs)
        assert sets.reads == {"r0"}
        assert sets.must_writes == {"r1"}

    def test_guarded_write_is_not_must(self):
        comp = comp_of(
            "seq { a; g; }",
            groups_extra="""
    group g {
      r2.in = lt.out ? 8'd1;
      r2.write_en = lt.out ? 1;
      g[done] = r2.done;
    }
""",
        )
        regs = registers_of(comp)
        sets = group_accesses(comp, comp.get_group("g"), regs)
        assert "r2" in sets.may_writes
        assert "r2" not in sets.must_writes

    def test_guard_reads_counted(self):
        comp = comp_of(
            "seq { a; g; }",
            groups_extra="""
    group g {
      r2.in = 8'd1;
      r2.write_en = 1;
      g[done] = r2.done;
      r2.in = r0.out == 8'd1 ? 8'd2;
    }
""",
        )
        regs = registers_of(comp)
        sets = group_accesses(comp, comp.get_group("g"), regs)
        assert "r0" in sets.reads


class TestLiveness:
    def test_chain_liveness(self):
        comp = comp_of("seq { a; b; c; }")
        analysis = LivenessAnalysis(comp)
        graph = analysis.graph
        node_b = next(n for n in graph.nodes if n.group == "b")
        # r0 is live into b (read there), dead after.
        assert "r0" in analysis.result.live_in[node_b.id]
        assert "r0" not in analysis.result.live_out[node_b.id]

    def test_loop_keeps_register_alive(self):
        comp = comp_of("while lt.out with cond { seq { a; b; } }")
        analysis = LivenessAnalysis(comp)
        # r0 is read by cond every iteration: live around the loop.
        node_b = next(n for n in analysis.graph.nodes if n.group == "b")
        assert "r0" in analysis.result.live_out[node_b.id]

    def test_parallel_arms_conflict(self):
        comp = comp_of("seq { par { a; b; } c; }")
        analysis = LivenessAnalysis(comp)
        adj = analysis.result.conflict_map()
        # a writes r0, b reads r0 in a sibling arm: cross-arm conflict.
        assert "r1" in adj.get("r0", set())

    def test_loop_in_par_arm_reaches_fixpoint(self):
        # r2 is read after the par, so it stays live all around the loop
        # nested in the other arm; that takes more sweeps of the arm than
        # the top-level graph needs to settle.
        read_r2 = "group d { r0.in = r2.out; r0.write_en = 1; d[done] = r0.done; }"
        comp = comp_of(
            "seq { par { c; if lt.out with cond {"
            " while lt.out with cond { seq { a; b; } } } } d; }",
            read_r2,
        )
        analysis = LivenessAnalysis(comp)
        node_b = next(n for n in analysis.graph.walk() if n.group == "b")
        assert "r2" in analysis.result.live_out[node_b.id]

    def test_par_kills_what_every_arm_writes(self):
        comp = comp_of("seq { par { a; } b; }")
        analysis = LivenessAnalysis(comp)
        par = next(n for n in analysis.graph.nodes if n.kind == "par")
        # b reads r0, but the only arm overwrites it first.
        assert "r0" in analysis.result.live_out[par.id]
        assert "r0" not in analysis.result.live_in[par.id]

    def test_pinned_registers_excluded(self):
        src = """
component main(go: 1) -> (done: 1) {
  cells { r0 = std_reg(1); r1 = std_reg(1); }
  wires {
    done = r0.out;
    group g { r1.in = 1'd1; r1.write_en = 1; g[done] = r1.done; }
  }
  control { g; }
}
"""
        comp = parse_program(src).main
        analysis = LivenessAnalysis(comp)
        assert "r0" in analysis.pinned
        assert "r1" not in analysis.pinned
