"""Unit tests for the nectarflow core: call graph, CFG, dataflow engine."""

import ast
import textwrap

from repro.analysis.flow.callgraph import Project, dotted_name
from repro.analysis.flow.cfg import build_cfg
from repro.analysis.flow.dataflow import run_forward


def _func(source, name=None):
    tree = ast.parse(textwrap.dedent(source))
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and (name is None or node.name == name):
            return node
    raise AssertionError("no function found")


# --------------------------------------------------------------- call graph ----


def test_dotted_name():
    assert dotted_name(ast.parse("a.b.c", mode="eval").body) == "a.b.c"
    assert dotted_name(ast.parse("x", mode="eval").body) == "x"
    assert dotted_name(ast.parse("f().g", mode="eval").body) is None


def test_module_local_call_wins_over_global_names():
    project = Project()
    project.add_source(
        "def helper():\n    pass\n\ndef caller():\n    helper()\n",
        "src/repro/a.py",
    )
    project.add_source("def helper():\n    pass\n", "src/repro/b.py")
    project.resolve_calls()
    assert project.callees("repro.a.caller") == ["repro.a.helper"]


def test_self_method_resolves_to_enclosing_class_first():
    project = Project.from_source(
        textwrap.dedent(
            """
            class A:
                def m(self):
                    pass

                def caller(self):
                    self.m()

            class B:
                def m(self):
                    pass
            """
        ),
        "src/repro/mod.py",
    )
    assert project.callees("repro.mod.A.caller") == ["repro.mod.A.m"]


def test_unqualified_method_call_fans_out_to_all_candidates():
    project = Project.from_source(
        textwrap.dedent(
            """
            class A:
                def m(self):
                    pass

            class B:
                def m(self):
                    pass

            def caller(obj):
                obj.m()
            """
        ),
        "src/repro/mod.py",
    )
    assert project.callees("repro.mod.caller") == [
        "repro.mod.A.m",
        "repro.mod.B.m",
    ]


def test_transitive_callees_closes_over_chains():
    project = Project.from_source(
        "def a():\n    b()\n\ndef b():\n    c()\n\ndef c():\n    pass\n",
        "src/repro/mod.py",
    )
    closure = project.transitive_callees("repro.mod.a")
    assert "repro.mod.b" in closure
    assert "repro.mod.c" in closure


def test_syntax_errors_are_skipped_not_fatal():
    project = Project()
    project.add_source("def broken(:\n", "src/repro/bad.py")
    project.resolve_calls()
    assert project.functions == {}


def test_render_graph_is_deterministic():
    source = "def a():\n    b()\n    c()\n\ndef b():\n    pass\n\ndef c():\n    pass\n"
    one = Project.from_source(source, "src/repro/mod.py").render_graph()
    two = Project.from_source(source, "src/repro/mod.py").render_graph()
    assert one == two
    assert "repro.mod.a" in one
    assert "  -> repro.mod.b" in one


# ---------------------------------------------------------------------- CFG ----


def test_if_else_produces_join_block():
    cfg = build_cfg(
        _func(
            """
            def f(x):
                if x:
                    a = 1
                else:
                    a = 2
                return a
            """
        )
    )
    # Entry must reach the exit via both arms.
    succs = cfg.blocks[cfg.entry.index].succs
    assert len(succs) == 2


def test_return_edges_to_exit_and_raise_to_error_exit():
    cfg = build_cfg(
        _func(
            """
            def f(x):
                if x:
                    raise ValueError("no")
                return 1
            """
        )
    )
    raising = [
        b
        for b in cfg.blocks
        if any(isinstance(s, ast.Raise) for s in b.stmts)
    ]
    returning = [
        b
        for b in cfg.blocks
        if any(isinstance(s, ast.Return) for s in b.stmts)
    ]
    assert raising and cfg.error_exit.index in raising[0].succs
    assert cfg.exit.index not in raising[0].succs
    assert returning and cfg.exit.index in returning[0].succs


def test_while_loop_has_back_edge_and_exit_edge():
    cfg = build_cfg(
        _func(
            """
            def f(n):
                while n:
                    n -= 1
                return n
            """
        )
    )
    # Some block must loop back to an earlier block (the loop head).
    assert any(s <= b.index for b in cfg.blocks for s in b.succs if b.stmts)


def test_infinite_loop_without_break_has_no_exit_fallthrough():
    cfg = build_cfg(
        _func(
            """
            def f():
                while True:
                    pass
            """
        )
    )
    # The exit block is unreachable: nothing falls through a while True.
    reachable = set()
    stack = [cfg.entry.index]
    while stack:
        index = stack.pop()
        if index in reachable:
            continue
        reachable.add(index)
        stack.extend(cfg.blocks[index].succs)
    assert cfg.exit.index not in reachable


def test_try_finally_carries_pre_try_state_edge():
    cfg = build_cfg(
        _func(
            """
            def f():
                before = 1
                try:
                    mid = 2
                finally:
                    after = 3
                return after
            """
        )
    )
    # The block holding 'before' must branch both into the try body and
    # around it (the "body never ran" exception path) into finally.
    head = next(
        b
        for b in cfg.blocks
        if any(
            isinstance(s, ast.Assign)
            and isinstance(s.targets[0], ast.Name)
            and s.targets[0].id == "before"
            for s in b.stmts
        )
    )
    assert len(head.succs) == 2


# ----------------------------------------------------------------- dataflow ----


def test_run_forward_reaches_fixpoint_on_branchy_gen_kill():
    cfg = build_cfg(
        _func(
            """
            def f(x):
                v = 1
                if x:
                    v = 2
                return v
            """
        )
    )

    def transfer(index, entry):
        state = dict(entry)
        for stmt in cfg.blocks[index].stmts:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Assign) and isinstance(
                    node.targets[0], ast.Name
                ):
                    name = node.targets[0].id
                    state[name] = state.get(name, frozenset()) | {
                        node.value.value
                    }
        return state

    def join(a, b):
        merged = dict(a)
        for key, values in b.items():
            merged[key] = merged.get(key, frozenset()) | values
        return merged

    exits = run_forward(cfg, {}, transfer, join)
    assert exits[cfg.exit.index]["v"] == {1, 2}


def test_run_forward_terminates_on_loops():
    cfg = build_cfg(
        _func(
            """
            def f(n):
                total = 0
                while n:
                    total = 1
                return total
            """
        )
    )
    calls = []

    def transfer(index, entry):
        calls.append(index)
        return dict(entry)

    exits = run_forward(cfg, {}, transfer, lambda a, b: {**a, **b})
    assert exits  # converged without hitting the safety bound
    assert len(calls) < 64 * len(cfg.blocks)
