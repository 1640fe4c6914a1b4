"""Unit tests for the nectarflow core: the call-graph project index."""

import ast
import pathlib
import subprocess
import sys
import textwrap

from repro.analysis.flow.callgraph import Project
from repro.analysis.nectarlint import dotted_name


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


def test_flow_graph_cli_dumps_call_graph_and_state_machines():
    """``python -m repro flow --graph`` end to end over the shipped tree."""
    repo = pathlib.Path(__file__).resolve().parent.parent
    env = {"PYTHONPATH": str(repo / "src"), "PATH": "/usr/bin:/bin:/usr/local/bin"}

    def flow(*args):
        return subprocess.run(
            [sys.executable, "-m", "repro", "flow", *args],
            capture_output=True, text=True, cwd=str(repo), env=env,
        )

    result = flow("--graph", "src/repro")
    assert result.returncode == 0, result.stderr
    assert "# call graph (resolved; conservative name resolution)" in result.stdout
    assert "# state machines (lifted from transition code)" in result.stdout
    assert "  SYN_SENT -> ESTABLISHED  (" in result.stdout
    assert flow("src/repro").returncode == 2
