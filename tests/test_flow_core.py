"""What the NP30x pass shares with the per-file linter: the dotted-name
helper both read, and the one parse of each file a ``--static`` run makes."""

import ast
import textwrap

from repro.analysis.nectarlint import dotted_name, lint_paths


def test_dotted_name():
    assert dotted_name(ast.parse("a.b.c", mode="eval").body) == "a.b.c"
    assert dotted_name(ast.parse("x", mode="eval").body) == "x"
    assert dotted_name(ast.parse("f().g", mode="eval").body) is None


def test_syntax_errors_are_skipped_not_fatal(tmp_path):
    """An unparseable file is one E999 finding and is left out of the
    NP30x index; the state machines of the other files are still checked."""
    (tmp_path / "bad.py").write_text("def broken(:\n")
    (tmp_path / "port.py").write_text(
        textwrap.dedent(
            """
            import enum

            class PortState(enum.Enum):
                IDLE = 1
                ORPHAN = 2

            class Port:
                def tick_timer(self):
                    if self.state == PortState.IDLE:
                        self.state = PortState.IDLE
            """
        )
    )
    findings = lint_paths([str(tmp_path)], static=True)
    assert [(f.path.rsplit("/", 1)[-1], f.code) for f in findings] == [
        ("bad.py", "E999"),
        ("port.py", "NP301"),
    ]
