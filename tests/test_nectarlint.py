"""Unit tests for nectarlint, the static determinism/sim-safety checker.

Each rule gets a positive case (bad code is flagged with the right code at
the right line) and a negative case (the idiomatic equivalent passes).
Suppression comments, path sensitivity, JSON output, and the CLI contract
are covered at the end.
"""

import json
import textwrap

from repro.analysis import nectarlint
from repro.analysis.rules import all_rules, get_rule, parse_suppressions

SIM_PATH = "src/repro/sim/fake.py"  # triggers the sensitive-path rules
PLAIN_PATH = "tools/fake.py"  # non-sensitive


def lint(source, path=SIM_PATH, **kwargs):
    return nectarlint.lint_source(textwrap.dedent(source), path=path, **kwargs)


def codes(findings):
    return [finding.code for finding in findings]


# ---------------------------------------------------------------- registry ----


def test_registry_has_all_documented_rules():
    registered = {rule.code for rule in all_rules()}
    assert registered == {
        "ND001", "ND002", "ND003", "ND004", "ND005", "ND006",
        "NS101", "NS102", "NS103",
        "NB201",
        # whole-program (nectarflow) rules
        "NP301", "NP302", "NP303",
        # lint hygiene
        "NL001",
    }
    for rule in all_rules():
        assert rule.summary and rule.rationale


def test_get_rule_lookup():
    assert get_rule("ND001").name == all_rules()[0].name or get_rule("ND001").code == "ND001"


# ------------------------------------------------------------ determinism ----


def test_nd001_flags_wall_clock():
    findings = lint(
        """
        import time

        def stamp():
            return time.time()
        """
    )
    assert "ND001" in codes(findings)


def test_nd001_allows_simulated_clock():
    findings = lint(
        """
        def stamp(sim):
            return sim.now
        """
    )
    assert "ND001" not in codes(findings)


def test_nd002_flags_global_random():
    findings = lint(
        """
        import random

        def pick(items):
            return random.choice(items)
        """
    )
    assert "ND002" in codes(findings)


def test_nd002_allows_seeded_rng_instance():
    findings = lint(
        """
        import random

        def pick(items, rng: random.Random):
            return rng.choice(items)
        """
    )
    assert "ND002" not in codes(findings)


def test_nd003_flags_os_entropy():
    findings = lint(
        """
        import os
        import uuid

        def token():
            return os.urandom(8) + uuid.uuid4().bytes
        """
    )
    assert codes(findings).count("ND003") == 2


def test_nd004_flags_set_iteration_in_sensitive_path():
    findings = lint(
        """
        def drain(waiters: set):
            for waiter in waiters:
                waiter.wake()
        """
    )
    assert "ND004" in codes(findings)


def test_nd004_ignores_set_iteration_outside_sensitive_paths():
    findings = lint(
        """
        def drain(waiters: set):
            for waiter in waiters:
                waiter.wake()
        """,
        path=PLAIN_PATH,
    )
    assert "ND004" not in codes(findings)


def test_nd004_allows_sorted_set_iteration():
    findings = lint(
        """
        def drain(waiters: set):
            for waiter in sorted(waiters):
                waiter.wake()
        """
    )
    assert "ND004" not in codes(findings)


def test_nd005_flags_float_time_arithmetic():
    findings = lint(
        """
        def cost_ns(n):
            latency_ns = n / 3
            return latency_ns
        """
    )
    assert "ND005" in codes(findings)


def test_nd005_allows_integer_ns_and_float_returns():
    findings = lint(
        """
        def cost_ns(n):
            latency_ns = n // 3
            return latency_ns

        def mean_ns(total, count) -> float:
            mean_ns = total / count
            return mean_ns
        """
    )
    assert "ND005" not in codes(findings)


def test_nd006_flags_the_class_level_transaction_counter():
    """The true positive: the coordinator numbered transactions from a
    class-level counter, so the n-th coordinator in one interpreter put
    other ids on the wire than the first."""
    findings = lint(
        """
        import itertools

        class TransactionCoordinator:
            _txn_counter = itertools.count(1)

            def run_transaction(self):
                return next(TransactionCoordinator._txn_counter)
        """,
        path="src/repro/apps/transactions.py",
    )
    assert [(f.code, f.line) for f in findings] == [("ND006", 5)]


def test_nd006_flags_the_module_level_frame_counter():
    findings = lint(
        """
        import itertools
        from dataclasses import dataclass, field

        _frame_seq = itertools.count(1)

        @dataclass
        class Frame:
            seqno: int = field(default_factory=lambda: next(_frame_seq))
        """
    )
    assert [(f.code, f.line) for f in findings] == [("ND006", 5)]


def test_nd006_flags_writes_to_shared_state_from_functions():
    findings = lint(
        """
        from repro.protocols.tcp import TCPConnection

        _CACHE = {}
        _SEEN = set()
        DEFAULTS = object()
        _count = 0

        class Pool:
            free = []
            next_id = 1

            def take(self):
                self.free.append(1)

            @classmethod
            def allocate(cls):
                cls.next_id += 1

            def bump(self):
                type(self).next_id = 2
                Pool.next_id = 3

        def remember(key, value):
            _CACHE[key] = value
            _SEEN.add(key)
            DEFAULTS.flag = True

        def tick():
            global _count
            _count += 1

        def reset():
            TCPConnection._next_id = 1
        """,
        path=PLAIN_PATH,
    )
    assert [f.line for f in findings if f.code == "ND006"] == [
        14, 18, 21, 22, 25, 26, 27, 30, 34,
    ]


def test_nd006_allows_instance_state_and_read_only_tables():
    findings = lint(
        """
        import itertools

        _KINDS = {"rmp": 1, "tcp": 2}
        SIZES = (16, 32)

        class Coordinator:
            LIMITS = {"retries": 5}
            pending = []

            def __init__(self):
                self.ids = itertools.count(1)
                self.pending = []
                self.table = dict(_KINDS)

            def next_id(self, kind):
                self.pending.append(kind)
                self.table[kind] = next(self.ids)
                return Coordinator.LIMITS["retries"] + _KINDS[kind]

        def local_shadow():
            _KINDS = {}
            _KINDS["x"] = 1
            return _KINDS
        """,
        path=PLAIN_PATH,
    )
    assert "ND006" not in codes(findings)


# -------------------------------------------------------------- sim safety ----


def test_ns101_flags_discarded_generator_call():
    findings = lint(
        """
        def body(ops, mutex):
            ops.lock(mutex)
            yield None
        """
    )
    assert "NS101" in codes(findings)


def test_ns101_allows_yield_from():
    findings = lint(
        """
        def body(ops, mutex):
            yield from ops.lock(mutex)
        """
    )
    assert "NS101" not in codes(findings)


def test_ns102_flags_blocking_op_in_handler():
    findings = lint(
        """
        def rx_handler(ops, mutex):
            yield from ops.lock(mutex)
        """
    )
    assert "NS102" in codes(findings)


def test_ns102_allows_blocking_op_in_thread_body():
    findings = lint(
        """
        def rx_thread(ops, mutex):
            yield from ops.lock(mutex)
        """
    )
    assert "NS102" not in codes(findings)


def test_ns103_flags_yield_of_plain_value():
    findings = lint(
        """
        def body():
            yield 4.2
            yield "soon"
            yield True
        """
    )
    assert codes(findings).count("NS103") == 3


def test_ns103_allows_an_int_delay():
    findings = lint(
        """
        def body():
            yield 42
            yield 0
        """
    )
    assert "NS103" not in codes(findings)


def test_ns103_allows_event_yields():
    findings = lint(
        """
        from repro.cab.cpu import Block

        def body(token):
            yield 100
            value = yield Block(token)
            return value
        """
    )
    assert "NS103" not in codes(findings)


# ------------------------------------------------------------ buffer plane ----

DATA_PATH = "src/repro/protocols/fake.py"  # triggers the data-path rules


def test_nb201_flags_bytes_of_payload_attribute():
    findings = lint(
        """
        def export(frame):
            return bytes(frame.payload)
        """,
        path=DATA_PATH,
    )
    assert "NB201" in codes(findings)


def test_nb201_flags_bytearray_of_message_read():
    findings = lint(
        """
        def stash(msg):
            return bytearray(msg.read(0, 16))
        """,
        path=DATA_PATH,
    )
    assert "NB201" in codes(findings)


def test_nb201_flags_materialized_view():
    findings = lint(
        """
        def grab(msg):
            return bytes(msg.view())
        """,
        path=DATA_PATH,
    )
    assert "NB201" in codes(findings)


def test_nb201_allows_views_and_unrelated_bytes():
    findings = lint(
        """
        def demux(msg, header):
            raw = msg.view(0, 20)
            scratch = bytearray(64)
            return raw, bytes(scratch)
        """,
        path=DATA_PATH,
    )
    assert "NB201" not in codes(findings)


def test_nb201_only_applies_to_data_path_dirs():
    source = """
    def export(frame):
        return bytes(frame.payload)
    """
    in_tests = lint(source, path="tests/fake.py")
    in_apps = lint(source, path="src/repro/apps/fake.py")
    assert "NB201" not in codes(in_tests)
    assert "NB201" not in codes(in_apps)


def test_nb201_suppressible_at_process_boundary():
    findings = lint(
        """
        def to_wire(frame):
            # Pipe serialization: the one sanctioned copy.
            return bytes(frame.payload)  # nectarlint: disable=NB201
        """,
        path=DATA_PATH,
    )
    assert "NB201" not in codes(findings)


# ------------------------------------------------------------ suppressions ----


def test_same_line_suppression():
    findings = lint(
        """
        import time

        def stamp():
            return time.time()  # nectarlint: disable=ND001 -- test fixture
        """
    )
    assert "ND001" not in codes(findings)


def test_whole_file_suppression():
    findings = lint(
        """
        # nectarlint: disable-file=ND001
        import time

        def stamp():
            return time.time()
        """
    )
    assert "ND001" not in codes(findings)


def test_parse_suppressions_extracts_codes():
    suppressions = parse_suppressions(
        "x = 1  # nectarlint: disable=ND001,ND002\n"
    )
    assert suppressions.active(1, "ND001")
    assert suppressions.active(1, "ND002")
    assert not suppressions.active(1, "ND003")
    assert not suppressions.active(2, "ND001")


def test_select_and_ignore_filters():
    source = """
    import time

    def stamp():
        return time.time() and 1 / 3
    """
    only_nd001 = lint(source, select={"ND001"})
    assert set(codes(only_nd001)) == {"ND001"}
    without_nd001 = lint(source, ignore={"ND001"})
    assert "ND001" not in codes(without_nd001)


# ------------------------------------------------------------------ output ----


def test_findings_render_as_path_line_col():
    findings = lint(
        """
        import time

        def stamp():
            return time.time()
        """
    )
    rendered = findings[0].render()
    assert rendered.startswith(SIM_PATH + ":")
    assert "ND001" in rendered


def test_json_output_round_trips():
    findings = lint(
        """
        import os

        def token():
            return os.urandom(4)
        """
    )
    payload = json.loads(nectarlint.render_json(findings))
    entry = payload["findings"][0]
    assert entry["code"] == "ND003"
    assert entry["path"] == SIM_PATH
    assert entry["line"] > 0


def test_render_text_clean_message():
    assert "clean" in nectarlint.render_text([])


def test_cli_explain_lists_every_rule(capsys):
    exit_code = nectarlint.main(["--explain"])
    assert exit_code == 0
    out = capsys.readouterr().out
    for rule in all_rules():
        assert rule.code in out


def test_syntax_error_is_a_finding_not_a_crash():
    findings = nectarlint.lint_source("def broken(:\n", path=SIM_PATH)
    assert codes(findings) == ["E999"]
    assert "syntax error" in findings[0].message
    # JSON rendering must not choke on the unregistered code either.
    payload = json.loads(nectarlint.render_json(findings))
    assert payload["findings"][0]["code"] == "E999"


def test_cli_exit_codes_follow_compiler_convention(tmp_path):
    bad = tmp_path / "sim" / "bad.py"
    bad.parent.mkdir()
    bad.write_text("import time\n\ndef t():\n    return time.time()\n")
    good = tmp_path / "sim" / "good.py"
    good.write_text("def t():\n    return 1\n")
    # Findings exit 1 whether or not --strict is set; clean runs exit 0;
    # usage errors exit 2.  (--strict only adds NL001 reporting.)
    assert nectarlint.main([str(bad), "--strict"]) == 1
    assert nectarlint.main([str(bad)]) == 1
    assert nectarlint.main([str(good)]) == 0
    assert nectarlint.main([]) == 2
    assert nectarlint.main([str(tmp_path / "nope.py")]) == 2
    assert nectarlint.main([str(bad), "--format"]) == 2
    assert nectarlint.main([str(bad), "--format", "yaml"]) == 2
    assert nectarlint.main([str(bad), "--no-such-flag"]) == 2


def test_cli_select_and_ignore_affect_exit(tmp_path):
    bad = tmp_path / "sim" / "bad.py"
    bad.parent.mkdir()
    bad.write_text("import time\n\ndef t():\n    return time.time()\n")
    assert nectarlint.main([str(bad), "--select", "ND001"]) == 1
    assert nectarlint.main([str(bad), "--ignore", "ND001"]) == 0
    assert nectarlint.main([str(bad), "--select", "ND004"]) == 0


def test_cli_filter_that_can_match_nothing_is_a_usage_error(tmp_path, capsys):
    """A filter naming an unregistered code, or a code only a flag this
    run lacks can report, would print "clean" whatever the tree holds."""
    bad = tmp_path / "sim" / "bad.py"
    bad.parent.mkdir()
    bad.write_text("import time\n\ndef t():\n    return time.time()\n")
    for argv, code in (
        (["--select", "NB999"], "NB999"),
        (["--ignore", "XX1"], "XX1"),
        (["--select", "NS111"], "NS111"),  # a retired rule
        (["--select", "ND001,NP301"], "NP301"),  # needs --static
        (["--select", "NL001"], "NL001"),  # needs --strict
    ):
        assert nectarlint.main([str(bad)] + argv) == 2, argv
        assert code in capsys.readouterr().err, argv
    assert nectarlint.main([str(bad), "--select", "NL001", "--strict"]) == 0
    assert nectarlint.main([str(bad), "--select", "E999"]) == 0


# ------------------------------------------------- suppression edge cases ----


def test_multi_code_suppression_on_one_line():
    findings = lint(
        """
        import time, os

        def stamp():
            return time.time(), os.urandom(4)  # nectarlint: disable=ND001,ND003 -- fixture
        """
    )
    assert "ND001" not in codes(findings)
    assert "ND003" not in codes(findings)


def test_disable_file_scopes_to_its_own_file():
    suppressed = lint(
        """
        # determinism waived for this fixture file
        # nectarlint: disable-file=ND001
        import time

        def stamp():
            return time.time()
        """
    )
    assert "ND001" not in codes(suppressed)
    # The same finding in a file *without* the pragma still fires.
    other = lint(
        """
        import time

        def stamp():
            return time.time()
        """
    )
    assert "ND001" in codes(other)


def test_disable_file_multi_code_parsing():
    suppressions = parse_suppressions(
        "# nectarlint: disable-file=ND001, ND003 -- fixture\n"
    )
    assert suppressions.active(99, "ND001")
    assert suppressions.active(99, "ND003")
    assert not suppressions.active(99, "ND002")


def test_trailing_note_is_not_parsed_as_codes():
    suppressions = parse_suppressions(
        "x = t()  # nectarlint: disable=ND001 -- boundary, see docs\n"
    )
    assert suppressions.active(1, "ND001")
    assert not suppressions.active(1, "BOUNDARY")
    assert suppressions.unjustified == []


def test_unjustified_suppression_reported_under_strict():
    source = (
        "import time\n"
        "\n"
        "def stamp():\n"
        "    return time.time()  # nectarlint: disable=ND001\n"
    )
    relaxed = nectarlint.lint_source(source, path=SIM_PATH)
    assert codes(relaxed) == []
    strict = nectarlint.lint_source(source, path=SIM_PATH, strict=True)
    assert codes(strict) == ["NL001"]
    assert strict[0].line == 4


def test_pragma_quoted_in_a_string_suppresses_nothing():
    """Only a comment is a pragma: a docstring that quotes one documents
    it and must not switch the rule off for the file."""
    quoted = (
        '"""Waive a rule with `# nectarlint: disable-file=ND001 -- example`."""\n'
        "import time\n"
        "\n"
        "def stamp():\n"
        "    return time.time()\n"
        "\n"
        "NOTE = 'x = 1  # nectarlint: disable=ND001'\n"
    )
    assert codes(nectarlint.lint_source(quoted, path=SIM_PATH)) == ["ND001"]
    table = parse_suppressions(quoted)
    assert table.whole_file == set() and table.by_line == {}


def test_pragma_naming_an_unregistered_code_is_nl001_under_strict():
    source = (
        "import time\n"
        "\n"
        "def stamp():\n"
        "    return time.time()  # nectarlint: disable=ND001,ND0O4 -- typo\n"
        "\n"
        "# a leftover pragma for a retired rule\n"
        "x = 1  # nectarlint: disable=NS110\n"
    )
    assert codes(nectarlint.lint_source(source, path=SIM_PATH)) == []
    strict = nectarlint.lint_source(source, path=SIM_PATH, strict=True)
    assert [(f.code, f.line) for f in strict] == [("NL001", 4), ("NL001", 7)]
    assert "ND0O4" in strict[0].message and "NS110" in strict[1].message


def test_justification_via_preceding_comment_lines():
    source = (
        "import time\n"
        "\n"
        "def stamp():\n"
        "    # Boundary: host wall-clock is the subject under test here.\n"
        "    return time.time()  # nectarlint: disable=ND001\n"
    )
    strict = nectarlint.lint_source(source, path=SIM_PATH, strict=True)
    assert "NL001" not in codes(strict)


def test_nl001_respects_select_and_ignore():
    source = (
        "import time\n"
        "\n"
        "def stamp():\n"
        "    return time.time()  # nectarlint: disable=ND001\n"
    )
    ignored = nectarlint.lint_source(
        source, path=SIM_PATH, strict=True, ignore={"NL001"}
    )
    assert codes(ignored) == []
    selected = nectarlint.lint_source(
        source, path=SIM_PATH, strict=True, select={"ND003"}
    )
    assert codes(selected) == []
