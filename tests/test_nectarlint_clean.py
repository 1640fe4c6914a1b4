"""CI gate: the shipped tree must be nectarlint-clean.

Equivalent to ``PYTHONPATH=src python -m repro lint src/repro --strict``.
Runs in-process (no subprocess) so it is fast and portable, plus one
subprocess check that the CLI entry point itself works and exits 0.
"""

import ast
import pathlib
import re
import subprocess
import sys

from repro.analysis import nectarlint

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src"


def test_src_repro_is_lint_clean():
    findings = nectarlint.lint_paths([str(SRC / "repro")])
    rendered = "\n".join(finding.render() for finding in findings)
    assert findings == [], f"nectarlint findings in shipped tree:\n{rendered}"


def test_there_is_one_way_to_sleep():
    """A process or thread waits for time alone by yielding an int;
    ``sim.timeout()`` is for a delay needed as an event (a callback target,
    a thread's wait), so a timeout yielded on the spot is the old spelling
    creeping back."""
    spelling = re.compile(r"\byield\s+[\w.]*\btimeout\(")
    hits = [
        f"{path.relative_to(REPO)}:{number}: {line.strip()}"
        for path in sorted((SRC / "repro").rglob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if spelling.search(line)
    ]
    assert hits == [], "yield the delay itself:\n" + "\n".join(hits)


def _process_spawns_outside_constructors(root):
    """``path:line`` (relative to ``root``) of every ``<...>sim.process(``
    call under ``root`` that is not inside an ``__init__``."""
    hits = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))

        def visit(node, in_init):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    visit(child, getattr(child, "name", None) == "__init__")
                    continue
                if (
                    isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "process"
                    and ast.unparse(child.func.value).split(".")[-1] == "sim"
                    and not in_init
                ):
                    hits.append(f"{path.relative_to(root)}:{child.lineno}")
                visit(child, in_init)

        visit(tree, False)
    return hits


def test_the_cab_spawns_processes_only_when_built():
    """The CAB's hardware runs as processes started by its constructors
    (the TX DMA, ``rx-ctl``, the CPU engine); a process per frame is the
    per-frame heap hop the in-line receive DMA removed."""
    hits = _process_spawns_outside_constructors(SRC / "repro" / "cab")
    assert hits == [], "src/repro/cab: spawn it in __init__ or run it in line:\n" + "\n".join(hits)


def test_process_spawn_guard_catches_planted_sites(tmp_path):
    (tmp_path / "board.py").write_text(
        "class Board:\n"
        "    def __init__(self, sim):\n"
        "        sim.process(self.loop())\n"
        "        self.sim = sim\n"
        "    def start(self):\n"
        "        self.sim.process(self.loop())\n"
        "        helper = lambda: self.sim.process(self.loop())\n",
        encoding="utf-8",
    )
    hits = _process_spawns_outside_constructors(tmp_path)
    assert hits == ["board.py:6", "board.py:7"]


def test_the_request_response_server_loop_exists_once():
    """Taking a request apart (transport header, then body) is the first
    half of the RPC server loop; outside the protocols themselves only
    ``traffic.serve`` does it, and every service hands it a handler."""
    allowed = ("src/repro/protocols/", "src/repro/apps/traffic.py")
    hits = [
        f"{path.relative_to(REPO)}:{number}: {line.strip()}"
        for path in sorted((SRC / "repro").rglob("*.py"))
        if not path.relative_to(REPO).as_posix().startswith(allowed)
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if "NectarTransportHeader.unpack(" in line
    ]
    assert hits == [], "hand the loop a handler (traffic.serve):\n" + "\n".join(hits)


def test_the_nectar_transports_have_one_receive_path():
    """Session lookup, cost, unknown-kind and no-session drops and the
    control-frame release happen once, in ``transport.py``'s receive table;
    a sub-protocol registers handlers and frees through ``transport.drop``."""
    receive_path = re.compile(r"input_mailbox\.iabort_put\(|\bdef _input\(")
    hits = [
        f"{path.relative_to(REPO)}:{number}: {line.strip()}"
        for path in sorted((SRC / "repro" / "protocols" / "nectar").glob("*.py"))
        if path.name != "transport.py"
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if receive_path.search(line)
    ]
    assert hits == [], "register a PacketKind instead:\n" + "\n".join(hits)


def test_one_bounded_retry_loop():
    """RMP and request-response send, wait one RTO, back off and retry
    through ``RetransmitTimer.exchange``; only NMP's flush and NACK loops,
    which hold the mutex across the send, wait on the timer themselves."""
    timer_wait = re.compile(r"\b(rtt|timer)\.wait\(")
    hits = [
        f"{path.relative_to(REPO)}:{number}: {line.strip()}"
        for path in sorted((SRC / "repro" / "protocols" / "nectar").glob("*.py"))
        if path.name != "nmp.py"
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if timer_wait.search(line)
    ]
    assert hits == [], "retry through RetransmitTimer.exchange:\n" + "\n".join(hits)


def _is_none(node):
    return isinstance(node, ast.Constant) and node.value is None


def _names_tracer(node):
    return (isinstance(node, ast.Name) and node.id == "tracer") or (
        isinstance(node, ast.Attribute) and node.attr == "tracer"
    )


def detached_tracer_sites(source, filename="<source>"):
    """Line numbers of every ``None`` stored in a ``tracer`` or ``profiler``
    attribute, and of every ``tracer is None`` / ``tracer is not None``."""
    lines = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and _is_none(node.value):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(
                isinstance(target, ast.Attribute) and target.attr in ("tracer", "profiler")
                for target in targets
            ):
                lines.append(node.lineno)
        elif isinstance(node, ast.Compare) and _names_tracer(node.left):
            if isinstance(node.ops[0], (ast.Is, ast.IsNot)) and _is_none(
                node.comparators[0]
            ):
                lines.append(node.lineno)
    return sorted(lines)


def test_every_component_takes_the_simulations_tracer():
    """The Simulator owns the one Tracer and every instrumented component
    takes it when built, so a tracer is never missing: the only guards are
    ``tracer.sink is not None`` and ``tracer.profiler is not None``.  The
    Tracer itself (``sim/trace.py``) is where those two hooks start off."""
    hits = [
        f"{path.relative_to(REPO)}:{line}"
        for path in sorted((SRC / "repro").rglob("*.py"))
        if path != SRC / "repro" / "sim" / "trace.py"
        for line in detached_tracer_sites(path.read_text(encoding="utf-8"), str(path))
    ]
    assert hits == [], "take sim.tracer when built:\n" + "\n".join(hits)


def test_detached_tracer_guard_catches_planted_sites():
    source = (
        "class Board:\n"
        "    def __init__(self, sim):\n"
        "        self.tracer = None\n"
        "        self.profiler: object = None\n"
        "        self.sink = None\n"
        "    def hot(self, tracer):\n"
        "        if tracer is not None and tracer.sink is not None:\n"
        "            pass\n"
        "        if self.tracer is None:\n"
        "            pass\n"
        "        if tracer.sink is not None and tracer.profiler is not None:\n"
        "            pass\n"
    )
    assert detached_tracer_sites(source) == [3, 4, 7, 9]


def span_track_sites(source, filename="<source>"):
    """Line numbers of every ``.span_track`` read: a span opened on the
    running context's track by hand instead of through ``Runtime.span``."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source, filename))
        if isinstance(node, ast.Attribute) and node.attr == "span_track"
    )


def test_one_span_helper():
    """Runtime and protocol code opens a span on the running context's
    track only through ``Runtime.span``, which reads ``cpu.span_track``
    once and is a shared no-op with no sink; no module hand-copies the
    ``track = ... if tracer.sink ...; begin; try/finally; end`` block."""
    hits = [
        f"{path.relative_to(REPO)}:{line}"
        for path in sorted((SRC / "repro").rglob("*.py"))
        if path != SRC / "repro" / "runtime" / "kernel.py"
        for line in span_track_sites(path.read_text(encoding="utf-8"), str(path))
    ]
    assert hits == [], "open the span with runtime.span(...):\n" + "\n".join(hits)


def test_span_helper_guard_catches_planted_sites():
    source = (
        "def send(self, tracer, data):\n"
        "    track = self.cpu.span_track if tracer.sink is not None else None\n"
        "    tracer.begin('tcp', 'send', track=self.runtime.cpu.span_track)\n"
        "    with self.runtime.span('tcp', 'send'):\n"
        "        pass\n"
    )
    assert span_track_sites(source) == [2, 3]


def vme_bus_sites(source, filename="<source>"):
    """Line numbers of every ``.bus`` / ``._bus`` attribute access: the VME
    arbitration resource, reached from outside ``VMEBus.copy``."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source, filename))
        if isinstance(node, ast.Attribute) and node.attr in ("bus", "_bus")
    )


def test_one_vme_bus_holding_path():
    """Every VME transfer holds the bus through ``VMEBus.copy``, the one
    place with the ``vme`` span and the byte counters; nothing outside
    ``hw/vme.py`` acquires the bus by hand."""
    hits = [
        f"{path.relative_to(REPO)}:{line}"
        for path in sorted((SRC / "repro").rglob("*.py"))
        if path != SRC / "repro" / "hw" / "vme.py"
        for line in vme_bus_sites(path.read_text(encoding="utf-8"), str(path))
    ]
    assert hits == [], "move data with VMEBus.copy:\n" + "\n".join(hits)


def test_vme_bus_guard_catches_planted_sites():
    source = (
        "def vme_copy(self, nbytes):\n"
        "    grant = self.vme.bus.acquire()\n"
        "    self.vme._bus.release()\n"
        "    return self.vme.copy(self.cpu, nbytes)\n"
    )
    assert vme_bus_sites(source) == [2, 3]


#: Topology's port records, and the per-port records the table replaced.
WIRING_RECORDS = ("_wiring", "_placement", "_attachments", "_cab_at", "_hub_links", "cab_ports")
#: All a Hub holds: its ports, their output arbiters and grant counters.
HUB_CROSSBAR_STATE = {"sim", "name", "ports", "_out_arbiters", "stats", "_grant_counters"}


def wiring_record_sites(source, filename="<source>"):
    """Line numbers of every access to a port record in ``WIRING_RECORDS``."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source, filename))
        if isinstance(node, ast.Attribute) and node.attr in WIRING_RECORDS
    )


def hub_state(source, filename="<source>"):
    """Every ``self.<name>`` that a ``class Hub`` in ``source`` assigns."""
    return {
        node.attr
        for cls in ast.walk(ast.parse(source, filename))
        if isinstance(cls, ast.ClassDef) and cls.name == "Hub"
        for node in ast.walk(cls)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    }


def test_one_wiring_table():
    """What each HUB port carries is recorded once, in ``Topology``: nothing
    outside ``hub/routing.py`` touches its port records (look a port up with
    ``Topology.wired_to``), and a ``Hub`` keeps no per-port wiring of its
    own, only crossbar state."""
    routing = SRC / "repro" / "hub" / "routing.py"
    hits = [
        f"{path.relative_to(REPO)}:{line}"
        for path in sorted((SRC / "repro").rglob("*.py"))
        if path != routing
        for line in wiring_record_sites(path.read_text(encoding="utf-8"), str(path))
    ]
    assert hits == [], "read the wiring through Topology:\n" + "\n".join(hits)
    crossbar = SRC / "repro" / "hub" / "crossbar.py"
    assert hub_state(crossbar.read_text(encoding="utf-8")) == HUB_CROSSBAR_STATE


def test_wiring_guard_catches_planted_sites():
    source = (
        "class Hub:\n"
        "    def __init__(self, sim, name, ports):\n"
        "        self.ports = ports\n"
        "        self._attachments = [None] * ports\n"
        "\n"
        "def dest(network, hub, port):\n"
        "    return network.topology._wiring[(hub.name, port)]\n"
    )
    assert wiring_record_sites(source) == [4, 7]
    assert hub_state(source) - HUB_CROSSBAR_STATE == {"_attachments"}


def test_nothing_under_src_repro_reads_the_host_clock():
    """Every report is simulated quantities only: ND001 has no suppression
    left and no ``time.perf_counter``/``time.time``/``time.monotonic`` call
    exists.  How long the simulator takes is ``perf/``'s job, from outside."""
    read = re.compile(
        r"nectarlint:\s*disable=[\w,]*ND001"
        r"|\btime\.(perf_counter|time|monotonic)(_ns)?\("
    )
    hits = [
        f"{path.relative_to(REPO)}:{number}: {line.strip()}"
        for path in sorted((SRC / "repro").rglob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if read.search(line)
    ]
    assert hits == [], "host-clock read under src/repro:\n" + "\n".join(hits)


def test_lint_cli_strict_exits_zero():
    result = subprocess.run(
        [sys.executable, "-m", "repro", "lint", str(SRC / "repro"), "--strict"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "nectarlint: clean" in result.stdout


def test_telemetry_package_is_simulation_sensitive():
    """Export paths must be byte-stable, so telemetry gets the strict rules."""
    assert "telemetry" in nectarlint.SENSITIVE_PARTS
    assert nectarlint._is_sensitive("src/repro/telemetry/perfetto.py")


def test_hub_package_is_simulation_sensitive():
    """The fan-out plane forwards frames on the hot path: strict rules."""
    assert "hub" in nectarlint.SENSITIVE_PARTS
    assert nectarlint._is_sensitive("src/repro/hub/groups.py")


def test_hub_package_is_lint_clean():
    findings = nectarlint.lint_paths([str(SRC / "repro" / "hub")])
    rendered = "\n".join(finding.render() for finding in findings)
    assert findings == [], f"nectarlint findings in repro.hub:\n{rendered}"


def test_telemetry_package_is_lint_clean():
    findings = nectarlint.lint_paths([str(SRC / "repro" / "telemetry")])
    rendered = "\n".join(finding.render() for finding in findings)
    assert findings == [], f"nectarlint findings in repro.telemetry:\n{rendered}"


def test_wall_clock_in_telemetry_export_path_is_flagged():
    source = "import time\n\n\ndef stamp_trace():\n    return time.time_ns()\n"
    findings = nectarlint.lint_source(source, path="src/repro/telemetry/export.py")
    assert any(finding.code == "ND001" for finding in findings), findings


def test_unseeded_random_in_telemetry_export_path_is_flagged():
    source = "import random\n\n\ndef jitter():\n    return random.random()\n"
    findings = nectarlint.lint_source(source, path="src/repro/telemetry/export.py")
    assert any(finding.code == "ND002" for finding in findings), findings


def test_set_iteration_in_telemetry_gets_the_sensitive_rules():
    source = "def track_names(tracks):\n    return [t for t in set(tracks)]\n"
    sensitive = nectarlint.lint_source(source, path="src/repro/telemetry/x.py")
    relaxed = nectarlint.lint_source(source, path="src/repro/bench/x.py")
    assert any(finding.code == "ND004" for finding in sensitive), sensitive
    assert not any(finding.code == "ND004" for finding in relaxed), relaxed


def test_cluster_package_is_simulation_sensitive():
    """Cross-shard determinism hinges on ordering, so cluster is strict."""
    assert "cluster" in nectarlint.SENSITIVE_PARTS
    assert nectarlint._is_sensitive("src/repro/cluster/conductor.py")


def test_cluster_package_is_lint_clean():
    findings = nectarlint.lint_paths([str(SRC / "repro" / "cluster")])
    rendered = "\n".join(finding.render() for finding in findings)
    assert findings == [], f"nectarlint findings in repro.cluster:\n{rendered}"


def test_buf_package_is_simulation_sensitive_and_data_path():
    """The buffer plane is both ordering-critical and view-disciplined."""
    assert "buf" in nectarlint.SENSITIVE_PARTS
    assert "buf" in nectarlint.DATA_PATH_PARTS
    assert nectarlint._is_sensitive("src/repro/buf/packet.py")
    assert nectarlint._is_data_path("src/repro/buf/packet.py")


def test_buf_package_is_lint_clean():
    findings = nectarlint.lint_paths([str(SRC / "repro" / "buf")])
    rendered = "\n".join(finding.render() for finding in findings)
    assert findings == [], f"nectarlint findings in repro.buf:\n{rendered}"


def test_payload_materialization_in_data_path_is_flagged():
    source = "def export(frame):\n    return bytes(frame.payload)\n"
    findings = nectarlint.lint_source(source, path="src/repro/hub/network.py")
    assert any(finding.code == "NB201" for finding in findings), findings


def test_wall_clock_in_cluster_barrier_path_is_flagged():
    source = "import time\n\n\ndef window_start():\n    return time.monotonic_ns()\n"
    findings = nectarlint.lint_source(source, path="src/repro/cluster/conductor.py")
    assert any(finding.code == "ND001" for finding in findings), findings


def test_set_iteration_in_cluster_gets_the_sensitive_rules():
    source = "def shard_hubs(hubs):\n    return [h for h in set(hubs)]\n"
    sensitive = nectarlint.lint_source(source, path="src/repro/cluster/partition.py")
    relaxed = nectarlint.lint_source(source, path="src/repro/bench/x.py")
    assert any(finding.code == "ND004" for finding in sensitive), sensitive
    assert not any(finding.code == "ND004" for finding in relaxed), relaxed


# ------------------------------------------------------ lint --static gate ----


def test_lint_cli_static_exits_zero():
    """The one whole-program run in tier-1: per-file rules, the NP30x
    FSM pass, and NL001, from the repo root as CI runs it.
    Every historical finding was fixed (NP30x found the TIME_WAIT
    2MSL-restart gap in tcp.py) or carries a justified suppression; prefer
    fixing a new finding over suppressing it."""
    result = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "src/repro", "--static", "--strict"],
        capture_output=True,
        text=True,
        cwd=str(REPO),
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "nectarlint: clean" in result.stdout


def test_lint_static_parses_each_file_once(monkeypatch, capsys):
    """``lint --static`` runs the per-file rules and the NP30x pass over
    one parse of each file: a second index that re-reads the tree, as the
    deleted call graph did, doubles the count."""
    parsed = []
    real_parse = ast.parse

    def counting_parse(source, filename="<unknown>", *args, **kwargs):
        parsed.append(filename)
        return real_parse(source, filename, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    root = str(SRC / "repro")
    assert nectarlint.main([root, "--static", "--strict"]) == 0
    assert "nectarlint: clean" in capsys.readouterr().out
    files = nectarlint.iter_python_files([root])
    assert sorted(parsed) == sorted(files)
    assert len(files) > 100


def test_benchmarks_and_examples_use_no_host_entropy():
    """Drivers may iterate sets for reporting, but clocks and entropy are
    banned everywhere: a wall-clock read in a benchmark harness corrupts
    the numbers it reports just as surely as one in the simulator."""
    findings = nectarlint.lint_paths(
        [str(SRC / "repro" / "bench"), str(REPO / "examples")],
        select={"ND001", "ND002", "ND003"},
    )
    rendered = "\n".join(finding.render() for finding in findings)
    assert findings == [], f"entropy findings in drivers:\n{rendered}"


def test_docs_rule_table_in_sync():
    """docs/analysis.md's rule table is generated; it must match the
    registry (regenerate with render_markdown_table() on rule changes)."""
    from repro.analysis.rules import render_markdown_table

    text = (REPO / "docs" / "analysis.md").read_text(encoding="utf-8")
    begin = "<!-- rule-table:begin -->"
    end = "<!-- rule-table:end -->"
    assert begin in text and end in text
    documented = text.split(begin)[1].split(end)[0].strip()
    assert documented == render_markdown_table().strip()
