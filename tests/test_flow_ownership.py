"""NB21x ownership-pass tests: known-bad fixtures must be flagged, the
idiomatic ownership-transfer shapes must stay clean.

The headline fixture is the seeded leak of ``tests/test_leaks.py`` (a
buffer taken and never given back): what the quiescence check there sees
only after a run is caught here statically as NB210, at the allocation
site, without executing anything.
"""

import textwrap

from repro.analysis.flow.callgraph import Project
from repro.analysis.flow.ownership import OwnershipPass


def findings_for(source, path="src/repro/buf/fixture.py"):
    project = Project.from_source(textwrap.dedent(source), path)
    return OwnershipPass(project).run()


def codes(findings):
    return [f.code for f in findings]


# ---------------------------------------------------------------- known bad ----


def test_straight_line_leak_is_nb210_like_the_dynamic_sanitizer():
    # Static mirror of test_leaks.test_a_begin_put_never_freed_is_a_leak:
    # alloc, use, never release.
    findings = findings_for(
        """
        def leaky(heap):
            buf = PacketBuffer.alloc(heap, 96)
            buf.fill_from(b"payload")
        """
    )
    assert codes(findings) == ["NB210"]
    assert findings[0].line == 3  # the allocation site
    assert "'buf'" in findings[0].message


def test_branch_leak_one_path_misses_release():
    findings = findings_for(
        """
        def branchy(heap, cond):
            buf = PacketBuffer.alloc(heap, 64)
            if cond:
                buf.release()
        """
    )
    assert codes(findings) == ["NB210"]


def test_double_release_is_nb211():
    findings = findings_for(
        """
        def twice(heap):
            buf = PacketBuffer.alloc(heap, 64)
            buf.release()
            buf.release()
        """
    )
    assert codes(findings) == ["NB211"]


def test_double_release_through_an_alias_is_nb211():
    # strip() windows the same reference; releasing both is one release
    # too many.
    findings = findings_for(
        """
        def aliased(heap):
            buf = PacketBuffer.alloc(heap, 64)
            view = buf.strip(2)
            view.release()
            buf.release()
        """
    )
    assert codes(findings) == ["NB211"]


def test_use_after_release_is_nb212():
    findings = findings_for(
        """
        def stale(heap):
            buf = PacketBuffer.alloc(heap, 64)
            buf.release()
            buf.fill_from(b"late")
        """
    )
    assert "NB212" in codes(findings)


def test_passing_released_reference_to_a_call_is_nb212():
    findings = findings_for(
        """
        def stale_arg(heap, net):
            buf = PacketBuffer.alloc(heap, 64)
            buf.release()
            net.send_frame(buf)
        """
    )
    assert "NB212" in codes(findings)


def test_param_double_release_is_reported_but_param_leak_is_not():
    # Callers own their arguments: a param left owned is the caller's
    # business (no NB210), but releasing it twice is still a double free.
    findings = findings_for(
        """
        def consume_twice(frame):
            frame.release()
            frame.release()

        def just_looks(frame):
            frame.retain().release()
        """
    )
    assert codes(findings) == ["NB211"]


def test_non_consuming_callee_does_not_launder_ownership():
    findings = findings_for(
        """
        def peek(frame):
            return frame.length

        def caller(heap):
            buf = PacketBuffer.alloc(heap, 64)
            peek(buf)
        """
    )
    assert codes(findings) == ["NB210"]


# --------------------------------------------------------------- known good ----


def test_release_on_every_path_is_clean():
    assert (
        findings_for(
            """
            def balanced(heap, cond):
                buf = PacketBuffer.alloc(heap, 64)
                if cond:
                    buf.fill_from(b"a")
                    buf.release()
                else:
                    buf.release()
            """
        )
        == []
    )


def test_return_transfers_ownership_to_the_caller():
    assert (
        findings_for(
            """
            def mint(heap):
                buf = PacketBuffer.alloc(heap, 64)
                return buf
            """
        )
        == []
    )


def test_sink_call_transfers_ownership():
    assert (
        findings_for(
            """
            def tx(heap, net):
                buf = PacketBuffer.alloc(heap, 64)
                net.send_frame(buf)
            """
        )
        == []
    )


def test_adopting_constructor_consumes_the_view():
    assert (
        findings_for(
            """
            def framed(heap, net):
                buf = PacketBuffer.alloc(heap, 64)
                frame = Frame(payload=buf)
                net.send_frame(frame)
            """
        )
        == []
    )


def test_retain_mints_a_fresh_reference_two_releases_are_correct():
    assert (
        findings_for(
            """
            def refcounted(heap):
                buf = PacketBuffer.alloc(heap, 64)
                extra = buf.retain()
                extra.release()
                buf.release()
            """
        )
        == []
    )


def test_escape_into_object_state_transfers_ownership():
    assert (
        findings_for(
            """
            class Queue:
                def stash(self, heap):
                    buf = PacketBuffer.alloc(heap, 64)
                    self.pending = buf
            """
        )
        == []
    )


def test_capture_into_a_closure_transfers_ownership():
    assert (
        findings_for(
            """
            def deferred(heap, sched):
                buf = PacketBuffer.alloc(heap, 64)
                sched.defer(lambda: buf.release())
            """
        )
        == []
    )


def test_raise_paths_are_exempt_exceptions_are_fatal_here():
    assert (
        findings_for(
            """
            def may_abort(heap, cond):
                buf = PacketBuffer.alloc(heap, 64)
                if cond:
                    raise ValueError("fatal: simulation aborts")
                buf.release()
            """
        )
        == []
    )


def test_interprocedural_summary_proves_the_callee_consumes():
    # consume() releases its parameter on all paths, so the caller's
    # handoff is a transfer — the whole-program summary proves it.
    assert (
        findings_for(
            """
            def consume(frame):
                frame.release()

            def caller(heap):
                buf = PacketBuffer.alloc(heap, 64)
                consume(buf)
            """
        )
        == []
    )


def test_alias_chain_release_through_derived_view_is_clean():
    assert (
        findings_for(
            """
            def windowed(heap):
                buf = PacketBuffer.alloc(heap, 64)
                hdr = buf.prepend(14)
                body = hdr.slice(14, 32)
                body.release()
            """
        )
        == []
    )
