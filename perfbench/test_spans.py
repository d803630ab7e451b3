"""Span reduction: self time subtracts the union of child intervals."""

import os
import sys
import threading

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402


def _span(span_id, parent, start, end, name="x"):
    return {"id": span_id, "parent": parent, "start": start, "end": end, "name": name}


def test_overlapping_children_are_counted_once():
    # Root 0..10 with two pool-thread children overlapping on 3..4.
    found = spans.self_times([_span(1, None, 0.0, 10.0), _span(2, 1, 1.0, 4.0),
                              _span(3, 1, 3.0, 6.0), _span(4, 2, 1.5, 2.0)])
    assert found == {1: 5.0, 2: 2.5, 3: 3.0, 4: 0.5}


def test_pool_threads_attach_to_the_root_span():
    tracer = spans.Tracer("run")
    with tracer.span("cli.main"):
        with tracer.span("inner"):
            pass
        thread = threading.Thread(target=_enter_exit, args=(tracer, "w"))
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
    parents = {s["name"]: s["parent"] for s in tracer.spans}
    root = next(s["id"] for s in tracer.spans if s["name"] == "cli.main")
    assert parents == {"cli.main": None, "inner": root, "w": root}


def _enter_exit(tracer, name):
    with tracer.span(name):
        pass
