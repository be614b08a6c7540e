"""The tracer: Chrome trace-event export with canonical ordering."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Tracer


def test_span_units_are_microseconds():
    t = Tracer()
    t.add_span("batch", 2.0, 3.5, tid=1, args={"size": 4})
    (event,) = t.events
    assert event["ph"] == "X"
    assert event["ts"] == 2000.0
    assert event["dur"] == 3500.0
    assert event["tid"] == 1


def test_instant_and_counter_shapes():
    t = Tracer()
    t.add_instant("replica-fail", 10.0, tid=3)
    t.add_counter("autoscaler", 20.0, {"utilization": 0.5})
    fail, counter = t.events
    assert fail["ph"] == "i" and fail["s"] == "t"
    assert counter["ph"] == "C" and counter["args"] == {"utilization": 0.5}


def test_metadata_sorts_first():
    t = Tracer()
    t.add_span("batch", 1.0, 1.0)
    t.add_thread_name(0, "replica-0")
    doc = t.to_chrome()
    assert doc["traceEvents"][0]["ph"] == "M"
    assert doc["displayTimeUnit"] == "ms"


def test_emission_order_does_not_change_bytes():
    events = [
        ("a", 5.0, 1.0, 0),
        ("b", 1.0, 2.0, 1),
        ("c", 1.0, 2.0, 0),
    ]
    forward, backward = Tracer(), Tracer()
    for name, start, dur, tid in events:
        forward.add_span(name, start, dur, tid=tid)
    for name, start, dur, tid in reversed(events):
        backward.add_span(name, start, dur, tid=tid)
    assert forward.to_json() == backward.to_json()


def test_take_drains_and_absorb_restores():
    t = Tracer()
    t.add_span("batch", 1.0, 1.0)
    shipped = t.take()
    assert t.events == []
    other = Tracer()
    other.absorb(shipped)
    assert other.to_json() == json.dumps(
        {"displayTimeUnit": "ms", "traceEvents": shipped}, sort_keys=True
    ) + "\n"


def test_json_is_valid_and_stable():
    t = Tracer()
    t.add_span("batch", 1.0, 1.0, args={"bucket": 16, "size": 8})
    t.add_instant("scale-up", 2.0)
    first = t.to_json()
    assert json.loads(first)["traceEvents"]
    assert t.to_json() == first


def _reference_sort_key(event):
    # The export's total order, spelled out: head fields, then the
    # canonical args JSON of every event.
    return (
        event.get("ts", -1.0),
        event.get("tid", 0),
        event.get("ph", ""),
        event.get("name", ""),
        event.get("dur", 0.0),
        json.dumps(event.get("args", {}), sort_keys=True),
    )


# Tiny head domains force heavy ties on (ts, tid, ph, name, dur); args
# then differ, nest, or are absent ({} and None both record no args).
_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(alphabet="ab", max_size=2),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(alphabet="ab", max_size=2), inner, max_size=3),
    max_leaves=6,
)
_args = st.none() | st.dictionaries(
    st.sampled_from(["bucket", "size", "wl", "x"]), _json_values, max_size=3
)
_ts = st.sampled_from([0.0, 1.0, 2.5])
_tid = st.integers(0, 2)
_name = st.sampled_from(["batch", "retry"])
_ops = st.one_of(
    st.tuples(st.just("span"), _name, _ts, st.sampled_from([0.0, 1.0]), _tid, _args),
    st.tuples(st.just("instant"), _name, _ts, _tid, _args),
    st.tuples(
        st.just("counter"),
        _name,
        _ts,
        st.dictionaries(st.sampled_from(["level", "replicas"]), st.integers(0, 2)),
    ),
    st.tuples(st.just("thread_name"), _tid, st.sampled_from(["replica-0", "replica-1"])),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_ops, max_size=40).flatmap(st.permutations))
def test_export_matches_the_full_key_sort_under_head_ties(ops):
    t = Tracer()
    for kind, *rest in ops:
        if kind == "span":
            name, ts, dur, tid, args = rest
            t.add_span(name, ts, dur, tid=tid, args=args)
        elif kind == "instant":
            name, ts, tid, args = rest
            t.add_instant(name, ts, tid=tid, args=args)
        elif kind == "counter":
            t.add_counter(*rest)
        else:
            t.add_thread_name(*rest)
    expected = {
        "displayTimeUnit": "ms",
        "traceEvents": sorted(t.events, key=_reference_sort_key),
    }
    assert t.to_json() == json.dumps(expected, sort_keys=True) + "\n"
