"""Self-time arithmetic of the benchmark's span recorder, on synthetic spans."""

from spans import Recorder, Span, hooked, self_times


def test_self_time_subtracts_union_of_children():
    spans = [
        Span("root", 0, 100, None, 1),
        Span("a", 10, 30, 0, 1),
        Span("b", 20, 50, 0, 1),  # overlaps a: union of a and b is 10..50
        Span("a.inner", 12, 18, 1, 1),
        Span("c", 90, 120, 0, 1),  # sticks out of root: only 90..100 counts
    ]
    assert self_times(spans) == [100 - 40 - 10, 20 - 6, 30, 6, 30]


def test_self_times_of_a_chain_sum_to_the_root():
    spans = [Span("root", 0, 1000, None, 1), Span("mid", 100, 900, 0, 1),
             Span("leaf", 200, 300, 1, 1), Span("leaf", 400, 450, 1, 1)]
    assert sum(self_times(spans)) == 1000


def test_hooked_records_nested_calls_and_restores():
    import types

    mod = types.ModuleType("fake")
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    original = mod.outer
    rec = Recorder()
    hooks = [(mod, "outer", "outer", lambda a, k, r: {"result": r}),
             (mod, "inner", "inner", None), (mod, "gone", "gone", None)]
    with hooked(rec, hooks) as missing:
        with rec.command_span("cmd"):
            assert mod.outer(1) == 4
    assert missing == ["fake.gone"]
    assert mod.outer is original
    assert [(s.name, s.parent, s.command) for s in rec.spans] == [
        ("cmd", None, 1), ("outer", 0, 1), ("inner", 1, 1)]
    assert rec.spans[1].counts == {"result": 4}
