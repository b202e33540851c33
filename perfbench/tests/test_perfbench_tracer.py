"""Self-time arithmetic and count attribution on a synthetic call tree."""

import pytest

from tracer import COUNTS, LayerSums, SpanTable, Tracer, _covered


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def build_tree():
    """job [0,100] > a [10,60] > (rhs [15,20], lu.solve [30,35],
    trace.lu_nnz [40,44]); job > b [70,90] > jac [72,80]; then a second job
    with one span c [200,210]."""
    clock = FakeClock()
    tracer = Tracer(clock)
    tracer.job = 1

    def at(t):
        clock.now = float(t)

    at(0)
    job = tracer.open("job")
    at(10)
    a = tracer.open("a")
    tracer.count("steps", 3)
    at(15)
    rhs = tracer.open("rhs")
    tracer.count("nnz", 7)
    at(20)
    tracer.close(rhs)
    at(30)
    with tracer.span("lu.solve"):
        at(35)
    at(40)
    with tracer.span("trace.lu_nnz"):
        tracer.count("nnz", 11, index=rhs)
        at(44)
    at(60)
    tracer.close(a)
    at(70)
    with tracer.span("b"):
        at(72)
        with tracer.span("jac"):
            at(80)
        at(90)
    at(100)
    tracer.close(job)
    tracer.job = 2
    at(200)
    with tracer.span("c"):
        tracer.count("steps", 5)
        at(210)
    return tracer


def test_durations_exclude_bookkeeping_and_self_time_excludes_children():
    tracer = build_tree()
    table = SpanTable(tracer.spans)
    by_name = {s[0]: k for k, s in enumerate(tracer.spans)}
    duration = {n: table.duration[k] for n, k in by_name.items()}
    self_time = {n: table.self_time[k] for n, k in by_name.items()}
    assert duration["job"] == 96.0 and duration["a"] == 46.0
    assert duration["b"] == 20.0 and duration["trace.lu_nnz"] == 4.0
    assert self_time["job"] == 100.0 - 50.0 - 20.0
    assert self_time["a"] == 50.0 - 5.0 - 5.0 - 4.0
    assert self_time["b"] == 12.0 and self_time["jac"] == 8.0


def test_counts_land_on_the_innermost_open_span_or_the_given_one():
    tracer = build_tree()
    counts = {s[0]: s[COUNTS] for s in tracer.spans}
    assert counts["a"] == {"steps": 3}
    assert counts["rhs"] == {"nnz": 18}
    assert counts["job"] is None


def test_leaves_are_attributed_to_their_owner_within_the_selected_jobs():
    table = SpanTable(build_tree().spans)
    sums = LayerSums(table, {1})
    assert sums.leaf_calls["a", "rhs"] == 1
    assert sums.leaf_time["a", "lu.solve"] == 5.0
    assert sums.leaf_time["b", "jac"] == 8.0
    assert sums.leaf_max["a", "rhs"]["nnz"] == 18
    assert sums.leaf(("a", "b"), "jac") == 8.0
    assert sums.over(("a", "c"), "counts", "steps") == 3
    assert "c" not in sums.calls
    assert LayerSums(table, {1, 2}).over(("a", "c"), "counts", "steps") == 8


def test_overlapping_children_are_covered_once():
    assert _covered([(3, 8), (0, 5), (10, 12)], 0, 11) == 9
    assert _covered([], 0, 1) == 0


def test_out_of_order_close_and_open_spans_are_rejected():
    tracer = Tracer(FakeClock())
    outer = tracer.open("outer")
    tracer.open("inner")
    with pytest.raises(RuntimeError):
        tracer.close(outer)
    with pytest.raises(ValueError):
        SpanTable(tracer.spans)


def test_install_wraps_every_lookup_name_and_restore_undoes_it():
    import layers
    import workloads  # noqa: F401  (puts the program on the path)
    import gark.adaptivity
    import gark.estimation
    import gark.forward
    import scipy.sparse.linalg as spla

    originals = (gark.forward.integrate, gark.estimation.integrate,
                 gark.adaptivity.estimate_errors, spla.splu)
    restore = layers.install(Tracer(), lambda problem, grid: "forward.levels")
    try:
        assert gark.forward.integrate is gark.estimation.integrate
        assert gark.forward.integrate is not originals[0]
        assert gark.adaptivity.estimate_errors is not originals[2]
        assert spla.splu is not originals[3]
    finally:
        restore()
    assert (gark.forward.integrate, gark.estimation.integrate,
            gark.adaptivity.estimate_errors, spla.splu) == originals
