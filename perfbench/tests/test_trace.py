"""Span bookkeeping: self times partition the parent; patches come off clean."""

import pytest

from perfbench.normalise import SpeedSeries
from perfbench.probe import REF_KERNEL_NS
from perfbench.trace import Patcher, Tracer


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def spend(self, ns):
        self.now += ns


#: Reference speed everywhere and no probe near the spans: normalised == raw.
FLAT = SpeedSeries([(-10**12, REF_KERNEL_NS), (10**13, REF_KERNEL_NS)])


def table_of(tracer):
    return {name: row for name, row in tracer.layer_table(FLAT).items()}


def test_self_times_partition_the_root():
    clock = FakeClock()
    tracer = Tracer(clock)

    leaf = tracer.wrap_hot("leaf", lambda: clock.spend(7))

    def inner():
        clock.spend(10)
        leaf()
        leaf()

    inner = tracer.wrap_span("inner", inner)

    def outer():
        clock.spend(5)
        inner()
        clock.spend(3)
        leaf()
        inner()

    outer = tracer.wrap_span("outer", outer)
    with tracer.span("root"):
        clock.spend(100)
        outer()
        outer()
    table = table_of(tracer)
    assert table["root"]["self_ns"] == pytest.approx(100)
    assert table["outer"]["self_ns"] == pytest.approx(2 * 8)
    assert table["inner"]["self_ns"] == pytest.approx(4 * 10)
    assert table["leaf"]["calls"] == 2 * (2 + 1 + 2)
    assert table["leaf"]["self_ns"] == pytest.approx(10 * 7)
    assert sum(row["self_ns"] for row in table.values()) == pytest.approx(
        table["root"]["total_ns"]
    )
    assert table["outer"]["total_ns"] == pytest.approx(2 * (8 + 2 * 24 + 7))


def test_hot_calls_nest_and_spans_inside_hot_calls_are_not_charged_twice():
    clock = FakeClock()
    tracer = Tracer(clock)
    lookup = tracer.wrap_hot("lookup", lambda: clock.spend(4))

    def rebuild():
        clock.spend(50)
        lookup()

    rebuild = tracer.wrap_span("rebuild", rebuild)

    def request(with_rebuild):
        clock.spend(2)
        lookup()
        lookup()
        if with_rebuild:
            rebuild()

    request = tracer.wrap_hot("request", request)
    with tracer.span("chunk"):
        clock.spend(1)
        request(False)
        request(True)
    table = table_of(tracer)
    assert table["request"]["self_ns"] == pytest.approx(2 * 2)
    assert table["lookup"]["calls"] == 5
    assert table["lookup"]["self_ns"] == pytest.approx(5 * 4)
    assert table["rebuild"]["self_ns"] == pytest.approx(50)
    assert table["chunk"]["self_ns"] == pytest.approx(1)
    assert sum(row["self_ns"] for row in table.values()) == pytest.approx(
        table["chunk"]["total_ns"]
    )


def test_spans_are_scaled_by_the_speed_around_them():
    clock = FakeClock()
    tracer = Tracer(clock)
    hot = tracer.wrap_hot("hot", lambda: clock.spend(400))
    with tracer.span("slow"):
        clock.spend(600)
        hot()
    half_speed = SpeedSeries([(-10**12, 2 * REF_KERNEL_NS)])
    table = tracer.layer_table(half_speed)
    assert table["slow"]["total_ns"] == pytest.approx(500)
    assert table["slow"]["self_ns"] == pytest.approx(300)
    assert table["hot"]["self_ns"] == pytest.approx(200)


def test_a_phase_may_be_made_of_several_root_spans():
    clock = FakeClock()
    tracer = Tracer(clock)
    work = tracer.wrap_span("work", lambda ns: clock.spend(ns))
    with tracer.span("setup"):
        work(10)
    with tracer.span("day"):
        work(1000)
    with tracer.span("setup"):
        work(20)
    setup = tracer.layer_table(FLAT, within="setup")
    assert setup["setup"]["calls"] == 2
    assert setup["work"]["self_ns"] == pytest.approx(30)
    assert tracer.layer_table(FLAT, within="day")["work"]["self_ns"] == pytest.approx(1000)


def test_counters_read_arguments_and_results():
    tracer = Tracer(FakeClock())
    double = tracer.wrap_span(
        "double", lambda xs: [2 * x for x in xs],
        count=lambda args, result: {"in": len(args[0]), "out_sum": sum(result)},
    )
    with tracer.span("root"):
        assert double([1, 2, 3]) == [2, 4, 6]
        double([5])
    assert tracer.counters == {"in": 4, "out_sum": 22}


class Sample:
    def method(self):
        return "method"

    @classmethod
    def make(cls):
        return cls()

    @staticmethod
    def helper():
        return "helper"

    def stream(self):
        yield 1


def test_patcher_wraps_every_kind_of_method_and_restores_the_class_exactly():
    before = dict(vars(Sample))
    tracer = Tracer()
    with Patcher() as patcher:
        for attr in ("method", "make", "helper"):
            patcher.method(Sample, attr, lambda fn, attr=attr: tracer.wrap_span(attr, fn))
        assert vars(Sample)["method"] is not before["method"]
        with tracer.span("root"):
            assert Sample().method() == "method"
            assert isinstance(Sample.make(), Sample)
            assert Sample.helper() == "helper"
    assert sorted(s[0] for s in tracer.spans) == ["helper", "make", "method", "root"]
    after = dict(vars(Sample))
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_patcher_refuses_generator_functions():
    with Patcher() as patcher:
        with pytest.raises(TypeError):
            patcher.method(Sample, "stream", lambda fn: fn)


def test_installing_the_layers_leaves_repro_identical_after_restore():
    import sys

    from perfbench import layers

    def snapshot():
        owners = {}
        for name, module in sys.modules.items():
            if module is not None and name.startswith("repro"):
                owners[name] = dict(vars(module))
                for attr, value in vars(module).items():
                    if isinstance(value, type) and value.__module__.startswith("repro"):
                        owners[f"{name}.{attr}"] = dict(vars(value))
        return owners

    before = snapshot()
    with Patcher() as patcher:
        layers.install(patcher, Tracer())
        from repro.core.service import SigmundService
        from repro.serving import frontend

        assert vars(SigmundService)["run_day"] is not before["repro.core.service.SigmundService"]["run_day"]
        assert frontend.blend_context_lookups is not before["repro.serving.frontend"]["blend_context_lookups"]
    after = snapshot()
    assert after.keys() == before.keys()
    for owner, attrs in before.items():
        assert after[owner].keys() == attrs.keys(), owner
        for attr, value in attrs.items():
            assert after[owner][attr] is value, f"{owner}.{attr}"
