"""Tracer unit tests on a synthetic three-layer toy.

Run by explicit path (tier-1's ``testpaths`` does not include it)::

    PYTHONPATH=src python -m pytest benchmarks/layered/tests -q
"""

import importlib.util
import pathlib
import sys
import types

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

import tracer as layer_tracer  # noqa: E402

TOY = {
    "alpha": """
import beta, gamma

def outer():
    spin()
    return beta.middle()

def spin():
    return sum(range(20000))

def drive_generator():
    return gamma.consume(beta.numbers(5))

def survive():
    try:
        beta.passes_through()
    except KeyError:
        pass
    return spin()
""",
    "beta": """
import gamma

def middle():
    total = sum(range(20000))
    return total + gamma.leaf()

def numbers(count):
    for index in range(count):
        yield sum(range(2000)) + index

def passes_through():
    gamma.raiser()
""",
    "gamma": """
def leaf():
    return sum(range(20000))

def consume(generator):
    return [value for value in generator]

def raiser():
    raise KeyError("unwinds gamma and beta")
""",
}


@pytest.fixture(scope="module")
def toy(tmp_path_factory):
    """The three toy modules, one file (= one layer) each."""
    directory = tmp_path_factory.mktemp("toy")
    for name, source in TOY.items():
        (directory / f"{name}.py").write_text(source)
    sys.path.insert(0, str(directory))
    try:
        modules = {}
        for name in ("gamma", "beta", "alpha"):
            spec = importlib.util.spec_from_file_location(
                name, directory / f"{name}.py")
            modules[name] = importlib.util.module_from_spec(spec)
            sys.modules[name] = modules[name]
            spec.loader.exec_module(modules[name])
        yield types.SimpleNamespace(**modules)
    finally:
        sys.path.remove(str(directory))
        for name in TOY:
            sys.modules.pop(name, None)


def classify(code):
    stem = pathlib.Path(code.co_filename).stem
    return stem if stem in TOY else None


def trace(function):
    tracer = layer_tracer.LayerTracer(classify)
    result = tracer.run(function)
    return tracer, result


def entries(tracer):
    return {name: tally["entries"]
            for name, tally in tracer.layer_table().items()}


def named_spans(tracer):
    return [(tracer.names[layer], start, end, parent)
            for layer, start, end, parent in tracer.spans]


def test_nested_calls_open_one_span_per_layer_change(toy):
    tracer, result = trace(toy.alpha.outer)
    assert result == 2 * sum(range(20000))
    spans = named_spans(tracer)
    # spin() stays inside alpha: no span of its own.
    assert [name for name, *_ in spans] == ["alpha", "beta", "gamma"]
    assert [parent for *_, parent in spans] == [-1, 0, 1]
    for (_, start, end, _), (_, inner_start, inner_end, _) in zip(
            spans, spans[1:]):
        assert start <= inner_start <= inner_end <= end
    assert entries(tracer) == {
        "harness": 0, "alpha": 1, "beta": 1, "gamma": 1}
    for layer in ("alpha", "beta", "gamma"):
        assert tracer.self_ns[tracer.names.index(layer)] > 0


def test_generator_resumed_from_another_layer_is_charged_to_its_owner(toy):
    tracer, result = trace(toy.alpha.drive_generator)
    assert len(result) == 5
    spans = named_spans(tracer)
    gamma_span = next(index for index, (name, *_) in enumerate(spans)
                      if name == "gamma")
    resumes = [span for span in spans if span[0] == "beta"]
    # Five values plus the final resume that raises StopIteration, each
    # a beta span opened from inside gamma's span.
    assert len(resumes) == 6
    assert {parent for *_, parent in resumes} == {gamma_span}
    assert entries(tracer)["beta"] == 6


def test_exception_unwinding_two_layers_closes_their_spans(toy):
    tracer, _ = trace(toy.alpha.survive)
    spans = named_spans(tracer)
    assert [name for name, *_ in spans] == ["alpha", "beta", "gamma"]
    assert all(end >= start > 0 for _, start, end, _ in spans)
    # The spin() after the handler runs with alpha innermost again:
    # alpha's own time ends after beta's span does.
    alpha, beta = spans[0], spans[1]
    assert alpha[2] > beta[2]


def test_self_times_partition_the_root_span(toy):
    tracer, _ = trace(lambda: (toy.alpha.outer(),
                               toy.alpha.drive_generator(),
                               toy.alpha.survive()))
    assert sum(tracer.self_ns) == tracer.total_ns
    # The same numbers from the spans: duration minus child spans.
    spans = tracer.spans
    children = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent] += end - start
    from_spans = [0] * len(tracer.names)
    for index, (layer, start, end, _) in enumerate(spans):
        from_spans[layer] += end - start - children[index]
    assert from_spans[1:] == pytest.approx(tracer.self_ns[1:], rel=0.01)
    top_level = sum(end - start for _, start, end, parent in spans
                    if parent < 0)
    assert top_level + tracer.self_ns[0] == pytest.approx(
        tracer.total_ns, rel=0.01)


def test_span_cap_keeps_the_accounting(toy):
    tracer = layer_tracer.LayerTracer(classify, max_spans=2)
    tracer.run(toy.alpha.drive_generator)
    assert len(tracer.spans) == 2
    assert tracer.spans_dropped == 6
    assert entries(tracer)["beta"] == 6
    assert sum(tracer.self_ns) == tracer.total_ns


def test_attribute_removes_the_hook_cost_down_to_the_untraced_time():
    layers = {
        "harness": {"self_ns": 1_000, "entries": 0, "events": 0,
                    "switches": 0},
        "busy": {"self_ns": 9_000_000, "entries": 10, "events": 20_000,
                 "switches": 10},
        "chatty": {"self_ns": 3_000_000, "entries": 4_000,
                   "events": 12_000, "switches": 8_000},
    }
    self_s, hook = layer_tracer.attribute(
        layers, layer_tracer.HookCost(100.0, 200.0), untraced_ns=6_000_000)
    assert sum(self_s.values()) * 1e9 == pytest.approx(6_000_000, rel=1e-6)
    assert hook.ns_per_span == pytest.approx(2 * hook.ns_per_event)
    assert self_s["harness"] * 1e9 == pytest.approx(1_000)
    assert self_s["busy"] > self_s["chatty"]


def test_calibrate_measures_a_positive_cost():
    cost = layer_tracer.calibrate(count=5_000, rounds=2)
    assert cost.ns_per_event > 0


def test_repro_classifier_maps_paths_to_layers(tmp_path):
    package = tmp_path / "repro"
    classify_path = layer_tracer.repro_classifier(str(package))

    def layer(relative):
        return classify_path(types.SimpleNamespace(
            co_filename=str(package / relative)))

    assert layer("sim/environment.py") == "sim"
    assert layer("engine/operators/hashjoin.py") == "engine"
    assert layer("engine/operators/exchange.py") == "engine.exchange"
    assert layer("engine/distribution.py") == "engine.exchange"
    assert layer("recovery/log.py") == "recovery"
    assert layer("workloads/proteins.py") == layer_tracer.ROOT
    assert layer("config.py") == layer_tracer.ROOT
    assert classify_path(types.SimpleNamespace(
        co_filename="/usr/lib/python3/heapq.py")) is None
    assert set(layer_tracer.LAYERS) >= {
        layer(f"{name}/x.py") for name in ("net", "grid", "data", "core",
                                           "policy", "services", "dqp",
                                           "planner", "sched", "telemetry",
                                           "chaos")}
