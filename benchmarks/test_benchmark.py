"""Tests of the benchmark itself (run with ``python -m pytest benchmarks``)."""

import json

import numpy as np
import pytest

import run
import tracing
import workloads

BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"


def test_self_times_on_a_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3]
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    assert np.allclose(tracing.self_times(start, end, parent), [3.0, 2.0, 1.0, 4.0])


def test_tracer_records_nested_spans_and_restores_targets():
    class Owner:
        @staticmethod
        def outer(x):
            return Owner.inner(x) + 1

        @staticmethod
        def inner(x):
            return 2 * x

    before = dict(vars(Owner))
    tracer = tracing.Tracer()
    with tracer.patched([(Owner, "outer", "outer", None),
                         (Owner, "inner", "inner", lambda a, kw: a[0])]):
        assert Owner.outer(3) == 7
    assert dict(vars(Owner)) == before
    summary = tracer.summary()
    assert summary["outer"]["calls"] == summary["inner"]["calls"] == 1
    assert tracer.counts["inner"] == 3
    assert tracer.children_of("outer", "inner") == 1
    assert summary["outer"]["self_s"] == pytest.approx(
        summary["outer"]["total_s"] - summary["inner"]["total_s"])


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def traced_pair(request):
    """One untraced and one traced run of a workload, and the privfp attributes before."""
    workload = workloads.WORKLOADS[request.param]
    state = workload.setup(0)
    targets = tracing.privfp_targets()
    originals = [vars(owner)[attr] for owner, attr, _, _ in targets]
    plain = workload.run(state)
    tracer = tracing.Tracer()
    with tracer.patched(targets):
        traced = workload.run(state, tracer)
    return workload, state, targets, originals, plain, traced, tracer


def test_traced_run_restores_every_wrapped_attribute(traced_pair):
    _, _, targets, originals, _, _, tracer = traced_pair
    assert tracer.names  # the run did go through wrapped functions
    for (owner, attr, _, _), original in zip(targets, originals):
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} not restored"


def test_tracing_changes_no_iterate(traced_pair):
    workload, state, _, _, plain, traced, _ = traced_pair
    assert run.same_bits(plain.outputs, traced.outputs)
    assert workload.failures(state, plain) == []


def test_same_seed_same_inputs_and_other_seed_other_inputs():
    for workload in workloads.WORKLOADS.values():
        a, b, c = workload.setup(3), workload.setup(3), workload.setup(4)
        assert np.array_equal(a["train"].A, b["train"].A)
        assert np.array_equal(a["train"].b, b["train"].b)
        assert not np.array_equal(a["train"].A, c["train"].A)
    engine = workloads.WORKLOADS["engine"]
    assert np.array_equal(engine.setup(3)["targets"], engine.setup(3)["targets"])
    assert not np.array_equal(engine.setup(3)["targets"], engine.setup(4)["targets"])


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_are_declared(trace, capsys):
    declared = json.loads(BENCHMARK_JSON.read_text())
    section = "per_layer" if trace else "end_to_end"
    names = {m["name"]: m["unit"] for m in declared[section]}
    assert run.main(["--workload", "engine", "--seed", "0", "--seconds", "0.5",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names


def test_declared_workloads_exist():
    declared = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
