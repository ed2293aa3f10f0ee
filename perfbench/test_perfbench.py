"""Self-tests of the benchmark itself (not of simpchrom).

    python3 -m pytest -q perfbench/test_perfbench.py

Run from the repository root.  Takes about half a minute: the counter and
trace tests run one round of every workload three times.
"""

from __future__ import annotations

import json
import os
import re
import sys
from argparse import Namespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

NAMES = tuple(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_inputs_repeat_for_a_seed(name):
    make = workloads.WORKLOADS[name]
    assert make(7).inputs == make(7).inputs
    assert make(7).inputs != make(8).inputs


def test_sweep_pass_has_the_sweep_instances():
    from simpchrom.sweep import run_sweep
    inputs = workloads.sweep_inputs(42)
    ours = [(len(labels), len(nonfaces))
            for suite in ("oracle", "graph", "hilbert", "theorem", "roundtrip")
            for labels, nonfaces in inputs[suite]]
    theirs = [(row["n"] - (row["check_name"] == "main_theorem_apex_lift"), row["r"])
              for row in run_sweep(42)]
    assert ours == theirs


@pytest.fixture(scope="module")
def one_round_each():
    """Per workload: (untraced, traced, traced again) results of round 0."""
    out = {}
    for name in NAMES:
        plan = workloads.WORKLOADS[name](3)
        passes = [run.run_rounds(plan, Tracer(False), rounds=1)]
        tracers = []
        for _ in range(2):
            tracers.append(Tracer(True))
            passes.append(run.run_rounds(plan, tracers[-1], rounds=1))
        out[name] = passes, tracers
    return out


@pytest.mark.parametrize("name", NAMES)
def test_counters_repeat_exactly(name, one_round_each):
    (_, _, _), (first, second) = one_round_each[name]
    assert dict(first.counters) == dict(second.counters)
    assert dict(first.calls) == dict(second.calls)
    assert not first.errors


@pytest.mark.parametrize("name", NAMES)
def test_tracing_does_not_change_results(name, one_round_each):
    passes, _ = one_round_each[name]
    plain, traced, _ = passes
    assert not plain.failures and not traced.failures
    assert plain.digests == traced.digests
    assert all(d is not None for d in plain.digests)


def test_corrupted_cross_check_counts_as_failed(monkeypatch):
    real_setup = run.fresh_setup

    def corrupted(name, seed):
        seconds, fresh, plan = real_setup(name, seed)
        monkeypatch.setattr(fresh.ref, "evaluate", lambda coeffs, x: -1)
        return seconds, fresh, plan

    monkeypatch.setattr(run, "fresh_setup", corrupted)
    lines = []
    result = run.untraced(Namespace(workload="sweep_mix", seed=1, seconds=0.01),
                          lines.append)
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert not result["correct"]
    assert any(line.startswith("FAILED") for line in lines)


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert spec["paths"] == [os.path.basename(HERE)]
    assert [w["name"] for w in spec["workloads"]] == list(NAMES)
    plan = workloads.WORKLOADS["sweep_mix"](1)
    tracer = Tracer(True)
    layers = run.layer_metrics(workloads, tracer)
    layer_names = set(layers) | {"trace.untraced_ops_per_s", "trace.traced_ops_per_s",
                                 "trace.overhead_pct"}
    assert {m["name"] for m in spec["per_layer"]} == layer_names
    for m in spec["per_layer"]:
        if m["name"] in layers:
            assert layers[m["name"]]["unit"] == m["unit"]
    assert plan.unit
    e2e = run.untraced(Namespace(workload="sweep_mix", seed=1, seconds=0.01),
                       lambda line: None)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == {k: v["unit"] for k, v in e2e["metrics"].items()}
    assert e2e["correct"] and e2e["failed"] == 0


@pytest.mark.parametrize("corrupt, caught", [
    (lambda inv: tuple(1 for _ in inv), "GF(2)"),  # torsion lost
    (lambda inv: inv[:-1], "GF(2147483647)"),       # rank one short
])
def test_wrong_smith_normal_form_is_caught(monkeypatch, corrupt, caught):
    series = {105: workloads.ref.cyclotomic_coefficients(105)}
    j = series[105].index(-2)
    real = workloads.smith_normal_form
    monkeypatch.setattr(workloads, "smith_normal_form",
                        lambda B: corrupt(real(B)) if B.nrows > 1 else real(B))
    op = workloads.op_residue((3, 5, 7), "one", j, series, workloads.Counter())
    with pytest.raises(workloads.CheckFailed, match=re.escape(caught)):
        op(Tracer(False))
