"""Self-tests of the benchmark code: span arithmetic, wrapping, and the gate."""

import json
import os
import subprocess
import sys

import pytest

import gate
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _span(i, parent, name, layer, start, end, **attrs):
    return [i, parent, name, layer, start, end, attrs]


# cli.main [0, 10] calls hardy.x [1, 4], which calls spectral_core.forward_transform
# [2, 3]; cli.main then calls spectral_core.weighted_lq_norm [5, 9], which calls
# spectral_core.power_weighted_lq_norm [6, 8].
NESTED = [
    _span(0, None, "cli.main", "cli", 0.0, 10.0),
    _span(1, 0, "hardy.x", "hardy", 1.0, 4.0),
    _span(2, 1, "spectral_core.forward_transform", "spectral_core", 2.0, 3.0),
    _span(3, 0, "spectral_core.weighted_lq_norm", "spectral_core", 5.0, 9.0),
    _span(4, 3, "spectral_core.power_weighted_lq_norm", "spectral_core", 6.0, 8.0),
]


def test_self_time_subtracts_direct_children():
    assert spans.self_times(NESTED) == [3.0, 2.0, 1.0, 2.0, 2.0]
    metrics = spans.layer_metrics(NESTED)
    assert metrics["cli.self_s"] == 3.0
    assert metrics["hardy.self_s"] == 2.0
    assert metrics["spectral_core.self_s"] == 5.0
    assert metrics["spectral_core.calls"] == 3
    # layer self times partition the root span
    assert sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS) == 10.0


def test_category_time_counts_nested_spans_once():
    calls, seconds = spans.covered(NESTED, ["spectral_core." + n for n in spans.QUADRATURES])
    assert (calls, seconds) == (2, 4.0)
    assert spans.layer_metrics(NESTED)["spectral_core.transform_s"] == 1.0


def test_wrapped_function_returns_the_same_object_and_closes_spans():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    payload = {"x": [1.0, 2.0]}
    traced = tracer.wrap(lambda a, b=0: payload if a else 1 / b, "m.f", "m")
    assert traced(1, b=2) is payload
    with pytest.raises(ZeroDivisionError):
        traced(0)
    assert [(s[2], s[4], s[5]) for s in tracer.spans] == [("m.f", 0.0, 1.0), ("m.f", 2.0, 3.0)]
    assert tracer._stack == []


def _child(*args):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), *args],
        capture_output=True, cwd=ROOT, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
    )


def test_traced_run_prints_the_same_bytes(tmp_path):
    argv = ["hardy-check", "--identity", "refined", "--d", "2", "--n", "32",
            "--q", "3", "--s", "0.5", "--corpus-size", "3", "--seed", "4"]
    plain = _child(*argv)
    traced = _child("--trace", str(tmp_path / "spans.jsonl"), *argv)
    assert plain.returncode == traced.returncode == 0
    assert plain.stdout and traced.stdout == plain.stdout
    metrics = spans.layer_metrics(spans.read_spans(tmp_path / "spans.jsonl"))
    assert metrics["cli.calls"] == 1
    assert metrics["littlewood_paley.decompose_calls"] > 0
    assert metrics["spectral_core.fft_calls"] > 0
    assert metrics["corpus.fields"] == 3
    assert 0 < metrics["spectral_core.fft_distinct_ratio"] <= 1


@pytest.fixture(scope="module")
def verify_text():
    with open(os.path.join(HERE, "reference", "verify-d3.json")) as fh:
        return fh.read()


def _verify_problems(text, reference):
    import run

    doc, problems = gate.parse_stdout(text.encode(), 0)
    if doc is None:
        return problems
    workload = run.WORKLOADS["verify-d3"]
    return problems + workload.check(doc) + workload.compare(doc, reference)


def test_gate_accepts_the_reference(verify_text):
    reference = json.loads(verify_text)
    assert _verify_problems(verify_text, reference) == []


@pytest.mark.parametrize(
    "doctor",
    [
        lambda t: t.replace('"quotient": 1.3128750270760072', '"quotient": NaN', 1),
        lambda t: t.replace('"lhs": 16.448667231619176', '"lhs": Infinity', 1),
        lambda t: t.replace('"passed": true', '"passed": false', 1),
        lambda t: json.dumps(json.loads(t)[1:]),
        lambda t: t.replace("16.448667231619176", "17.5", 1),
        lambda t: t[: len(t) // 2],
    ],
    ids=["nan", "infinity", "flipped-passed", "missing-report", "value-off", "truncated"],
)
def test_gate_rejects_a_doctored_report(verify_text, doctor):
    doctored = doctor(verify_text)
    assert doctored != verify_text
    assert _verify_problems(doctored, json.loads(verify_text))


def test_gate_rejects_a_nonzero_exit():
    assert gate.parse_stdout(b"[]", 1)[1]


def test_estimate_gate():
    good = {"best": 1.3, "trend": [{"n": 64, "best": 1.3}, {"n": 128, "best": 1.4}]}
    assert gate.check_estimate(good, 64) == []
    assert gate.check_estimate(dict(good, best=2.1), 64)
    assert gate.check_estimate(dict(good, trend=good["trend"][:1]), 64)
    assert gate.check_estimate(dict(good, best=1.2), 64)


def test_compare_uses_the_tolerance_class():
    assert gate.compare({"a": 1.0 + 5e-11}, {"a": 1.0}, gate.SPECTRAL_TOL) == []
    assert gate.compare({"a": 1.0 + 5e-10}, {"a": 1.0}, gate.SPECTRAL_TOL)
    assert gate.compare({"a": 3}, {"a": 3.0}, 0.0) == []
    assert gate.compare({"a": "x"}, {"a": "y"}, 1.0)
    assert gate.compare({"a": None}, {"a": False}, 1.0)
