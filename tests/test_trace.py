"""The benchmark's traced run: same stdout as a plain run, and every check
attributed to its own span."""

import collections
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

from hardylp.spectral_core import GRADIENT_SLABS

ROOT = Path(__file__).parents[1]
ARGV = (
    "verify", "--suite", "all", "--d", "3", "--n", "32", "--q", "3", "--s", "0.5",
    "--corpus-size", "2",
)


def _child(*args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), *args],
        capture_output=True, text=True, env=env, check=True,
    ).stdout


def test_traced_verify_prints_the_same_and_spans_every_check(tmp_path):
    spans_path = tmp_path / "spans.jsonl"
    assert _child("--trace", str(spans_path), *ARGV) == _child(*ARGV)
    spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
    counts = collections.Counter(span[2] for span in spans)
    # per corpus field: the fractional quotient of f, of 3.5 f and of f - mean;
    # the inner-ball bound runs on the coarse corpus of 2 fields
    twice = (
        "hardy.besov_hardy_quotient", "hardy.refined_hardy_quotient",
        "hardy.classical_hardy_quotient", "hardy.shell_chain_check",
        "hardy.holder_refinement_check", "littlewood_paley.level_sums",
        "stein_weiss.stein_weiss_check", "stein_weiss.inner_ball_bound_check",
    )
    assert {name: counts[name] for name in ("hardy.fractional_hardy_quotient", *twice)} == {
        "hardy.fractional_hardy_quotient": 6, **dict.fromkeys(twice, 2)
    }


def _spans_module():
    """perfbench/spans.py, which derives the benchmark's metrics from spans."""
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_name_a_metric_reads_is_wrapped():
    # a metric built from a name that Tracer.install does not wrap reads 0 on
    # working code: install wraps the functions a hardylp module defines and
    # names in its __all__, and spectral_core._build_weight
    spans = _spans_module()
    wrapped = set()
    for layer in spans.LAYERS:
        mod = importlib.import_module(f"hardylp.{layer}")
        extra = ("_build_weight",) if layer == "spectral_core" else ()
        for name in (*getattr(mod, "__all__", ()), *extra):
            fn = getattr(mod, name)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                wrapped.add(f"{layer}.{name}")
    read = {
        *(f"spectral_core.{n}"
          for n in spans.TRANSFORMS + spans.MULTIPLIERS + spans.QUADRATURES),
        *(f"stein_weiss.{n}" for n in spans.INNER_BALL),
        "littlewood_paley.decompose", "littlewood_paley.build_partition",
        "hardy.shell_chain_check", "hardy.holder_refinement_check",
        "extremal.estimate_constant", "extremal.evaluate_trial",
    }
    assert read - wrapped == set()
    # standard_corpus is gone from hardylp; its dead key is ROADMAP direction 1
    annotated = set(spans._ANNOTATORS) - {"standard_corpus"}
    assert annotated - {name.partition(".")[2] for name in wrapped} == set()


def test_traced_gradient_prints_the_same_and_its_time_is_a_multiplier(tmp_path):
    # two Gaussians, even fields whose gradient norm comes from their octant,
    # and one band field, which takes gradient_magnitude on the full grid
    argv = ("hardy-check", "--identity", "gradient", "--d", "4", "--n", "16",
            "--corpus-size", "3")
    spans_path = tmp_path / "spans.jsonl"
    assert _child("--trace", str(spans_path), *argv) == _child(*argv)
    spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
    quotients = [s for s in spans if s[2] == "hardy.gradient_hardy_quotient"]
    magnitudes = [s for s in spans if s[2] == "spectral_core.gradient_magnitude"]
    assert len(quotients) == 3 and len(magnitudes) == 1  # the band field's

    def inside(span, ancestor):
        while span[1] is not None:
            span = spans[span[1]]
            if span is ancestor:
                return True
        return False

    assert inside(magnitudes[0], quotients[2])
    # the products with the derivative matrix, folded or not, are no
    # numpy.fft call: the only transforms in a gradient are the rfft/irfft
    # slabs that make the matrix, in the first field's, and the band field's
    # synthesis takes the others: an ifft along each leading axis, one irfft
    fft = [s for s in spans if s[3] == "numpy.fft"]
    first = collections.Counter(s[2] for s in fft if inside(s, quotients[0]))
    assert first == {"numpy.fft.rfft": GRADIENT_SLABS, "numpy.fft.irfft": GRADIENT_SLABS}
    synthesis = collections.Counter({"numpy.fft.ifft": 3, "numpy.fft.irfft": 1})
    assert collections.Counter(s[2] for s in fft) == first + synthesis
    assert not any(inside(s, q) for s in fft for q in quotients[1:])
    metrics = _spans_module().layer_metrics(spans)
    own = sum(s[5] - s[4] for s in magnitudes)
    assert metrics["spectral_core.multiplier_s"] == own > 0
