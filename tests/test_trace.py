"""The benchmark's traced run: same stdout as a plain run, and every check
attributed to its own span."""

import collections
import json
import os
import subprocess
import sys
from pathlib import Path

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
