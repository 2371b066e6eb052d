"""hardylp benchmark: fixed CLI workloads, each run in a fresh interpreter.

    python3 perfbench/run.py --workload verify-d3 --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout; the program is imported from its src/.
Every timed run is a new process (perfbench/child.py) that imports
`hardylp.cli` and calls `main(argv)`, so per-process caches such as the
singular-weight table start cold, as they do for a CLI user.  Runs go one
at a time; numpy's BLAS keeps its default thread count.

--trace 0 reports the end-to-end metrics: `wall_s` (the `main` call),
`setup_s` (importing hardylp.cli, numpy included) and `peak_rss_mb` (the
child's peak resident memory, from os.wait4), each the median over the
runs.  --trace 1 alternates untraced and traced runs and reports the
per-layer metrics of spans.py, medians over the traced runs, plus
`trace.overhead_s`.  Every run passes through gate.py; a run that fails it
counts in `failed`, and `failed / attempted` is the error rate.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the lines before it give each metric's quartiles
and sample count.  Provenance and every sample go to
.bench_out/result-<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from importlib import metadata
from typing import Callable

import gate
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
CHILD = os.path.join(HERE, "child.py")

REFERENCE_SEED = 1  # reference/<workload>.json is the stdout at this seed
SETUP_SAMPLES = 7  # import-only children per invocation, besides the runs
CHILD_TIMEOUT_S = 75
THREAD_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

VERIFY_IDENTITIES = Counter(
    {
        "schur-row-sum": 1,
        "schur-conditions": 1,
        "schur-bound": 1,
        "radial-reduction": 1,
        "classical": 6,
        "fractional": 6,
        "besov": 6,
        "refined": 6,
        "stein-weiss-specialization": 6,
        "inner-ball-bound": 6,
        "chain": 6,
        "holder-refinement": 6,
    }
)


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    check: Callable  # parsed stdout -> problems
    compare: Callable  # (parsed stdout, reference) -> problems


# Why each workload was chosen is recorded in BENCHMARK.json; the layers
# each one exercises and bypasses are tabulated in README.md.
WORKLOADS = {
    "verify-d3": Workload(
        ("verify", "--suite", "all", "--d", "3", "--n", "64", "--q", "3",
         "--s", "0.5", "--corpus-size", "6"),
        lambda doc: gate.check_reports(doc, VERIFY_IDENTITIES, 40),
        gate.compare_reports,
    ),
    "estimate-d3": Workload(
        ("estimate-constant", "--identity", "fractional", "--d", "3", "--s", "1",
         "--q", "2", "--n", "64", "--budget", "100"),
        lambda doc: gate.check_estimate(doc, 64),
        gate.compare_estimate,
    ),
    "gradient-d4": Workload(
        ("hardy-check", "--identity", "gradient", "--d", "4", "--n", "32",
         "--q", "3", "--corpus-size", "8"),
        lambda doc: gate.check_reports(doc, Counter(gradient=8), 8),
        gate.compare_reports,
    ),
}

def unit_of(metric: str) -> str:
    if metric == "peak_rss_mb":
        return "MB"
    if metric.endswith(("_s", "s_per_eval")):
        return "s"
    if metric.endswith("bytes"):
        return "B"
    if metric.endswith("ratio"):
        return "ratio"
    return "count"


# -- child processes -----------------------------------------------------------


def run_child(args: list[str], tag: str) -> dict:
    """Run child.py in a fresh interpreter; return its timings, exit status,
    stdout and peak RSS.  wait4 gives this child's own rusage, where
    RUSAGE_CHILDREN would keep the maximum over every earlier child."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out_path = os.path.join(OUT_DIR, f"{tag}.stdout")
    err_path = os.path.join(OUT_DIR, f"{tag}.stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, CHILD, *args],
            stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env, cwd=ROOT,
        )
    timed_out = False
    reaped = False
    try:
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                timed_out = True
                _, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.01)
        reaped = True
    finally:
        if not reaped:
            proc.kill()
            os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)

    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr_lines = fh.read().decode("utf-8", "replace").splitlines()
    record = {}
    if stderr_lines and stderr_lines[-1].startswith("PERFBENCH "):
        record = json.loads(stderr_lines.pop()[len("PERFBENCH "):])
    return {
        "status": proc.returncode,
        "timed_out": timed_out,
        "rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "setup_s": record.get("setup_s"),
        "wall_s": record.get("wall_s"),
        "exit": record.get("exit"),
        "stdout": stdout,
        "stderr_tail": stderr_lines[-3:],
    }


def gate_run(name: str, run: dict, seed: int) -> list[str]:
    problems = []
    if run["timed_out"]:
        problems.append(f"timed out after {CHILD_TIMEOUT_S} s")
    if run["wall_s"] is None:
        problems.append(f"child exited {run['status']} without timings: {run['stderr_tail']}")
        return problems
    workload = WORKLOADS[name]
    doc, parse_problems = gate.parse_stdout(run["stdout"], run["exit"])
    problems += parse_problems
    if doc is not None:
        shape = workload.check(doc)
        problems += shape
        if not shape and seed == REFERENCE_SEED:
            problems += workload.compare(doc, load_reference(name))
    return problems


def load_reference(name: str):
    with open(os.path.join(HERE, "reference", f"{name}.json")) as fh:
        return gate.strict_loads(fh.read())


# -- one workload --------------------------------------------------------------


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Runs of one workload until `seconds` would be exceeded (at least one),
    each gated; returns the metric summaries and the run log."""
    argv = [*WORKLOADS[name].argv, "--seed", str(seed)]
    spans_path = os.path.join(OUT_DIR, f"{name}.spans.jsonl")

    # uncounted: compiles the bytecode cache and warms the file cache
    run_child([], "warmup")
    setup = [run_child([], "setup")["setup_s"] for _ in range(SETUP_SAMPLES)]

    untraced, traced = [], []
    start = time.monotonic()
    rounds = 0
    while True:
        run = run_child(argv, name)
        run["problems"] = gate_run(name, run, seed)
        untraced.append(run)
        if trace:
            tr = run_child(["--trace", spans_path, *argv], f"{name}.traced")
            tr["problems"] = gate_run(name, tr, seed)
            if tr["stdout"] != run["stdout"]:
                tr["problems"].append("traced stdout differs from the untraced run's")
            if tr["wall_s"] is not None:  # the spans were written
                tr["layers"] = spans.layer_metrics(spans.read_spans(spans_path))
            traced.append(tr)
        rounds += 1
        elapsed = time.monotonic() - start
        if elapsed + elapsed / rounds > seconds:
            break

    runs = untraced + traced
    log = [{k: run[k] for k in ("status", "exit", "setup_s", "wall_s", "cpu_s", "rss_mb", "problems")}
           for run in runs]
    good = [r for r in untraced if r["wall_s"] is not None]
    if not good:
        raise RuntimeError(f"{name}: no run produced timings: {runs[0]['stderr_tail']}")
    metrics = {}
    if trace:
        layered = [r["layers"] for r in traced if "layers" in r]
        if not layered:
            raise RuntimeError(f"{name}: no traced run produced spans: {traced[0]['problems']}")
        for key in layered[0]:
            metrics[key] = summary([m[key] for m in layered])
        overhead = [r["wall_s"] - statistics.median(w["wall_s"] for w in good)
                    for r in traced if "layers" in r]
        metrics["trace.overhead_s"] = summary(overhead)
        notes = spans.notes({k: v["median"] for k, v in metrics.items()})
    else:
        metrics["wall_s"] = summary([r["wall_s"] for r in good])
        metrics["setup_s"] = summary(setup + [r["setup_s"] for r in good])
        metrics["peak_rss_mb"] = summary([r["rss_mb"] for r in good])
        notes = {}
    failed = sum(1 for r in runs if r["problems"])
    return {
        "workload": name,
        "argv": argv,
        "attempted": len(runs),
        "failed": failed,
        "error_rate": failed / len(runs),
        "metrics": metrics,
        "notes": notes,
        "runs": log,
    }


# -- provenance and output -----------------------------------------------------


def provenance(seed: int, seconds: float, trace: bool) -> dict:
    try:
        rev = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        git_revision = rev.stdout.strip() if rev.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        git_revision = None
    digest = hashlib.sha1()
    pkg = os.path.join(SRC, "hardylp")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                digest.update(fname.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "git_revision": git_revision,
        "src_sha1": digest.hexdigest(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "workloads": {k: list(w.argv) for k, w in WORKLOADS.items()},
        "platform": platform.platform(),
    }


def print_result(res: dict) -> None:
    print(f"{res['workload']}: {' '.join(res['argv'])}")
    print(f"  error_rate {res['error_rate']:.4g} ({res['failed']}/{res['attempted']} runs failed the gate)")
    for key, m in res["metrics"].items():
        print(f"  {key:44s} {m['median']:.6g} {unit_of(key)}  (q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']})")
    for key, note in res["notes"].items():
        print(f"  note: {key}: {note}")
    for i, run in enumerate(res["runs"]):
        for problem in run["problems"]:
            print(f"  run {i} failed: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hardylp", "cli.py")):
        print(f"no hardylp source under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    prov = provenance(args.seed, args.seconds, bool(args.trace))
    print(f"provenance: python {prov['python']}, numpy {prov['numpy']}, nproc {prov['nproc']}, "
          f"git {prov['git_revision']}, src sha1 {prov['src_sha1'][:12]}, seed {args.seed}")
    results = []
    for name in names:
        try:
            res = measure(name, args.seed, args.seconds, bool(args.trace))
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        res["provenance"] = prov
        path = os.path.join(OUT_DIR, f"result-{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w") as fh:
            json.dump(res, fh, indent=2, sort_keys=True)
        print_result(res)
        print(f"  provenance and samples: {os.path.relpath(path, ROOT)}")
        results.append(res)

    metrics = {}
    for res in results:
        prefix = "" if len(results) == 1 else f"{res['workload']}."
        for key, m in res["metrics"].items():
            metrics[prefix + key] = {"value": m["median"], "unit": unit_of(key)}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
